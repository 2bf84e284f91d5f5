"""Tests for the consistent-hash sharded serving fleet.

Three layers:

* :class:`LocalFleet` (members as each other's peers) pins the fleet *logic*
  — routing by content address, the one-member fleet as the solo
  daemon, peer cache hits/replication, work-stealing from the fair
  queue with timeout requeue, and metrics aggregation — plus the
  acceptance property that a fleet sweep is byte-identical to a
  serial solo run, and parity with the solo daemon's bulk guarantees
  (fair-share order, journaling, ``max_queue``).
* In-process HTTP fleets (real front ends, joined over
  ``/fleet/join`` with :class:`HttpPeerTransport` peers) pin the wire
  protocol: concurrent RPCs to one peer, and peer routes that refuse
  malformed bodies and cache keys that are not content keys.
* One subprocess test boots two real ``repro serve`` daemons with
  ``--join`` and drives them through :class:`ServiceClient` — the
  exact deployment shape.
"""

import asyncio
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.service import fleet as fleet_module
from repro.service import (
    BulkJournal,
    FleetConfig,
    FleetMember,
    HttpFrontend,
    LocalFleet,
    ServiceClient,
    ServiceConfig,
)
from repro.service.daemon import BulkWaiter
from repro.service.requests import SimRequest
from tests.service.conftest import GatedWorker, make_service, quick_worker

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _short_steal_timeout(monkeypatch):
    """A stolen entry its thief never reports is requeued after 5 s."""
    monkeypatch.setattr(fleet_module, "STEAL_TIMEOUT_S", 5.0)


def _thread_pool(n):
    return ThreadPoolExecutor(max_workers=n)


def _fleet(replicas, **fleet_kwargs):
    fleet_kwargs.setdefault("steal_interval", 0.01)
    return LocalFleet(
        replicas,
        service_config=ServiceConfig(workers=2, bulk_cap=0.5),
        fleet_config=FleetConfig(**fleet_kwargs),
        pool_factory=_thread_pool,
        worker_fn=quick_worker,
    )


def _held_fleet(replicas, worker_fn, **service_kwargs):
    """Replicas with one worker and ``bulk_cap=1.0`` (one serialized
    bulk lane each) running ``worker_fn``, with stealing parked so the
    test alone decides what leaves a queue."""
    return LocalFleet(
        replicas,
        service_config=ServiceConfig(
            workers=1, bulk_cap=1.0, **service_kwargs
        ),
        fleet_config=FleetConfig(steal_interval=60.0),
        pool_factory=_thread_pool,
        worker_fn=worker_fn,
    )


def _seeds_owned_by(member, owner, n, start=0):
    """The first ``n`` table1 seeds from ``start`` whose key ``owner``
    owns on ``member``'s ring."""
    seeds = []
    seed = start
    while len(seeds) < n:
        request = SimRequest(experiment="table1", seed=seed)
        key = request.run_key(member.service.default_scale)
        if member.ring.owner(key) == owner:
            seeds.append(seed)
        seed += 1
    return seeds


def _push_ticket(member, seed, key):
    """Queue a bulk ticket on ``member``'s fair queue by hand, without
    waking its admission loop."""
    request = SimRequest(experiment="table1", seed=seed, priority="bulk")
    waiter = BulkWaiter(request, key, member._loop.create_future())
    member.service.tenancy.queue.push(request.effective_tenant, waiter)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(steal_interval=0)
        with pytest.raises(ConfigurationError):
            LocalFleet(0)


class TestSingleMember:
    def test_passthrough_matches_solo_daemon(self):
        """A one-replica fleet is behaviorally the solo daemon: same
        payload shape, same counters, no fleet machinery in the path."""
        with _fleet(1) as fleet:
            reply = fleet.run("table1", seed=1)
            assert reply.ok
            assert reply.result == "rendered table1 seed=1"
            again = fleet.run("table1", seed=1)
            assert again.cached
            counters = fleet.members[0].counters
            assert counters.forwards == 0
            assert counters.steals == 0
            snap = fleet.metrics()
            assert snap["fleet"]["replica_count"] == 1

    def test_context_manager_roundtrip(self):
        """``LocalFleet(1)`` is the in-process daemon: a compute, then
        a cache hit, with health and metrics read in the same block."""
        with _fleet(1) as fleet:
            first = fleet.run("table1", seed=31)
            again = fleet.run("table1", seed=31)
            assert first.ok and not first.cached
            assert again.cached
            assert fleet.members[0].service.healthz()["status"] == "ok"
            snap = fleet.metrics()
            assert snap["counters"]["computes"] == 1

    def test_run_many_coalesces(self):
        """Identical concurrent requests cost one compute: the rest
        coalesce onto the in-flight run."""
        with _fleet(1) as fleet:
            payloads = [
                {"experiment": "table1", "seed": 41} for _ in range(5)
            ]
            replies = fleet.run_many(payloads)
            assert all(r.ok for r in replies)
            counters = fleet.members[0].counters
            assert counters.computes == 1
            assert counters.coalesced_hits == 4


class TestRouting:
    def test_requests_route_to_ring_owner(self):
        """Whatever replica takes the request, the compute lands on
        the key's ring owner — so a repeat through a *different*
        replica is a cache hit, not a recompute."""
        with _fleet(3) as fleet:
            first = fleet.run("table1", seed=2, via=0)
            assert first.ok and not first.payload["cached"]
            for via in (1, 2):
                again = fleet.run("table1", seed=2, via=via)
                assert again.ok
                assert again.payload["cached"]
            totals = fleet.fleet_metrics()["totals"]
            assert totals["computes"] == 1
            assert totals["cache_hits"] == 2

    def test_forward_counter_counts_routing(self):
        with _fleet(3) as fleet:
            for seed in range(12):
                assert fleet.run("table1", seed=seed).ok
            totals = fleet.fleet_metrics()["totals"]
            # ~2/3 of 12 keys are owned by a non-receiving replica;
            # at least one must have forwarded unless the hash is
            # broken.
            assert totals["forwards"] > 0
            assert totals["computes"] == 12

    def test_bulk_sweep_completes_across_replicas(self):
        with _fleet(3) as fleet:
            payloads = [
                {"experiment": "table1", "seed": s, "priority": "bulk"}
                for s in range(24)
            ]
            replies = fleet.run_many(payloads)
            assert all(r.ok for r in replies)
            assert [r.payload["seed"] for r in replies] == list(
                range(24)
            )
            totals = fleet.fleet_metrics()["totals"]
            assert totals["computes"] == 24


class TestByteIdentity:
    def test_fleet_results_identical_to_serial_solo(self):
        """The acceptance property: a 3-replica concurrent sweep
        returns byte-identical results to the same sweep run serially
        on a single daemon."""
        payloads = [
            {"experiment": "table1", "seed": s, "priority": "bulk"}
            for s in range(16)
        ]
        with _fleet(1) as solo:
            serial = [solo.run_many([p])[0] for p in payloads]
        with _fleet(3) as fleet:
            swept = fleet.run_many(payloads)
        assert [r.payload["result"] for r in swept] == [
            r.payload["result"] for r in serial
        ]
        assert [r.payload["key"] for r in swept] == [
            r.payload["key"] for r in serial
        ]


class TestPeerCache:
    def test_stolen_compute_checks_owner_cache_and_replicates(self):
        """Directly exercise the non-owner compute path: a replica
        computing a key it does not own asks the owner first (miss),
        computes, and replicates the result into the owner's store."""
        with _fleet(2) as fleet:
            m0, m1 = fleet.members
            request = SimRequest(
                experiment="table1", seed=90, priority="bulk"
            )
            key = request.run_key(m0.service.default_scale)
            owner = m0.ring.owner(key)
            other = fleet.members[0 if owner != "r0" else 1]
            owner_member = m0 if owner == "r0" else m1
            response = fleet._await(
                other._run_remote_owned(request, key, owner)
            )
            assert response.ok
            assert other.counters.peer_misses == 1
            assert other.counters.peer_replications == 1
            assert owner_member.service.store.counters.peer_puts == 1
            # Second pass from the other side: the owner's store now
            # answers, no compute.
            response2 = fleet._await(
                other._run_remote_owned(request, key, owner)
            )
            assert response2.ok
            assert response2.payload["cached"]
            assert response2.payload["peer"] == owner
            assert other.counters.peer_hits == 1

    def test_cache_handlers_roundtrip(self):
        absent, key = "0" * 64, "1" * 64
        with _fleet(2) as fleet:
            member = fleet.members[0]
            hit, _ = fleet._await(member.cache_get(absent))
            assert not hit
            fleet._await(member.cache_put(key, "value-1"))
            hit, value = fleet._await(member.cache_get(key))
            assert hit and value == "value-1"
            # peer_put never overwrites (first write wins; values are
            # immutable so this is only defensive).
            fleet._await(member.cache_put(key, "value-2"))
            _, value = fleet._await(member.cache_get(key))
            assert value == "value-1"
            store = member.service.store.counters
            assert store.peer_gets == 3
            assert store.peer_puts == 2


class TestWorkStealing:
    def test_idle_replica_steals_queued_bulk(self):
        """Pile a sweep onto one replica with stealing-friendly keys:
        idle peers pull from its backlog and the granted/stolen
        counters reconcile."""
        with _fleet(3) as fleet:
            # Build a backlog on r0 by submitting keys r0 owns (so no
            # forwarding empties it) — find seeds whose keys r0 owns.
            m0 = fleet.members[0]
            seeds = []
            seed = 0
            while len(seeds) < 12:
                request = SimRequest(
                    experiment="table1", seed=seed, priority="bulk"
                )
                key = request.run_key(m0.service.default_scale)
                if m0.ring.owner(key) == "r0":
                    seeds.append(seed)
                seed += 1
            payloads = [
                {"experiment": "table1", "seed": s, "priority": "bulk"}
                for s in seeds
            ]
            replies = fleet.run_many(payloads, via=0)
            assert all(r.ok for r in replies)
            granted = m0.counters.steals_granted
            stolen = sum(
                m.counters.steals for m in fleet.members[1:]
            )
            assert granted > 0, "no stealing happened"
            assert granted == stolen
            assert m0.counters.steal_requeues == 0

    def test_steal_grant_respects_batch_and_flags(self):
        with _fleet(2, steal_interval=60.0) as fleet:
            member = fleet.members[0]
            queue = member.service.tenancy.queue

            async def grant():
                for seed in range(5):
                    _push_ticket(member, seed, f"key-{seed}")
                # The ticket a grant would take first is a stolen-in
                # entry on this replica.
                member._stolen_in.append("key-4")
                granted = await member.steal("r1", 10)
                seen = (
                    granted,
                    member.counters.steals_granted,
                    len(member._stolen_out),
                    len(queue),
                )
                # Settle the parked tickets and empty the queue so
                # teardown is clean.
                for rec in granted:
                    await member.stolen(
                        rec["entry_id"], 200, {"status": "ok"}
                    )
                member._stolen_in.clear()
                while queue.pop() is not None:
                    pass
                return seen

            granted, steals_granted, stolen_out, depth = fleet._await(
                grant()
            )
            # batch cap (2) binds before max_n (10); the stolen-in
            # entry is skipped, so the grant is the next two the fair
            # queue would dispatch last.
            assert len(granted) == 2
            assert [rec["request"]["seed"] for rec in granted] == [2, 3]
            assert steals_granted == 2
            assert stolen_out == 2
            assert depth == 3

    def test_steal_timeout_requeues_entry(self, monkeypatch):
        """A thief that never reports: the victim's deadline fires,
        the ticket re-enters the fair queue, and the original waiter
        still gets an answer."""
        monkeypatch.setattr(fleet_module, "STEAL_TIMEOUT_S", 0.2)
        gated = GatedWorker()
        with _held_fleet(2, gated) as fleet:
            member = fleet.members[0]
            holder_seed, seed = _seeds_owned_by(member, "r0", 2, 770)

            async def scenario():
                # An interactive dispatch holds the only worker, so
                # the cap keeps the bulk request queued until a fake
                # thief is granted it.
                holder = asyncio.ensure_future(
                    member.submit(SimRequest("table1", seed=holder_seed))
                )
                await asyncio.sleep(0.05)
                waiter = asyncio.ensure_future(
                    member.submit(
                        SimRequest("table1", seed=seed, priority="bulk")
                    )
                )
                await asyncio.sleep(0.05)
                granted = await member.steal("ghost", 1)
                gated.release()
                return granted, await waiter, await holder

            granted, response, held = fleet._await(scenario())
            assert len(granted) == 1
            assert response.ok and held.ok
            assert response.payload["seed"] == seed
            assert member.counters.steals_granted == 1
            assert member.counters.steal_requeues == 1

    def test_refused_steal_requeues_entry(self):
        """A thief that reports 429 (its own queue or tenant share was
        full) did not run the entry: the victim requeues the ticket
        instead of answering its waiter with the thief's 429."""
        gated = GatedWorker()
        with _held_fleet(2, gated) as fleet:
            member = fleet.members[0]
            holder_seed, seed = _seeds_owned_by(member, "r0", 2, 880)

            async def scenario():
                holder = asyncio.ensure_future(
                    member.submit(SimRequest("table1", seed=holder_seed))
                )
                await asyncio.sleep(0.05)
                waiter = asyncio.ensure_future(
                    member.submit(
                        SimRequest("table1", seed=seed, priority="bulk")
                    )
                )
                await asyncio.sleep(0.05)
                (rec,) = await member.steal("r1", 1)
                await member.stolen(
                    rec["entry_id"], 429,
                    {"status": "rejected", "error": "bulk queue full"},
                )
                gated.release()
                return await waiter, await holder

            response, held = fleet._await(scenario())
            assert response.ok and held.ok
            assert response.payload["seed"] == seed
            assert member.counters.steal_requeues == 1

    def test_close_survives_a_swallowed_cancel(self):
        """``finish_close`` returns even when the cancel it sends the
        steal loop is lost inside a peer RPC (``asyncio.wait_for`` on
        Python 3.11 drops a cancel that races its inner call)."""

        class SwallowingPeer:
            def __init__(self):
                self.entered = asyncio.Event()

            async def steal(self, thief, max_n):
                self.entered.set()
                try:
                    await asyncio.sleep(30.0)
                except asyncio.CancelledError:
                    pass  # the cancel is lost, as wait_for can lose it
                return []

        with _fleet(2) as fleet:
            member = fleet.members[0]

            async def close():
                peer = SwallowingPeer()
                member.peers["r1"] = peer
                await asyncio.wait_for(peer.entered.wait(), 5.0)
                member.begin_close()
                closing = asyncio.ensure_future(member.finish_close())
                done, _ = await asyncio.wait({closing}, timeout=5.0)
                return closing in done

            assert fleet._await(close()), "finish_close hung"

    def test_malformed_grant_does_not_stop_stealing(self):
        """A grant that is not a valid request is skipped: the thief
        keeps stealing, counts only the grants it accepted, and closes
        cleanly (the victim's deadline requeues the skipped entry)."""
        with _fleet(2) as fleet:
            member = fleet.members[0]
            (seed,) = _seeds_owned_by(member, "r0", 1, 990)
            valid = {"experiment": "table1", "seed": seed,
                     "priority": "bulk"}

            class MalformedPeer:
                def __init__(self):
                    self.calls = 0
                    self.reported = []

                async def steal(self, thief, max_n):
                    self.calls += 1
                    if self.calls == 1:
                        return [{"entry_id": 1, "request": {
                            "experiment": "table1", "bogus": 1}}]
                    if self.calls == 2:
                        return ["not a grant", {"entry_id": "2"},
                                {"entry_id": 3, "request": valid}]
                    return []

                async def stolen(self, entry_id, status, payload):
                    self.reported.append((entry_id, status))

            async def scenario():
                peer = MalformedPeer()
                member.peers["r1"] = peer
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 3.0
                while (peer.calls < 4 or not peer.reported) and (
                    loop.time() < deadline
                ):
                    await asyncio.sleep(0.01)
                member.begin_close()
                await asyncio.wait_for(member.finish_close(), 5.0)
                return peer.calls, peer.reported, member.counters.steals

            calls, reported, steals = fleet._await(scenario())
            assert calls >= 4
            assert reported == [(3, 200)]
            assert steals == 1

    def test_draining_member_grants_nothing(self):
        with _fleet(2) as fleet:
            member = fleet.members[0]

            async def check():
                _push_ticket(member, 5, "some-key")
                member._closing = True
                granted = await member.steal("r1", 4)
                member._closing = False
                member.service.tenancy.queue.pop()
                return granted

            assert fleet._await(check()) == []


class TestSoloParity:
    """A fleet replica keeps the solo daemon's bulk guarantees: every
    request it owns goes through the same fair queue, journal and
    ``max_queue`` bound."""

    def test_flood_does_not_starve_newcomer(self):
        """The fleet form of the solo starvation test: a light tenant
        submitted after a 10-deep flood is dispatched ahead of the
        flood's backlog, with every request forwarded to its owner."""
        order = []
        lock = threading.Lock()

        def worker(name, scale, store_path, check_invariants):
            with lock:
                order.append(scale.seed)
            time.sleep(0.02)
            return f"rendered {name} seed={scale.seed}"

        with _held_fleet(2, worker) as fleet:
            owner, entry = fleet.members
            flood_seeds = _seeds_owned_by(owner, "r0", 10, 100)
            light_seeds = _seeds_owned_by(owner, "r0", 3, 1000)

            def submit_all(seeds, tenant):
                return [
                    asyncio.ensure_future(
                        entry.submit(
                            SimRequest(
                                "table1", seed=seed, priority="bulk",
                                tenant=tenant,
                            )
                        )
                    )
                    for seed in seeds
                ]

            async def scenario():
                flood = submit_all(flood_seeds, "flood")
                await asyncio.sleep(0.05)
                light = submit_all(light_seeds, "light")
                return await asyncio.gather(*flood, *light)

            responses = fleet._await(scenario())
        assert [r.status for r in responses] == [200] * 13
        assert entry.counters.forwards == 13
        positions = [
            i for i, seed in enumerate(order) if seed in light_seeds
        ]
        # FIFO would put the light tenant at positions 10-12; fair
        # share interleaves it ahead of the flood's backlog.
        assert len(positions) == 3
        assert max(positions) <= 7, order
        tenants = owner.service.metrics.tenants
        assert tenants["flood"].completed == 10
        assert tenants["light"].completed == 3

    def test_bulk_accepts_are_journaled(self, tmp_path):
        """Every bulk request a replica accepts is journaled before it
        waits in the queue, as on a solo daemon."""
        gated = GatedWorker()
        fleet = _held_fleet(2, gated)
        paths = []
        for member in fleet.members:
            path = tmp_path / f"{member.replica_id}.jsonl"
            member.service.journal = BulkJournal(path)
            paths.append(path)

        def journaled():
            return sum(len(BulkJournal.read(p)[0]) for p in paths)

        with fleet:

            async def scenario():
                waiting = [
                    asyncio.ensure_future(
                        fleet.members[0].submit(
                            SimRequest(
                                "table1", seed=300 + i, priority="bulk"
                            )
                        )
                    )
                    for i in range(12)
                ]
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if journaled() == 12:
                        break
                accepts = journaled()
                gated.release()
                return accepts, await asyncio.gather(*waiting)

            accepts, replies = fleet._await(scenario())
        assert accepts == 12
        assert all(r.ok for r in replies)
        for path in paths:
            accepted, settled, _torn = BulkJournal.read(path)
            assert len(settled) == len(accepted)

    def test_max_queue_bounds_replica(self):
        """The daemon's ``max_queue`` bounds a fleet replica: with
        one request in service and two queued, a third owned bulk
        request gets the "bulk queue full" 429, and keeps its
        Retry-After when another replica forwarded it."""
        gated = GatedWorker()
        with _held_fleet(2, gated, max_queue=2) as fleet:
            member = fleet.members[0]
            seeds = _seeds_owned_by(member, "r0", 4, 2000)

            def submit(seed, via=member):
                return asyncio.ensure_future(
                    via.submit(
                        SimRequest("table1", seed=seed, priority="bulk")
                    )
                )

            async def overfill():
                accepted = []
                for seed in seeds[:3]:
                    accepted.append(submit(seed))
                    await asyncio.sleep(0.05)
                fourth = submit(seeds[3], via=fleet.members[1])
                await asyncio.sleep(0.1)
                answered_early = fourth.done()
                gated.release()
                return (
                    answered_early,
                    await fourth,
                    await asyncio.gather(*accepted),
                )

            answered_early, response, accepted = fleet._await(overfill())
            assert answered_early
            assert response.status == 429
            assert response.payload["error"] == "bulk queue full"
            assert response.retry_after == response.payload["retry_after_s"]
            assert response.retry_after >= 1.0
            assert [r.status for r in accepted] == [200] * 3
            assert member.counters.rejections == 1


class TestMetrics:
    def test_snapshot_has_fleet_section(self):
        with _fleet(3) as fleet:
            snap = fleet.metrics(via=1)
            fl = snap["fleet"]
            assert fl["replica_id"] == "r1"
            assert fl["replica_count"] == 3
            assert fl["replicas"] == ["r0", "r1", "r2"]
            assert fl["stolen_outstanding"] == 0
            assert snap["bulk_queue_depth"] == 0

    def test_fleet_metrics_aggregates_all_replicas(self):
        with _fleet(2) as fleet:
            fleet.run("table1", seed=8)
            agg = fleet.fleet_metrics()
            assert agg["replica_count"] == 2
            assert sorted(agg["replicas"]) == ["r0", "r1"]
            assert agg["totals"]["requests"] >= 1
            for name in (
                "forwards",
                "peer_hits",
                "peer_misses",
                "peer_replications",
                "steals",
                "steals_granted",
                "steal_requeues",
            ):
                assert name in agg["totals"]


class TestTenancy:
    def test_stolen_entries_keep_tenant_attribution(self):
        """A stolen bulk entry travels with its tenant id: whichever
        replica computes it charges the *originating* tenant's
        fair-share usage and counters — stealing must not launder a
        flood into the thief's default tenant."""
        with _fleet(3) as fleet:
            m0 = fleet.members[0]
            seeds = []
            seed = 0
            while len(seeds) < 12:
                request = SimRequest(
                    experiment="table1", seed=seed, priority="bulk"
                )
                key = request.run_key(m0.service.default_scale)
                if m0.ring.owner(key) == "r0":
                    seeds.append(seed)
                seed += 1
            payloads = [
                {"experiment": "table1", "seed": s, "priority": "bulk",
                 "tenant": "alice"}
                for s in seeds
            ]
            replies = fleet.run_many(payloads, via=0)
            assert all(r.ok for r in replies)
            assert m0.counters.steals_granted > 0, "no stealing"
            now = time.monotonic()
            thieves_crediting_alice = 0
            for member in fleet.members:
                tenants = member.service.metrics.tenants
                # No replica invented a tenant: every computed entry
                # stayed attributed to the submitter.
                assert set(tenants) <= {"alice"}, sorted(tenants)
                alice = tenants.get("alice")
                if member is not m0 and alice and alice.computes:
                    thieves_crediting_alice += 1
                    usage = member.service.tenancy.tracker.usage(
                        "alice", now
                    )
                    assert usage > 0.0, (
                        f"{member.replica_id} computed alice's stolen "
                        f"work without charging her fair share"
                    )
            assert thieves_crediting_alice > 0, (
                "stolen work never surfaced in a thief's tenant "
                "accounting"
            )
            total_computes = sum(
                m.service.metrics.tenants["alice"].computes
                for m in fleet.members
                if "alice" in m.service.metrics.tenants
            )
            assert total_computes == len(seeds)

    def test_fleet_metrics_aggregate_per_tenant(self):
        """``/fleet/metrics`` sums each tenant's counters across every
        replica, wherever routing placed the work."""
        with _fleet(2) as fleet:
            assert fleet.run("table1", seed=8, tenant="alice").ok
            assert fleet.run(
                "table1", seed=9, tenant="alice", via=1
            ).ok
            assert fleet.run(
                "table2", seed=8, tenant="bob", via=1
            ).ok
            agg = fleet.fleet_metrics()
            totals = agg["tenant_totals"]
            assert set(totals) == {"alice", "bob"}
            assert totals["alice"]["accepted"] == 2
            assert totals["alice"]["completed"] == 2
            assert totals["bob"]["completed"] == 1
            assert totals["bob"]["quota_rejections"] == 0

    def test_fleet_backlog_share_quota_bounces_flood(self):
        """A fleet replica enforces the per-tenant share of
        ``max_queue`` ahead of the generic full-queue 429: the
        flooding tenant is bounced with a tenant-scoped quota reason
        while the other tenant's lane stays open."""
        from repro.service import TenantQuota

        gated = GatedWorker()
        fleet = LocalFleet(
            1,
            service_config=ServiceConfig(
                workers=2, bulk_cap=0.5, max_queue=8,
                tenant_quota=TenantQuota(8, 0.25),
            ),
            pool_factory=_thread_pool,
            worker_fn=gated,
        )
        with fleet:
            member = fleet.members[0]

            def bulk(seed, tenant):
                return member.submit(
                    SimRequest(
                        "table2", seed=seed, priority="bulk",
                        tenant=tenant,
                    )
                )

            async def overfill():
                # Per-tenant share: max(1, 0.25 * 8) = 2 queued.  An
                # interactive dispatch holds the cap shut
                # ((1 + 1) / 2 > 0.5), so alice's first two requests
                # fill her share of the queue.
                holder = asyncio.ensure_future(
                    member.submit(SimRequest("table2", seed=99))
                )
                await asyncio.sleep(0.05)
                queued = [
                    asyncio.ensure_future(bulk(1000 + i, "alice"))
                    for i in range(2)
                ]
                await asyncio.sleep(0.05)
                bounced = await bulk(0, "alice")
                # Bob's share is untouched: his request queues.
                bob_task = asyncio.ensure_future(bulk(1, "bob"))
                await asyncio.sleep(0.05)
                bob_queued = not bob_task.done()
                depth = member.service.bulk_queue_depth()
                gated.release()
                await asyncio.gather(holder, *queued)
                return bounced, bob_queued, depth, await bob_task

            bounced, bob_queued, depth, bob_reply = fleet._await(
                overfill()
            )
            assert bounced.status == 429
            assert bounced.payload["quota"] is True
            assert bounced.payload["tenant"] == "alice"
            assert "bulk backlog share" in bounced.payload["error"]
            assert bounced.payload["retry_after_s"] >= 1.0
            assert bob_queued and depth == 3
            assert bob_reply.status == 200
            tenant = member.service.metrics.tenants["alice"]
            assert tenant.quota_rejections == 1
            assert tenant.rejections == 1


class _HttpFleet:
    """Real HTTP replicas on one background loop, one per service:
    each a :class:`FleetMember` behind an :class:`HttpFrontend`, ``r0``
    the coordinator.  Tests join the others over the wire."""

    def __init__(self, services, **fleet_kwargs):
        self.services = services
        self.fleet_kwargs = fleet_kwargs
        self.members = []
        self.frontends = []
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )

    def call(self, coro, timeout=30.0):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop
        ).result(timeout)

    def join(self, i):
        """Join replica ``i`` to the coordinator; the join reply."""
        return self.call(
            self.members[i].join("127.0.0.1", self.frontends[0].port)
        )

    def __enter__(self):
        self.thread.start()
        try:
            for i, service in enumerate(self.services):
                self.call(service.start())
                member = FleetMember(
                    service,
                    FleetConfig(coordinator=i == 0, **self.fleet_kwargs),
                )
                self.members.append(member)
                self.call(member.start())
                frontend = HttpFrontend(member, port=0)
                self.call(frontend.start())
                self.frontends.append(frontend)
                member.set_advertise("127.0.0.1", frontend.port)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for member in self.members:
            member.begin_close()
        for member in self.members:
            try:
                self.call(member.wait_idle(timeout=10.0))
            except ServiceError:
                pass
        for frontend in self.frontends:
            self.call(frontend.stop())
        for member in self.members:
            self.call(member.finish_close())
        for member in self.members:
            self.call(member.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


class TestHttpFleet:
    """Real HTTP front ends joined over the wire protocol."""

    def test_join_route_and_ring_convergence(self):
        services = [make_service() for _ in range(2)]
        with _HttpFleet(services, steal_interval=0.01) as fleet:
            members, frontends = fleet.members, fleet.frontends
            reply = fleet.join(1)
            assert reply["id"] == "r1"
            assert len(reply["members"]) == 2
            # Both rings converged on the same membership.
            assert members[0].ring.replicas == ["r0", "r1"]
            assert members[1].ring.replicas == ["r0", "r1"]
            # A request through either port computes once; the repeat
            # through the *other* port is a cache hit.
            c0 = ServiceClient(port=frontends[0].port)
            c1 = ServiceClient(port=frontends[1].port)
            first = c0.run("table1", seed=55)
            assert first.ok and not first.cached
            again = c1.run("table1", seed=55)
            assert again.ok and again.cached
            # Fleet metrics aggregate over HTTP.
            agg = c0.fleet_metrics()
            assert agg.ok
            assert agg.payload["replica_count"] == 2
            assert agg.payload["totals"]["computes"] == 1
            # A second join against the NON-coordinator is refused.
            with pytest.raises(ServiceError, match="coordinator"):
                fleet.call(members[0].peers["r1"].join("127.0.0.1", 1))
            c0.close()
            c1.close()

    def test_forwarded_interactive_passes_forwarded_bulk(self):
        """The owner dispatches an interactive request at once (DESIGN
        §14), so one forwarded to it must not wait behind a bulk
        request forwarded there before it and held in a worker: RPCs
        to one peer do not queue behind each other."""
        entered, gate = threading.Event(), threading.Event()
        held = []

        def worker(name, scale, store_path, check_invariants):
            if scale.seed in held:
                entered.set()
                gate.wait(30.0)
            return f"rendered {name} seed={scale.seed}"

        services = [
            make_service(workers=2, bulk_cap=0.5, worker_fn=worker),
            make_service(worker_fn=worker),
        ]
        with _HttpFleet(services, steal_interval=60.0) as fleet:
            fleet.join(1)
            # Both requests enter through r1; r0 owns both keys.
            entry = ServiceClient(port=fleet.frontends[1].port, timeout=10.0)
            bulk_seed, seed = _seeds_owned_by(fleet.members[1], "r0", 2)
            held.append(bulk_seed)
            bulk = []
            sender = threading.Thread(
                target=lambda: bulk.append(
                    entry.run("table1", seed=bulk_seed, priority="bulk")
                )
            )
            sender.start()
            try:
                assert entered.wait(10.0), "bulk request never ran"
                reply = entry.run("table1", seed=seed)
                assert reply.ok and reply.payload["seed"] == seed
                assert not bulk, "the bulk request was not held"
            finally:
                gate.set()
                sender.join(timeout=30.0)
                entry.close()
            assert not sender.is_alive()
            assert bulk[0].ok
            assert fleet.members[1].counters.forwards == 2
            assert fleet.members[0].counters.computes == 2


def _raw(port, method, path, body=None):
    """One request on its own connection: ``(status, payload)``."""
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nContent-Length: {len(data)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(head.encode("latin-1") + data)
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


#: Stands for the entry id of the stolen-out ticket in a report body.
_ENTRY = object()
_RECORD = {"id": "r5", "host": "127.0.0.1", "port": 1}


class TestPeerRouteChecks:
    """The peer routes check what they are sent before acting on it."""

    @pytest.mark.parametrize(
        "path, body",
        [
            pytest.param("/fleet/steal", {"thief": "r9", "max_n": "x"},
                         id="steal-max_n-str"),
            pytest.param("/fleet/steal", {"thief": 7, "max_n": 1},
                         id="steal-thief-int"),
            pytest.param("/fleet/steal", {"max_n": 1},
                         id="steal-no-thief"),
            pytest.param("/fleet/steal", {"thief": "r9"},
                         id="steal-no-max_n"),
            pytest.param("/fleet/stolen",
                         {"entry_id": "x", "status": 200,
                          "payload": {"result": "t"}},
                         id="stolen-entry_id-str"),
            pytest.param("/fleet/stolen",
                         {"entry_id": _ENTRY, "status": "200",
                          "payload": {"result": "t"}},
                         id="stolen-status-str"),
            pytest.param("/fleet/stolen",
                         {"entry_id": _ENTRY, "status": 200,
                          "payload": {"status": "ok"}},
                         id="stolen-ok-without-result"),
            pytest.param("/fleet/stolen",
                         {"entry_id": _ENTRY, "status": 200,
                          "payload": "t"},
                         id="stolen-payload-str"),
            pytest.param("/fleet/stolen",
                         {"entry_id": _ENTRY, "status": 500},
                         id="stolen-no-payload"),
            pytest.param("/fleet/membership",
                         {"members": [_RECORD, {"id": "r6", "port": 2}]},
                         id="membership-no-host"),
            pytest.param("/fleet/membership",
                         {"members": [_RECORD, dict(_RECORD, id="r6",
                                                    port="2")]},
                         id="membership-port-str"),
            pytest.param("/fleet/membership", {"members": ["r5"]},
                         id="membership-record-str"),
        ],
    )
    def test_malformed_body_answers_400_and_changes_nothing(
        self, path, body
    ):
        """A body of the wrong shape is a 400, not a 500, and leaves
        the ring, the peers, the queue and the stolen-out tickets as
        they were — a member list is checked whole first."""
        with _HttpFleet([make_service()], steal_interval=60.0) as fleet:
            member = fleet.members[0]
            queue = member.service.tenancy.queue

            async def grant():
                # Two queued tickets, one granted to a thief: a steal
                # could take the other, a report could settle this one.
                for seed in (1, 2):
                    _push_ticket(member, seed, f"key-{seed}")
                (rec,) = await member.steal("r9", 1)
                return rec["entry_id"]

            def state():
                return (
                    member.ring.replicas,
                    sorted(member.peers),
                    sorted(member._members),
                    sorted(member._stolen_out),
                    len(queue),
                    member.counters.steals_granted,
                )

            entry_id = fleet.call(grant())
            body = {
                name: entry_id if value is _ENTRY else value
                for name, value in body.items()
            }
            before = fleet.call(_as_coro(state))
            status, payload = _raw(
                fleet.frontends[0].port, "POST", path, body
            )
            after = fleet.call(_as_coro(state))

            async def settle():
                await member.stolen(
                    entry_id, 200, {"status": "ok", "result": "t"}
                )
                while queue.pop() is not None:
                    pass

            fleet.call(settle())
        assert status == 400, payload
        assert after == before

    @pytest.mark.parametrize(
        "shape",
        ["../outside/{}", "{root}/outside/{}", "sub/{}"],
        ids=["dotdot", "absolute", "slash"],
    )
    def test_cache_routes_refuse_non_content_keys(self, tmp_path, shape):
        """A peer cache key names a file in the store directory, so
        only content keys (64 lowercase hex) reach the store: any
        other key is a GET miss and a POST 400, and neither reads nor
        writes a file — here, planted pickles outside the store and
        in a subdirectory of it."""
        store = tmp_path / "store"
        (store / "sub").mkdir(parents=True)
        (tmp_path / "outside").mkdir()
        for where in (tmp_path / "outside", store / "sub"):
            (where / "planted.pkl").write_bytes(pickle.dumps("planted"))
        service = make_service(store_path=str(store))
        with _HttpFleet([service], steal_interval=60.0) as fleet:
            port = fleet.frontends[0].port
            planted = shape.format("planted", root=tmp_path)
            status, payload = _raw(port, "GET", f"/fleet/cache/{planted}")
            assert (status, payload["status"]) == (404, "miss")
            written = shape.format("written", root=tmp_path)
            status, _ = _raw(
                port, "POST", f"/fleet/cache/{written}", {"value": "v"}
            )
            assert status == 400
        assert service.store.counters.peer_gets == 0
        assert service.store.counters.peer_puts == 0
        assert not list(tmp_path.rglob("written.pkl"))


class TestSubprocessFleet:
    def test_two_daemons_join_and_share_cache(self, tmp_path):
        """The deployment shape: two ``repro serve`` subprocesses,
        the second with ``--join``, sharing one fleet."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)

        def spawn(port, extra):
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--scale", "quick", "--port", str(port),
                    "--workers", "1", "--bulk-cap", "1.0",
                ]
                + extra,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

        port_a, port_b = _free_port(), _free_port()
        proc_a = spawn(port_a, [])
        client_a = ServiceClient(port=port_a, timeout=60.0)
        proc_b = None
        try:
            client_a.wait_until_healthy(timeout=30.0)
            proc_b = spawn(
                port_b, ["--join", f"127.0.0.1:{port_a}"]
            )
            client_b = ServiceClient(port=port_b, timeout=60.0)
            client_b.wait_until_healthy(timeout=30.0)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                agg = client_a.fleet_metrics()
                if agg.ok and agg.payload["replica_count"] == 2:
                    break
                time.sleep(0.2)
            assert agg.payload["replica_count"] == 2
            first = client_a.run("table1", seed=3)
            assert first.ok, first.payload
            again = client_b.run("table1", seed=3)
            assert again.ok
            assert again.cached
            totals = client_a.fleet_metrics().payload["totals"]
            assert totals["computes"] == 1
            client_b.close()
        finally:
            client_a.close()
            for proc in (proc_b, proc_a):
                if proc is None:
                    continue
                proc.send_signal(signal.SIGTERM)
            for proc in (proc_b, proc_a):
                if proc is None:
                    continue
                try:
                    assert proc.wait(timeout=30.0) == 0
                except subprocess.TimeoutExpired:
                    proc.kill()
                    raise


# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def _as_coro(fn):
    return fn()
