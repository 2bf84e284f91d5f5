"""Tests for multi-tenant predictive admission.

Layers, innermost out:

* :class:`TenantQuota` / :class:`TenantFairQueue` /
  :class:`TenantAdmission` — pure scheduling units under an injected
  clock (quota parsing, paper-priority dequeue, fair-share interleave,
  wait-term starvation guard, deterministic replay of a seeded mix,
  and the steal/requeue contract the fleet grants work by);
* :class:`WorkerAutoscaler` — the decide/tick control loop against a
  stub service and against the real daemon (grow opens the interstice
  a fractional cap closed on a one-worker pool; shrink returns to the
  floor once idle);
* the service pipeline — a flooding tenant cannot starve a newcomer,
  results and content keys stay byte-identical to the single-tenant
  path (the cache is shared across tenants), quotas 429 with
  tenant-scoped reasons, and Retry-After is priced from the tenant's
  own history and learned prediction ratio;
* the wire — an in-process HTTP front end with per-client tenants,
  and one subprocess test driving a real ``repro serve
  --tenant-quota`` daemon with two concurrent :class:`ServiceClient`
  tenants (the CI tenancy-smoke shape).
"""

from __future__ import annotations

import asyncio
import copy
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.config import SCALES
from repro.sched.fairshare import FairShareTracker
from repro.service import tenancy
from repro.service import (
    FleetMember,
    HttpFrontend,
    ServiceClient,
    ServiceConfig,
    ServiceMetrics,
    SimRequest,
    SimulationService,
    TenantAdmission,
    TenantFairQueue,
    TenantQuota,
    WorkerAutoscaler,
)
from tests.service.conftest import (
    GatedWorker,
    make_service,
    quick_worker,
    run_async,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class FakeClock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _thread_pool(n):
    return ThreadPoolExecutor(max_workers=n)


def make_tenant_service(worker_fn=None, **config_kwargs):
    """Like ``make_service`` but accepting the tenancy config knobs."""
    config_kwargs.setdefault("scale", SCALES["quick"])
    config = ServiceConfig(**config_kwargs)
    return SimulationService(
        config,
        pool_factory=_thread_pool,
        worker_fn=worker_fn or quick_worker,
    )


# ----------------------------------------------------------------------
# Quota parsing and bounds
# ----------------------------------------------------------------------
class TestTenantQuota:
    def test_parse_inflight_only(self):
        quota = TenantQuota.parse("4")
        assert quota.max_inflight == 4
        assert quota.max_backlog_share == 0.5

    def test_parse_with_share(self):
        quota = TenantQuota.parse("2:0.25")
        assert quota.max_inflight == 2
        assert quota.max_backlog_share == 0.25

    @pytest.mark.parametrize(
        "spec", ["", "x", "2:zz", "0", "2:0", "2:1.5", "-1"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            TenantQuota.parse(spec)

    def test_max_backlog_floor(self):
        assert TenantQuota(4, 0.25).max_backlog(8) == 2
        assert TenantQuota(4, 0.5).max_backlog(64) == 32
        # A tiny share never blocks a tenant's first queued request.
        assert TenantQuota(1, 0.01).max_backlog(8) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(autoscale_min=1)  # max missing
        with pytest.raises(ConfigurationError):
            ServiceConfig(autoscale_min=4, autoscale_max=2)
        with pytest.raises(ConfigurationError):
            # workers must start inside the autoscale range
            ServiceConfig(
                workers=1, autoscale_min=2, autoscale_max=4
            )


# ----------------------------------------------------------------------
# The fair queue
# ----------------------------------------------------------------------
class TestTenantFairQueue:
    def _queue(self, clock=None):
        clock = clock or FakeClock()
        tracker = FairShareTracker(half_life_s=300.0)
        return TenantFairQueue(tracker, clock=clock), clock

    def test_fifo_within_one_tenant(self):
        queue, _clock = self._queue()
        queue.push("a", "first")
        queue.push("a", "second")
        assert queue.pop().item == "first"
        assert queue.pop().item == "second"
        assert queue.pop() is None

    def test_depth_and_len(self):
        queue, _clock = self._queue()
        queue.push("a", 1)
        queue.push("a", 2)
        queue.push("b", 3)
        assert len(queue) == 3
        assert queue.depth("a") == 2
        assert queue.depth("b") == 1
        assert queue.depth("c") == 0
        queue.pop()
        assert len(queue) == 2

    def test_charged_tenant_yields_to_newcomer(self):
        """The starvation shape in miniature: a flood queued first is
        interleaved behind a fresh tenant once it has been charged."""
        queue, clock = self._queue()
        for i in range(3):
            queue.push("flood", f"flood-{i}")
        queue.push("fresh", "fresh-0")
        queue.tracker.charge("flood", [10.0], clock.now)
        order = [queue.pop().tenant for _ in range(4)]
        assert order == ["fresh", "flood", "flood", "flood"]

    def test_uncharged_tenants_dequeue_in_arrival_order(self):
        queue, _clock = self._queue()
        queue.push("a", 1)
        queue.push("b", 2)
        queue.push("a", 3)
        assert [queue.pop().item for _ in range(3)] == [1, 2, 3]

    def test_wait_term_bounds_deprioritization(self, monkeypatch):
        """A heavily-charged tenant's waiting head catches back up:
        after ``DEFAULT_WAIT_NORM_S`` seconds its score regains a full
        unit of factor, so it eventually beats any newcomer."""
        monkeypatch.setattr(tenancy, "DEFAULT_WAIT_NORM_S", 1.0)
        queue, clock = self._queue()
        queue.push("hog", "old")
        queue.tracker.charge("hog", [1000.0], clock.now)
        clock.now = 5.0  # waited 5 wait-norms: score >= -1 + 5
        queue.push("fresh", "new")  # score <= +1 + 0
        assert queue.pop().item == "old"

    def test_pop_eligibility_defers_not_drops(self):
        queue, _clock = self._queue()
        queue.push("a", 1)
        queue.push("b", 2)
        ticket = queue.pop(lambda tenant: tenant != "a")
        assert ticket.tenant == "b"
        # Nothing eligible: pop returns None and the lane survives.
        assert queue.pop(lambda tenant: False) is None
        assert len(queue) == 1
        assert queue.pop().item == 1

    def test_seeded_mix_replays_identically(self):
        """Determinism: the dequeue order is a pure function of the
        tenant mix, the charges and the clock — same seed, same
        order."""

        def run(seed):
            clock = FakeClock()
            tracker = FairShareTracker(half_life_s=60.0)
            queue = TenantFairQueue(tracker, clock=clock)
            rng = random.Random(seed)
            for i in range(40):
                tenant = rng.choice(["a", "b", "c"])
                queue.push(tenant, i)
                if rng.random() < 0.4:
                    tracker.charge(
                        rng.choice(["a", "b", "c"]),
                        [rng.uniform(0.1, 5.0)],
                        clock.now,
                    )
                clock.now += rng.uniform(0.0, 2.0)
            order = []
            while len(queue):
                ticket = queue.pop()
                order.append((ticket.tenant, ticket.item))
                clock.now += rng.uniform(0.0, 1.0)
                tracker.charge(ticket.tenant, [0.5], clock.now)
            return order

        assert run(42) == run(42)
        assert run(7) == run(7)

    def test_steal_takes_what_pop_would_return_last(self):
        queue, clock = self._queue()
        for i in range(3):
            queue.push("flood", f"flood-{i}")
        queue.push("fresh", "fresh-0")
        queue.tracker.charge("flood", [10.0], clock.now)
        # Pop order would be fresh-0, flood-0, flood-1, flood-2.
        stolen = queue.steal(2, lambda ticket: ticket.item != "flood-2")
        assert [t.item for t in stolen] == ["flood-0", "flood-1"]
        assert len(queue) == 2
        clock.now = 1.0
        queue.push("flood", "flood-3")
        queue.requeue(stolen[1])
        queue.requeue(stolen[0])
        # Back at their arrival positions, ahead of the later push.
        order = [queue.pop().item for _ in range(len(queue))]
        assert order == ["fresh-0", "flood-0", "flood-1", "flood-2",
                         "flood-3"]


#: One fair-queue operation: ``(name, tenant index, amount)``.
_QUEUE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "tick", "charge", "pop", "steal",
                         "requeue"]),
        st.integers(0, 2),
        st.floats(0.0, 20.0, allow_nan=False),
    ),
    max_size=60,
)


class TestFairQueueStealContract:
    """The contract the fleet's steal grants rely on, over random
    push/tick/charge/pop/steal/requeue sequences."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_QUEUE_OPS, mask=st.integers(0, 255))
    def test_steal_matches_pop_order_and_requeue_keeps_lanes(
        self, ops, mask
    ):
        with mock.patch.object(tenancy, "DEFAULT_WAIT_NORM_S", 5.0):
            self._check_steal_contract(ops, mask)

    @staticmethod
    def _check_steal_contract(ops, mask):
        tenants = ["a", "b", "c"]
        clock = FakeClock()
        queue = TenantFairQueue(
            FairShareTracker(half_life_s=60.0), clock=clock
        )

        def stealable(ticket):
            return not (mask >> (ticket.seq % 8)) & 1

        stolen = []
        for name, index, amount in ops:
            if name == "push":
                queue.push(tenants[index], index)
            elif name == "tick":
                clock.now += amount
            elif name == "charge":
                queue.tracker.charge(tenants[index], [amount], clock.now)
            elif name == "pop":
                queue.pop()
            elif name == "steal":
                k = index + 1
                drained = copy.deepcopy(queue)
                popped = []
                while len(drained):
                    popped.append(drained.pop())
                expected = [t.seq for t in popped if stealable(t)][-k:]
                taken = queue.steal(k, stealable)
                assert [t.seq for t in taken] == expected
                stolen.extend(taken)
            elif stolen:
                queue.requeue(stolen.pop(index % len(stolen)))
                for lane in queue._lanes.values():
                    seqs = [t.seq for t in lane]
                    assert seqs == sorted(seqs)
            assert len(queue) == sum(
                len(lane) for lane in queue._lanes.values()
            )


# ----------------------------------------------------------------------
# Admission bookkeeping
# ----------------------------------------------------------------------
class TestTenantAdmission:
    def test_inflight_accounting(self):
        admission = TenantAdmission(clock=FakeClock())
        assert admission.inflight_of("a") == 0
        admission.begin_dispatch("a")
        admission.begin_dispatch("a")
        assert admission.inflight_of("a") == 2
        admission.end_dispatch("a", 0.5, 1.0)
        assert admission.inflight_of("a") == 1
        admission.end_dispatch("a", 0.5, 1.0)
        assert admission.inflight_of("a") == 0

    def test_eligibility_follows_quota(self):
        admission = TenantAdmission(
            quota=TenantQuota(1), clock=FakeClock()
        )
        assert admission.eligible("a")
        admission.begin_dispatch("a")
        assert not admission.eligible("a")
        assert admission.eligible("b")
        admission.end_dispatch("a", 0.1, 0.1)
        assert admission.eligible("a")

    def test_end_dispatch_charges_and_teaches(self):
        clock = FakeClock()
        admission = TenantAdmission(clock=clock)
        admission.begin_dispatch("a")
        # Actual 4s against a 2s quote: usage charged, ratio learned.
        admission.end_dispatch("a", 4.0, 2.0)
        assert admission.tracker.usage("a", clock.now) == pytest.approx(
            4.0
        )
        assert admission.predictor.ratio("a") > 1.0
        assert admission.predicted_service_time("a", 2.0) > 2.0

    def test_unknown_tenant_degrades_to_heuristic(self):
        admission = TenantAdmission(clock=FakeClock())
        assert admission.predicted_service_time("new", 3.0) == 3.0
        assert admission.predicted_service_time(None, 3.0) == 3.0

    def test_pending_of_sums_queue_and_pool(self):
        admission = TenantAdmission(clock=FakeClock())
        admission.queue.push("a", "x")
        admission.begin_dispatch("a")
        assert admission.pending_of("a") == 2


# ----------------------------------------------------------------------
# Tenant-scoped metrics (regression: one tenant's heavy sweeps must
# not inflate the Retry-After quoted to another)
# ----------------------------------------------------------------------
class TestTenantMetrics:
    def test_estimated_service_time_scopes_per_tenant(self):
        metrics = ServiceMetrics()
        metrics.record_latency("bulk", 50.0)  # global mean: polluted
        metrics.record_service_time("heavy", 50.0)
        metrics.record_service_time("light", 0.5)
        assert metrics.estimated_service_time("bulk", "light") == 0.5
        assert metrics.estimated_service_time("bulk", "heavy") == 50.0
        # No tenant history: fall back to the global class chain.
        assert metrics.estimated_service_time("bulk", "new") == 50.0
        assert metrics.estimated_service_time("bulk") == 50.0

    def test_snapshot_has_tenant_section(self):
        metrics = ServiceMetrics()
        metrics.tenant("a").accepted += 2
        metrics.record_service_time("a", 1.5)
        snap = metrics.snapshot()
        assert snap["tenants"]["a"]["counters"]["accepted"] == 2
        assert snap["tenants"]["a"]["service_time"]["count"] == 1

    def test_retry_after_isolated_between_tenants(self):
        service = make_service(workers=2)
        service.metrics.record_latency("bulk", 50.0)
        service.metrics.record_service_time("heavy", 50.0)
        service.metrics.record_service_time("light", 0.5)
        assert service._retry_after(
            "bulk", 4, "heavy"
        ) == pytest.approx(100.0)
        # The light tenant's quote prices its own half-second jobs,
        # not the flood's — floored at the 1s minimum.
        assert service._retry_after(
            "bulk", 4, "light"
        ) == pytest.approx(1.0)
        assert service._retry_after(
            "bulk", 40, "light"
        ) == pytest.approx(10.0)

    def test_retry_after_uses_learned_prediction_ratio(self):
        """Predictor vs heuristic: a tenant whose jobs keep running
        2x their quote is quoted 2x the plain depth*mean/workers
        heuristic."""
        service = make_service(workers=2)
        service.metrics.record_service_time("slow", 4.0)
        heuristic = service._retry_after("bulk", 8, "slow")
        assert heuristic == pytest.approx(8 * 4.0 / 2)
        for _ in range(64):  # converge the EWMA
            service.tenancy.predictor.observe_ratio("slow", 8.0, 4.0)
        predicted = service._retry_after("bulk", 8, "slow")
        assert predicted > heuristic
        assert predicted == pytest.approx(2 * heuristic, rel=0.1)


# ----------------------------------------------------------------------
# Service pipeline: fairness, byte-identity, quotas
# ----------------------------------------------------------------------
class TestStarvation:
    def test_flood_does_not_starve_newcomer(self):
        """Tenant A floods the bulk queue; tenant B's requests,
        submitted after the whole flood, are interleaved ahead of A's
        backlog by fair-share — and every response is served."""
        order = []
        lock = threading.Lock()

        def worker(name, scale, store_path, check_invariants):
            with lock:
                order.append(scale.seed)
            time.sleep(0.02)
            return f"rendered {name} seed={scale.seed}"

        async def scenario():
            service = make_tenant_service(
                worker_fn=worker, workers=1, bulk_cap=1.0,
                max_queue=64,
            )
            await service.start()
            flood = [
                asyncio.ensure_future(
                    service.submit(
                        SimRequest(
                            "table1", seed=100 + i, priority="bulk",
                            tenant="flood",
                        )
                    )
                )
                for i in range(10)
            ]
            await asyncio.sleep(0.05)
            light = [
                asyncio.ensure_future(
                    service.submit(
                        SimRequest(
                            "table1", seed=200 + i, priority="bulk",
                            tenant="light",
                        )
                    )
                )
                for i in range(3)
            ]
            responses = await asyncio.gather(*flood, *light)
            await service.stop()
            return service, responses

        service, responses = run_async(scenario())
        assert [r.status for r in responses] == [200] * 13
        light_seeds = {200, 201, 202}
        positions = [
            i for i, seed in enumerate(order) if seed in light_seeds
        ]
        # FIFO would put the light tenant at positions 10-12; fair
        # share interleaves it ahead of the flood's backlog.
        assert len(positions) == 3
        assert max(positions) <= 7, order
        snap = service.metrics_snapshot()
        assert snap["tenants"]["flood"]["counters"]["completed"] == 10
        assert snap["tenants"]["light"]["counters"]["completed"] == 3

    def test_results_and_keys_identical_across_tenants(self):
        """Tenancy changes scheduling only: the content address
        excludes the tenant, so two tenants requesting one
        configuration share a single compute and byte-identical
        results — and both match the single-tenant path."""

        async def scenario():
            service = make_tenant_service()
            await service.start()
            first = await service.submit(
                SimRequest("table1", seed=9, priority="bulk",
                           tenant="a")
            )
            second = await service.submit(
                SimRequest("table1", seed=9, priority="bulk",
                           tenant="b")
            )
            await service.stop()
            solo = make_tenant_service()
            await solo.start()
            untagged = await solo.submit(
                SimRequest("table1", seed=9, priority="bulk")
            )
            await solo.stop()
            return service, first, second, untagged

        service, first, second, untagged = run_async(scenario())
        assert first.status == second.status == untagged.status == 200
        assert second.payload["cached"], "cache not shared"
        assert (
            first.payload["result"]
            == second.payload["result"]
            == untagged.payload["result"]
        )
        assert (
            first.payload["key"]
            == second.payload["key"]
            == untagged.payload["key"]
        )
        assert service.metrics.counters.computes == 1


class TestQuotas:
    def test_interactive_over_inflight_quota_rejected(self):
        async def scenario():
            gated = GatedWorker()
            service = make_tenant_service(
                worker_fn=gated, workers=2,
                tenant_quota=TenantQuota(1),
            )
            await service.start()
            running = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=1, tenant="a")
                )
            )
            await asyncio.sleep(0.05)
            rejected = await service.submit(
                SimRequest("table1", seed=2, tenant="a")
            )
            other = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=3, tenant="b")
                )
            )
            await asyncio.sleep(0.05)
            gated.release()
            ok, ok_other = await asyncio.gather(running, other)
            await service.stop()
            return service, rejected, ok, ok_other

        service, rejected, ok, ok_other = run_async(scenario())
        assert rejected.status == 429
        assert rejected.payload["quota"] is True
        assert rejected.payload["tenant"] == "a"
        assert "max in-flight" in rejected.payload["error"]
        assert rejected.retry_after >= 1.0
        # The other tenant was untouched by a's quota.
        assert ok.status == 200 and ok_other.status == 200
        counters = service.metrics.counters
        assert counters.quota_rejections == 1
        assert counters.rejections == 1  # quota 429s are rejections too
        tenant = service.metrics.tenants["a"]
        assert tenant.quota_rejections == 1
        assert tenant.rejections == 1

    def test_bulk_over_backlog_share_rejected(self):
        async def scenario():
            gated = GatedWorker()
            service = make_tenant_service(
                worker_fn=gated, workers=1, bulk_cap=1.0,
                max_queue=8,
                tenant_quota=TenantQuota(8, 0.25),  # 2 queued max
            )
            await service.start()
            # Hold the single worker with an interactive dispatch so
            # the cap ((1+1)/1 > 1.0) keeps all bulk queued.
            holder = asyncio.ensure_future(
                service.submit(SimRequest("table1", seed=99))
            )
            await asyncio.sleep(0.05)
            queued = [
                asyncio.ensure_future(
                    service.submit(
                        SimRequest(
                            "table1", seed=i, priority="bulk",
                            tenant="a",
                        )
                    )
                )
                for i in (1, 2)
            ]
            await asyncio.sleep(0.05)
            rejected = await service.submit(
                SimRequest("table1", seed=3, priority="bulk",
                           tenant="a")
            )
            other = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=4, priority="bulk",
                               tenant="b")
                )
            )
            await asyncio.sleep(0.05)
            gated.release()
            responses = await asyncio.gather(holder, other, *queued)
            await service.stop()
            return service, rejected, responses

        service, rejected, responses = run_async(scenario())
        assert rejected.status == 429
        assert rejected.payload["quota"] is True
        assert "backlog share" in rejected.payload["error"]
        # Tenant b still queued freely while a was over its share.
        assert [r.status for r in responses] == [200] * 4
        assert service.metrics.tenants["a"].quota_rejections == 1

    def test_bulk_at_inflight_quota_defers_never_rejects(self):
        """Bulk over the in-flight quota is a scheduling condition,
        not an error: the lane waits for the tenant's slot and every
        request completes."""

        async def scenario():
            service = make_tenant_service(
                workers=2, bulk_cap=1.0,
                tenant_quota=TenantQuota(1),
            )
            await service.start()
            responses = await asyncio.gather(
                *[
                    service.submit(
                        SimRequest(
                            "table1", seed=i, priority="bulk",
                            tenant="a",
                        )
                    )
                    for i in range(4)
                ]
            )
            await service.stop()
            return service, responses

        service, responses = run_async(scenario())
        assert [r.status for r in responses] == [200] * 4
        assert service.metrics.counters.quota_rejections == 0
        assert service.metrics.counters.rejections == 0


# ----------------------------------------------------------------------
# The autoscaler
# ----------------------------------------------------------------------
class _FakeService:
    """Just the signal surface the autoscaler reads."""

    class _Config:
        def __init__(self, bulk_cap):
            self.bulk_cap = bulk_cap

    def __init__(self, workers=2, bulk_cap=0.5):
        self.config = self._Config(bulk_cap)
        self._workers = workers
        self.depth = 0
        self.busy = 0
        self.resized = []

    @property
    def workers(self):
        return self._workers

    def bulk_queue_depth(self):
        return self.depth

    def _cap_allows(self):
        return (
            (self.busy + 1) / self._workers
            <= self.config.bulk_cap + 1e-9
        )

    def utilization(self):
        return self.busy / self._workers

    async def resize_workers(self, n):
        self.resized.append(n)
        self._workers = n


class TestAutoscaler:
    def test_validation(self):
        # ServiceConfig checks the bounds: the daemon builds the
        # autoscaler from it and nothing else constructs one.
        with pytest.raises(ConfigurationError):
            ServiceConfig(autoscale_min=0, autoscale_max=4)
        with pytest.raises(ConfigurationError):
            ServiceConfig(autoscale_min=4, autoscale_max=2)

    def test_grow_needs_patience(self):
        service = _FakeService(workers=2, bulk_cap=0.5)
        service.depth, service.busy = 3, 2  # cap-blocked backlog
        scaler = WorkerAutoscaler(service, 1, 4)
        assert scaler.decide() == 0
        assert scaler.decide() == 1
        assert scaler.decide() == 0  # streak reset after a grow

    def test_no_grow_at_maximum(self, monkeypatch):
        monkeypatch.setattr(tenancy, "AUTOSCALE_PATIENCE", 1)
        service = _FakeService(workers=4, bulk_cap=0.5)
        service.depth, service.busy = 3, 4
        scaler = WorkerAutoscaler(service, 1, 4)
        assert scaler.decide() == 0

    def test_shrink_when_idle(self):
        service = _FakeService(workers=4, bulk_cap=0.5)
        scaler = WorkerAutoscaler(service, 2, 4)
        assert scaler.decide() == 0
        assert scaler.decide() == -1

    def test_no_shrink_below_minimum(self, monkeypatch):
        monkeypatch.setattr(tenancy, "AUTOSCALE_PATIENCE", 1)
        service = _FakeService(workers=2, bulk_cap=0.5)
        scaler = WorkerAutoscaler(service, 2, 4)
        assert scaler.decide() == 0

    def test_mixed_signals_reset_streaks(self):
        service = _FakeService(workers=2, bulk_cap=0.5)
        scaler = WorkerAutoscaler(service, 1, 4)
        service.depth, service.busy = 3, 2
        assert scaler.decide() == 0  # grow streak 1
        service.depth, service.busy = 0, 0
        assert scaler.decide() == 0  # shrink streak 1, grow reset
        service.depth, service.busy = 3, 2
        assert scaler.decide() == 0  # grow streak 1 again
        assert scaler.decide() == 1

    def test_tick_applies_resize(self, monkeypatch):
        monkeypatch.setattr(tenancy, "AUTOSCALE_PATIENCE", 1)
        service = _FakeService(workers=2, bulk_cap=0.5)
        service.depth, service.busy = 3, 2

        async def scenario():
            scaler = WorkerAutoscaler(service, 1, 4)
            return await scaler.tick()

        assert run_async(scenario()) == 1
        assert service.resized == [3]

    def test_grow_opens_the_interstice_then_shrinks_back(
        self, monkeypatch
    ):
        """End to end against the real daemon: a one-worker pool under
        a fractional cap can never admit bulk ((0+1)/1 > 0.9); the
        autoscaler grows the pool, the queued request dispatches, and
        once idle the pool shrinks back to the floor."""
        # The background task stays dormant: the test ticks by hand.
        monkeypatch.setattr(tenancy, "AUTOSCALE_INTERVAL_S", 60.0)

        async def scenario():
            service = make_tenant_service(
                workers=1, bulk_cap=0.9,
                autoscale_min=1, autoscale_max=2,
            )
            await service.start()
            task = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=1, priority="bulk",
                               tenant="a")
                )
            )
            await asyncio.sleep(0.05)
            starved_depth = service.bulk_queue_depth()
            deltas = [await service.autoscaler.tick()]
            deltas.append(await service.autoscaler.tick())
            grown_to = service.workers
            response = await task
            deltas.append(await service.autoscaler.tick())
            deltas.append(await service.autoscaler.tick())
            shrunk_to = service.workers
            health = service.healthz()
            await service.stop()
            return (service, starved_depth, deltas, grown_to,
                    response, shrunk_to, health)

        (service, starved_depth, deltas, grown_to, response,
         shrunk_to, health) = run_async(scenario())
        assert starved_depth == 1  # the cap left no interstice
        assert deltas == [0, 1, 0, -1]
        assert grown_to == 2
        assert response.status == 200
        assert shrunk_to == 1
        assert health["autoscale"] == {"min": 1, "max": 2}
        counters = service.metrics.counters
        assert counters.scale_ups == 1
        assert counters.scale_downs == 1


class TestResize:
    def test_resize_validates_and_counts(self):
        async def scenario():
            service = make_tenant_service(workers=2)
            await service.start()
            with pytest.raises(ConfigurationError):
                await service.resize_workers(0)
            await service.resize_workers(2)  # no-op
            await service.resize_workers(4)
            grew = (service.workers, service.healthz()["workers"])
            await service.resize_workers(3)
            await service.stop()
            return service, grew

        service, grew = run_async(scenario())
        assert grew == (4, 4)
        assert service.workers == 3
        counters = service.metrics.counters
        assert counters.scale_ups == 1
        assert counters.scale_downs == 1

    def test_inflight_work_survives_resize(self, gated):
        """A dispatch riding the pre-resize pool completes on it; the
        swap is not counted as a crash replacement."""

        async def scenario():
            service = make_tenant_service(worker_fn=gated, workers=2)
            await service.start()
            task = asyncio.ensure_future(
                service.submit(SimRequest("table1", seed=1))
            )
            await asyncio.sleep(0.05)
            generation_before = service.supervisor.generation
            await service.resize_workers(3)
            generation_after = service.supervisor.generation
            gated.release()
            response = await task
            await service.stop()
            return (service, response, generation_before,
                    generation_after)

        service, response, gen_before, gen_after = run_async(
            scenario()
        )
        assert response.status == 200
        assert gen_after == gen_before + 1
        assert service.metrics.counters.worker_replacements == 0


# ----------------------------------------------------------------------
# The wire: header-based tenancy over real HTTP
# ----------------------------------------------------------------------
class TestHttpTenancy:
    def test_client_tenant_header_attributes_requests(self):
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        def call(coro, timeout=30.0):
            return asyncio.run_coroutine_threadsafe(
                coro, loop
            ).result(timeout)

        service = make_tenant_service(
            workers=2, tenant_quota=TenantQuota(1)
        )
        member = FleetMember(service)
        frontend = HttpFrontend(member, port=0)
        try:
            call(service.start())
            call(member.start())
            call(frontend.start())
            alice = ServiceClient(
                port=frontend.port, tenant="alice"
            )
            bob = ServiceClient(port=frontend.port, tenant="bob")
            first = alice.run("table1", seed=1, priority="bulk")
            assert first.ok, first.payload
            # Cross-tenant cache over the wire: byte-identical.
            again = bob.run("table1", seed=1, priority="bulk")
            assert again.ok and again.cached
            assert again.result == first.result
            # A per-call tenant in the body overrides the header.
            override = alice.run(
                "table1", seed=2, tenant="carol"
            )
            assert override.ok
            snap = alice.metrics().payload
            tenants = snap["tenants"]
            assert tenants["alice"]["counters"]["computes"] == 1
            assert tenants["bob"]["counters"]["accepted"] == 1
            assert tenants["bob"]["counters"]["computes"] == 0
            assert tenants["carol"]["counters"]["computes"] == 1
            assert "default" not in tenants
            alice.close()
            bob.close()
        finally:
            call(frontend.stop())
            call(member.finish_close())
            call(service.stop())
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.close()


class TestSubprocessTenancy:
    def test_two_tenants_against_real_daemon(self, tmp_path):
        """The CI tenancy-smoke shape: a real ``repro serve`` with a
        tenant quota, one flooding and one light tenant driven by
        concurrent :class:`ServiceClient` instances.  Pins the
        starvation outcome (everyone served or explicitly quota-
        bounced, nothing stuck), per-tenant quota 429s on the wire,
        cross-tenant byte-identity and the per-tenant /metrics
        section."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        port = _free_port()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--scale", "quick", "--port", str(port),
                "--workers", "1", "--bulk-cap", "1.0",
                "--max-queue", "4", "--tenant-quota", "8:0.25",
                "--store", str(tmp_path / "store"),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        alice = ServiceClient(port=port, timeout=120.0,
                              tenant="alice")
        bob = ServiceClient(port=port, timeout=120.0, tenant="bob")
        try:
            alice.wait_until_healthy(timeout=30.0)
            # Alice floods 5 concurrent bulk requests at a per-tenant
            # backlog share of max(1, 0.25*4) = 1: one dispatches, one
            # queues, the overflow is quota-bounced.
            flood = alice.run_many(
                [
                    {"experiment": "table1", "seed": s,
                     "priority": "bulk"}
                    for s in range(5)
                ],
                max_workers=5,
            )
            # Bob's lane is fresh: his request rides through.
            bob_reply = bob.run("table1", seed=50, priority="bulk")
            assert bob_reply.ok, bob_reply.payload
            statuses = sorted(r.status for r in flood)
            assert set(statuses) <= {200, 429}
            served = [r for r in flood if r.ok]
            bounced = [r for r in flood if r.status == 429]
            assert served, "flood entirely rejected"
            assert bounced, "quota never bounced the flood"
            for reply in bounced:
                assert reply.payload["quota"] is True
                assert reply.payload["tenant"] == "alice"
                assert reply.retry_after >= 1.0
            # Cross-tenant byte-identity on the wire: bob re-requests
            # one of alice's completed seeds and gets her cached bytes.
            seed = served[0].payload["seed"]
            again = bob.run("table1", seed=seed, priority="bulk")
            assert again.ok and again.cached
            assert again.result == served[0].result
            snap = alice.metrics().payload
            tenants = snap["tenants"]
            assert tenants["alice"]["counters"]["quota_rejections"] \
                == len(bounced)
            assert tenants["bob"]["counters"]["completed"] >= 1
            assert snap["counters"]["quota_rejections"] == len(bounced)
        finally:
            alice.close()
            bob.close()
            proc.send_signal(signal.SIGTERM)
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
