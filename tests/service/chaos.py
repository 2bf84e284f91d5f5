#!/usr/bin/env python
"""Seeded chaos harness for the serving daemon's resilience layer.

Each *round* is driven by a :class:`ChaosPlan` sampled from the same
deterministic RNG machinery the simulation engine uses for fault
injection (:meth:`repro.faults.FaultModel.victim_rng`), so a seed
fully determines which havoc is wreaked:

* **worker kills** — chosen requests lose their worker mid-simulation
  (the pool raises ``BrokenExecutor``); the supervisor must replace
  the pool and retry them to success;
* **store corruption** — chosen response-cache entries are truncated
  or bit-flipped on disk between phases; the integrity layer must
  quarantine them and recompute;
* **lease-holder death** — a stale computation lease (its owner long
  dead) is planted in front of one request; the store must break it
  instead of deadlocking;
* **daemon SIGKILL** (subprocess rounds) — a real ``repro serve
  --journal`` daemon is killed between journal append and completion;
  the restarted daemon must replay the accepted backlog.  The round
  submits as two tenants, and recovery must preserve each accepted
  request's tenant attribution (journal v2 records carry the tenant).

Every round asserts the two resilience invariants:

1. **exactly-one terminal state** — every journaled accept has exactly
   one settle record;
2. **byte-identical results** — every product equals the fault-free
   baseline for the same configuration.

Run (fast, in-process rounds only)::

    PYTHONPATH=src python tests/service/chaos.py --seeds 10

Add ``--sigkill-seeds N`` for the full kill/restart recovery rounds
(each boots two real daemons; seconds per round).
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
if str(REPO_SRC) not in sys.path:  # `python tests/service/chaos.py`
    sys.path.insert(0, str(REPO_SRC))

from repro.experiments.config import SCALES  # noqa: E402
from repro.faults import FaultModel, RetryPolicy  # noqa: E402
from repro.service import (  # noqa: E402
    BulkJournal,
    ServiceClient,
    ServiceConfig,
    SimulationService,
)
from repro.service.requests import BULK, SimRequest  # noqa: E402
from repro.service.resilience import COMPLETED  # noqa: E402
from repro.store import RunStore, content_key  # noqa: E402

#: The in-process round's request mix: (experiment, seed override).
JOBS: List[Tuple[str, int]] = [
    ("table2", 0), ("table2", 1), ("table2", 2), ("table2", 3),
    ("table1", 0), ("table1", 1), ("table1", 2), ("table1", 3),
]
JOB_INDEX = {job: i for i, job in enumerate(JOBS)}

#: Tight budgets so a round completes in milliseconds.
CHAOS_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.01, backoff_factor=1.0, max_delay=0.01
)
CHAOS_LEASE_TIMEOUT = 0.2


@dataclass(frozen=True)
class ChaosPlan:
    """One seed's worth of havoc, sampled deterministically."""

    seed: int
    #: Request indices whose first dispatch loses its worker.
    worker_kills: FrozenSet[int]
    #: Request indices whose cached entry is corrupted after phase 1.
    corruptions: FrozenSet[int]
    #: Subset of ``corruptions`` truncated instead of bit-flipped.
    truncations: FrozenSet[int]
    #: Request index that finds a dead owner's stale lease.
    stale_lease_victim: int
    #: Accepted requests before the daemon is SIGKILLed (subprocess).
    kill_after_accepts: int

    @classmethod
    def sample(cls, seed: int) -> "ChaosPlan":
        """Derive a plan from ``seed`` via the engine's fault-injection
        RNG — same stream discipline as simulated node failures."""
        rng = FaultModel(mtbf=3600.0, seed=seed).victim_rng()
        n = len(JOBS)
        kills = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        corrupt = rng.choice(
            n, size=int(rng.integers(1, 4)), replace=False
        )
        truncations = frozenset(
            int(i) for i in corrupt if rng.random() < 0.5
        )
        return cls(
            seed=seed,
            worker_kills=frozenset(int(i) for i in kills),
            corruptions=frozenset(int(i) for i in corrupt),
            truncations=truncations,
            stale_lease_victim=int(rng.integers(0, n)),
            kill_after_accepts=1 + int(rng.integers(0, 3)),
        )


# ----------------------------------------------------------------------
# In-process rounds: stub workers, real journal/supervisor/store.
# ----------------------------------------------------------------------
def product_payload(name: str, seed: int) -> Dict[str, Any]:
    return {"kind": "chaos-product", "experiment": name, "seed": seed}


def fault_free_product(name: str, seed: int) -> str:
    """The baseline result: deterministic, worker-independent."""
    blob = f"chaos:{name}:{seed}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def service_run_key(name: str, seed: int) -> str:
    """The daemon's response-cache key for one job at quick scale."""
    request = SimRequest(experiment=name, seed=seed, priority=BULK)
    scale = request.resolve_scale(SCALES["quick"])
    return content_key(request.run_payload(scale))


class ChaosWorker:
    """Stub worker under the plan's thumb: the chosen requests lose
    their worker (``BrokenExecutor``) on first dispatch; every request
    computes its product through a disk :class:`RunStore` so the
    planted stale lease is actually contended.  ``lease_breaks`` sums
    the stale leases its stores broke."""

    def __init__(self, plan: ChaosPlan, store_dir: str) -> None:
        self.plan = plan
        self.store_dir = store_dir
        self._lock = threading.Lock()
        self._crashed: set = set()
        self.lease_breaks = 0

    def __call__(self, name, scale, store_path, check_invariants) -> str:
        idx = JOB_INDEX[(name, scale.seed)]
        with self._lock:
            if idx in self.plan.worker_kills and idx not in self._crashed:
                self._crashed.add(idx)
                raise BrokenExecutor(f"chaos: killed worker of job {idx}")
        store = RunStore(
            self.store_dir,
            lease_timeout=CHAOS_LEASE_TIMEOUT,
            poll_interval=0.02,
        )
        product = store.get_or_compute(
            product_payload(name, scale.seed),
            lambda: fault_free_product(name, scale.seed),
        )
        with self._lock:
            self.lease_breaks += store.counters.lease_breaks
        return product


def _corrupt_entries(plan: ChaosPlan, store_dir: Path) -> int:
    """Damage the planned response-cache entries on disk: truncate
    (torn write) or flip a payload byte (bit rot)."""
    damaged = 0
    for idx in sorted(plan.corruptions):
        name, seed = JOBS[idx]
        entry = store_dir / f"{service_run_key(name, seed)}.pkl"
        if not entry.is_file():
            continue
        data = bytearray(entry.read_bytes())
        if idx in plan.truncations:
            entry.write_bytes(bytes(data[: max(1, len(data) // 2)]))
        else:
            data[-1] ^= 0xFF
            entry.write_bytes(bytes(data))
        damaged += 1
    return damaged


def _assert_journal_invariant(journal_path: Path) -> Dict[str, int]:
    """Invariant 1: exactly one terminal record per accepted request."""
    accepts, settles, torn = BulkJournal.read(journal_path)
    settle_counts: Dict[int, int] = {}
    for rec in settles:
        settle_counts[rec["id"]] = settle_counts.get(rec["id"], 0) + 1
    for rec in accepts:
        count = settle_counts.get(rec["id"], 0)
        assert count == 1, (
            f"accept id={rec['id']} has {count} terminal records "
            f"(exactly one required)"
        )
    orphans = set(settle_counts) - {rec["id"] for rec in accepts}
    assert not orphans, f"settles without accepts: {sorted(orphans)}"
    return {
        "accepts": len(accepts),
        "settles": len(settles),
        "torn": torn,
    }


def run_inprocess(seed: int) -> Dict[str, Any]:
    """One seeded in-process chaos round; returns a summary dict.
    Raises ``AssertionError`` on any invariant violation."""
    plan = ChaosPlan.sample(seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        tmp_path = Path(tmp)
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        journal_path = tmp_path / "journal.jsonl"

        # Plant the dead lease holder in front of its victim.
        victim = JOBS[plan.stale_lease_victim]
        lease = store_dir / f"{content_key(product_payload(*victim))}.lock"
        lease.write_text("99999")
        stale = time.time() - 3600.0
        os.utime(lease, (stale, stale))

        worker = ChaosWorker(plan, str(store_dir))
        config = ServiceConfig(
            workers=2,
            scale=SCALES["quick"],
            store_path=str(store_dir),
            journal_path=str(journal_path),
            retry=CHAOS_RETRY,
        )
        service = SimulationService(
            config,
            pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
            worker_fn=worker,
        )

        async def round_trip() -> Dict[str, Any]:
            await service.start()
            requests = [
                SimRequest(experiment=name, seed=job_seed, priority=BULK)
                for name, job_seed in JOBS
            ]
            first = await asyncio.gather(
                *(service.submit(req) for req in requests)
            )
            # Phase 2: damage cached entries, drop the memory layer,
            # and re-request the victims through the integrity path.
            damaged = _corrupt_entries(plan, store_dir)
            service.store.clear()
            second = await asyncio.gather(
                *(
                    service.submit(requests[idx])
                    for idx in sorted(plan.corruptions)
                )
            )
            await service.drain()
            snapshot = service.metrics_snapshot()
            await service.stop()
            return {
                "first": first,
                "second": second,
                "damaged": damaged,
                "snapshot": snapshot,
            }

        out = asyncio.run(round_trip())

        # Invariant 2: byte-identical to the fault-free baseline.
        for (name, job_seed), response in zip(JOBS, out["first"]):
            assert response.status == 200, response.payload
            expected = fault_free_product(name, job_seed)
            assert response.payload["result"] == expected, (
                f"job ({name}, {job_seed}) diverged from baseline"
            )
        for idx, response in zip(
            sorted(plan.corruptions), out["second"]
        ):
            name, job_seed = JOBS[idx]
            assert response.status == 200, response.payload
            assert response.payload["result"] == (
                fault_free_product(name, job_seed)
            ), f"recomputed job {idx} diverged from baseline"

        journal = _assert_journal_invariant(journal_path)
        store_counters = out["snapshot"]["store"]
        counters = out["snapshot"]["counters"]
        assert not lease.exists(), "stale lease never broken"
        assert worker.lease_breaks >= 1, "no worker store broke a lease"
        if out["damaged"]:
            assert store_counters["integrity_failures"] >= out["damaged"]
        if plan.worker_kills:
            assert counters["retries"] >= len(plan.worker_kills)
            assert counters["worker_replacements"] >= 1
        assert counters["dead_letters"] == 0

        return {
            "mode": "inprocess",
            "seed": seed,
            "jobs": len(JOBS),
            "worker_kills": len(plan.worker_kills),
            "corruptions": out["damaged"],
            "retries": counters["retries"],
            "replacements": counters["worker_replacements"],
            "quarantined": store_counters["quarantined"],
            "lease_breaks": worker.lease_breaks,
            **journal,
        }


# ----------------------------------------------------------------------
# SIGKILL rounds: a real daemon, killed and restarted.
# ----------------------------------------------------------------------
SIGKILL_JOBS: List[Tuple[str, int]] = [
    ("table1", 0), ("table1", 1), ("table1", 2), ("table1", 3),
]

#: The kill round runs two tenants — the journal must preserve which
#: tenant each accepted request belongs to across the crash, and the
#: restarted daemon must re-attribute the replayed work.
SIGKILL_TENANTS: Tuple[str, str] = ("alice", "bob")


def sigkill_tenant(job_seed: int) -> str:
    """Tenant for one kill-round job (alternating by seed)."""
    return SIGKILL_TENANTS[job_seed % len(SIGKILL_TENANTS)]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_daemon(
    port: int, store: Path, journal: Path
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--scale", "quick", "--port", str(port), "--workers", "1",
            "--bulk-cap", "1.0",  # one lane: a fractional cap starves
            "--store", str(store), "--journal", str(journal),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # lets _kill_group reap the workers
    )


def _submit_in_background(
    port: int, jobs: List[Tuple[str, int]]
) -> List[threading.Thread]:
    client = ServiceClient(port=port, timeout=120.0)

    def fire(name: str, seed: int) -> None:
        try:
            client.run(
                name, seed=seed, priority="bulk",
                tenant=sigkill_tenant(seed),
            )
        except OSError:
            pass  # the daemon died mid-request: that is the point

    threads = [
        threading.Thread(target=fire, args=job, daemon=True)
        for job in jobs
    ]
    for thread in threads:
        thread.start()
    return threads


def _kill_group(daemon: subprocess.Popen) -> None:
    """SIGKILL the daemon *and* its fork-started pool workers.  The
    daemon is its own session leader (``start_new_session``), so the
    group kill is atomic: a worker forked a moment before the kill
    cannot escape, and a SIGKILLed parent could never reap it."""
    try:
        os.killpg(daemon.pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):  # pragma: no cover - gone
        daemon.kill()


def _wait_for(
    predicate, timeout: float, interval: float = 0.05, what: str = ""
) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting: {what}"
        time.sleep(interval)


def run_sigkill(seed: int) -> Dict[str, Any]:
    """One kill/restart recovery round against a real daemon."""
    from repro.experiments.executor import render_experiment

    plan = ChaosPlan.sample(seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-kill-") as tmp:
        tmp_path = Path(tmp)
        store = tmp_path / "store"
        journal = tmp_path / "journal.jsonl"

        port = _free_port()
        daemon = _spawn_daemon(port, store, journal)
        killed_at: Optional[int] = None
        try:
            probe = ServiceClient(port=port)
            probe.wait_until_healthy(timeout=60.0)
            probe.close()
            _submit_in_background(port, SIGKILL_JOBS)
            # Kill between journal append and completion: as soon as
            # the WAL shows the planned number of durable accepts.
            target = plan.kill_after_accepts

            def enough_accepts() -> bool:
                accepts, _settles, _torn = BulkJournal.read(journal)
                return len(accepts) >= target

            _wait_for(
                enough_accepts, 60.0, 0.01,
                f">= {target} journaled accepts",
            )
            _kill_group(daemon)
            daemon.wait(timeout=30.0)
            accepts, settles, _torn = BulkJournal.read(journal)
            killed_at = len(accepts)
            open_ids = {rec["id"] for rec in accepts} - {
                rec["id"] for rec in settles
            }
        finally:
            if daemon.poll() is None:  # pragma: no cover - cleanup
                _kill_group(daemon)
                daemon.wait(timeout=30.0)

        # Restart on a fresh port; the journal must drive recovery.
        port2 = _free_port()
        daemon2 = _spawn_daemon(port2, store, journal)
        probe = ServiceClient(port=port2)
        try:
            probe.wait_until_healthy(timeout=60.0)

            def backlog_settled() -> bool:
                accepts, settles, _torn = BulkJournal.read(journal)
                return {rec["id"] for rec in accepts} <= {
                    rec["id"] for rec in settles
                }

            _wait_for(
                backlog_settled, 300.0, 0.1, "journal backlog settled"
            )
            # Replayed work must stay attributed: whatever per-tenant
            # accounting the recovery daemon built can only name the
            # round's two tenants (cached replays settle without
            # counters, so subset — never a stranger, never "default").
            recovered = probe.metrics().payload
            recovered_tenants = set(recovered.get("tenants", {}))
            assert recovered_tenants <= set(SIGKILL_TENANTS), (
                f"replay misattributed tenants: {recovered_tenants}"
            )
            daemon2.send_signal(signal.SIGTERM)
            assert daemon2.wait(timeout=60.0) == 0, "unclean drain"
        finally:
            probe.close()
            if daemon2.poll() is None:  # pragma: no cover - cleanup
                _kill_group(daemon2)
                daemon2.wait(timeout=30.0)

        journal_stats = _assert_journal_invariant(journal)
        accepts, settles, _torn = BulkJournal.read(journal)
        outcome_by_id = {rec["id"]: rec["outcome"] for rec in settles}
        reader = RunStore(store)
        verified = 0
        for rec in accepts:
            assert outcome_by_id[rec["id"]] == COMPLETED, rec
            # Attribution survived the SIGKILL: the journaled accept
            # carries the submitting tenant, matching the round's map.
            assert rec.get("tenant") == sigkill_tenant(rec["seed"]), (
                f"accept id={rec['id']} lost its tenant: {rec}"
            )
            got = reader.get(rec["key"], default=None)
            assert got is not None, f"no store entry for {rec}"
            scale = SCALES["quick"]
            if rec.get("seed") is not None:
                scale = replace(scale, seed=rec["seed"])
            baseline = render_experiment(
                rec["experiment"], scale, None, False
            )
            assert got == baseline, (
                f"recovered result for {rec} diverged from the "
                f"fault-free baseline"
            )
            verified += 1

        return {
            "mode": "sigkill",
            "seed": seed,
            "accepts_at_kill": killed_at,
            "open_at_kill": len(open_ids),
            "verified_byte_identical": verified,
            "tenants": sorted(
                {rec["tenant"] for rec in accepts}
            ),
            **journal_stats,
        }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Seeded chaos rounds against the serving daemon's "
            "resilience layer (see module docstring)."
        )
    )
    parser.add_argument(
        "--seeds", type=int, default=5, metavar="N",
        help="in-process chaos rounds to run (seeds 0..N-1; default 5)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=0, metavar="S",
        help="first seed (default 0)",
    )
    parser.add_argument(
        "--sigkill-seeds", type=int, default=0, metavar="N",
        help=(
            "additional SIGKILL/restart recovery rounds (each boots "
            "two real daemons; default 0)"
        ),
    )
    args = parser.parse_args(argv)
    summaries = []
    for seed in range(args.base_seed, args.base_seed + args.seeds):
        summary = run_inprocess(seed)
        summaries.append(summary)
        print(json.dumps(summary, sort_keys=True), flush=True)
    for seed in range(
        args.base_seed, args.base_seed + args.sigkill_seeds
    ):
        summary = run_sigkill(seed)
        summaries.append(summary)
        print(json.dumps(summary, sort_keys=True), flush=True)
    print(
        f"chaos: {len(summaries)} round(s) passed "
        f"(exactly-one terminal state and byte-identical results "
        f"held throughout)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
