"""Resilience bench — recovery time and latency under worker chaos.

Two claims about the self-healing serving layer, measured in-process
with synthetic fixed-duration jobs (same rationale as the service
bench: the resilience machinery controls *re-execution and queueing
delay*, so fixed-cost jobs isolate exactly its overhead):

1. **Recovery**: a daemon restarted over a journal of N accepted-but-
   unsettled bulk requests replays and settles all of them; we report
   wall-clock from ``start()`` to a fully settled journal.
2. **Latency under chaos**: with a seeded ~10% per-dispatch worker-kill
   rate, every request still completes (retries, never dead-letters)
   and interactive p99 stays within a generous factor of the
   fault-free baseline — the supervisor's pool replacement and backoff
   are the only added cost.

Results land in ``BENCH_resilience.json``.  Run directly
(``python benchmarks/bench_resilience.py``) or via pytest.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import threading
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from pathlib import Path

from repro.experiments.config import SCALES
from repro.faults import FaultModel, RetryPolicy
from repro.service import (
    BulkJournal,
    LocalFleet,
    ServiceConfig,
    SimulationService,
    percentile,
)

WORKERS = 2
JOB_DURATION_S = 0.05
N_REPLAY = 24
N_INTERACTIVE = 12
N_BULK = 8
KILL_RATE = 0.10
CHAOS_SEED = 7
#: Generous: chaos adds at most a few retry/backoff cycles per tail
#: request on a CI box; the claim is "bounded", not "free".
MAX_CHAOS_P99_FACTOR = 4.0
MAX_RECOVERY_S = 30.0

FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.02, backoff_factor=1.5, max_delay=0.2
)


def synthetic_job(name, scale, store_path, check_invariants):
    time.sleep(JOB_DURATION_S)
    return f"synthetic {name} seed={scale.seed}"


class FaultyWorker:
    """Synthetic job that loses its worker (``BrokenExecutor``) on a
    seeded ~``KILL_RATE`` fraction of dispatches."""

    def __init__(self, kill_rate: float, seed: int) -> None:
        self._rng = FaultModel(mtbf=3600.0, seed=seed).victim_rng()
        self._kill_rate = kill_rate
        self._lock = threading.Lock()
        self.kills = 0

    def __call__(self, name, scale, store_path, check_invariants):
        with self._lock:
            killed = float(self._rng.random()) < self._kill_rate
            if killed:
                self.kills += 1
        if killed:
            raise BrokenExecutor("bench chaos: worker killed")
        return synthetic_job(name, scale, store_path, check_invariants)


# ----------------------------------------------------------------------
def _bench_recovery() -> dict:
    """Journal N accepts with no settles (a crashed daemon's WAL),
    then time a restart: start() -> every entry settled."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as tmp:
        journal_path = Path(tmp) / "journal.jsonl"
        journal = BulkJournal(journal_path)
        for i in range(N_REPLAY):
            journal.record_accept(
                key=f"bench-{i}", experiment="table1", scale="quick",
                seed=i,
            )
        journal.sync()
        journal.close()

        config = ServiceConfig(
            workers=WORKERS,
            scale=SCALES["quick"],
            journal_path=str(journal_path),
            retry=FAST_RETRY,
        )
        service = SimulationService(
            config,
            pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
            worker_fn=synthetic_job,
        )

        async def recover() -> float:
            t0 = time.perf_counter()
            await service.start()
            await service.drain()
            elapsed = time.perf_counter() - t0
            await service.stop()
            return elapsed

        elapsed = asyncio.run(recover())
        assert service.replayed == N_REPLAY
        assert service.journal.open_count == 0, "backlog not settled"
        assert elapsed < MAX_RECOVERY_S, (
            f"recovery of {N_REPLAY} entries took {elapsed:.1f}s"
        )
        return {
            "replayed_entries": N_REPLAY,
            "recovery_s": round(elapsed, 4),
            "per_entry_ms": round(1000.0 * elapsed / N_REPLAY, 2),
        }


def _measure_mixed_load(fleet: LocalFleet) -> dict:
    """Sequential timed interactive requests over a concurrent bulk
    flood (the service-bench shape)."""
    payloads = [
        {"experiment": "table1", "seed": 500 + i, "priority": "bulk"}
        for i in range(N_BULK)
    ]
    bulk_replies: list = []
    bulk_thread = threading.Thread(
        target=lambda: bulk_replies.extend(
            fleet.run_many(payloads)
        )
    )
    bulk_thread.start()
    latencies = []
    for i in range(N_INTERACTIVE):
        t0 = time.perf_counter()
        reply = fleet.run("table1", seed=1000 + i)
        latencies.append(time.perf_counter() - t0)
        assert reply.ok, reply.payload
    bulk_thread.join()
    assert all(r.ok for r in bulk_replies), (
        f"bulk failures: {sorted(r.status for r in bulk_replies)}"
    )
    counters = fleet.metrics()["counters"]
    return {
        "interactive_p50_s": round(percentile(latencies, 50), 4),
        "interactive_p99_s": round(percentile(latencies, 99), 4),
        "bulk_completed": len(bulk_replies),
        "retries": counters["retries"],
        "dead_letters": counters["dead_letters"],
        "worker_replacements": counters["worker_replacements"],
    }


def _bench_chaos_latency() -> dict:
    config = ServiceConfig(
        workers=WORKERS, scale=SCALES["quick"], retry=FAST_RETRY
    )
    with LocalFleet(
        1,
        service_config=config,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=synthetic_job,
    ) as fleet:
        baseline = _measure_mixed_load(fleet)

    faulty = FaultyWorker(KILL_RATE, CHAOS_SEED)
    with LocalFleet(
        1,
        service_config=config,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=faulty,
    ) as fleet:
        chaos = _measure_mixed_load(fleet)
    chaos["worker_kills"] = faulty.kills

    assert chaos["dead_letters"] == 0
    assert chaos["bulk_completed"] == N_BULK
    if faulty.kills:
        assert chaos["retries"] >= faulty.kills
    bound = MAX_CHAOS_P99_FACTOR * max(
        baseline["interactive_p99_s"], JOB_DURATION_S
    )
    assert chaos["interactive_p99_s"] <= bound, (
        f"chaos interactive p99 {chaos['interactive_p99_s']:.3f}s "
        f"exceeds {bound:.3f}s "
        f"({MAX_CHAOS_P99_FACTOR}x the fault-free baseline)"
    )
    return {"fault_free": baseline, "chaos": chaos}


def run_bench(output: Path) -> dict:
    recovery = _bench_recovery()
    latency = _bench_chaos_latency()
    result = {
        "bench": "resilience",
        "workers": WORKERS,
        "job_duration_s": JOB_DURATION_S,
        "kill_rate": KILL_RATE,
        "chaos_seed": CHAOS_SEED,
        "recovery": recovery,
        "latency": latency,
    }
    output.write_text(json.dumps(result, indent=2) + "\n")

    print(f"\nresilience bench -> {output}")
    print(
        f"recovery: {recovery['replayed_entries']} journaled entries "
        f"replayed in {recovery['recovery_s']:.2f}s "
        f"({recovery['per_entry_ms']:.1f} ms/entry)"
    )
    for phase in ("fault_free", "chaos"):
        row = latency[phase]
        extra = (
            f", kills={row.get('worker_kills', 0)}"
            f", retries={row['retries']}"
            if phase == "chaos" else ""
        )
        print(
            f"{phase:<11} interactive p50={row['interactive_p50_s']:.3f}s "
            f"p99={row['interactive_p99_s']:.3f}s "
            f"bulk done={row['bulk_completed']}{extra}"
        )
    return result


def bench_resilience():
    run_bench(Path("BENCH_resilience.json"))


if __name__ == "__main__":
    run_bench(Path("BENCH_resilience.json"))
