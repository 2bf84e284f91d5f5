"""Service bench — interactive latency under bulk load.

Boots the in-process daemon (a one-member ``LocalFleet``) and measures
interactive p50/p99 latency and total throughput in three phases:

1. interactive-only baseline (no bulk traffic),
2. mixed load with the default bulk cap (bulk admitted only while a
   worker slot stays free — the paper's Table 8 utilization cap), and
3. the same mixed load with the cap disabled.

The policy claim under test: with the cap on, interactive p99 stays
within 25% of the baseline while every bulk request still completes;
with the cap off, bulk floods the pool and interactive latency
measurably degrades.

Jobs are synthetic fixed-duration sleeps rather than real simulations:
the admission policy controls *queueing delay*, and fixed-duration
jobs on a thread pool isolate exactly that quantity.  Real simulations
would additionally timeshare the host CPU (a single-core CI runner
degrades interactive latency under any policy), conflating scheduling
with contention the daemon cannot control.  Per-request simulation
cost has its own benches.

A fifth phase measures two-tenant fairness: a flood tenant queues a
10-deep bulk backlog on a single serialized lane, then a light tenant
submits; fair-share dequeue must interleave the newcomer ahead of the
flood's backlog, so its mean latency stays far below the FIFO bound
(``N_FLOOD × job``), recorded as ``fairness_ratio``.

A fourth phase measures the HTTP transport itself: the same run of
cache-hit requests driven over a real socket front end with one
connection per call (the pre-keep-alive client) versus one persistent
keep-alive connection.  Request cost there is ~zero (cached), so the
two numbers isolate pure connection overhead — the handshake tax
keep-alive removes from every fleet peer RPC and client call.

Results land in ``BENCH_service.json`` to seed the perf trajectory.
Run directly (``python benchmarks/bench_service.py``) or via pytest.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.experiments.config import SCALES
from repro.service import (
    FleetMember,
    HttpFrontend,
    LocalFleet,
    ServiceClient,
    ServiceConfig,
    SimulationService,
    percentile,
)

#: Interactive requests timed per phase / bulk requests flooded per
#: mixed phase.
N_INTERACTIVE = 12
N_BULK = 8
WORKERS = 2
CAPPED = 0.9
#: Synthetic job duration — long enough that queueing delay (a whole
#: multiple of it) dominates service-layer overhead (~1 ms).
JOB_DURATION_S = 0.25
MAX_P99_REGRESSION = 1.25


def synthetic_job(name, scale, store_path, check_invariants):
    """Fixed-duration stand-in for a simulation run."""
    time.sleep(JOB_DURATION_S)
    return f"synthetic {name} seed={scale.seed}"


def _measure_phase(fleet: LocalFleet, *, bulk: bool) -> dict:
    """Drive one phase and return its latency/throughput summary.

    Interactive requests run sequentially from this thread and are
    timed client-side; the bulk flood, when enabled, runs concurrently
    in the background.  Every phase gets a fresh service (and so a
    fresh in-memory store), which lets all phases replay the same seed
    sequence without cache hits.
    """
    bulk_replies: list = []
    bulk_thread = None
    if bulk:
        payloads = [
            {"experiment": "table1", "seed": 500 + i,
             "priority": "bulk"}
            for i in range(N_BULK)
        ]
        bulk_thread = threading.Thread(
            target=lambda: bulk_replies.extend(
                fleet.run_many(payloads)
            )
        )

    start = time.perf_counter()
    if bulk_thread is not None:
        bulk_thread.start()
    latencies = []
    for i in range(N_INTERACTIVE):
        t0 = time.perf_counter()
        reply = fleet.run("table1", seed=1000 + i)
        latencies.append(time.perf_counter() - t0)
        assert reply.ok, reply.payload
    if bulk_thread is not None:
        bulk_thread.join()
        assert all(r.ok for r in bulk_replies), (
            f"bulk requests failed: "
            f"{sorted(r.status for r in bulk_replies)}"
        )
    elapsed = time.perf_counter() - start

    completed = N_INTERACTIVE + len(bulk_replies)
    return {
        "interactive_p50_s": round(percentile(latencies, 50), 4),
        "interactive_p99_s": round(percentile(latencies, 99), 4),
        "interactive_mean_s": round(
            sum(latencies) / len(latencies), 4
        ),
        "bulk_completed": len(bulk_replies),
        "throughput_rps": round(completed / elapsed, 3),
        "elapsed_s": round(elapsed, 3),
    }


def _run_phase(bulk_cap: float, *, bulk: bool) -> dict:
    config = ServiceConfig(
        workers=WORKERS, bulk_cap=bulk_cap, scale=SCALES["quick"]
    )
    with LocalFleet(
        1,
        service_config=config,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=synthetic_job,
    ) as fleet:
        return _measure_phase(fleet, bulk=bulk)


#: Cache-hit HTTP requests timed per connection mode.
N_HTTP = 200


def _instant_job(name, scale, store_path, check_invariants):
    return f"instant {name} seed={scale.seed}"


def _measure_http_keep_alive() -> dict:
    """Connection overhead: N cache-hit requests over fresh
    connections vs one persistent connection."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(
            timeout=60.0
        )

    service = SimulationService(
        ServiceConfig(workers=WORKERS, scale=SCALES["quick"]),
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=_instant_job,
    )
    call(service.start())
    member = FleetMember(service)
    call(member.start())
    frontend = HttpFrontend(member, port=0)
    call(frontend.start())
    try:
        # Warm the cache once so every timed request is a pure
        # transport round trip.
        client = ServiceClient(port=frontend.port)
        client.run("table1", seed=1)
        client.close()
        modes = {}
        for mode, keep_alive in (
            ("close_per_call", False),
            ("keep_alive", True),
        ):
            start = time.perf_counter()
            for _ in range(N_HTTP):
                reply = client.run("table1", seed=1)
                assert reply.ok and reply.cached
                if not keep_alive:
                    client.close()
            elapsed = time.perf_counter() - start
            client.close()
            modes[mode] = {
                "requests": N_HTTP,
                "elapsed_s": round(elapsed, 4),
                "rps": round(N_HTTP / elapsed, 1),
                "mean_us": round(1e6 * elapsed / N_HTTP, 1),
            }
        modes["speedup"] = round(
            modes["keep_alive"]["rps"]
            / modes["close_per_call"]["rps"],
            2,
        )
        return modes
    finally:
        call(frontend.stop())
        call(member.finish_close())
        call(service.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()


#: Two-tenant fairness phase: one tenant floods the bulk queue, a
#: light tenant arrives after the whole flood is queued.
N_FLOOD = 10
N_LIGHT = 3
TENANT_JOB_S = 0.1


def _tenant_job(name, scale, store_path, check_invariants):
    time.sleep(TENANT_JOB_S)
    return f"tenant {name} seed={scale.seed}"


def _measure_two_tenant() -> dict:
    """Fair-share admission under a flood: the light tenant's bulk
    requests, submitted *after* a 10-deep flood from another tenant,
    must be interleaved ahead of the flood's backlog rather than
    waiting out the whole queue FIFO-style.

    One worker and ``bulk_cap=1.0`` serialize the bulk lane, so the
    dequeue order is the entire experiment: FIFO would make the light
    tenant wait ~``N_FLOOD × job`` seconds; fair share (the flood's
    decayed usage charges against it) should cost the light tenant
    only the in-service job plus at most a couple of interleaves.
    """
    config = ServiceConfig(
        workers=1, bulk_cap=1.0, scale=SCALES["quick"]
    )
    with LocalFleet(
        1,
        service_config=config,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=_tenant_job,
    ) as fleet:
        flood_replies: list = []
        flood_payloads = [
            {"experiment": "table1", "seed": 600 + i,
             "priority": "bulk", "tenant": "flood"}
            for i in range(N_FLOOD)
        ]
        start = time.perf_counter()
        flood_thread = threading.Thread(
            target=lambda: flood_replies.extend(
                fleet.run_many(flood_payloads)
            )
        )
        flood_thread.start()
        # Let the flood queue up and get a little usage charged.
        time.sleep(2.5 * TENANT_JOB_S)
        light_latencies = []
        for i in range(N_LIGHT):
            t0 = time.perf_counter()
            reply = fleet.run(
                "table1", seed=700 + i, priority="bulk",
                tenant="light",
            )
            light_latencies.append(time.perf_counter() - t0)
            assert reply.ok, reply.payload
        flood_thread.join()
        elapsed = time.perf_counter() - start
        assert all(r.ok for r in flood_replies)
        tenants = fleet.metrics()["tenants"]

    light_mean = sum(light_latencies) / len(light_latencies)
    fifo_wait = N_FLOOD * TENANT_JOB_S
    return {
        "flood_requests": N_FLOOD,
        "light_requests": N_LIGHT,
        "job_duration_s": TENANT_JOB_S,
        "light_mean_s": round(light_mean, 4),
        "light_worst_s": round(max(light_latencies), 4),
        "fifo_wait_bound_s": round(fifo_wait, 4),
        "fairness_ratio": round(light_mean / fifo_wait, 3),
        "elapsed_s": round(elapsed, 3),
        "flood_completed": tenants["flood"]["counters"]["completed"],
        "light_completed": tenants["light"]["counters"]["completed"],
    }


def run_bench(output: Path) -> dict:
    phases = {
        "baseline": _run_phase(CAPPED, bulk=False),
        "capped": _run_phase(CAPPED, bulk=True),
        "uncapped": _run_phase(1.0, bulk=True),
        "http_keep_alive": _measure_http_keep_alive(),
        "two_tenant": _measure_two_tenant(),
    }
    result = {
        "bench": "service",
        "workers": WORKERS,
        "bulk_cap": CAPPED,
        "job_duration_s": JOB_DURATION_S,
        "interactive_requests": N_INTERACTIVE,
        "bulk_requests": N_BULK,
        "phases": phases,
    }
    output.write_text(json.dumps(result, indent=2) + "\n")

    print(f"\nservice bench (workers={WORKERS}, cap={CAPPED}, "
          f"job={JOB_DURATION_S}s) -> {output}")
    header = (
        f"{'phase':<10} {'p50 (s)':>9} {'p99 (s)':>9} "
        f"{'mean (s)':>9} {'req/s':>7} {'bulk done':>9}"
    )
    print(header)
    for name, row in phases.items():
        if name in ("http_keep_alive", "two_tenant"):
            continue
        print(
            f"{name:<10} {row['interactive_p50_s']:>9.3f} "
            f"{row['interactive_p99_s']:>9.3f} "
            f"{row['interactive_mean_s']:>9.3f} "
            f"{row['throughput_rps']:>7.2f} "
            f"{row['bulk_completed']:>9d}"
        )
    ka = phases["http_keep_alive"]
    print(
        f"http       close/call {ka['close_per_call']['rps']:>8.1f} "
        f"req/s | keep-alive {ka['keep_alive']['rps']:>8.1f} req/s "
        f"({ka['speedup']:.2f}x)"
    )

    baseline_p99 = phases["baseline"]["interactive_p99_s"]
    capped = phases["capped"]
    uncapped = phases["uncapped"]
    assert capped["bulk_completed"] == N_BULK
    assert capped["interactive_p99_s"] <= (
        MAX_P99_REGRESSION * baseline_p99
    ), (
        f"capped interactive p99 {capped['interactive_p99_s']:.3f}s "
        f"exceeds {MAX_P99_REGRESSION}x baseline {baseline_p99:.3f}s"
    )
    assert uncapped["interactive_p99_s"] > (
        MAX_P99_REGRESSION * baseline_p99
    ), "disabling the cap should visibly degrade interactive latency"
    # Keep-alive must never make the transport slower; the usual win
    # on loopback is well above 1x (a connect round trip per call).
    assert phases["http_keep_alive"]["speedup"] > 0.9, (
        "persistent connections slower than per-call connections: "
        f"{phases['http_keep_alive']}"
    )
    two = phases["two_tenant"]
    print(
        f"two-tenant fairness: light mean "
        f"{two['light_mean_s']:.3f}s vs FIFO bound "
        f"{two['fifo_wait_bound_s']:.3f}s "
        f"(ratio {two['fairness_ratio']:.2f})"
    )
    assert two["flood_completed"] == N_FLOOD
    assert two["light_completed"] == N_LIGHT
    # The fairness claim: the late-arriving tenant pays an interleave
    # or two, not the whole flood's FIFO queue.
    assert two["light_mean_s"] < 0.5 * two["fifo_wait_bound_s"], (
        f"light tenant waited FIFO-style behind the flood: {two}"
    )
    return result


def bench_service():
    run_bench(Path("BENCH_service.json"))


if __name__ == "__main__":
    run_bench(Path("BENCH_service.json"))
