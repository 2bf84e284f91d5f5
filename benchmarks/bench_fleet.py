"""Fleet bench — sweep throughput scale-out and interactive shielding.

Boots in-process fleets (:class:`repro.service.LocalFleet`: real
services, members, ring routing and work-stealing, direct-call
transport) of 1, 2 and 4 replicas and measures:

1. **Aggregate bulk sweep throughput** — one client floods a
   24-request sweep of distinct seeds through a single entry replica.
   On one replica the utilization cap leaves a single bulk lane
   (workers=2, cap=0.5), so the sweep serializes; on N replicas,
   consistent-hash routing spreads the sweep's keys to their owners
   and idle replicas steal from loaded backlogs, so throughput should
   approach N lanes.  The acceptance bar: 4 replicas ≥ 2.5x the
   single-replica throughput.
2. **Interactive p99 under bulk load** — while the 4-replica sweep
   runs, interactive requests are timed through the same entry
   replica.  Per-replica admission still holds a worker free of bulk
   (the Table 8 cap), so the bar is p99 ≤ 1.5x the no-load
   single-replica baseline.
3. **Byte identity** — the 4-replica concurrent sweep must return
   results byte-identical to the same sweep run serially on one
   replica (deterministic simulations + content-addressed routing
   make the fleet an optimization, never a semantic change).
4. **Two-tenant fairness across replicas** — ``bench_service.py``'s
   ``two_tenant`` phase on 2 replicas: each replica holds a 10-deep
   flood of keys it owns, and a light tenant's keys (owned by r0)
   enter through r1, so every light request is forwarded into r0's
   fair queue behind its flood.  Fair share must hold in the fleet as
   it does solo: the bar is a light tenant's *worst* latency under
   half the FIFO bound (``N_FLOOD × job``).

Jobs are synthetic fixed-duration sleeps for the same reason as in
``bench_service.py``: scale-out moves *queueing*, and fixed-duration
jobs isolate exactly that (real simulations would contend for the CI
host's cores and conflate scheduling with contention).

Results land in ``BENCH_fleet.json``.  Run directly
(``python benchmarks/bench_fleet.py``) or via pytest.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_service import N_FLOOD, N_LIGHT, TENANT_JOB_S, _tenant_job
from repro.experiments.config import SCALES
from repro.service import (
    FleetConfig,
    LocalFleet,
    ServiceConfig,
    SimRequest,
    percentile,
)

FLEET_SIZES = (1, 2, 4)
N_SWEEP = 24
N_INTERACTIVE = 8
WORKERS = 2
BULK_CAP = 0.5  # one bulk lane per replica: scale-out is the only win
JOB_DURATION_S = 0.2
MIN_SPEEDUP_4X = 2.5
MAX_P99_REGRESSION = 1.5


def synthetic_job(name, scale, store_path, check_invariants):
    """Fixed-duration stand-in for a simulation run."""
    time.sleep(JOB_DURATION_S)
    return f"synthetic {name} seed={scale.seed}"


def _make_fleet(replicas: int) -> LocalFleet:
    return LocalFleet(
        replicas,
        service_config=ServiceConfig(
            workers=WORKERS, bulk_cap=BULK_CAP, scale=SCALES["quick"]
        ),
        fleet_config=FleetConfig(steal_interval=0.01),
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=synthetic_job,
    )


def _sweep_payloads() -> list:
    return [
        {"experiment": "table1", "seed": 500 + i, "priority": "bulk"}
        for i in range(N_SWEEP)
    ]


def _measure_sweep(
    fleet: LocalFleet, *, interactive: bool
) -> tuple:
    """Flood the sweep through replica 0; optionally time interactive
    requests through the same replica while it runs."""
    results: list = []
    sweep_elapsed: list = []

    def sweep():
        t0 = time.perf_counter()
        results.extend(fleet.run_many(_sweep_payloads(), via=0))
        sweep_elapsed.append(time.perf_counter() - t0)

    thread = threading.Thread(target=sweep)
    thread.start()
    latencies = []
    if interactive:
        for i in range(N_INTERACTIVE):
            t0 = time.perf_counter()
            reply = fleet.run("table1", seed=1000 + i)
            latencies.append(time.perf_counter() - t0)
            assert reply.ok, reply.payload
    thread.join()
    assert all(r.ok for r in results), sorted(
        r.status for r in results
    )
    return results, sweep_elapsed[0], latencies


def _owned_seeds(fleet: LocalFleet, owner: str, n: int, start: int):
    """The first ``n`` table1 seeds from ``start`` owned by ``owner``."""
    member = fleet.members[0]
    seeds = []
    seed = start
    while len(seeds) < n:
        key = SimRequest("table1", seed=seed).run_key(
            member.service.default_scale
        )
        if member.ring.owner(key) == owner:
            seeds.append(seed)
        seed += 1
    return seeds


def _measure_two_tenant() -> dict:
    """A light tenant's bulk latency behind per-replica floods.

    One worker and ``bulk_cap=1.0`` serialize each replica's bulk
    lane, as in ``bench_service.py``; stealing stays at its default.
    FIFO would make each light request wait out r0's flood
    (~``N_FLOOD × job``); fair share should cost it only the
    in-service job plus its own.
    """
    fleet = LocalFleet(
        2,
        service_config=ServiceConfig(
            workers=1, bulk_cap=1.0, scale=SCALES["quick"]
        ),
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=_tenant_job,
    )
    with fleet:
        start = time.perf_counter()
        floods = []
        for via in range(2):
            payloads = [
                {"experiment": "table1", "seed": seed,
                 "priority": "bulk", "tenant": "flood"}
                for seed in _owned_seeds(fleet, f"r{via}", N_FLOOD, 600)
            ]
            replies: list = []
            thread = threading.Thread(
                target=lambda p=payloads, r=replies, v=via: r.extend(
                    fleet.run_many(p, via=v)
                )
            )
            thread.start()
            floods.append((thread, replies))
        # Let the floods queue up and get a little usage charged.
        time.sleep(2.5 * TENANT_JOB_S)
        light_latencies = []
        for seed in _owned_seeds(fleet, "r0", N_LIGHT, 700):
            t0 = time.perf_counter()
            reply = fleet.run(
                "table1", seed=seed, priority="bulk", tenant="light",
                via=1,
            )
            light_latencies.append(time.perf_counter() - t0)
            assert reply.ok, reply.payload
        for thread, replies in floods:
            thread.join()
            assert all(r.ok for r in replies)
        elapsed = time.perf_counter() - start
        agg = fleet.fleet_metrics()

    light_mean = sum(light_latencies) / len(light_latencies)
    fifo_wait = N_FLOOD * TENANT_JOB_S
    tenants = agg["tenant_totals"]
    return {
        "replicas": 2,
        "flood_requests_per_replica": N_FLOOD,
        "light_requests": N_LIGHT,
        "job_duration_s": TENANT_JOB_S,
        "light_mean_s": round(light_mean, 4),
        "light_worst_s": round(max(light_latencies), 4),
        "fifo_wait_bound_s": round(fifo_wait, 4),
        "fairness_ratio": round(light_mean / fifo_wait, 3),
        "elapsed_s": round(elapsed, 3),
        "forwards": agg["totals"]["forwards"],
        "steals": agg["totals"]["steals"],
        "flood_computes": tenants["flood"]["computes"],
        "light_computes": tenants["light"]["computes"],
    }


def run_bench(output: Path) -> dict:
    # No-load interactive baseline on a single replica.
    with _make_fleet(1) as solo:
        baseline_lat = []
        for i in range(N_INTERACTIVE):
            t0 = time.perf_counter()
            reply = solo.run("table1", seed=2000 + i)
            baseline_lat.append(time.perf_counter() - t0)
            assert reply.ok
        # Serial reference sweep for the byte-identity check (fresh
        # seeds all uncached: run one at a time).
        serial_results = [
            solo.run_many([p])[0] for p in _sweep_payloads()
        ]
    baseline_p99 = percentile(baseline_lat, 99)

    sweeps = {}
    interactive_p99 = None
    fleet_results = None
    for size in FLEET_SIZES:
        with _make_fleet(size) as fleet:
            results, elapsed, latencies = _measure_sweep(
                fleet, interactive=size == max(FLEET_SIZES)
            )
            totals = fleet.fleet_metrics()["totals"]
            sweeps[str(size)] = {
                "replicas": size,
                "sweep_requests": N_SWEEP,
                "elapsed_s": round(elapsed, 3),
                "throughput_rps": round(N_SWEEP / elapsed, 3),
                "forwards": totals["forwards"],
                "steals": totals["steals"],
                "steal_requeues": totals["steal_requeues"],
                "peer_replications": totals["peer_replications"],
                "computes": totals["computes"],
            }
            if size == max(FLEET_SIZES):
                interactive_p99 = percentile(latencies, 99)
                fleet_results = results

    for size in FLEET_SIZES:
        sweeps[str(size)]["speedup_vs_1"] = round(
            sweeps[str(size)]["throughput_rps"]
            / sweeps["1"]["throughput_rps"],
            2,
        )

    two_tenant = _measure_two_tenant()

    byte_identical = [
        r.payload["result"] for r in fleet_results
    ] == [r.payload["result"] for r in serial_results] and [
        r.payload["key"] for r in fleet_results
    ] == [
        r.payload["key"] for r in serial_results
    ]

    result = {
        "bench": "fleet",
        "workers_per_replica": WORKERS,
        "bulk_cap": BULK_CAP,
        "job_duration_s": JOB_DURATION_S,
        "sweeps": sweeps,
        "interactive": {
            "requests": N_INTERACTIVE,
            "baseline_p99_s": round(baseline_p99, 4),
            "under_load_p99_s": round(interactive_p99, 4),
            "regression_x": round(
                interactive_p99 / baseline_p99, 2
            ),
        },
        "byte_identical_to_serial": byte_identical,
        "two_tenant": two_tenant,
    }
    output.write_text(json.dumps(result, indent=2) + "\n")

    print(f"\nfleet bench (workers={WORKERS}/replica, "
          f"cap={BULK_CAP}, job={JOB_DURATION_S}s) -> {output}")
    print(f"{'replicas':<9} {'elapsed (s)':>11} {'req/s':>7} "
          f"{'speedup':>8} {'steals':>7} {'forwards':>9}")
    for size in FLEET_SIZES:
        row = sweeps[str(size)]
        print(
            f"{size:<9} {row['elapsed_s']:>11.2f} "
            f"{row['throughput_rps']:>7.2f} "
            f"{row['speedup_vs_1']:>7.2f}x "
            f"{row['steals']:>7d} {row['forwards']:>9d}"
        )
    print(
        f"interactive p99: baseline {baseline_p99:.3f}s, under "
        f"4-replica bulk load {interactive_p99:.3f}s "
        f"({interactive_p99 / baseline_p99:.2f}x); byte-identical: "
        f"{byte_identical}"
    )
    print(
        f"two tenants on 2 replicas: light mean "
        f"{two_tenant['light_mean_s']:.3f}s, worst "
        f"{two_tenant['light_worst_s']:.3f}s (FIFO bound "
        f"{two_tenant['fifo_wait_bound_s']:.1f}s)"
    )

    top = sweeps[str(max(FLEET_SIZES))]
    assert top["speedup_vs_1"] >= MIN_SPEEDUP_4X, (
        f"4-replica sweep speedup {top['speedup_vs_1']}x below the "
        f"{MIN_SPEEDUP_4X}x bar"
    )
    assert interactive_p99 <= MAX_P99_REGRESSION * baseline_p99, (
        f"interactive p99 {interactive_p99:.3f}s exceeds "
        f"{MAX_P99_REGRESSION}x no-load baseline {baseline_p99:.3f}s"
    )
    assert byte_identical, (
        "fleet sweep results diverged from the serial solo run"
    )
    assert (
        two_tenant["light_worst_s"]
        < 0.5 * two_tenant["fifo_wait_bound_s"]
    ), (
        f"light tenant worst latency {two_tenant['light_worst_s']}s "
        f"not under half the FIFO bound "
        f"{two_tenant['fifo_wait_bound_s']}s"
    )
    return result


def bench_fleet():
    run_bench(Path("BENCH_fleet.json"))


if __name__ == "__main__":
    run_bench(Path("BENCH_fleet.json"))
