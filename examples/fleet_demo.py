#!/usr/bin/env python
"""Fleet demo: a 3-replica sharded service, byte-identical to one.

This example (also CI's fleet smoke test) exercises the scale-out
serving layer (:mod:`repro.service.fleet`) end to end, without
sockets, via :class:`~repro.service.LocalFleet` — real services, real
consistent-hash routing, real work-stealing, direct-call transport:

1. run a reference bulk sweep serially on a single-replica fleet (the
   plain daemon) and keep its rendered results;
2. boot a 3-replica fleet and flood the same sweep through one entry
   replica concurrently — requests route to their ring owners, idle
   replicas steal from loaded backlogs;
3. verify the fleet's results are **byte-identical** to the serial
   single-daemon run (scale-out must be an optimization, never a
   semantic change);
4. repeat the sweep through a *different* replica and verify it is
   served entirely from cache (content-address routing means repeats
   find their owner's store no matter where they enter);
5. print the fleet-aggregated metrics: forwards, steals and peer
   replication that made the sweep spread.

Run:  PYTHONPATH=src python examples/fleet_demo.py
"""

import time
from concurrent.futures import ThreadPoolExecutor

from repro.experiments.config import SCALES
from repro.service import FleetConfig, LocalFleet, ServiceConfig

N_SWEEP = 18
REPLICAS = 3


def synthetic_job(name, scale, store_path, check_invariants):
    """Small fixed-cost stand-in for a simulation run (the demo is
    about routing, not simulation time)."""
    time.sleep(0.05)
    return f"rendered {name} seed={scale.seed}"


def make_fleet(replicas: int) -> LocalFleet:
    return LocalFleet(
        replicas,
        service_config=ServiceConfig(
            workers=2, bulk_cap=0.5, scale=SCALES["quick"]
        ),
        fleet_config=FleetConfig(steal_interval=0.01),
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=synthetic_job,
    )


def sweep_payloads() -> list:
    return [
        {"experiment": "table1", "seed": 100 + i, "priority": "bulk"}
        for i in range(N_SWEEP)
    ]


def main() -> None:
    # 1. Reference: the same sweep, serially, on a plain single
    #    daemon (a one-replica fleet is the solo daemon).
    with make_fleet(1) as solo:
        serial = [solo.run_many([p])[0] for p in sweep_payloads()]
    assert all(r.ok for r in serial)
    reference = [r.payload["result"] for r in serial]
    print(f"serial single-daemon sweep: {len(reference)} results")

    # 2. The 3-replica fleet, same sweep, concurrent, one entry point.
    with make_fleet(REPLICAS) as fleet:
        start = time.perf_counter()
        replies = fleet.run_many(sweep_payloads(), via=0)
        elapsed = time.perf_counter() - start
        assert all(r.ok for r in replies), sorted(
            r.status for r in replies
        )
        results = [r.payload["result"] for r in replies]
        print(
            f"{REPLICAS}-replica fleet sweep: {len(results)} results "
            f"in {elapsed:.2f}s"
        )

        # 3. Byte identity with the serial single-daemon run.
        assert results == reference, "fleet diverged from solo run"
        assert [r.payload["key"] for r in replies] == [
            r.payload["key"] for r in serial
        ]
        print("byte-identical to the single-daemon run")

        # 4. Repeat through a different replica: all cache.
        repeat = fleet.run_many(sweep_payloads(), via=REPLICAS - 1)
        assert all(r.ok and r.payload["cached"] for r in repeat), (
            "repeat sweep was not served from cache"
        )
        print(
            f"repeat sweep via replica r{REPLICAS - 1}: "
            f"{len(repeat)}/{len(repeat)} served from cache"
        )

        # 5. Fleet-aggregated metrics.
        agg = fleet.fleet_metrics()
        totals = agg["totals"]
        print(
            f"fleet of {agg['replica_count']}: "
            f"computes {totals['computes']}, "
            f"forwards {totals['forwards']}, "
            f"steals {totals['steals']} "
            f"(granted {totals['steals_granted']}, "
            f"requeued {totals['steal_requeues']}), "
            f"peer replications {totals['peer_replications']}"
        )
        assert totals["computes"] == N_SWEEP
        assert agg["replica_count"] == REPLICAS

    print("fleet demo passed")


if __name__ == "__main__":
    main()
