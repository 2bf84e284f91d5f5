"""Command-line interface.

* ``repro <experiment> [--scale NAME]`` — run one experiment (or
  ``all``) and print its paper-style table;
* ``repro list`` — enumerate the available experiments;
* ``repro report [--scale NAME] [--output PATH] [--jobs N]`` —
  regenerate every table and figure into one markdown report, fanning
  out over N worker processes;
* ``repro profile <experiment>`` — run one experiment (or ``all``)
  serially with the engine's phase timers attached and print hot-phase
  wall-clock, aggregated event counters, and store behavior;
* ``repro serve [--host --port --workers N --bulk-cap C --journal F
  --request-timeout S] [--join HOST:PORT]`` — run the long-lived
  simulation service (see :mod:`repro.service`): interactive requests
  dispatch to a worker pool immediately, bulk requests are admitted
  only into utilization gaps below the cap, with response caching,
  request coalescing and graceful SIGTERM drain.  ``--journal`` makes
  accepted bulk work durable (replayed after a crash);
  ``--request-timeout`` bounds each dispatch, replacing hung workers
  and retrying their requests.  ``--join HOST:PORT`` federates this
  daemon into the fleet coordinated by the daemon at that address
  (consistent-hash routing, peer caching, work-stealing bulk sweeps;
  see :mod:`repro.service.fleet`).  ``--tenant-quota
  INFLIGHT[:SHARE]`` bounds each tenant's in-flight dispatches and
  bulk-queue share; ``--autoscale MIN:MAX`` lets the daemon grow and
  shrink its worker pool against the bulk-cap utilization signal
  (see :mod:`repro.service.tenancy`).

``--store DIR`` persists every simulation run content-addressed under
DIR, so repeated invocations (and parallel workers) reuse each other's
results.  ``--check-invariants`` runs every simulation with the
engine's accounting validator enabled (see
``SimConfig.check_invariants``) — slower, but any cluster-state
inconsistency aborts with a diagnostic snapshot instead of corrupting
results silently.  ``--trace FILE`` streams one structured JSONL
record per engine event to FILE (see :mod:`repro.obs`); traces of a
seeded configuration are byte-deterministic.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError
from repro.experiments.config import SCALES, current_scale
from repro.experiments.context import RunContext
from repro.experiments.registry import REPORT_ORDER, SPECS
from repro.experiments.report import profile_experiments, write_report
from repro.obs import JsonlRecorder
from repro.store import RunStore
from repro.version import repro_version


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of 'Interstitial "
            "Computing: Utilizing Spare Cycles on Supercomputers' "
            "(CLUSTER 2003)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(SPECS)
        + ["all", "list", "report", "profile", "serve"],
        help=(
            "experiment to run ('all' runs everything, 'list' "
            "enumerates them, 'report' writes a markdown report, "
            "'profile' times an experiment's engine phases, 'serve' "
            "runs the simulation service daemon)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro_version()}",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "experiment to profile (only with 'profile'; accepts any "
            "experiment name or 'all')"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="scaling preset (default: REPRO_BENCH_SCALE or 'default')",
    )
    parser.add_argument(
        "--output",
        default="repro_report.md",
        help="output path for 'report' (default: repro_report.md)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for 'report' (default 1 = serial; the "
            "report is byte-identical either way)"
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "directory for the content-addressed run store (default: "
            "in-memory only; parallel reports use a temporary one)"
        ),
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help=(
            "validate engine cluster accounting after every event "
            "batch (slower; aborts with a diagnostic on violation)"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "write one JSONL record per engine event to FILE "
            "(byte-deterministic for a seeded config; incompatible "
            "with 'report'/'list' and with --store, which would skip "
            "cached simulations)"
        ),
    )
    serving = parser.add_argument_group(
        "serving options (only with 'serve')"
    )
    serving.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for 'serve' (default: 127.0.0.1)",
    )
    serving.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port for 'serve' (default: 8765; 0 picks a free port)",
    )
    serving.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker-pool processes for 'serve' (default: 2)",
    )
    serving.add_argument(
        "--bulk-cap",
        type=float,
        default=0.9,
        metavar="C",
        help=(
            "utilization cap in (0, 1] for bulk admission: a bulk "
            "request is dispatched only while (busy+1)/workers <= C; "
            "1.0 disables the policy (default: 0.9)"
        ),
    )
    serving.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help=(
            "bulk queue bound before 429-style backpressure "
            "(default: 64)"
        ),
    )
    serving.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help=(
            "durable bulk-request journal (JSONL WAL): accepted bulk "
            "requests are fsynced here before admission and replayed "
            "on the next 'serve' start, so a crashed or SIGKILLed "
            "daemon resumes its queued work (default: no journal)"
        ),
    )
    serving.add_argument(
        "--join",
        default=None,
        metavar="HOST:PORT",
        help=(
            "join the serving fleet coordinated by the daemon at "
            "HOST:PORT: this daemon registers there, is assigned a "
            "replica id, and serves its share of the consistent-hash "
            "ring (requests routed by content address, bulk sweeps "
            "work-stolen across replicas; default: coordinate a new "
            "fleet)"
        ),
    )
    serving.add_argument(
        "--tenant-quota",
        default=None,
        metavar="INFLIGHT[:SHARE]",
        help=(
            "per-tenant admission quota: at most INFLIGHT dispatches "
            "in the pool per tenant (bulk over it defers in queue, "
            "interactive over it bounces 429), and at most "
            "SHARE (0, 1] of the bulk queue per tenant before its "
            "bulk arrivals bounce 429 (default SHARE: 0.5; default: "
            "no quota)"
        ),
    )
    serving.add_argument(
        "--autoscale",
        default=None,
        metavar="MIN:MAX",
        help=(
            "cap-aware worker autoscaling: grow the worker pool "
            "toward MAX while bulk work is deferred by the "
            "utilization cap, shrink toward MIN when the queue is "
            "empty and utilization is low (default: fixed pool of "
            "--workers)"
        ),
    )
    serving.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-request worker deadline: a dispatch running longer "
            "is treated as hung, its pool is replaced and the request "
            "retried with backoff, dead-lettered after the retry "
            "budget (default: no deadline)"
        ),
    )
    return parser


def _experiment_names(selector: str) -> list:
    """Expand an experiment selector ('all' or a single name)."""
    if selector == "all":
        return list(REPORT_ORDER)
    return [selector]


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name in sorted(SPECS):
            print(name)
        return 0
    if args.target is not None and args.experiment != "profile":
        parser.error("a target experiment is only valid with 'profile'")
    if args.trace is not None:
        if args.experiment in ("report", "profile", "serve"):
            parser.error(f"--trace cannot be combined with "
                         f"{args.experiment!r}")
        if args.store is not None:
            parser.error(
                "--trace needs a fresh in-memory store (cached runs "
                "skip the engine and would leave holes in the trace); "
                "drop --store"
            )
    scale = SCALES[args.scale] if args.scale else current_scale()
    if args.experiment == "serve":
        from repro.service import (
            ServiceConfig,
            TenantQuota,
            run_service,
        )

        if args.jobs != 1:
            parser.error("'serve' sizes its pool with --workers, "
                         "not --jobs")
        join = None
        if args.join is not None:
            join_host, sep, join_port = args.join.rpartition(":")
            if not sep or not join_host or not join_port.isdigit():
                parser.error("--join expects HOST:PORT, e.g. "
                             "--join 127.0.0.1:8765")
            join = (join_host, int(join_port))
        tenant_quota = None
        if args.tenant_quota is not None:
            try:
                tenant_quota = TenantQuota.parse(args.tenant_quota)
            except ConfigurationError as exc:
                parser.error(str(exc))
        autoscale_min = autoscale_max = None
        if args.autoscale is not None:
            low, sep, high = args.autoscale.partition(":")
            if not sep or not low.isdigit() or not high.isdigit():
                parser.error("--autoscale expects MIN:MAX, e.g. "
                             "--autoscale 1:8")
            autoscale_min, autoscale_max = int(low), int(high)
        config = ServiceConfig(
            workers=args.workers,
            bulk_cap=args.bulk_cap,
            max_queue=args.max_queue,
            scale=scale,
            store_path=args.store,
            check_invariants=args.check_invariants,
            journal_path=args.journal,
            request_timeout=args.request_timeout,
            tenant_quota=tenant_quota,
            autoscale_min=autoscale_min,
            autoscale_max=autoscale_max,
        )
        return run_service(
            config, host=args.host, port=args.port, join=join
        )
    ctx = RunContext(
        scale=scale,
        store=RunStore(args.store),
        check_invariants=args.check_invariants,
    )
    if args.experiment == "report":
        path = write_report(args.output, ctx=ctx, jobs=max(1, args.jobs))
        print(f"wrote {path}")
        return 0
    if args.experiment == "profile":
        if args.target is None:
            parser.error("profile needs a target experiment, e.g. "
                         "'repro profile table2'")
        if args.target != "all" and args.target not in SPECS:
            raise ConfigurationError(
                f"unknown experiment {args.target!r}; see 'repro list'"
            )
        print(profile_experiments(_experiment_names(args.target), ctx))
        return 0
    recorder = None
    if args.trace is not None:
        recorder = JsonlRecorder(args.trace)
        ctx.recorder = recorder
    try:
        for name in _experiment_names(args.experiment):
            result = SPECS[name].driver(ctx)
            print(result.render())
            print()
    finally:
        if recorder is not None:
            recorder.close()
    if recorder is not None:
        print(f"wrote {recorder.n_records} trace records to {args.trace}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
