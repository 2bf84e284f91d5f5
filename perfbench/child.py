"""Program-side bootstrap: every process of the program that the
benchmark launches starts here, with ``src`` on ``PYTHONPATH``.

    python3 perfbench/child.py ready
    python3 perfbench/child.py report --seed N --experiments a,b --out F
    python3 perfbench/child.py replay --seeds N,M --scale X --seconds S
                                      --out F
    python3 perfbench/child.py serve --spans F -- <repro serve arguments>

``--trace 1`` installs the call-boundary tracing of :mod:`layers`
before the program runs; untraced and traced runs are otherwise
launched identically.  ``--cpu C`` pins the measured work to CPU ``C``,
next to that CPU's host-speed probe (see :mod:`hostspeed`).  ``ready``
and the first line of every mode import ``repro`` and note the
``time.monotonic()`` reading when that import finished, which the
launching process turns into ``setup_s``.
"""

import sys
import time

import repro  # noqa: F401  (the import whose completion is "ready")

READY = time.monotonic()

import argparse
import json
import os
from pathlib import Path
from time import perf_counter, process_time

import layers
from checks import digest, replay_fingerprint

#: Machines of the replay workload and their native schedulers
#: (``repro.sched.presets``): CONSERVATIVE, EASY, EASY + time-of-day.
MACHINES = ("ross", "blue_mountain", "blue_pacific")


def _sections(document: str):
    """Experiment name -> rendered section of a ``generate_report``
    document (its ``## name`` headings split it)."""
    out = {}
    for part in document.split("\n## ")[1:]:
        name, _, body = part.partition("\n")
        out[name.strip()] = body
    return out


def pin(args) -> None:
    """Run on the CPU whose host-speed probe times this workload."""
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})


def report(args) -> dict:
    from dataclasses import replace

    from repro.experiments.config import SCALES
    from repro.experiments.context import RunContext
    from repro.experiments.executor import aggregate_counters
    from repro.experiments.registry import REPORT_ORDER
    from repro.experiments.report import generate_report
    from repro.obs import Counters

    names = args.experiments.split(",")
    ctx = RunContext(scale=replace(SCALES["quick"], seed=args.seed))
    tracer = counters = None
    if args.trace:
        tracer, counters = layers.CallTracer(), Counters()
        layers.install_engine_tracing(tracer, counters)
    pin(args)
    start = time.monotonic()
    t0, cpu0 = perf_counter(), process_time()
    document = generate_report(ctx=ctx, experiments=names)
    wall, cpu = perf_counter() - t0, process_time() - cpu0
    out = {
        "interval": [start, time.monotonic()],
        "wall_s": wall,
        "cpu_s": cpu,
        "digests": {n: digest(t) for n, t in _sections(document).items()},
        "events": aggregate_counters(ctx).events,
    }
    if tracer is not None:
        store = ctx.store
        counts = counters.as_dict()
        counts["store_hits"] = store.hits + store.disk_hits
        counts["store_misses"] = store.misses
        out["rows"] = layers.engine_rows(
            tracer.stats, counts, list(REPORT_ORDER)
        )
        out["spans"] = tracer.span_records()
    return out


def replay(args) -> dict:
    import numpy as np

    from repro.core.runners import run_native
    from repro.experiments.registry import REPORT_ORDER
    from repro.faults import FaultModel
    from repro.machines import preset
    from repro.obs import Counters
    from repro.workload.synthetic import synthetic_trace_for

    # Inputs are built before timing (and before tracing is installed).
    inputs = []
    seeds = [int(s) for s in args.seeds.split(",")]
    for position, seed in enumerate(seeds):
        for index, name in enumerate(MACHINES):
            trace = synthetic_trace_for(
                name,
                rng=np.random.default_rng((seed, index)),
                scale=args.scale,
            )
            for faulted in (False, True):
                faults = None
                if faulted:
                    # The node-failure model of benchmarks/bench_engine.py.
                    faults = FaultModel(
                        mtbf=2.0e5, mttr=7200.0, cpus_per_node=16,
                        seed=seed,
                    )
                kind = f"{name}{'-faulted' if faulted else ''}"
                label = f"{position}:{seed}:{kind}"
                inputs.append((label, preset(name), trace, faults))
    tracer = counters = None
    if args.trace:
        tracer, counters = layers.CallTracer(), Counters()
        layers.install_engine_tracing(tracer, counters)
    pin(args)
    times = {label: [] for label, *_ in inputs}
    cpu_times = {label: [] for label, *_ in inputs}
    intervals = {label: [] for label, *_ in inputs}
    events = {}
    prints = {label: [] for label, *_ in inputs}
    started = perf_counter()
    while True:
        round_t0 = perf_counter()
        for label, machine, trace, faults in inputs:
            start = time.monotonic()
            t0, cpu0 = perf_counter(), process_time()
            result = run_native(machine, trace, faults=faults)
            times[label].append(perf_counter() - t0)
            cpu_times[label].append(process_time() - cpu0)
            intervals[label].append([start, time.monotonic()])
            events[label] = result.counters.events
            # Job ids come from a process-wide counter; ids relative to
            # the trace's first keep the fingerprint independent of
            # what the process built before.
            first = min(job.job_id for job in trace)
            jobs = [
                (job.job_id - first, job.start_time, job.finish_time)
                for job in (
                    result.finished + result.killed + result.dead_lettered
                )
            ]
            prints[label].append(
                replay_fingerprint(result.counters.events, jobs)
            )
        last = perf_counter() - round_t0
        elapsed = perf_counter() - started
        if elapsed + last > args.seconds:
            break
    out = {"times": times, "cpu_times": cpu_times, "intervals": intervals,
           "events": events, "fingerprints": prints,
           "wall_s": perf_counter() - started}
    if tracer is not None:
        counts = counters.as_dict()
        out["rows"] = layers.engine_rows(
            tracer.stats, counts, list(REPORT_ORDER)
        )
        out["spans"] = tracer.span_records()
    return out


def serve(args, argv) -> int:
    recorder = None
    if args.trace:
        recorder = layers.SpanRecorder()
        layers.install_service_tracing(recorder)
    from repro.cli import main

    code = main(argv)
    if recorder is not None:
        Path(args.spans).write_text(
            json.dumps(recorder.snapshot()), encoding="utf-8"
        )
    return code


def main() -> int:
    argv = sys.argv[1:]
    program_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, program_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("ready", "report", "replay",
                                         "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--experiments", default="")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seeds", default="")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "ready":
        print(json.dumps({"ready": READY}))
        return 0
    if args.mode == "serve":
        return serve(args, program_args)
    result = report(args) if args.mode == "report" else replay(args)
    result["ready"] = READY
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
