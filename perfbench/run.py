#!/usr/bin/env python3
"""The repository's benchmark: ``report``, ``replay`` and ``serve``.

Run from the repository root::

    python3 perfbench/run.py --workload report --seed 2003 --seconds 25 \
        --trace 0

* ``report`` renders a fixed subset of the experiment registry through
  ``generate_report`` at the quick preset, each report in a fresh
  process with the seed replacing the preset's.
* ``replay`` replays synthetic traces of the three machines natively
  (``run_native``), with and without node failures, in rounds until
  ``--seconds`` have passed.
* ``serve`` drives a real ``repro serve`` over two keep-alive
  connections for ``--seconds``: an open-loop interactive stream and a
  closed-loop bulk sweep.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace
1`` measures the same way, then repeats the work once with the
program's public entry points wrapped, and prints the per-layer
metrics.  Every output is checked; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and
the exit code is 0 only when every check passed.  Metric definitions
are in ``perfbench/README.md``; their names, units and bounds in
``BENCHMARK.json``.

Each run also writes a record with its host environment to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import DigestBook, load_reference
from hostspeed import HostSpeed

ROOT = workloads.ROOT
STATE = ROOT / ".perfbench"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def source_digest() -> str:
    """Digest of the program's sources (the checkout the benchmark
    runs in is not always a git repository)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "load_before": load,
        "commit": commit(),
        "src_sha256": source_digest(),
        # A 1-minute load above the CPU count means something else was
        # competing for the CPUs when the run began.
        "loaded_host": load[0] > nproc,
    }


def emit(names_units, values) -> dict:
    metrics = {}
    for name, unit in names_units:
        value = float(values.get(name, 0.0))
        # JSON has no NaN or infinity; a figure that could not be
        # measured (its run failed) is null.
        metrics[name] = {
            "value": value if math.isfinite(value) else None,
            "unit": unit,
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="'tiny' shrinks every workload to seconds (self-tests)",
    )
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the finally blocks stop every daemon
    # and probe this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = spec()
    env = host_environment()
    if env["loaded_host"]:
        print(f"perfbench: warning: load average {env['load_before'][0]:.2f}"
              f" exceeds {env['nproc']} CPUs; figures are not comparable "
              "with an idle host", file=sys.stderr)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = STATE / "runs" / (
        f"{args.workload}-{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    )
    run_dir.mkdir(parents=True)
    book = DigestBook(
        STATE / "digests.json",
        reference=load_reference() if args.size == "full" else None,
    )
    speed = HostSpeed(run_dir)
    opts = workloads.Options(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        tiny=args.size == "tiny", run_dir=run_dir, book=book, speed=speed,
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](opts)
    finally:
        speed.stop()
        book.save()
        shutil.rmtree(run_dir / "tmp", ignore_errors=True)
    outcome.rows["failed_share"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 1.0
    )
    env["load_after"] = os.getloadavg()
    finite = all(math.isfinite(v) for v in outcome.e2e.values())
    correct = (outcome.failed == 0 and outcome.valid and finite
               and outcome.attempted > 0)
    if args.trace:
        names = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        metrics = emit(names, outcome.rows)
    else:
        names = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        metrics = emit(names, outcome.e2e)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "environment": env, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": book.problems, "end_to_end": outcome.e2e,
        "per_layer": outcome.rows, "details": outcome.details,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_dir.name}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )
    for spans in run_dir.glob("*spans.json"):
        shutil.move(str(spans), str(results / f"{run_dir.name}.{spans.name}"))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"# {args.workload} seed {args.seed}: python {env['python']}, "
          f"{env['nproc']} CPUs ({env['cpu_model']}), load "
          f"{env['load_before'][0]:.2f} -> {env['load_after'][0]:.2f}, "
          f"commit {env['commit'][:12]}, src {env['src_sha256'][:12]}")
    for problem in book.problems:
        print(f"# check failed: {problem}")
    for name, entry in metrics.items():
        print(f"# {name:<36} {entry['value']!s:>22} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
