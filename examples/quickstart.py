#!/usr/bin/env python
"""Quickstart: run an interstitial project on a simulated supercomputer.

This is the five-minute tour of the library:

1. pick a machine (the paper's ASCI Blue Mountain);
2. generate a calibrated synthetic native workload (two simulated weeks);
3. define an interstitial project — many identical small jobs;
4. measure the project's makespan two ways:
   * *omniscient* (the paper's zero-native-impact bound), and
   * *fallible* (realistic, estimate-driven submission);
5. report the impact on the native jobs.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    InterstitialProject,
    blue_mountain,
    ideal_makespan_for,
    run_continual,
    run_native,
    run_omniscient_samples,
    synthetic_trace_for,
    utilization_summary,
    wait_stats,
)
from repro.core.sampling import sample_short_projects
from repro.jobs import JobKind
from repro.units import HOUR


def main() -> None:
    rng = np.random.default_rng(2003)

    # 1. The machine: 4662 CPUs at 262 MHz, LSF-style hierarchical
    #    fair-share scheduling with EASY backfill.
    machine = blue_mountain()
    print(f"machine: {machine}")

    # 2. Two weeks of calibrated synthetic native load (the paper used
    #    84 days of the real log; scale=0.17 keeps this example quick).
    trace = synthetic_trace_for("blue_mountain", rng=rng, scale=0.17)
    print(
        f"native trace: {trace.n_jobs} jobs over "
        f"{trace.duration / 86400:.1f} days, offered utilization "
        f"{trace.offered_utilization(machine):.3f}"
    )

    # 3. An interstitial project: 3000 x 32-CPU x 120 s @ 1 GHz jobs
    #    (about 1.2 peta-cycles).  On Blue Mountain's 262 MHz CPUs each
    #    job actually runs 458 s.
    project = InterstitialProject(
        n_jobs=3000, cpus_per_job=32, runtime_1ghz=120.0, name="sweep"
    )
    print(f"project: {project.describe()}")
    print(
        f"per-job runtime on {machine.name}: "
        f"{project.runtime_on(machine):.0f} s"
    )

    # 4a. Baseline native-only run + omniscient packing (zero impact).
    native = run_native(machine, trace.jobs, horizon=trace.duration)
    print(
        f"\nnative-only utilization: {native.native_utilization:.3f}"
    )
    omni_spans, _ = run_omniscient_samples(
        native, trace.jobs, project, n_samples=10, rng=rng,
    )
    print(
        "omniscient makespan: "
        f"{omni_spans.mean() / HOUR:.1f} ± {omni_spans.std() / HOUR:.1f} h"
        f"  (theory: "
        f"{ideal_makespan_for(project, machine, native.native_utilization) / HOUR:.1f} h)"
    )

    # 4b. Fallible mode: a continual feed (the paper's trick) sampled
    #     for 3000-job projects at random start times.
    boosted, controller = run_continual(
        machine, trace.jobs, project, horizon=trace.duration
    )
    fallible = sample_short_projects(
        boosted.jobs(JobKind.INTERSTITIAL),
        n_jobs=project.n_jobs,
        n_samples=50,
        rng=rng,
    )
    if fallible.size:
        print(
            "fallible makespan:   "
            f"{fallible.mean() / HOUR:.1f} ± {fallible.std() / HOUR:.1f} h"
        )

    # 5. What did the native jobs pay?
    print(f"\n{utilization_summary(boosted).describe()}")
    base_stats = wait_stats(native.native_jobs)
    new_stats = wait_stats(boosted.native_jobs)
    print(f"native waits before: {base_stats.describe()}")
    print(f"native waits after:  {new_stats.describe()}")
    print(
        f"\ninterstitial jobs completed during the log: "
        f"{controller.n_submitted}"
    )


if __name__ == "__main__":
    main()
