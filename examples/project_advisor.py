#!/usr/bin/env python
"""Advise an interstitial project before submitting it.

Scenario: a user arrives with "I have N jobs that each need W CPUs for
R minutes — is this a reasonable interstitial project for machine M,
and if not, how should I reshape it?"  The paper's §5 guidelines answer
that without running anything; this script applies them, then verifies
the advice with a short simulation.

Run:  python examples/project_advisor.py
"""

import numpy as np

from repro import InterstitialProject, blue_pacific, run_native, synthetic_trace_for
from repro.core.guidelines import advise, recommend_width
from repro.core.runners import run_omniscient_samples
from repro.units import HOUR
from repro.workload import validate_trace


def main() -> None:
    machine = blue_pacific()
    rng = np.random.default_rng(17)

    # The user's initial idea: 150 x 64-CPU x 10-minute-at-1GHz jobs
    # (sized to finish within the simulated campaign window, so the
    # guideline estimates and the simulation measure the same regime).
    naive = InterstitialProject(
        n_jobs=150, cpus_per_job=64, runtime_1ghz=600.0, name="naive"
    )

    # Measure the machine as-is.
    trace = synthetic_trace_for("blue_pacific", rng=rng, scale=0.1)
    report = validate_trace(trace, machine)
    print(report.describe())
    baseline = run_native(machine, trace.jobs, horizon=trace.duration)
    utilization = baseline.native_utilization
    print(
        f"\n{machine.name}: {machine.cpus} CPUs at utilization "
        f"{utilization:.3f} -> average free pool "
        f"{machine.cpus * (1 - utilization):.0f} CPUs"
    )

    # Guideline check of the naive shape.
    print(f"\n--- naive project: {naive.describe()}")
    print(advise(machine, naive, utilization,
                 log_duration_s=trace.duration).describe())

    # Reshape: same total cycles, recommended width, shorter jobs.
    width = recommend_width(machine, utilization)
    reshaped = InterstitialProject.from_peta_cycles(
        naive.peta_cycles,
        cpus_per_job=width,
        runtime_1ghz=120.0,
        name="reshaped",
    )
    print(f"\n--- reshaped project: {reshaped.describe()}")
    print(advise(machine, reshaped, utilization,
                 log_duration_s=trace.duration).describe())

    # Verify by simulation: omniscient makespans of both shapes.
    for project in (naive, reshaped):
        spans, _ = run_omniscient_samples(
            baseline,
            trace.jobs,
            project,
            n_samples=6,
            rng=np.random.default_rng(1),
        )
        print(
            f"\nsimulated omniscient makespan ({project.name}): "
            f"{spans.mean() / HOUR:.1f} ± {spans.std() / HOUR:.1f} h"
        )


if __name__ == "__main__":
    main()
