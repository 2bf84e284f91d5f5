#!/usr/bin/env python
"""Plan a parameter-sweep campaign across three supercomputers.

Scenario (the paper's motivating use case): a research team has a
parameter sweep of ~100 000 single-configuration runs, each using a
handful of CPUs for a couple of minutes.  They can submit it as an
interstitial project on any of three machines.  Which machine finishes
it soonest, and how should the jobs be shaped (CPUs per job)?

The script combines the paper's two planning tools:

* the §4.2 analytic model — instant estimates from machine size, clock
  and utilization, with the breakage correction for job width;
* omniscient simulation on calibrated synthetic logs — the ground truth
  the analytic model approximates.

Run:  python examples/parameter_sweep_planning.py
"""

import zlib

import numpy as np

from repro import (
    InterstitialProject,
    breakage_factor,
    format_table,
    ideal_makespan_for,
    preset,
    run_native,
    run_omniscient_samples,
    synthetic_trace_for,
)
from repro.units import HOUR

MACHINES = ("ross", "blue_mountain", "blue_pacific")
#: Total sweep size: ~4.6 peta-cycles at 1 GHz.
SWEEP_PETA_CYCLES = 4.6
#: Candidate job widths to pack the sweep into.
WIDTHS = (1, 8, 32)
RUNTIME_1GHZ = 120.0
TRACE_SCALE = 0.12


def main() -> None:
    rng = np.random.default_rng(7)

    # One native baseline per machine (reused across widths).
    baselines = {}
    traces = {}
    for name in MACHINES:
        machine = preset(name)
        trace = synthetic_trace_for(
            name,
            rng=np.random.default_rng(zlib.crc32(name.encode())),
            scale=TRACE_SCALE,
        )
        traces[name] = trace
        baselines[name] = run_native(
            machine, trace.jobs, horizon=trace.duration
        )

    rows = []
    best = None
    for name in MACHINES:
        machine = preset(name)
        utilization = baselines[name].native_utilization
        for width in WIDTHS:
            project = InterstitialProject.from_peta_cycles(
                SWEEP_PETA_CYCLES, cpus_per_job=width,
                runtime_1ghz=RUNTIME_1GHZ, name="sweep",
            )
            theory = ideal_makespan_for(project, machine, utilization)
            breakage = breakage_factor(machine.cpus, utilization, width)
            corrected = theory * breakage
            makespans, _ = run_omniscient_samples(
                baselines[name],
                traces[name].jobs,
                project,
                n_samples=8,
                rng=rng,
            )
            measured = float(makespans.mean())
            rows.append(
                [
                    machine.name,
                    f"{width}",
                    f"{project.n_jobs}",
                    f"{utilization:.3f}",
                    f"{corrected / HOUR:.1f}",
                    f"{measured / HOUR:.1f}",
                ]
            )
            if best is None or measured < best[2]:
                best = (machine.name, width, measured)

    print(
        format_table(
            [
                "machine",
                "CPUs/job",
                "jobs",
                "utilization",
                "model est. (h)",
                "simulated (h)",
            ],
            rows,
            title=(
                f"Campaign plan: {SWEEP_PETA_CYCLES} peta-cycle sweep as "
                f"{RUNTIME_1GHZ:.0f}s@1GHz jobs"
            ),
        )
    )
    assert best is not None
    print(
        f"\nrecommendation: submit as {best[1]}-CPU jobs on {best[0]} "
        f"(expected completion {best[2] / HOUR:.1f} h)"
    )
    print(
        "rule of thumb (paper §5): keep CPUs/job well below the "
        "machine's average free pool so breakage stays near 1."
    )


if __name__ == "__main__":
    main()
