"""Figure 3 — CDF of short-project makespans on Blue Mountain.

Two equal-size 32-CPU projects: many short jobs (32 k x 120 s @ 1 GHz =
458 s actual) vs fewer long jobs (4 k x 960 s @ 1 GHz = 3664 s actual).
The paper overlays the theoretical minimum makespan (empty machine) and
the average-utilization minimum (normalized by 1/(1-<U>)); the long
right tail comes from projects that straddle persistently-high
utilization stretches.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampling import sample_short_projects
from repro.experiments.common import (
    TableResult,
    scaled_kjobs,
)
from repro.experiments.context import RunContext
from repro.jobs import InterstitialProject, JobKind
from repro.metrics.histograms import survival
from repro.theory import ideal_makespan_for
from repro.units import HOUR

MACHINE = "blue_mountain"
#: (kJobs, runtime s @ 1 GHz) for the two equal-peta-cycle projects.
CONFIGS = ((32.0, 120.0), (4.0, 960.0))
CPUS = 32

#: Survival-probability levels reported in the rendered table.
QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    machine = ctx.machine_for(MACHINE)
    native = ctx.native_result_for(MACHINE)
    utilization = native.native_utilization
    result = TableResult(
        exp_id="fig3",
        title=(
            "Figure 3: makespan CDF on Blue Mountain, 32-CPU projects "
            f"(scale={scale.name}; quantiles in hours)"
        ),
        headers=["project", "n", "theory-min", "theory-(1-U)"]
        + [f"q{int(q * 100)}" for q in QUANTILES],
    )
    for kjobs, runtime in CONFIGS:
        n_jobs = scaled_kjobs(kjobs, scale)
        project = InterstitialProject(
            n_jobs=n_jobs, cpus_per_job=CPUS, runtime_1ghz=runtime
        )
        cont, _ = ctx.continual_result_for(MACHINE, CPUS, runtime)
        samples = sample_short_projects(
            cont.records(JobKind.INTERSTITIAL),
            n_jobs=n_jobs,
            n_samples=scale.sampled_projects,
            rng=ctx.rng_for(f"fig3:{kjobs}:{runtime}"),
        )
        # Theory lines: empty machine and average-utilization minimum.
        theory_empty = ideal_makespan_for(project, machine, 0.0)
        theory_avg = ideal_makespan_for(project, machine, utilization)
        label = f"{n_jobs} x {CPUS}CPU x {runtime:.0f}s@1GHz"
        if samples.size == 0:
            result.rows.append([label, "0", "-", "-"] + ["n/a"] * len(QUANTILES))
            continue
        qs = np.quantile(samples, QUANTILES)
        result.rows.append(
            [
                label,
                str(samples.size),
                f"{theory_empty / HOUR:.1f}",
                f"{theory_avg / HOUR:.1f}",
            ]
            + [f"{q / HOUR:.1f}" for q in qs]
        )
        xs, surv = survival(samples)
        result.data[label] = {
            "samples_s": samples.tolist(),
            "survival_x_s": xs.tolist(),
            "survival_p": surv.tolist(),
            "theory_empty_s": theory_empty,
            "theory_avg_util_s": theory_avg,
        }
    result.notes.append(
        "Paper: means ~186 h (short jobs) vs ~200 h (long jobs) with "
        "large std (157 / 227 h) and a long right tail from "
        "persistently-high-utilization stretches."
    )
    return result
