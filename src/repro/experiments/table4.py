"""Table 4 — Fallible (estimate-driven) short-project makespans.

The realistic case: interstitial submission sees only user estimates
and the current queue.  Per the paper's §4.3.1 shortcut, each (CPUs,
runtime) job shape gets one *continual* run per machine and short
projects of N jobs are sampled at random start times from the continual
log; the table reports mean ± std makespans for the paper's eight
project configurations on Blue Mountain and Blue Pacific.

Rows whose sampled projects would outlive the log are reported
``n/a*`` — "makespan >= log time", exactly the paper's Blue Pacific
123-peta-cycle cells.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.sampling import sample_short_projects
from repro.experiments.common import (
    TableResult,
    fmt_pm_h,
    scaled_kjobs,
)
from repro.experiments.context import RunContext
from repro.jobs import JobKind

#: (peta-cycles, kJobs, CPUs/job, runtime s @ 1 GHz) — the paper's rows.
PAPER_ROWS: Tuple[Tuple[float, float, int, float], ...] = (
    (7.7, 2.0, 32, 120.0),
    (7.7, 0.25, 32, 960.0),
    (7.7, 8.0, 8, 120.0),
    (7.7, 1.0, 8, 960.0),
    (123.0, 32.0, 32, 120.0),
    (123.0, 4.0, 32, 960.0),
    (123.0, 128.0, 8, 120.0),
    (123.0, 16.0, 8, 960.0),
)

MACHINES = ("blue_mountain", "blue_pacific")
LABELS = {"blue_mountain": "Blue Mt", "blue_pacific": "Blue Pac"}


def _cell(
    machine: str,
    ctx: RunContext,
    cpus: int,
    runtime: float,
    n_jobs: int,
) -> Tuple[str, List[float]]:
    scale = ctx.scale
    result, _ = ctx.continual_result_for(machine, cpus, runtime)
    inter = result.records(JobKind.INTERSTITIAL)
    samples = sample_short_projects(
        inter,
        n_jobs=n_jobs,
        n_samples=scale.sampled_projects,
        rng=ctx.rng_for(f"table4:{machine}:{cpus}:{runtime}:{n_jobs}"),
    )
    if samples.size < max(3, scale.sampled_projects // 10):
        return "n/a*", []
    mean = float(samples.mean())
    std = float(samples.std(ddof=1)) if samples.size > 1 else 0.0
    return fmt_pm_h(mean, std), samples.tolist()


def run(ctx: RunContext) -> TableResult:
    """Build Table 4 for the given run context."""
    scale = ctx.scale
    result = TableResult(
        exp_id="table4",
        title=(
            "Table 4: Fallible short-project makespan (hours, mean ± std "
            f"over up to {scale.sampled_projects} sampled start times; "
            f"projects at {scale.project_scale:g}x paper size)"
        ),
        headers=["PetaCycle", "kJobs", "CPU", "runtime s@1GHz"]
        + [LABELS[m] for m in MACHINES],
    )
    result.data["samples"] = {}
    for peta, kjobs, cpus, runtime in PAPER_ROWS:
        n_jobs = scaled_kjobs(kjobs, scale)
        cells = []
        for m in MACHINES:
            cell, samples = _cell(m, ctx, cpus, runtime, n_jobs)
            cells.append(cell)
            result.data["samples"][(m, peta, kjobs, cpus, runtime)] = samples
        result.rows.append(
            [f"{peta:g}", f"{kjobs:g}", str(cpus), f"{runtime:.0f}"] + cells
        )
    result.notes.append("* makespan >= log time (too few complete samples)")
    result.notes.append(
        "Shape checks: fallible >= omniscient (Table 2); smaller/shorter "
        "jobs finish projects sooner; Blue Pacific's large projects "
        "cannot complete within the log."
    )
    return result
