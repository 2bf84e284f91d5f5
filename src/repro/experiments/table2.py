"""Table 2 — Omniscient interstitial project makespans.

For each machine and project size {7.7, 30.1, 123} peta-cycles (scaled)
with 1-CPU and 32-CPU jobs of 120 s @ 1 GHz, drop the project into the
native log at random start times and pack it omnisciently; report the
mean ± std makespan in hours over the samples.

The driver also exposes the raw (ideal-theory, measured) point pairs
that §4.2's fit, Table 3 and Figure 2 reuse — the point grid goes
through the context's content-addressed store (so parallel workers
share it), and every call rebuilds the table from those points.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.runners import run_omniscient_samples
from repro.experiments.common import (
    MACHINE_LABELS,
    MACHINE_ORDER,
    TableResult,
    fmt_pm_h,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.context import RunContext
from repro.jobs import InterstitialProject
from repro.theory import ideal_makespan_for

#: The paper's project sizes in peta-cycles and the job widths studied.
PAPER_PETA_CYCLES: Tuple[float, ...] = (7.7, 30.1, 123.0)
JOB_WIDTHS: Tuple[int, ...] = (1, 32)
RUNTIME_1GHZ = 120.0


def project_grid(scale: ExperimentScale) -> List[InterstitialProject]:
    """The scaled (peta-cycles x width) project grid."""
    projects = []
    for peta in PAPER_PETA_CYCLES:
        for width in JOB_WIDTHS:
            projects.append(
                InterstitialProject.from_peta_cycles(
                    peta * scale.project_scale,
                    cpus_per_job=width,
                    runtime_1ghz=RUNTIME_1GHZ,
                    name=f"{peta:g}PC x {width}CPU",
                )
            )
    return projects


def _compute_points(ctx: RunContext) -> Dict[str, List[Dict[str, float]]]:
    """The full omniscient point grid, one list of plain-float dicts
    per machine (store-friendly: no live objects)."""
    scale = ctx.scale
    points: Dict[str, List[Dict[str, float]]] = {m: [] for m in MACHINE_ORDER}
    nominal_sizes = [
        peta for peta in PAPER_PETA_CYCLES for _ in JOB_WIDTHS
    ]
    for nominal_peta, project in zip(nominal_sizes, project_grid(scale)):
        for m in MACHINE_ORDER:
            machine = ctx.machine_for(m)
            native = ctx.native_result_for(m)
            makespans, _ = run_omniscient_samples(
                native,
                ctx.trace_for(m).jobs,
                project,
                n_samples=scale.omniscient_samples,
                # Salt excludes the width so 1-CPU and 32-CPU projects
                # of one size share drop-in times — the Table 3 ratio
                # then isolates breakage from start-time luck.
                rng=ctx.rng_for(f"table2:{m}:{nominal_peta}"),
            )
            mean = float(makespans.mean())
            std = float(makespans.std(ddof=1)) if makespans.size > 1 else 0.0
            points[m].append(
                {
                    "nominal_peta": nominal_peta,
                    "peta_cycles": project.peta_cycles,
                    "cpus_per_job": project.cpus_per_job,
                    "n_jobs": project.n_jobs,
                    "mean_makespan_s": mean,
                    "std_makespan_s": std,
                    "ideal_makespan_s": ideal_makespan_for(
                        project, machine, native.native_utilization
                    ),
                    "utilization": native.native_utilization,
                }
            )
    return points


def run(ctx: RunContext) -> TableResult:
    """Build Table 2 from the store-cached point grid (Table 3, Figure
    2 and the §4.2 fit all call this and reuse the grid)."""
    scale = ctx.scale
    points = ctx.run_cached(
        {"kind": "artifact-data", "name": "table2-points"},
        lambda: _compute_points(ctx),
    )
    result = TableResult(
        exp_id="table2",
        title=(
            "Table 2: Omniscient interstitial makespan (hours, mean ± std "
            f"over {scale.omniscient_samples} random drop-ins; projects at "
            f"{scale.project_scale:g}x paper size)"
        ),
        headers=["PetaCycles", "kJobs", "CPU/Job"]
        + [MACHINE_LABELS[m] for m in MACHINE_ORDER],
    )
    for i, p0 in enumerate(points[MACHINE_ORDER[0]]):
        result.rows.append(
            [
                f"{p0['peta_cycles']:.3g}",
                f"{p0['n_jobs'] / 1000.0:g}",
                str(p0["cpus_per_job"]),
            ]
            + [
                fmt_pm_h(
                    points[m][i]["mean_makespan_s"],
                    points[m][i]["std_makespan_s"],
                )
                for m in MACHINE_ORDER
            ]
        )
    result.data["points"] = points
    result.notes.append(
        "Shape checks: makespan grows ~linearly in project size; "
        "Blue Pacific >> Blue Mountain ~ Ross; 32-CPU ~ 1-CPU except on "
        "Blue Pacific (breakage)."
    )
    return result
