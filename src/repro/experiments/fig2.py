"""Figure 2 — Actual vs theoretical omniscient makespan scatter.

The paper plots each omniscient experiment as a point (theoretical
makespan, actual makespan) in hours, 1-CPU projects in black and 32-CPU
projects in gray, hugging the diagonal.  We emit the same point series
(and a fitted line) as a table plus machine-readable arrays.
"""

from __future__ import annotations

from typing import List

from repro.experiments import table2
from repro.experiments.common import MACHINE_LABELS, MACHINE_ORDER, TableResult
from repro.experiments.context import RunContext
from repro.metrics.ascii_plots import scatter
from repro.theory import fit_affine
from repro.units import HOUR


def run(ctx: RunContext) -> TableResult:
    """Build the Figure 2 point series."""
    t2 = table2.run(ctx)
    result = TableResult(
        exp_id="fig2",
        title="Figure 2: Actual vs theoretical makespan (hours)",
        headers=["machine", "CPU/Job", "PetaCycles", "theory_h",
                 "actual_h", "ratio"],
    )
    xs: List[float] = []
    ys: List[float] = []
    series = {1: [], 32: []}
    for m in MACHINE_ORDER:
        for p in t2.data["points"][m]:
            theory_h = p["ideal_makespan_s"] / HOUR
            actual_h = p["mean_makespan_s"] / HOUR
            xs.append(p["ideal_makespan_s"])
            ys.append(p["mean_makespan_s"])
            series[p["cpus_per_job"]].append((theory_h, actual_h))
            result.rows.append(
                [
                    MACHINE_LABELS[m],
                    str(p["cpus_per_job"]),
                    f"{p['peta_cycles']:.3g}",
                    f"{theory_h:.1f}",
                    f"{actual_h:.1f}",
                    f"{actual_h / theory_h:.2f}" if theory_h > 0 else "n/a",
                ]
            )
    fit = fit_affine(xs, ys)
    result.data["points_1cpu"] = series[1]
    result.data["points_32cpu"] = series[32]
    result.data["fit"] = fit
    all_points = series[1] + series[32]
    result.notes.append(
        "actual (y, hours) vs theory (x, hours); '/' is the y=x line:"
    )
    for line in scatter(all_points, rows=10, cols=52):
        result.notes.append(line)
    result.notes.append(f"affine fit over all points: {fit.describe()}")
    result.notes.append(
        "Paper Figure 2 shows the same points lying close to the "
        "diagonal with the 32-CPU (gray) points slightly above."
    )
    return result
