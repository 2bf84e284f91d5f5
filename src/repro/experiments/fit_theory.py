"""§4.2 — The affine makespan calibration.

The paper fits its Table 2 points to
``Makespan(sec) = 5256 + 1.16 x P/(NC(1-U))`` (good to about ±17%).
This driver performs the same least-squares fit over our simulated
points and reports intercept, slope and worst relative error next to
the paper's values.
"""

from __future__ import annotations

from repro.experiments import table2
from repro.experiments.common import MACHINE_ORDER, TableResult
from repro.experiments.context import RunContext
from repro.theory import fit_affine
from repro.theory.makespan import PAPER_FIT_INTERCEPT_S, PAPER_FIT_SLOPE


def run(ctx: RunContext) -> TableResult:
    """Fit measured omniscient makespans against the ideal model."""
    t2 = table2.run(ctx)
    xs, ys = [], []
    for m in MACHINE_ORDER:
        for p in t2.data["points"][m]:
            xs.append(p["ideal_makespan_s"])
            ys.append(p["mean_makespan_s"])
    fit = fit_affine(xs, ys)
    result = TableResult(
        exp_id="fit_theory",
        title="Sec. 4.2: affine fit Makespan = a + b * P/(NC(1-U))",
        headers=["quantity", "paper", "measured"],
    )
    result.rows.append(
        ["intercept a (s)", f"{PAPER_FIT_INTERCEPT_S:.0f}",
         f"{fit.intercept:.0f}"]
    )
    result.rows.append(
        ["slope b", f"{PAPER_FIT_SLOPE:.2f}", f"{fit.slope:.2f}"]
    )
    result.rows.append(
        ["max relative error", "~17%",
         f"{fit.max_relative_error * 100:.0f}%"]
    )
    result.rows.append(["R^2", "-", f"{fit.r_squared:.3f}"])
    result.data["fit"] = fit
    result.data["x_seconds"] = xs
    result.data["y_seconds"] = ys
    result.notes.append(
        "The slope exceeds 1 for the paper's reason: utilization "
        "dispersion plus breakage; at reduced scale dispersion is "
        "relatively larger, so a somewhat larger slope is expected."
    )
    return result
