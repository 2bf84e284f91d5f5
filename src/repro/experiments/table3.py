"""Table 3 — 1-CPU vs 32-CPU jobs: breakage theory vs measurement.

The theory row is ``(N(1-U)/32) / floor(N(1-U)/32)`` per machine; the
actual row is the ratio of measured 32-CPU to 1-CPU omniscient
makespans from the Table 2 experiment (averaged over project sizes, as
the sizes barely matter for the ratio).
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments import table2
from repro.experiments.common import (
    MACHINE_LABELS,
    MACHINE_ORDER,
    TableResult,
)
from repro.experiments.context import RunContext
from repro.machines.presets import targets
from repro.theory import breakage_factor


def run(ctx: RunContext) -> TableResult:
    """Build Table 3 (reuses the Table 2 runs via the shared context)."""
    t2 = table2.run(ctx)
    result = TableResult(
        exp_id="table3",
        title="Table 3: 32-CPU vs 1-CPU makespan ratio (breakage)",
        headers=["row"] + [MACHINE_LABELS[m] for m in MACHINE_ORDER],
    )
    theory_paper = []
    theory_measured = []
    actual = []
    for m in MACHINE_ORDER:
        machine = ctx.machine_for(m)
        points = t2.data["points"][m]
        measured_util = points[0]["utilization"]
        theory_paper.append(
            breakage_factor(machine.cpus, targets(m).utilization, 32)
        )
        theory_measured.append(
            breakage_factor(machine.cpus, measured_util, 32)
        )
        ratios = []
        by_size = {}
        for p in points:
            by_size.setdefault(p["nominal_peta"], {})[
                p["cpus_per_job"]
            ] = p["mean_makespan_s"]
        for size, widths in by_size.items():
            if 1 in widths and 32 in widths and widths[1] > 0:
                ratios.append(widths[32] / widths[1])
        actual.append(float(np.mean(ratios)) if ratios else math.nan)

    def fmt(x: float) -> str:
        return "inf" if math.isinf(x) else f"{x:.3f}"

    result.rows.append(["Theory (paper U)"] + [fmt(x) for x in theory_paper])
    result.rows.append(
        ["Theory (measured U)"] + [fmt(x) for x in theory_measured]
    )
    result.rows.append(["Actual (simulated)"] + [fmt(x) for x in actual])
    result.data["theory_paper_u"] = dict(zip(MACHINE_ORDER, theory_paper))
    result.data["theory_measured_u"] = dict(
        zip(MACHINE_ORDER, theory_measured)
    )
    result.data["actual"] = dict(zip(MACHINE_ORDER, actual))
    result.notes.append(
        "Paper: theory 1.035 / 1.020 / 1.346, actual 1.023 / 1.024 / "
        "1.105 for Ross / Blue Mountain / Blue Pacific."
    )
    return result
