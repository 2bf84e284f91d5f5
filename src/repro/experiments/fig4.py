"""Figure 4 — Blue Mountain utilization, without and with continual
interstitial computing.

The paper's two panels show hourly utilization over the log: erratic
.78-average native utilization on top, essentially 100 % (except
outages) with continual interstitial computing below.  We emit the two
hourly series plus summary rows (mean, and the fraction of hours above
95 %).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.metrics.ascii_plots import sparkline
from repro.metrics.utilization import hourly_utilization

MACHINE = "blue_mountain"
CPUS = 32
RUNTIME_1GHZ = 120.0


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    native = ctx.native_result_for(MACHINE)
    cont, _ = ctx.continual_result_for(MACHINE, CPUS, RUNTIME_1GHZ)
    result = TableResult(
        exp_id="fig4",
        title=(
            "Figure 4: Blue Mountain hourly utilization without/with "
            f"continual interstitial computing (scale={scale.name})"
        ),
        headers=["series", "mean util", "std util", "hours > 95%",
                 "hours < 50%"],
    )
    for label, res in (("without interstitial", native),
                       ("with interstitial", cont)):
        times, utils = hourly_utilization(res)
        result.rows.append(
            [
                label,
                f"{utils.mean():.3f}",
                f"{utils.std():.3f}",
                f"{np.mean(utils > 0.95):.1%}",
                f"{np.mean(utils < 0.50):.1%}",
            ]
        )
        result.data[label] = {
            "hour_starts_s": times.tolist(),
            "utilization": utils.tolist(),
        }
        result.notes.append(
            f"{label:>22}: "
            + sparkline(utils, lo=0.0, hi=1.0, width=72)
        )
    result.notes.append(
        "Paper shape: top panel erratic around .78; bottom panel pinned "
        "near 1.0 except during outages."
    )
    return result
