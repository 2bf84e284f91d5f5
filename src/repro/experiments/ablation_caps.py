"""Ablation — fine-grained utilization-cap sweep (extends Table 8b).

The paper samples caps at 90/95/98 %; here the whole trade-off curve is
swept so a facility can pick its own operating point: interstitial
throughput and overall utilization vs native median/mean wait.
"""

from __future__ import annotations

from typing import Tuple

from repro.experiments.common import (
    TableResult,
    fmt_k,
)
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import column_stats

MACHINE = "blue_mountain"
CPUS = 32
RUNTIME_1GHZ = 120.0
CAPS: Tuple[float, ...] = (0.82, 0.86, 0.90, 0.94, 0.98)


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    result = TableResult(
        exp_id="ablation_caps",
        title=(
            "Ablation: utilization-cap sweep on Blue Mountain "
            f"(continual {CPUS}CPU x 120s@1GHz, scale={scale.name})"
        ),
        headers=[
            "cap",
            "interstitial jobs",
            "overall util",
            "native median wait",
            "native mean wait",
        ],
    )
    baseline = column_stats(ctx.native_result_for(MACHINE))
    result.rows.append(
        [
            "native only",
            "0",
            f"{baseline['overall_utilization']:.3f}",
            fmt_k(baseline["median_wait_all_s"]),
            fmt_k(baseline["mean_wait_all_s"]),
        ]
    )
    result.data["native"] = baseline
    for cap in CAPS + (None,):
        res, _ = ctx.continual_result_for(
            MACHINE, CPUS, RUNTIME_1GHZ, max_utilization=cap
        )
        stats = column_stats(res)
        label = "uncapped" if cap is None else f"{cap:.0%}"
        result.rows.append(
            [
                label,
                str(stats["interstitial_jobs"]),
                f"{stats['overall_utilization']:.3f}",
                fmt_k(stats["median_wait_all_s"]),
                fmt_k(stats["mean_wait_all_s"]),
            ]
        )
        result.data[label] = stats
    result.notes.append(
        "Expected: monotone trade — higher caps buy interstitial "
        "throughput and overall utilization at growing native waits."
    )
    return result
