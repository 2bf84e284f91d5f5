"""Table 8 (second) — Limited continual interstitial on Blue Mountain.

Interstitial submission only while machine utilization (interstitial
included) stays below 90 / 95 / 98 %.  Paper shape: the 90 % cap drops
interstitial jobs ~40 % and overall utilization by ~6 points but
restores native waits toward the baseline; 98 % costs only ~10 % of the
interstitial jobs.
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
CAPS: Tuple[float, ...] = (0.90, 0.95, 0.98)


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    native_stats = column_stats(ctx.native_result_for(MACHINE))
    uncapped, _ = ctx.continual_result_for(MACHINE, CPUS, RUNTIME_1GHZ)
    uncapped_stats = column_stats(uncapped)
    columns = [("uncapped", uncapped_stats)]
    for cap in CAPS:
        res, _ = ctx.continual_result_for(
            MACHINE, CPUS, RUNTIME_1GHZ, max_utilization=cap
        )
        columns.append((f"util < {cap:.0%}", column_stats(res)))

    result = TableResult(
        exp_id="table8_limited",
        title=(
            "Table 8b: Limited continual interstitial computing on "
            f"Blue Mountain, {CPUS}CPU x 120s@1GHz (scale={scale.name})"
        ),
        headers=["row"] + [label for label, _ in columns],
    )
    result.data["native_baseline"] = native_stats
    result.data["columns"] = {label: s for label, s in columns}

    def row(label, fn):
        result.rows.append([label] + [fn(s) for _, s in columns])

    row("Interstitial jobs", lambda s: str(s["interstitial_jobs"]))
    row(
        "Interstitial vs uncapped",
        lambda s: f"{s['interstitial_jobs'] / max(1, uncapped_stats['interstitial_jobs']):.0%}",
    )
    row("Native jobs", lambda s: str(s["native_jobs"]))
    row("Overall Utilization", lambda s: f"{s['overall_utilization']:.3f}")
    row("Native Utilization", lambda s: f"{s['native_utilization']:.3f}")
    row(
        "Median Wait sec all / 5% largest",
        lambda s: (
            f"{fmt_k(s['median_wait_all_s'])} / "
            f"{fmt_k(s['median_wait_largest_s'])}"
        ),
    )
    result.notes.append(
        f"native baseline median wait all/5%: "
        f"{fmt_k(native_stats['median_wait_all_s'])} / "
        f"{fmt_k(native_stats['median_wait_largest_s'])}"
    )
    result.notes.append(
        "Paper: caps 90/95/98% keep 64/80/90% of interstitial jobs and "
        "cut overall utilization by 6/3/1 points vs uncapped."
    )
    return result
