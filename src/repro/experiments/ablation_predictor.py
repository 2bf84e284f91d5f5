"""Ablation — NWS-style runtime prediction (paper §4.3.1 suggestion).

"Usage prediction algorithms such as the Network Weather Service may be
able to provide better estimates."  We equip the Blue Mountain
scheduler with a per-user EWMA estimate corrector
(:class:`repro.sched.PerUserRuntimePredictor`) and measure what it buys
a continual interstitial stream and the native jobs, against the raw
user estimates.
"""

from __future__ import annotations

from repro.experiments.common import (
    TableResult,
    fmt_k,
)
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import column_stats
from repro.sched import PerUserRuntimePredictor, lsf_scheduler

MACHINE = "blue_mountain"
CPUS = 32
RUNTIME_1GHZ = 120.0


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    result = TableResult(
        exp_id="ablation_predictor",
        title=(
            "Ablation: per-user runtime predictor "
            f"(Blue Mountain, continual {CPUS}CPU x 120s@1GHz, "
            f"scale={scale.name})"
        ),
        headers=[
            "scheduler estimates",
            "interstitial jobs",
            "overall util",
            "native median wait",
            "native mean wait",
        ],
    )
    for label, predictor in (
        ("raw user estimates", None),
        ("EWMA predictor", PerUserRuntimePredictor()),
    ):
        if predictor is None:
            # Blue Mountain's own scheduler: the context's continual run.
            res, _ = ctx.continual_result_for(MACHINE, CPUS, RUNTIME_1GHZ)
        else:
            res, _ = ctx.continual_run(
                MACHINE,
                CPUS,
                RUNTIME_1GHZ,
                scheduler=lsf_scheduler(predictor=predictor),
            )
        stats = column_stats(res)
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
        "Expected: corrected estimates tighten backfill windows, "
        "letting natives start sooner (lower waits) at similar or "
        "better interstitial throughput."
    )
    return result
