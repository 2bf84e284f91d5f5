"""Ablation — raising native load vs. interstitial computing.

The paper's central policy claim (§4.3.2.1, §5): "using interstitial
computing is a much more effective means of increasing machine
utilization than running longer or larger native jobs", because native
waits blow up as native utilization approaches 1 (the classic queueing
effect its introduction cites).

This experiment makes the comparison concrete on Blue Mountain: sweep
the *native* offered load upward and measure native waits at each
utilization, then run the baseline load plus a continual interstitial
stream reaching the same overall utilization — at the baseline's native
wait cost.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.runners import run_native
from repro.experiments.common import (
    TableResult,
    fmt_k,
)
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import column_stats
from repro.theory.queueing import mmc_mean_wait
from repro.workload.synthetic import synthetic_trace_for

MACHINE = "blue_mountain"
NATIVE_LOADS: Tuple[float, ...] = (0.70, 0.79, 0.88, 0.94)
CPUS = 32
RUNTIME_1GHZ = 120.0


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    machine = ctx.machine_for(MACHINE)
    result = TableResult(
        exp_id="ablation_load",
        title=(
            "Ablation: raising native load vs interstitial computing "
            f"(Blue Mountain, scale={scale.name})"
        ),
        headers=[
            "configuration",
            "native util",
            "overall util",
            "native median wait",
            "native mean wait",
            "M/M/c wait ref",
        ],
    )
    # M/M/c reference: rigid jobs make the machine behave like a few
    # wide "job slots", not thousands of independent CPUs — normalize
    # the server count by the mean job width so queueing is visible.
    mean_width = np.mean(
        [
            j.cpus
            for j in synthetic_trace_for(
                MACHINE, rng=ctx.rng_for("width-probe"),
                scale=min(scale.trace_scale, 0.05),
            ).jobs
        ]
    )
    slots = max(1, int(round(machine.cpus / mean_width)))
    # Sweep native offered load.
    traces = {}
    for load in NATIVE_LOADS:
        trace = traces[load] = synthetic_trace_for(
            MACHINE,
            rng=ctx.rng_for(f"load:{load}"),
            scale=scale.trace_scale,
            utilization=load,
        )
        res = run_native(
            machine,
            trace.jobs,
            horizon=trace.duration,
            **ctx.engine_options(),
        )
        stats = column_stats(res)
        mmc = mmc_mean_wait(slots, load, 2.5 * 3600.0)
        result.rows.append(
            [
                f"native load {load:.2f}",
                f"{stats['native_utilization']:.3f}",
                f"{stats['overall_utilization']:.3f}",
                fmt_k(stats["median_wait_all_s"]),
                fmt_k(stats["mean_wait_all_s"]),
                fmt_k(mmc),
            ]
        )
        result.data[f"native:{load}"] = stats
    # Baseline load + continual interstitial reaching high overall util.
    boosted, _ = ctx.continual_run(
        MACHINE, CPUS, RUNTIME_1GHZ, trace=traces[NATIVE_LOADS[1]]
    )
    stats = column_stats(boosted)
    result.rows.append(
        [
            f"native load {NATIVE_LOADS[1]:.2f} + interstitial",
            f"{stats['native_utilization']:.3f}",
            f"{stats['overall_utilization']:.3f}",
            fmt_k(stats["median_wait_all_s"]),
            fmt_k(stats["mean_wait_all_s"]),
            "-",
        ]
    )
    result.data["interstitial"] = stats
    result.notes.append(
        "Claim (paper §5): interstitial computing reaches ~the overall "
        "utilization of the highest native load at roughly the baseline "
        "native wait cost; pushing native load there directly blows "
        "waits up, as the M/M/c reference column also predicts."
    )
    return result
