"""Ablation — how user estimate quality shapes interstitial computing.

The paper blames grossly-overestimated (default) runtimes both for
delaying interstitial submission and for letting interstitial jobs
poach native backfill windows (§4.3).  This ablation replays the same
Blue Mountain trace with three estimate regimes:

* ``perfect``   — estimate equals actual runtime;
* ``default``   — the calibrated default-heavy estimates (baseline);
* ``inflated``  — the default estimates doubled again.

and measures native impact and interstitial throughput of a continual
32-CPU x 120 s @ 1 GHz stream under each.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import (
    TableResult,
    fmt_k,
)
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import column_stats
from repro.jobs import Job
from repro.workload.trace import Trace

MACHINE = "blue_mountain"
CPUS = 32
RUNTIME_1GHZ = 120.0


def _with_estimates(jobs: List[Job], mode: str) -> List[Job]:
    out = []
    for job in jobs:
        copy = job.copy_unscheduled()
        if mode == "perfect":
            copy.estimate = copy.runtime
        elif mode == "inflated":
            copy.estimate = copy.estimate * 2.0
        elif mode != "default":
            raise ValueError(f"unknown estimate mode {mode!r}")
        out.append(copy)
    return out


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    trace = ctx.trace_for(MACHINE)
    result = TableResult(
        exp_id="ablation_estimates",
        title=(
            "Ablation: estimate quality vs interstitial effectiveness "
            f"(Blue Mountain, continual {CPUS}CPU x 120s@1GHz, "
            f"scale={scale.name})"
        ),
        headers=[
            "estimates",
            "interstitial jobs",
            "overall util",
            "native util",
            "native median wait",
            "native mean wait",
        ],
    )
    for mode in ("perfect", "default", "inflated"):
        if mode == "default":
            # The trace's own estimates: the context's continual run.
            res, _ = ctx.continual_result_for(MACHINE, CPUS, RUNTIME_1GHZ)
        else:
            res, _ = ctx.continual_run(
                MACHINE,
                CPUS,
                RUNTIME_1GHZ,
                trace=Trace(_with_estimates(trace.jobs, mode), trace.duration),
            )
        stats = column_stats(res)
        result.rows.append(
            [
                mode,
                str(stats["interstitial_jobs"]),
                f"{stats['overall_utilization']:.3f}",
                f"{stats['native_utilization']:.3f}",
                fmt_k(stats["median_wait_all_s"]),
                fmt_k(stats["mean_wait_all_s"]),
            ]
        )
        result.data[mode] = stats
    result.notes.append(
        "Expected: perfect estimates reduce native waits (no poached "
        "backfill windows) while keeping interstitial throughput "
        "comparable; further inflation mostly throttles interstitial "
        "submission."
    )
    return result
