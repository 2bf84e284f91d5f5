"""Shared builder for the continual-interstitial tables (6, 7, 8a).

Each table compares the native-only baseline against two continual
32-CPU interstitial streams (short 120 s @ 1 GHz jobs and long
960 s @ 1 GHz jobs) on one machine, reporting interstitial throughput,
native throughput, overall/native utilization and the median native
wait over all jobs and over the 5 % largest (by CPU-seconds).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.experiments.common import (
    TableResult,
    fmt_k,
)
from repro.experiments.context import RunContext
from repro.jobs import JobKind
from repro.metrics.waits import largest_fraction, wait_times
from repro.sim.results import SimResult
from repro.units import normalize_runtime

#: Continual-table job shape used throughout §4.3.2.
CONTINUAL_CPUS = 32
CONTINUAL_RUNTIMES_1GHZ: Tuple[float, float] = (120.0, 960.0)


def column_stats(result: SimResult) -> dict:
    """Machine-readable stats for one table column."""
    natives = result.jobs(JobKind.NATIVE)
    waits = wait_times(natives)
    largest = largest_fraction(natives, 0.05)
    largest_waits = wait_times(largest)
    return {
        "interstitial_jobs": result.count(JobKind.INTERSTITIAL),
        "native_jobs": len(natives),
        "overall_utilization": result.overall_utilization,
        "native_utilization": result.native_utilization,
        "median_wait_all_s": float(np.median(waits)) if waits.size else 0.0,
        "median_wait_largest_s": (
            float(np.median(largest_waits)) if largest_waits.size else 0.0
        ),
        "mean_wait_all_s": float(waits.mean()) if waits.size else 0.0,
    }


def build(
    exp_id: str,
    machine_name: str,
    ctx: RunContext,
    title_machine: str,
    max_utilization: Optional[float] = None,
) -> TableResult:
    """Build one continual-interstitial table."""
    scale = ctx.scale
    machine = ctx.machine_for(machine_name)
    clock = machine.clock_ghz
    columns = [("Native Jobs", ctx.native_result_for(machine_name))]
    for runtime_1ghz in CONTINUAL_RUNTIMES_1GHZ:
        actual = normalize_runtime(runtime_1ghz, clock)
        label = f"{CONTINUAL_CPUS}CPU x {actual:.0f}sec"
        run, _ = ctx.continual_result_for(
            machine_name,
            CONTINUAL_CPUS,
            runtime_1ghz,
            max_utilization=max_utilization,
        )
        columns.append((label, run))

    result = TableResult(
        exp_id=exp_id,
        title=(
            f"Continual interstitial computing on {title_machine} "
            f"(scale={scale.name})"
            + (
                f", submission capped at util < {max_utilization:.0%}"
                if max_utilization is not None
                else ""
            )
        ),
        headers=["row"] + [label for label, _ in columns],
    )
    stats = [column_stats(run) for _, run in columns]
    result.data["columns"] = {
        label: s for (label, _), s in zip(columns, stats)
    }

    def row(label, fn):
        result.rows.append([label] + [fn(s) for s in stats])

    row("Interstitial jobs", lambda s: str(s["interstitial_jobs"]))
    row("Native jobs", lambda s: str(s["native_jobs"]))
    row("Overall Util", lambda s: f"{s['overall_utilization']:.3f}")
    row("Native Util", lambda s: f"{s['native_utilization']:.3f}")
    row(
        "Median Wait sec all / 5% largest",
        lambda s: (
            f"{fmt_k(s['median_wait_all_s'])} / "
            f"{fmt_k(s['median_wait_largest_s'])}"
        ),
    )
    row("Mean Wait sec (all)", lambda s: fmt_k(s["mean_wait_all_s"]))
    return result
