"""Table 5 — Native job performance impact on Blue Mountain.

Average and median wait times and expansion factors of native jobs,
over all jobs and the 5 % largest (by CPU-seconds), for the baseline
and the two continual 32-CPU interstitial streams.  Paper shape: the
longer interstitial jobs hurt natives more; means move ~10x while
medians move modestly.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    TableResult,
    fmt_k,
)
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import (
    CONTINUAL_CPUS,
    CONTINUAL_RUNTIMES_1GHZ,
)
from repro.jobs import JobKind
from repro.metrics.waits import expansion_factors, largest_fraction, wait_times
from repro.units import normalize_runtime

MACHINE = "blue_mountain"


def _population_stats(jobs) -> dict:
    waits = wait_times(jobs)
    efs = expansion_factors(jobs)
    efs = efs[np.isfinite(efs)]
    return {
        "mean_wait_s": float(waits.mean()) if waits.size else 0.0,
        "median_wait_s": float(np.median(waits)) if waits.size else 0.0,
        "mean_ef": float(efs.mean()) if efs.size else 1.0,
        "median_ef": float(np.median(efs)) if efs.size else 1.0,
    }


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    machine = ctx.machine_for(MACHINE)
    columns = [("Native only", ctx.native_result_for(MACHINE))]
    for runtime_1ghz in CONTINUAL_RUNTIMES_1GHZ:
        actual = normalize_runtime(runtime_1ghz, machine.clock_ghz)
        label = f"+ {CONTINUAL_CPUS}CPU x {actual:.0f}s"
        run_result, _ = ctx.continual_result_for(
            MACHINE, CONTINUAL_CPUS, runtime_1ghz
        )
        columns.append((label, run_result))

    result = TableResult(
        exp_id="table5",
        title=(
            "Table 5: Native job performance on Blue Mountain "
            f"(scale={scale.name})"
        ),
        headers=["population", "metric"] + [label for label, _ in columns],
    )
    all_stats = []
    big_stats = []
    for _, res in columns:
        natives = res.jobs(JobKind.NATIVE)
        all_stats.append(_population_stats(natives))
        big_stats.append(_population_stats(largest_fraction(natives, 0.05)))
    result.data["all"] = {
        label: s for (label, _), s in zip(columns, all_stats)
    }
    result.data["largest5"] = {
        label: s for (label, _), s in zip(columns, big_stats)
    }

    def rows_for(pop_label, stats):
        result.rows.append(
            [pop_label, "Avg wait (s)"]
            + [fmt_k(s["mean_wait_s"]) for s in stats]
        )
        result.rows.append(
            ["", "Median wait (s)"]
            + [fmt_k(s["median_wait_s"]) for s in stats]
        )
        result.rows.append(
            ["", "Avg EF"] + [f"{s['mean_ef']:.1f}" for s in stats]
        )
        result.rows.append(
            ["", "Median EF"] + [f"{s['median_ef']:.1f}" for s in stats]
        )

    rows_for("All native", all_stats)
    rows_for("5% largest", big_stats)
    result.notes.append(
        "Paper: all-native avg wait 2k -> 22k / 24k s, median 0 -> "
        "200 / 400 s; largest-5% avg 10k -> 66k / 93k s.  Means move an "
        "order of magnitude; medians move by ~one interstitial runtime."
    )
    return result
