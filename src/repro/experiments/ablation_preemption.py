"""Ablation — preemptible interstitial jobs.

The paper's jobs are strictly non-preemptive: an interstitial job holds
its CPUs until completion, which is the entire mechanism of native
delay.  This ablation allows the engine to kill interstitial jobs the
moment a native job is blocked (killed work is wasted — there is no
checkpoint/restart) and quantifies the trade: native waits should
collapse back to the baseline while some fraction of interstitial
CPU-time is thrown away.
"""

from __future__ import annotations

from repro.experiments.common import (
    TableResult,
    fmt_k,
)
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import column_stats

MACHINE = "blue_mountain"
CPUS = 32
RUNTIME_1GHZ = 120.0


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    result = TableResult(
        exp_id="ablation_preemption",
        title=(
            "Ablation: preemptible interstitial jobs "
            f"(Blue Mountain, continual {CPUS}CPU x 120s@1GHz, "
            f"scale={scale.name})"
        ),
        headers=[
            "mode",
            "interstitial done",
            "preempted",
            "wasted CPU-h",
            "overall util",
            "native median wait",
            "native mean wait",
        ],
    )
    baseline = column_stats(ctx.native_result_for(MACHINE))
    result.data["native_baseline"] = baseline
    for label, preemptible, checkpointing in (
        ("non-preemptive (paper)", False, False),
        ("preemptible", True, False),
        ("preemptible+checkpoint", True, True),
    ):
        if not preemptible:
            # The paper's non-preemptive jobs: the context's continual run.
            res, controller = ctx.continual_result_for(
                MACHINE, CPUS, RUNTIME_1GHZ
            )
        else:
            res, controller = ctx.continual_run(
                MACHINE,
                CPUS,
                RUNTIME_1GHZ,
                preemptible=preemptible,
                checkpointing=checkpointing,
            )
        stats = column_stats(res)
        # One addition per killed member, in kill order.
        wasted_cpu_s = 0.0
        for record in res.killed_records:
            area = record.cpus * (record.finish_time - record.start_time)
            for _member in range(record.count):
                wasted_cpu_s += area
        wasted_cpu_h = (
            wasted_cpu_s / 3600.0
            - controller.work_preserved_cpu_s / 3600.0
        )
        n_killed = res.killed_count()
        stats["n_preempted"] = n_killed
        stats["wasted_cpu_h"] = wasted_cpu_h
        stats["preserved_cpu_h"] = controller.work_preserved_cpu_s / 3600.0
        result.rows.append(
            [
                label,
                str(stats["interstitial_jobs"]),
                str(n_killed),
                f"{wasted_cpu_h:.0f}",
                f"{stats['overall_utilization']:.3f}",
                fmt_k(stats["median_wait_all_s"]),
                fmt_k(stats["mean_wait_all_s"]),
            ]
        )
        result.data[label] = stats
    result.rows.append(
        [
            "native-only baseline",
            "0",
            "0",
            "0",
            f"{baseline['overall_utilization']:.3f}",
            fmt_k(baseline["median_wait_all_s"]),
            fmt_k(baseline["mean_wait_all_s"]),
        ]
    )
    result.notes.append(
        "Expected: preemption pulls native waits back toward the "
        "baseline at the cost of wasted interstitial CPU-time."
    )
    return result
