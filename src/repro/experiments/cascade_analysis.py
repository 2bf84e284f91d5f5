"""§4.3.2.1 analysis — how native delays decompose into direct blocking
vs re-prioritization cascades.

The paper's claim: individual interstitial jobs delay a native job by
at most one interstitial runtime; mean waits nevertheless blow up
because "once a job is delayed, the delay may be propagated down to
subsequent jobs" — and "only about 1% of the jobs are actually
accounting for this large difference".

This driver replays Blue Mountain with the two §4.3.2 continual
streams, matches every native job to its baseline start time, and
reports the direct/cascade decomposition plus the concentration of the
damage across users (nobody wants the cascade landing on one group).
"""

from __future__ import annotations

from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import (
    CONTINUAL_CPUS,
    CONTINUAL_RUNTIMES_1GHZ,
)
from repro.jobs import JobKind
from repro.metrics.cascade import cascade_report
from repro.metrics.slowdown import impact_concentration
from repro.units import normalize_runtime

MACHINE = "blue_mountain"


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    machine = ctx.machine_for(MACHINE)
    baseline = ctx.native_result_for(MACHINE)
    result = TableResult(
        exp_id="cascade_analysis",
        title=(
            "Sec. 4.3.2.1: direct vs cascade native delays on Blue "
            f"Mountain (scale={scale.name})"
        ),
        headers=[
            "interstitial stream",
            "delayed > bound",
            "cascade fraction",
            "cascade share of extra wait",
            "mean extra wait",
            "max extra wait",
            "worst-user damage share",
        ],
    )
    for runtime_1ghz in CONTINUAL_RUNTIMES_1GHZ:
        actual = normalize_runtime(runtime_1ghz, machine.clock_ghz)
        loaded, _ = ctx.continual_result_for(
            MACHINE, CONTINUAL_CPUS, runtime_1ghz
        )
        report = cascade_report(
            baseline.jobs(JobKind.NATIVE),
            loaded.jobs(JobKind.NATIVE),
            interstitial_runtime_s=actual,
        )
        concentration = impact_concentration(
            baseline.jobs(JobKind.NATIVE), loaded.jobs(JobKind.NATIVE)
        )
        result.rows.append(
            [
                f"{CONTINUAL_CPUS}CPU x {actual:.0f}s",
                str(report.n_cascade),
                f"{report.cascade_fraction:.1%}",
                f"{report.cascade_share_of_extra_wait:.0%}",
                f"{report.mean_extra_wait_s:.0f}s",
                f"{report.max_extra_wait_s / 3600:.1f}h",
                f"{concentration:.0%}",
            ]
        )
        result.data[runtime_1ghz] = {
            "report": report,
            "concentration": concentration,
        }
    result.notes.append(
        "Paper: the per-event delay bound is one interstitial runtime; "
        "a ~1% tail of cascade-delayed jobs carries most of the mean "
        "blow-up."
    )
    return result
