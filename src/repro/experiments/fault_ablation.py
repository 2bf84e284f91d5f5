"""Ablation — stochastic node failures under continual interstitial load.

The paper's Figure 4 explains Blue Mountain's sub-100% ceiling with
*outages*, but its outage narrative is drain-style: capacity leaves,
running work survives.  Real machines also lose nodes mid-job.  This
ablation replays the continual Blue Mountain run under a seeded
:class:`~repro.faults.FaultModel` at several per-node MTBF settings and
quantifies the crash tax: overall utilization erodes with the failure
rate, fault-killed natives requeue and retry per the
:class:`~repro.faults.RetryPolicy`, and interstitial kills route
through the controller's re-credit path — the cheap-resubmission
property that makes scavenger workloads the right place to absorb
failures (arXiv:1909.00394).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.faults import FaultModel, RetryPolicy
from repro.jobs import JobKind
from repro.units import DAY, HOUR

MACHINE = "blue_mountain"
CPUS = 32
RUNTIME_1GHZ = 120.0
#: CPUs lost per node crash (Blue Mountain was built from large SMP
#: boxes; one failure domain takes a slab of CPUs with it).
CPUS_PER_NODE = 16

#: (label, per-node MTBF seconds, distribution); None disables faults
#: (the fault-free baseline is the context's cached continual run).
MTBF_SETTINGS: Tuple[Tuple[str, Optional[float], str], ...] = (
    ("no faults", None, "exponential"),
    ("MTBF 90 d/node", 90.0 * DAY, "exponential"),
    ("MTBF 30 d/node", 30.0 * DAY, "exponential"),
    ("MTBF 10 d/node", 10.0 * DAY, "exponential"),
    ("MTBF 30 d/node (Weibull)", 30.0 * DAY, "weibull"),
)


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    trace = ctx.trace_for(MACHINE)
    retry = RetryPolicy(
        max_attempts=5,
        base_delay=60.0,
        backoff_factor=2.0,
        max_delay=1.0 * HOUR,
    )
    result = TableResult(
        exp_id="fault_ablation",
        title=(
            "Ablation: stochastic node failures under continual "
            f"interstitial load (Blue Mountain, {CPUS_PER_NODE} CPUs/"
            f"node, scale={scale.name})"
        ),
        headers=[
            "fault model",
            "overall util",
            "native util",
            "failures",
            "killed nat/int",
            "retries",
            "dead-letter",
        ],
    )
    for label, mtbf, distribution in MTBF_SETTINGS:
        if mtbf is None:
            # Without faults the throttle never trips and the retry
            # policy never applies: this is the context's continual run.
            res, controller = ctx.continual_result_for(
                MACHINE, CPUS, RUNTIME_1GHZ
            )
        else:
            res, controller = ctx.continual_run(
                MACHINE,
                CPUS,
                RUNTIME_1GHZ,
                faults=FaultModel(
                    mtbf=mtbf,
                    mttr=4.0 * HOUR,
                    cpus_per_node=CPUS_PER_NODE,
                    distribution=distribution,
                    seed=scale.seed,
                ),
                retry=retry,
                throttle_after_failures=8,
                throttle_window=1.0 * HOUR,
                throttle_quiet_period=2.0 * HOUR,
            )
        killed_native = res.killed_count(JobKind.NATIVE)
        killed_inter = res.killed_count(JobKind.INTERSTITIAL)
        retries = sum(res.attempts.values())
        stats = {
            "overall_utilization": res.utilization(t1=trace.duration),
            "native_utilization": res.utilization(
                JobKind.NATIVE, t1=trace.duration
            ),
            "n_failures": res.n_failures,
            "killed_native": killed_native,
            "killed_interstitial": killed_inter,
            "retries": retries,
            "dead_lettered": len(res.dead_lettered),
            "controller_faults_seen": controller.n_faults_seen,
        }
        result.rows.append(
            [
                label,
                f"{stats['overall_utilization']:.3f}",
                f"{stats['native_utilization']:.3f}",
                str(res.n_failures),
                f"{killed_native}/{killed_inter}",
                str(retries),
                str(len(res.dead_lettered)),
            ]
        )
        result.data[label] = stats
    result.notes.append(
        "Expected: utilization erodes as per-node MTBF shrinks (crash "
        "windows add to the Figure-4 outage dips).  Victim draws are "
        "width-weighted, so wide natives absorb a disproportionate "
        "share of kills — each costs a full rerun, while an "
        "interstitial kill wastes at most one small job (the cheap-"
        "resubmission advantage of scavenger workloads)."
    )
    result.notes.append(
        "Same seed, same table: the fault schedule and victim draws "
        "are deterministic in the scale seed."
    )
    return result
