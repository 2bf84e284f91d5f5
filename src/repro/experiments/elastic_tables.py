"""Elastic interstitials: rigid vs moldable vs malleable, head to head.

The paper's Tables 5/6 price the breakage penalty of rigid ``n``-CPU
jobs — most dramatically on Blue Pacific, where an average of ~86 free
CPUs fits only two 32-CPU jobs and wastes the other 22 (factor 1.346).
This experiment drops the *same* finite project (32-CPU nominal jobs,
width range [4, 32]) into the native stream of each paper machine under
the three :class:`~repro.elastic.WidthPolicy` regimes and measures what
elasticity buys:

* project makespan (and its ratio to the rigid run),
* the closed-form breakage prediction for each policy
  (:func:`repro.theory.elastic_breakage_factor`),
* native mean wait relative to the native-only baseline (elasticity
  must not make interstitial jobs *more* intrusive), and
* the resize traffic (molded starts, shrinks, grows, kills).

The controller starts a fifth of the way into the log (machine warmed
up) and the project is sized to about a quarter of the remaining spare
capacity, so the elastic policies are exercised against a live native
stream rather than an empty machine.
"""

from __future__ import annotations

from repro.core.runners import run_with_controller
from repro.elastic import ElasticitySpec, elastic_controller
from repro.experiments.common import (
    INTERSTITIAL_USER,
    MACHINE_LABELS,
    MACHINE_ORDER,
    TableResult,
    fmt_h,
    fmt_k,
)
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import column_stats
from repro.jobs import InterstitialProject, JobKind
from repro.theory import breakage_factor, elastic_breakage_factor

#: Nominal (rigid) job width — the paper's continual-table shape.
NOMINAL_CPUS = 32
#: Elastic width range the project molds/resizes within.
MIN_WIDTH = 4
MAX_WIDTH = 32
#: Per-job runtime at 1 GHz (seconds).
RUNTIME_1GHZ = 1800.0
#: Controller drop-in point, as a fraction of the log.
START_FRACTION = 0.2
#: Project size as a fraction of the post-start spare capacity.
SPARE_FRACTION = 0.25

POLICIES = (
    ("rigid", ElasticitySpec.rigid()),
    ("moldable", ElasticitySpec.moldable()),
    ("malleable", ElasticitySpec.malleable()),
)


def _project_for(machine, native_utilization: float, window_s: float,
                 n_jobs_floor: int = 6) -> InterstitialProject:
    """Size the drop-in project to ``SPARE_FRACTION`` of the window's
    expected spare CPU-seconds."""
    runtime_s = RUNTIME_1GHZ / machine.clock_ghz
    work_per_job = NOMINAL_CPUS * runtime_s
    spare = machine.cpus * (1.0 - native_utilization) * window_s
    n_jobs = max(n_jobs_floor, round(SPARE_FRACTION * spare / work_per_job))
    return InterstitialProject(
        n_jobs=n_jobs,
        cpus_per_job=NOMINAL_CPUS,
        runtime_1ghz=RUNTIME_1GHZ,
        min_width=MIN_WIDTH,
        max_width=MAX_WIDTH,
        name=f"elastic-{n_jobs}x{NOMINAL_CPUS}",
        user=INTERSTITIAL_USER,
        group=INTERSTITIAL_USER,
    )


def _theory_factor(policy: str, n_cpus: int, utilization: float) -> float:
    if policy == "rigid":
        return breakage_factor(n_cpus, utilization, NOMINAL_CPUS)
    return elastic_breakage_factor(
        n_cpus,
        utilization,
        MIN_WIDTH,
        MAX_WIDTH,
        malleable=(policy == "malleable"),
    )


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    result = TableResult(
        exp_id="elastic_tables",
        title=(
            "Elastic interstitials: one finite project "
            f"({NOMINAL_CPUS}CPU nominal, widths [{MIN_WIDTH}, {MAX_WIDTH}]) "
            f"under the three width policies (scale={scale.name})"
        ),
        headers=[
            "machine",
            "policy",
            "jobs",
            "makespan h",
            "vs rigid",
            "theory brk",
            "native mean wait",
            "kills/shrinks/grows",
        ],
    )
    for machine_name in MACHINE_ORDER:
        machine = ctx.machine_for(machine_name)
        trace = ctx.trace_for(machine_name)
        native = ctx.native_result_for(machine_name)
        baseline = column_stats(native)
        utilization = min(native.native_utilization, 1.0 - 1e-9)
        start = START_FRACTION * trace.duration
        project = _project_for(
            machine, utilization, trace.duration - start
        )
        per_machine = {
            "native_baseline": baseline,
            "n_jobs": project.n_jobs,
            "native_utilization": utilization,
            "start_time": start,
        }
        rigid_makespan = None
        for policy, spec in POLICIES:

            def compute(spec=spec):
                controller = elastic_controller(
                    machine,
                    project,
                    spec,
                    start_time=start,
                )
                run_result = run_with_controller(
                    machine, trace.jobs, controller, **ctx.engine_options()
                )
                return run_result, controller

            res, controller = ctx.run_cached(
                {
                    "kind": "elastic",
                    "machine": machine.name,
                    "scheduler": machine.queue_algorithm,
                    "policy": spec.policy.value,
                    "n_jobs": project.n_jobs,
                    "cpus_per_job": NOMINAL_CPUS,
                    "min_width": MIN_WIDTH,
                    "max_width": MAX_WIDTH,
                    "runtime_1ghz": RUNTIME_1GHZ,
                    "start_time": start,
                },
                compute,
            )
            inter = res.records(JobKind.INTERSTITIAL)
            finished = res.count(JobKind.INTERSTITIAL)
            if finished != project.n_jobs:
                result.notes.append(
                    f"{machine_name}/{policy}: only {finished} of "
                    f"{project.n_jobs} jobs finished"
                )
            makespan = (
                max(j.finish_time for j in inter) - start if inter else 0.0
            )
            if policy == "rigid":
                rigid_makespan = makespan
            stats = column_stats(res)
            stats.update(
                makespan_s=makespan,
                vs_rigid=(
                    makespan / rigid_makespan if rigid_makespan else 1.0
                ),
                theory_breakage=_theory_factor(
                    policy, machine.cpus, utilization
                ),
                preempt_kills=res.counters.preempt_kills,
                preempt_shrinks=res.counters.preempt_shrinks,
                grows=res.counters.grows,
                molded_starts=res.counters.molded_starts,
                baseline_mean_wait_s=baseline["mean_wait_all_s"],
            )
            per_machine[policy] = stats
            result.rows.append(
                [
                    MACHINE_LABELS[machine_name],
                    policy,
                    str(finished),
                    fmt_h(makespan),
                    f"{stats['vs_rigid']:.2f}",
                    f"{stats['theory_breakage']:.3f}",
                    fmt_k(stats["mean_wait_all_s"]),
                    (
                        f"{stats['preempt_kills']}/"
                        f"{stats['preempt_shrinks']}/{stats['grows']}"
                    ),
                ]
            )
        result.data[machine_name] = per_machine
    result.notes.append(
        "Expected: malleable beats rigid makespan wherever breakage "
        "bites (Blue Pacific most) while native mean waits stay at the "
        "rigid level — shrinking seats natives that preemption would "
        "otherwise have waited for."
    )
    return result
