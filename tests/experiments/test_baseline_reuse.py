"""Ablation baselines are the context's cached continual run.

Four ablations compare one setting against the §4.3.2 continual Blue
Mountain run (32-CPU jobs, 120 s at 1 GHz) and take that row from
``RunContext.continual_result_for`` (DESIGN §9).  These tests pin that
each row's former hand-built configuration is the same run, and that
the drivers simulate nothing the context already holds.
"""

import pytest

from repro.core.controller import InterstitialController
from repro.core.runners import run_continual, run_with_controller
from repro.experiments import (
    ablation_estimates,
    ablation_predictor,
    ablation_preemption,
    fault_ablation,
)
from repro.experiments.context import RunContext
from repro.faults import RetryPolicy
from repro.jobs import InterstitialProject
from repro.sched import lsf_scheduler
from repro.sim.engine import Engine
from repro.units import HOUR

MACHINE, CPUS, RUNTIME_1GHZ = "blue_mountain", 32, 120.0


def _project():
    return InterstitialProject(
        n_jobs=1, cpus_per_job=CPUS, runtime_1ghz=RUNTIME_1GHZ
    )


def _throttled_with_retry(ctx):
    """fault_ablation's "no faults": throttle and retry, no fault model."""
    machine, trace = ctx.machine_for(MACHINE), ctx.trace_for(MACHINE)
    controller = InterstitialController(
        machine=machine,
        project=_project(),
        continual=True,
        throttle_after_failures=8,
        throttle_window=1.0 * HOUR,
        throttle_quiet_period=2.0 * HOUR,
    )
    result = run_with_controller(
        machine,
        trace.jobs,
        controller,
        retry=RetryPolicy(
            max_attempts=5,
            base_delay=60.0,
            backoff_factor=2.0,
            max_delay=1.0 * HOUR,
        ),
        horizon=trace.duration,
    )
    return result, controller


def _non_preemptive(ctx):
    """ablation_preemption's "non-preemptive (paper)"."""
    machine, trace = ctx.machine_for(MACHINE), ctx.trace_for(MACHINE)
    controller = InterstitialController(
        machine=machine,
        project=_project(),
        continual=True,
        preemptible=False,
        checkpointing=False,
    )
    result = run_with_controller(
        machine, trace.jobs, controller, horizon=trace.duration
    )
    return result, controller


def _copied_default_estimates(ctx):
    """ablation_estimates' "default": copied trace jobs."""
    machine, trace = ctx.machine_for(MACHINE), ctx.trace_for(MACHINE)
    return run_continual(
        machine,
        ablation_estimates._with_estimates(trace.jobs, "default"),
        _project(),
        horizon=trace.duration,
    )


def _lsf_without_predictor(ctx):
    """ablation_predictor's "raw user estimates"."""
    machine, trace = ctx.machine_for(MACHINE), ctx.trace_for(MACHINE)
    controller = InterstitialController(
        machine=machine, project=_project(), continual=True
    )
    result = run_with_controller(
        machine,
        trace.jobs,
        controller,
        scheduler=lsf_scheduler(predictor=None),
        horizon=trace.duration,
    )
    return result, controller


REUSED_ROWS = [
    (fault_ablation, "no faults", _throttled_with_retry),
    (ablation_preemption, "non-preemptive (paper)", _non_preemptive),
    (ablation_estimates, "default", _copied_default_estimates),
    (ablation_predictor, "raw user estimates", _lsf_without_predictor),
]


@pytest.mark.parametrize(
    "driver, label, former",
    REUSED_ROWS,
    ids=[driver.__name__.rsplit(".", 1)[-1] for driver, _, _ in REUSED_ROWS],
)
def test_reused_row_equals_former_configuration(
    driver, label, former, micro_scale, micro_ctx
):
    """The row a driver reads from the context's run equals the row it
    gives when that run is its former configuration, computed in a
    fresh context."""
    fresh = RunContext(scale=micro_scale)
    asked = []

    def former_run(*args, **kwargs):
        asked.append((args, kwargs))
        return former(fresh)

    fresh.continual_result_for = former_run
    expected = driver.run(fresh).data[label]
    assert asked == [((MACHINE, CPUS, RUNTIME_1GHZ), {})]
    assert driver.run(micro_ctx).data[label] == expected


def test_drivers_simulate_only_their_variants(micro_scale, monkeypatch):
    """With the shared continual and native runs cached, the four
    drivers run the engine once per variant row: 9 runs (13 when each
    built its own baseline)."""
    ctx = RunContext(scale=micro_scale)
    ctx.continual_result_for(MACHINE, CPUS, RUNTIME_1GHZ)
    ctx.native_result_for(MACHINE)
    runs = []
    engine_run = Engine.run

    def counted_run(engine):
        runs.append(engine)
        return engine_run(engine)

    monkeypatch.setattr(Engine, "run", counted_run)
    per_driver = {}
    for driver in (
        fault_ablation,
        ablation_preemption,
        ablation_estimates,
        ablation_predictor,
    ):
        before = len(runs)
        driver.run(ctx)
        per_driver[driver.__name__.rsplit(".", 1)[-1]] = len(runs) - before
    assert per_driver == {
        "fault_ablation": 4,
        "ablation_preemption": 2,
        "ablation_estimates": 2,
        "ablation_predictor": 1,
    }
    assert len(runs) == 9
