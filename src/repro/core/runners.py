"""High-level one-call experiment runners.

:func:`run_with_controller` is the one place an
:class:`~repro.sim.engine.Engine` is built: it copies the input trace
(so the same trace can be replayed through many configurations), picks
the machine's own scheduler unless one is given, and takes the
engine's keywords — ``outages``, ``faults``, ``retry``, ``horizon``,
``wake_interval``, ``check_invariants``, ``recorder`` and ``timers``.
:func:`run_native` (no interstitial source) and :func:`run_continual`
(the §4.3.2 feed) pass those keywords through to it, so callers (e.g.
a :class:`~repro.experiments.context.RunContext` honouring the CLI's
``--check-invariants``) enable the engine's accounting validator
without any process-global switch.  :func:`run_omniscient_samples`
runs no engine: it packs a project into the native run it is handed.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import InterstitialSource
from repro.core.controller import InterstitialController
from repro.core.omniscient import OmniscientPacking, pack_project
from repro.faults import FaultModel, RetryPolicy
from repro.jobs import InterstitialProject, Job
from repro.machines import Machine
from repro.obs import PhaseTimers, TraceRecorder
from repro.sched.base import Scheduler
from repro.sched.presets import scheduler_for
from repro.sim.engine import Engine, SimConfig
from repro.sim.outages import OutageSchedule
from repro.sim.results import SimResult


def _copy_trace(trace: Iterable[Job]) -> List[Job]:
    return [job.copy_unscheduled() for job in trace]


def _trace_end(trace: Sequence[Job]) -> float:
    return max((job.submit_time for job in trace), default=0.0)


def run_with_controller(
    machine: Machine,
    trace: Sequence[Job],
    controller: Optional[InterstitialSource],
    scheduler: Optional[Scheduler] = None,
    outages: Optional[OutageSchedule] = None,
    faults: Optional[FaultModel] = None,
    retry: Optional[RetryPolicy] = None,
    horizon: Optional[float] = None,
    wake_interval: Optional[float] = None,
    check_invariants: bool = False,
    recorder: Optional[TraceRecorder] = None,
    timers: Optional[PhaseTimers] = None,
) -> SimResult:
    """Replay the native trace alongside an interstitial source (a
    finite, continual or limited controller, or a composite of them);
    ``controller=None`` replays the natives alone."""
    engine = Engine(
        machine=machine,
        scheduler=scheduler or scheduler_for(machine),
        trace=_copy_trace(trace),
        interstitial=controller,
        outages=outages,
        faults=faults,
        retry=retry,
        config=SimConfig(
            horizon=horizon,
            wake_interval=wake_interval,
            check_invariants=check_invariants,
        ),
        recorder=recorder,
        timers=timers,
    )
    return engine.run()


def run_native(
    machine: Machine, trace: Sequence[Job], **options: Any
) -> SimResult:
    """Replay the native trace with no interstitial jobs (the baseline
    every experiment compares against); ``options`` are
    :func:`run_with_controller`'s keywords."""
    return run_with_controller(machine, trace, None, **options)


def run_continual(
    machine: Machine,
    trace: Sequence[Job],
    project: InterstitialProject,
    max_utilization: Optional[float] = None,
    horizon: Optional[float] = None,
    **options: Any,
) -> Tuple[SimResult, InterstitialController]:
    """Continual interstitial computing (§4.3.2): feed interstitial jobs
    from the start of the run until ``horizon`` (default: last native
    submission), optionally under a utilization cap (§4.3.2.2);
    ``options`` are :func:`run_with_controller`'s keywords."""
    controller = InterstitialController(
        machine=machine,
        project=project,
        continual=True,
        max_utilization=max_utilization,
    )
    if horizon is None:
        horizon = _trace_end(trace)
    result = run_with_controller(
        machine, trace, controller, horizon=horizon, **options
    )
    return result, controller


def run_omniscient_samples(
    native_result: SimResult,
    trace: Sequence[Job],
    project: InterstitialProject,
    n_samples: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, List[OmniscientPacking]]:
    """The §4.1 experiment: pack the project omnisciently into the
    native-only run ``native_result`` (which fixes the machine) at
    ``n_samples`` random start times within the log of ``trace``;
    returns the makespans (seconds) and the packings.

    The baseline is the caller's, so one native run serves every
    project size, and a faulty or outage-ridden baseline is simply a
    native run made with those keywords.
    """
    rng = rng or np.random.default_rng(0)
    t_end = _trace_end(trace)
    makespans = np.empty(n_samples)
    packings: List[OmniscientPacking] = []
    for i in range(n_samples):
        start = float(rng.uniform(0.0, t_end)) if t_end > 0 else 0.0
        packing = pack_project(native_result, project, start_time=start)
        makespans[i] = packing.makespan
        packings.append(packing)
    return makespans, packings
