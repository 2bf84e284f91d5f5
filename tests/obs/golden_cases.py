"""Canonical engine configurations pinned by the golden-trace suite.

Each case is a fully seeded simulation small enough to check its JSONL
trace into the repository: per machine preset one *native* baseline,
one *faulted* native run, and one *continual* interstitial run, plus a
single *malleable* elastic run on Blue Pacific (shrink/grow records).
Two more cases split large offers (up to 32 identical members): a
narrow-job continual run on a faulty Blue Mountain, whose node
failures draw victims across and inside offers, and a preemptible,
checkpointing continual run on Ross, whose preemptions kill the
youngest members of an offer and restart their remainders.
The traces pin scheduling order, tie-breaking, fault victim selection
and the record schema all at once — any engine change that reorders
events shows up as a golden diff instead of a silently shifted table.

Regenerate (and review the diff!) with ``pytest --regen-golden``.
"""

from __future__ import annotations

import io
from typing import Callable, Dict

import numpy as np

from repro.core.controller import InterstitialController
from repro.core.runners import run_continual, run_native, run_with_controller
from repro.elastic import ElasticitySpec, elastic_controller
from repro.faults import FaultModel
from repro.jobs import InterstitialProject
from repro.machines import preset
from repro.machines.presets import preset_names
from repro.obs import JsonlRecorder, TraceRecorder
from repro.workload.synthetic import synthetic_trace_for

#: Root seed for the golden traces (independent of experiment scales).
GOLDEN_SEED = 20030915

#: Fraction of each machine's paper log replayed (keeps files small).
GOLDEN_TRACE_SCALE = 0.005


def _trace(machine_name: str, salt: int):
    return synthetic_trace_for(
        machine_name,
        rng=np.random.default_rng((GOLDEN_SEED, salt)),
        scale=GOLDEN_TRACE_SCALE,
    )


def _native(machine_name: str, recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 0)
    run_native(machine, trace.jobs, horizon=trace.duration,
               recorder=recorder)


def _faulted(machine_name: str, recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 1)
    faults = FaultModel(
        mtbf=2.0e5, mttr=7200.0, cpus_per_node=16, seed=GOLDEN_SEED
    )
    run_native(machine, trace.jobs, faults=faults, horizon=trace.duration,
               recorder=recorder)


def _continual(machine_name: str, recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 2)
    project = InterstitialProject(
        n_jobs=1,  # placeholder; continual feeding ignores it
        cpus_per_job=max(1, machine.cpus // 4),
        runtime_1ghz=1800.0,
        name=f"golden-{machine_name}",
        user="golden",
        group="golden",
    )
    run_continual(machine, trace.jobs, project, horizon=trace.duration,
                  recorder=recorder)


def _malleable(machine_name: str, recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 3)
    project = InterstitialProject(
        n_jobs=60,
        cpus_per_job=32,
        runtime_1ghz=1800.0,
        min_width=4,
        max_width=32,
        name=f"golden-elastic-{machine_name}",
        user="golden",
        group="golden",
    )
    controller = elastic_controller(
        machine, project, ElasticitySpec.malleable()
    )
    run_with_controller(machine, trace.jobs, controller,
                        horizon=trace.duration, recorder=recorder)


def _narrow_project(machine, runtime_1ghz: float) -> InterstitialProject:
    """A continual project 1/32 of the machine wide: one offer on an
    idle machine starts 32 identical members."""
    return InterstitialProject(
        n_jobs=1,  # placeholder; continual feeding ignores it
        cpus_per_job=max(1, machine.cpus // 32),
        runtime_1ghz=runtime_1ghz,
        name=f"golden-narrow-{machine.name}",
        user="golden",
        group="golden",
    )


def _faulted_continual(machine_name: str, recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 4)
    controller = InterstitialController(
        machine, _narrow_project(machine, 900.0), continual=True
    )
    faults = FaultModel(
        mtbf=2.0e5, mttr=7200.0, cpus_per_node=16, seed=GOLDEN_SEED
    )
    run_with_controller(machine, trace.jobs, controller, faults=faults,
                        horizon=trace.duration, recorder=recorder)


def _preemptible_continual(machine_name: str,
                           recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 5)
    controller = InterstitialController(
        machine, _narrow_project(machine, 1800.0), continual=True,
        preemptible=True, checkpointing=True,
    )
    run_with_controller(machine, trace.jobs, controller,
                        horizon=trace.duration, recorder=recorder)


#: Case name -> driver writing the case's trace into a recorder.
CASES: Dict[str, Callable[[str, TraceRecorder], None]] = {}
for _machine in preset_names():
    CASES[f"native-{_machine}"] = (
        lambda rec, m=_machine: _native(m, rec)
    )
    CASES[f"faulted-{_machine}"] = (
        lambda rec, m=_machine: _faulted(m, rec)
    )
    CASES[f"continual-{_machine}"] = (
        lambda rec, m=_machine: _continual(m, rec)
    )
CASES["malleable-blue_pacific"] = (
    lambda rec: _malleable("blue_pacific", rec)
)
CASES["faulted-continual-blue_mountain"] = (
    lambda rec: _faulted_continual("blue_mountain", rec)
)
CASES["preemptible-continual-ross"] = (
    lambda rec: _preemptible_continual("ross", rec)
)


def render_case(name: str) -> str:
    """Run one golden case and return its JSONL trace as text."""
    buffer = io.StringIO()
    recorder = JsonlRecorder(buffer, buffer_records=4096)
    CASES[name](recorder)
    recorder.close()
    return buffer.getvalue()
