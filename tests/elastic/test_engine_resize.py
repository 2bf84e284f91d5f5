"""Engine-level elastic behaviour: shrink-to-seat, grow-back, molding.

The centrepiece is a fully hand-computed malleable scenario — every
shrink width, re-scaled finish time and grow-back is derived on paper
(all values binary-exact floats) and asserted exactly, so any drift in
the resize arithmetic or the youngest-first / oldest-first orderings
fails loudly rather than shifting a statistic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.runners import run_with_controller
from repro.elastic import (
    ElasticInterstitialController,
    ElasticitySpec,
    elastic_controller,
)
from repro.faults import FaultModel
from repro.jobs import InterstitialProject, JobKind, JobState
from repro.machines import Machine
from repro.obs import MemoryRecorder
from repro.sched import BackfillMode, FcfsPolicy, QueueScheduler
from tests.conftest import make_job, random_native_trace


def _machine(cpus: int = 64) -> Machine:
    return Machine(name="ResizeBox", cpus=cpus, clock_ghz=1.0)


def _scheduler() -> QueueScheduler:
    return QueueScheduler(policy=FcfsPolicy(), backfill=BackfillMode.EASY)


def _project(**overrides) -> InterstitialProject:
    kwargs = dict(
        n_jobs=2,
        cpus_per_job=16,
        runtime_1ghz=400.0,
        min_width=4,
        max_width=16,
        user="harvest",
        group="harvest",
    )
    kwargs.update(overrides)
    return InterstitialProject(**kwargs)


# ----------------------------------------------------------------------
# The hand-computed malleable scenario
# ----------------------------------------------------------------------
# Machine: 64 CPUs, clock 1.0.  Natives: A = 32 CPUs x 1000 s at t=0,
# B = 20 CPUs x 500 s at t=100.  Malleable project: 2 jobs, nominal 16
# CPUs x 400 s (quantum 6400 CPU-s), widths [4, 16].
#
#   t=0    A starts (32); j1, j2 offered at width 16 — machine full.
#   t=100  B blocked (deficit 20).  Shrink youngest first: j2 16->4
#          (frees 12), j1 16->8 (frees 8).  B seated at t=100.
#          Remaining work re-scales: j1 300 s @16 -> 600 s @8
#          (finish 700), j2 300 s @16 -> 1200 s @4 (finish 1300).
#   t=400  Both jobs' original FINISH events fire stale and are
#          discarded (expected-finish mismatch).
#   t=600  B finishes; grow oldest first into the 20 freed CPUs:
#          j1 8->16 (remaining 100 s -> 50 s, finish 650),
#          j2 4->16 (remaining 700 s -> 175 s, finish 775).
#   t=1000 A finishes; run ends.
def _run_handcomputed():
    machine = _machine()
    natives = [
        make_job(cpus=32, runtime=1000.0, submit=0.0, user="a"),
        make_job(cpus=20, runtime=500.0, submit=100.0, user="b"),
    ]
    for i, job in enumerate(natives):
        job.job_id = i + 1
    controller = ElasticInterstitialController(
        _machine(), _project(), spec=ElasticitySpec.malleable()
    )
    recorder = MemoryRecorder()
    result = run_with_controller(
        machine, natives, controller,
        scheduler=_scheduler(), recorder=recorder, check_invariants=True,
    )
    return result, recorder, controller


@pytest.fixture(scope="module")
def handcomputed():
    return _run_handcomputed()


def test_all_jobs_finish(handcomputed) -> None:
    result, _, _ = handcomputed
    assert len(result.native_jobs) == 2
    assert len(result.interstitial_jobs) == 2
    assert all(j.state is JobState.FINISHED for j in result.finished)
    assert result.counters.preempt_kills == 0


def test_native_b_seated_by_shrinking(handcomputed) -> None:
    result, _, _ = handcomputed
    b = next(j for j in result.native_jobs if j.user == "b")
    # The shrink carve-out seats B the instant it arrives.
    assert b.start_time == 100.0
    assert b.finish_time == 600.0


def test_shrink_youngest_first_exact_widths(handcomputed) -> None:
    result, _, _ = handcomputed
    j1, j2 = sorted(result.interstitial_jobs, key=lambda j: j.job_id)
    # Youngest first (highest id on the start-time tie): j2 gives its
    # full slack 12, j1 covers the remaining 8 of B's 20-CPU deficit.
    assert j1.width_history == [(0.0, 16), (100.0, 8), (600.0, 16)]
    assert j2.width_history == [(0.0, 16), (100.0, 4), (600.0, 16)]


def test_rescaled_finish_times_exact(handcomputed) -> None:
    result, _, _ = handcomputed
    j1, j2 = sorted(result.interstitial_jobs, key=lambda j: j.job_id)
    assert (j1.start_time, j1.finish_time) == (0.0, 650.0)
    assert (j2.start_time, j2.finish_time) == (0.0, 775.0)
    # runtime is elapsed wall time after the final re-scale.
    assert j1.runtime == 650.0
    assert j2.runtime == 775.0


def test_work_conserved_per_job(handcomputed) -> None:
    result, _, controller = handcomputed
    for job in result.interstitial_jobs:
        segments = list(job.width_history)
        work = sum(
            width * (segments[i + 1][0] - start)
            for i, (start, width) in enumerate(segments[:-1])
        )
        work += segments[-1][1] * (job.finish_time - segments[-1][0])
        assert work == controller.work_quantum == 6400.0


def test_counters_and_controller_tallies(handcomputed) -> None:
    result, _, controller = handcomputed
    counters = result.counters
    assert counters.preempt_shrinks == 2
    assert counters.grows == 2
    assert counters.preempt_kills == 0
    assert counters.molded_starts == 2
    assert controller.n_shrunk == 2
    assert controller.n_grown == 2


def test_shrink_and_grow_records(handcomputed) -> None:
    _, recorder, _ = handcomputed
    shrinks = [r for r in recorder.records if r.kind == "shrink"]
    grows = [r for r in recorder.records if r.kind == "grow"]
    assert [(r.time, r.cpus, r.detail) for r in shrinks] == [
        (100.0, 4, 16),  # j2 16 -> 4 first (youngest)
        (100.0, 8, 16),  # then j1 16 -> 8
    ]
    assert [(r.time, r.cpus, r.detail) for r in grows] == [
        (600.0, 16, 8),  # j1 8 -> 16 first (oldest)
        (600.0, 16, 4),  # then j2 4 -> 16
    ]


def test_busy_profile_integrates_width_history(handcomputed) -> None:
    result, _, _ = handcomputed
    interstitial = result.busy_profile(JobKind.INTERSTITIAL)
    # Two quanta of 6400 CPU-s, delivered through the resizes.
    assert interstitial.integrate(0.0, 1000.0) == 12800.0
    # Spot-check the step levels around the resize instants.
    assert interstitial(50.0) == 32
    assert interstitial(100.0) == 12
    assert interstitial(600.0) == 32
    assert interstitial(800.0) == 0


# ----------------------------------------------------------------------
# Moldable: width picked once, never resized, never carved
# ----------------------------------------------------------------------
def test_moldable_molds_to_free_capacity_and_stays_put() -> None:
    machine = _machine()
    natives = [
        make_job(cpus=52, runtime=1000.0, submit=0.0, user="a"),
        make_job(cpus=20, runtime=500.0, submit=100.0, user="b"),
    ]
    for i, job in enumerate(natives):
        job.job_id = i + 1
    controller = ElasticInterstitialController(
        _machine(), _project(), spec=ElasticitySpec.moldable()
    )
    result = run_with_controller(
        machine, natives, controller,
        scheduler=_scheduler(), check_invariants=True,
    )
    j1 = min(result.interstitial_jobs, key=lambda j: j.start_time)
    # Molded to the 12 free CPUs (inside [4, 16]) and frozen there.
    assert j1.start_time == 0.0
    assert j1.min_cpus == j1.max_cpus == j1.cpus == 12
    assert not j1.malleable
    assert j1.width_history is None
    assert j1.finish_time == pytest.approx(6400.0 / 12.0)
    # Moldable jobs are not carved for the blocked native: B waits for
    # a real release instead of shrinking or killing anything.
    b = next(j for j in result.native_jobs if j.user == "b")
    assert b.start_time > 100.0
    counters = result.counters
    assert counters.preempt_shrinks == 0
    assert counters.grows == 0
    assert counters.preempt_kills == 0
    assert counters.molded_starts == 2


# ----------------------------------------------------------------------
# Bounded gate bypass: malleable submits under an imminent head native
# only while the min-width residue fits inside one nominal job
# ----------------------------------------------------------------------
def _gate_scenario(spec: ElasticitySpec) -> tuple:
    machine = _machine()
    natives = [
        make_job(cpus=24, runtime=300.0, submit=0.0, user="a"),
        make_job(cpus=60, runtime=400.0, submit=10.0, user="b"),
    ]
    for i, job in enumerate(natives):
        job.job_id = i + 1
    controller = elastic_controller(
        machine,
        _project(n_jobs=6, cpus_per_job=8, runtime_1ghz=800.0,
                 min_width=4, max_width=8),
        spec,
        start_time=5.0,
    )
    recorder = MemoryRecorder()
    run_with_controller(
        machine, natives, controller,
        scheduler=_scheduler(), recorder=recorder, check_invariants=True,
    )
    return recorder, controller


def test_malleable_gate_bypass_is_residue_bounded() -> None:
    # At t=10 the 60-CPU head native is 290 s away while an 8-wide
    # interstitial runs 800 s: the Figure-1 gate blocks.  Malleable
    # jobs may bypass it while the min-width residue stays within one
    # nominal job (4 + 4 <= 8), so exactly two jobs start at t=10.
    recorder, _ = _gate_scenario(ElasticitySpec.malleable())
    # Interstitial ids are renumbered above the native trace's (1, 2).
    starts_at_gate = [
        r for r in recorder.records
        if r.kind == "start" and r.time == 10.0 and r.job_id > 2
    ]
    assert len(starts_at_gate) == 2


def test_rigid_and_moldable_respect_the_gate() -> None:
    for spec in (ElasticitySpec.rigid(), ElasticitySpec.moldable()):
        recorder, _ = _gate_scenario(spec)
        starts_at_gate = [
            r for r in recorder.records
            if r.kind == "start" and r.time == 10.0 and r.job_id > 2
        ]
        assert starts_at_gate == []


# ----------------------------------------------------------------------
# Randomized work conservation + fault interplay
# ----------------------------------------------------------------------
def test_work_conservation_over_random_malleable_run() -> None:
    machine = _machine(96)
    trace = random_native_trace(
        np.random.default_rng(7), machine, n_jobs=30, horizon=40_000.0
    )
    for i, job in enumerate(trace):
        job.job_id = i + 1
    controller = ElasticInterstitialController(
        machine,
        _project(n_jobs=40, cpus_per_job=16, runtime_1ghz=900.0,
                 min_width=4, max_width=16),
        spec=ElasticitySpec.malleable(),
    )
    result = run_with_controller(
        machine, trace, controller,
        scheduler=_scheduler(), check_invariants=True,
    )
    finished = result.interstitial_jobs
    assert len(finished) == 40
    resized = 0
    for job in finished:
        if job.width_history:
            resized += 1
            segments = list(job.width_history)
            work = sum(
                width * (segments[i + 1][0] - start)
                for i, (start, width) in enumerate(segments[:-1])
            )
            work += segments[-1][1] * (job.finish_time - segments[-1][0])
        else:
            work = job.cpus * (job.finish_time - job.start_time)
        assert math.isclose(work, controller.work_quantum,
                            rel_tol=1e-9, abs_tol=1e-6)
    # The scenario must actually exercise resizing.
    assert resized > 0
    assert result.counters.preempt_shrinks > 0
    assert result.counters.grows > 0


def test_faults_recredit_malleable_work() -> None:
    machine = _machine(96)
    trace = random_native_trace(
        np.random.default_rng(11), machine, n_jobs=25, horizon=40_000.0
    )
    for i, job in enumerate(trace):
        job.job_id = i + 1
    controller = ElasticInterstitialController(
        machine,
        _project(n_jobs=30, cpus_per_job=16, runtime_1ghz=900.0,
                 min_width=4, max_width=16),
        spec=ElasticitySpec.malleable(),
    )
    result = run_with_controller(
        machine, trace, controller,
        scheduler=_scheduler(), check_invariants=True,
        faults=FaultModel(mtbf=4.0e4, mttr=1800.0, cpus_per_node=8,
                          seed=11),
    )
    # Fault kills re-credit the controller's budget, so the project
    # still delivers all 30 quanta; kills come from faults, not the
    # carve-out (malleable jobs shrink instead).
    assert len(result.interstitial_jobs) == 30
    assert result.counters.preempt_kills == 0
