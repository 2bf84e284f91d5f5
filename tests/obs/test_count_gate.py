"""Deterministic engine counts, pinned at golden scale.

Wall-clock numbers are noisy, but the work an engine run does is not:
events handled, jobs started and finished, scheduling passes (and how
many were skipped or re-keyed the queue), backfill starts, interstitial
offers and the members they submitted are all fixed by the seeds.  A
change that keeps outputs identical yet adds passes, re-keys or events
shows up here as a count diff before it shows up as a slower benchmark.

The interstitial case also pins job materialization: a controller
builds one template job (``InterstitialProject.make_job``) when it is
constructed, and every offer's counted cohort copies it, so no offer
and no member builds a job.
"""

from __future__ import annotations

import pytest

from repro.core.controller import InterstitialController
from repro.core.runners import run_native, run_with_controller
from repro.faults import FaultModel
from repro.jobs import InterstitialProject
from repro.machines import preset

from tests.obs.golden_cases import GOLDEN_SEED, _narrow_project, _trace

_KEYS = ("events", "starts", "finishes", "scheduling_passes", "pass_skips",
         "priority_rekeys", "backfill_starts", "fault_kills")


class _CountingController(InterstitialController):
    """Counts offers and the members they return."""

    offers = 0
    members = 0

    def offer(self, t, cluster, scheduler):
        records = super().offer(t, cluster, scheduler)
        self.offers += 1
        self.members += len(records)
        return records


@pytest.fixture
def make_job_calls(monkeypatch):
    calls = []
    original = InterstitialProject.make_job

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(InterstitialProject, "make_job", counted)
    return calls


def _counts(result) -> dict:
    return {key: getattr(result.counters, key) for key in _KEYS}


def test_faulted_continual_counts(make_job_calls):
    """The ``faulted-continual-blue_mountain`` golden configuration."""
    machine = preset("blue_mountain")
    trace = _trace("blue_mountain", 4)
    project = InterstitialProject(
        n_jobs=1, cpus_per_job=machine.cpus // 32, runtime_1ghz=900.0,
        user="golden", group="golden",
    )
    controller = _CountingController(machine, project, continual=True)
    faults = FaultModel(
        mtbf=2.0e5, mttr=7200.0, cpus_per_node=16, seed=GOLDEN_SEED
    )
    result = run_with_controller(machine, trace.jobs, controller,
                                 faults=faults, horizon=trace.duration)
    assert _counts(result) == {
        "events": 452, "starts": 315, "finishes": 266,
        "scheduling_passes": 240, "pass_skips": 68, "priority_rekeys": 39,
        "backfill_starts": 2, "fault_kills": 49,
    }
    assert (controller.offers, controller.members) == (203, 278)
    assert controller.n_submitted == 278
    assert len(make_job_calls) == 1


def test_native_replay_counts():
    """The ``native-blue_pacific`` golden configuration (EASY with
    time-of-day limits)."""
    machine = preset("blue_pacific")
    trace = _trace("blue_pacific", 0)
    result = run_native(machine, trace.jobs, horizon=trace.duration)
    assert _counts(result) == {
        "events": 64, "starts": 32, "finishes": 32,
        "scheduling_passes": 64, "pass_skips": 14, "priority_rekeys": 16,
        "backfill_starts": 4, "fault_kills": 0,
    }


def test_preemptible_continual_counts():
    """The ``preemptible-continual-ross`` golden configuration
    (CONSERVATIVE backfill; preemption kills the youngest members)."""
    machine = preset("ross")
    trace = _trace("ross", 5)
    controller = InterstitialController(
        machine, _narrow_project(machine, 1800.0), continual=True,
        preemptible=True, checkpointing=True,
    )
    result = run_with_controller(machine, trace.jobs, controller,
                                 horizon=trace.duration)
    assert _counts(result) == {
        "events": 214, "starts": 191, "finishes": 141,
        "scheduling_passes": 78, "pass_skips": 20, "priority_rekeys": 22,
        "backfill_starts": 0, "fault_kills": 0,
    }
    assert result.counters.preempt_kills == 50
