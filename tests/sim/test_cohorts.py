"""Interstitial cohorts: one offer's identical jobs are carried as one
counted record, started, finished and charged as one batch, while every
observable stays per job (DESIGN §13).

Each scenario runs one offer's cohort through an edge case on an
8-CPU machine, with invariant checks and a trace recorder on, and
asserts per-job start/finish times (members built from the result's
records), that no job finishes twice, the member ids of the FINISH
queue entries the engine pushed, and hand-computed counters.
``Counters.events`` counts job-level events: a FINISH entry of ``n``
members counts ``n``, stale members included, exactly as ``n``
per-job entries did.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

import pytest

from repro.core.controller import InterstitialController
from repro.elastic import (
    ElasticInterstitialController,
    ElasticitySpec,
    WidthPolicy,
)
from repro.faults import FaultModel, FaultSchedule, NodeFault
from repro.jobs import InterstitialProject, JobKind, JobState
from repro.obs import MemoryRecorder
from repro.sim.engine import Engine, SimConfig
from repro.sim.events import EventKind

from tests.conftest import fcfs, make_job


class FixedFaults(FaultModel):
    """Fault model with an explicit crash schedule."""

    def __init__(self, windows, seed=0):
        super().__init__(mtbf=1e12, seed=seed)
        object.__setattr__(self, "_windows", tuple(windows))

    def sample(self, machine, until):
        return FaultSchedule(
            [NodeFault(start, end, cpus) for start, end, cpus in self._windows]
        )


def _project(n_jobs: int, **kwargs) -> InterstitialProject:
    return InterstitialProject(
        n_jobs=n_jobs, cpus_per_job=1, runtime_1ghz=100.0,
        user="harvest", group="harvest", **kwargs,
    )


def _run(machine, trace, controller, faults=None):
    """Run with a recorder and a spy on FINISH pushes; returns the
    result, the recorder and the ``(time, member ids)`` entries."""
    recorder = MemoryRecorder()
    engine = Engine(
        machine,
        fcfs(),
        trace=trace,
        interstitial=controller,
        faults=faults,
        config=SimConfig(check_invariants=True),
        recorder=recorder,
    )
    entries: List[Tuple[float, List[int]]] = []
    push = engine.events.push

    def spy(time, kind, payload=None):
        if kind is EventKind.FINISH:
            members, records = payload
            ids = [
                job_id
                for job in records
                for job_id in range(job.job_id, job.job_id + job.count)
            ]
            assert len(ids) == members
            entries.append((time, ids))
        return push(time, kind, payload)

    engine.events.push = spy
    return engine.run(), recorder, entries


def _assert_single_finishes(result, recorder) -> None:
    ids = [job.job_id for job in result.finished]
    assert len(ids) == len(set(ids))
    finish_records = Counter(r.job_id for r in recorder.by_kind("finish"))
    assert set(finish_records.values()) == {1}
    assert set(finish_records) == set(ids)


def _members(result) -> List:
    """Every interstitial member that ran, by id."""
    jobs = result.jobs(JobKind.INTERSTITIAL) + [
        job for job in result.killed if job.is_interstitial
    ]
    return sorted(jobs, key=lambda job: job.job_id)


def _counts(result) -> Tuple[int, int, int, int, int]:
    c = result.counters
    return (c.events, c.starts, c.finishes, c.fault_kills, c.preempt_kills)


def test_node_failure_kills_some_members(tiny_machine):
    # t=0 a full-machine native A blocks; t=5 it finishes and one offer
    # starts 8 one-CPU jobs (finish 105).  t=10 three CPUs crash on a
    # full machine, so exactly three members die (which three is the
    # seeded draw); their work is re-credited and refilled at the
    # t=20 repair (finish 120).
    native = make_job(cpus=8, runtime=5.0)
    controller = InterstitialController(tiny_machine, _project(8))
    result, recorder, entries = _run(
        tiny_machine, [native], controller,
        faults=FixedFaults([(10.0, 20.0, 3)]),
    )
    members = _members(result)
    first = [job for job in members if job.start_time == 5.0]
    refill = [job for job in members if job.start_time == 20.0]
    killed = [job for job in first if job.state is JobState.KILLED]
    survivors = [job for job in first if job.state is JobState.FINISHED]
    assert len(killed) == 3 and len(survivors) == 5 and len(refill) == 3
    assert len(members) == 8 + 3
    assert controller.n_submitted == 8 + 3
    assert all(job.finish_time == 10.0 for job in killed)
    assert all(job.finish_time == 105.0 for job in survivors)
    assert [(j.start_time, j.finish_time) for j in refill] == [
        (20.0, 120.0)
    ] * 3
    assert entries == [
        (5.0, [native.job_id]),
        (105.0, [job.job_id for job in first]),
        (120.0, [job.job_id for job in refill]),
    ]
    # events: submit + native finish + failure + repair + 8 + 3 members.
    assert _counts(result) == (15, 12, 9, 3, 0)
    assert len(recorder.by_kind("kill")) == 3
    _assert_single_finishes(result, recorder)


def test_preemption_kills_the_youngest_members(tiny_machine):
    # One offer starts 8 jobs at t=5 (finish 105).  Native B (3 CPUs)
    # arrives at t=10 on a full machine: the preemptible controller's
    # youngest members — same start, so the highest ids — are killed,
    # re-credited and restarted when B finishes at t=60 (finish 160).
    a = make_job(cpus=8, runtime=5.0)
    b = make_job(cpus=3, runtime=50.0, submit=10.0)
    controller = InterstitialController(
        tiny_machine, _project(8), preemptible=True
    )
    result, recorder, entries = _run(tiny_machine, [a, b], controller)
    members = _members(result)
    first, refill = members[:8], members[8:]
    assert all(job.start_time == 5.0 for job in first)
    assert [job.state for job in first] == (
        [JobState.FINISHED] * 5 + [JobState.KILLED] * 3
    )
    assert [r.job_id for r in recorder.by_kind("preempt")] == [
        job.job_id for job in reversed(first[5:])
    ]
    assert all(job.finish_time == 10.0 for job in first[5:])
    assert all(job.finish_time == 105.0 for job in first[:5])
    assert (b.start_time, b.finish_time) == (10.0, 60.0)
    assert [(j.start_time, j.finish_time) for j in refill] == [
        (60.0, 160.0)
    ] * 3
    assert entries == [
        (5.0, [a.job_id]),
        (105.0, [job.job_id for job in first]),
        (60.0, [b.job_id]),
        (160.0, [job.job_id for job in refill]),
    ]
    # events: 2 submits + 2 native finishes + 8 + 3 members.
    assert _counts(result) == (15, 13, 10, 0, 3)
    _assert_single_finishes(result, recorder)


def test_shrunk_member_finishes_on_its_own_entry(tiny_machine):
    # t=5 one offer starts two malleable 4-CPU jobs (quantum 400 CPU-s,
    # finish 105, one shared entry).  t=25 native B (2 CPUs) shrinks the
    # younger member j2 to 2 CPUs: 4 x 80 s of work left takes 160 s at
    # width 2, so j2 gets its own entry at 185 and its place in the
    # shared entry goes stale.  Native C (4 CPUs, t=30) cannot be seated
    # by shrinking and takes j1's CPUs at 105, so j2 never grows back.
    a = make_job(cpus=8, runtime=5.0)
    b = make_job(cpus=2, runtime=500.0, submit=25.0)
    c = make_job(cpus=4, runtime=1000.0, submit=30.0)
    project = InterstitialProject(
        n_jobs=2, cpus_per_job=4, runtime_1ghz=100.0,
        min_width=2, max_width=4, user="harvest", group="harvest",
    )
    controller = ElasticInterstitialController(
        tiny_machine, project, ElasticitySpec(WidthPolicy.MALLEABLE)
    )
    result, recorder, entries = _run(tiny_machine, [a, b, c], controller)
    j1, j2 = _members(result)
    assert (j1.start_time, j1.finish_time, j1.cpus) == (5.0, 105.0, 4)
    assert (j2.start_time, j2.finish_time, j2.cpus) == (5.0, 185.0, 2)
    assert j2.width_history == [(5.0, 4), (25.0, 2)]
    assert (b.start_time, c.start_time) == (25.0, 105.0)
    assert entries == [
        (5.0, [a.job_id]),
        (105.0, [j1.job_id, j2.job_id]),
        (185.0, [j2.job_id]),
        (525.0, [b.job_id]),
        (1105.0, [c.job_id]),
    ]
    # events: 3 submits + A/B/C finishes + 2 cohort members + 1 shrunk.
    assert _counts(result) == (9, 5, 5, 0, 0)
    assert result.counters.preempt_shrinks == 1
    assert result.counters.grows == 0
    _assert_single_finishes(result, recorder)


def test_restart_fragments_ride_in_the_same_offer(tiny_machine):
    # t=5 one offer starts 8 of 10 checkpointing jobs (finish 105).
    # One-CPU natives at t=20 and t=40 each preempt the youngest member,
    # leaving restart fragments of 85 s and 65 s.  At t=105 one offer
    # starts both fragments ahead of the last two fresh jobs: members
    # with distinct finish times get their own entries, and the two
    # fresh jobs share one.
    a = make_job(cpus=8, runtime=5.0)
    b = make_job(cpus=1, runtime=100.0, submit=20.0)
    c = make_job(cpus=1, runtime=100.0, submit=40.0)
    controller = InterstitialController(
        tiny_machine, _project(10), preemptible=True, checkpointing=True
    )
    result, recorder, entries = _run(tiny_machine, [a, b, c], controller)
    members = _members(result)
    first, second = members[:8], members[8:]
    assert len(second) == 4
    assert [job.finish_time for job in first] == [105.0] * 6 + [40.0, 20.0]
    assert [job.runtime for job in second] == [85.0, 65.0, 100.0, 100.0]
    assert all(job.start_time == 105.0 for job in second)
    assert [job.finish_time for job in second] == [190.0, 170.0, 205.0, 205.0]
    f1, f2, j9, j10 = (job.job_id for job in second)
    assert entries == [
        (5.0, [a.job_id]),
        (105.0, [job.job_id for job in first]),
        (120.0, [b.job_id]),
        (140.0, [c.job_id]),
        (190.0, [f1]),
        (170.0, [f2]),
        (205.0, [j9, j10]),
    ]
    # events: 3 submits + 3 native finishes + 8 + 4 members.
    assert _counts(result) == (18, 15, 13, 0, 2)
    assert controller.work_preserved_cpu_s == pytest.approx(15.0 + 35.0)
    _assert_single_finishes(result, recorder)


def test_member_records_show_per_member_occupancy(tiny_machine):
    """A cohort is allocated in one call, yet each member's start and
    finish record shows the occupancy just after that member alone."""
    native = make_job(cpus=2, runtime=500.0)
    controller = InterstitialController(tiny_machine, _project(6))
    _result, recorder, _entries = _run(tiny_machine, [native], controller)
    starts, finishes = (
        [r for r in recorder.by_kind(kind) if r.job_id != native.job_id]
        for kind in ("start", "finish")
    )
    assert [(r.busy_cpus, r.free_cpus) for r in starts] == [
        (2 + k, 6 - k) for k in range(1, 7)
    ]
    assert [(r.busy_cpus, r.free_cpus) for r in finishes] == [
        (8 - k, k) for k in range(1, 7)
    ]
