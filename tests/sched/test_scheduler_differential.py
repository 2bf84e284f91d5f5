"""Scheduler-level differential property: every call, both schedulers.

``test_incremental_differential.py`` compares whole engine runs.  This
property drives :class:`~repro.sched.QueueScheduler` and the naive
:class:`~repro.sched.ReferenceQueueScheduler` through one random
sequence of ``submit``, ``on_finish``, ``schedule`` and ``head_job``
calls, each scheduler over its own :class:`ClusterState` with every
start applied to both, and compares them after every call.

Users and groups come from small pools so that fair-share classes
collide, and most calls leave the clock where it was, so submit times
repeat and keys of different classes tie exactly (under FCFS, or for
users nobody has charged yet).  On such ties the incremental
scheduler's priority entries must fall through to ``(submit, job_id)``
exactly as :meth:`~repro.sched.priority.PriorityPolicy.sort_key` does.

Ties between jobs submitted at *different* times are another matter.
``rank_key`` (``w * submit / 86400 - factor``) and ``sort_key``
(``-(factor + w * waited / 86400)``) are equal up to a shift in exact
arithmetic, not in floating point: when a wait difference exactly
offsets a fair-share difference, one of them may round to a tie that
the other misses by one ulp.  The incremental scheduler keeps
``rank_key`` (its keys must stay comparable across passes), so that
divergence is a known limit of the reference oracle, pinned by
:func:`test_exact_tie_across_submit_times`.  The property's clock
steps are therefore not round fractions of a day, which is how such
ties arise (6 h = 0.25 day against a factor difference of 0.25).
"""

from __future__ import annotations

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import Job
from repro.machines import Machine
from repro.sched import (
    BackfillMode,
    FcfsPolicy,
    HierarchicalFairSharePolicy,
    QueueScheduler,
    ReferenceQueueScheduler,
    TimeOfDayPolicy,
    UserFairSharePolicy,
    UserGroupFairSharePolicy,
)
from repro.sim.state import ClusterState
from tests.conftest import make_job

CPUS = 8
POLICIES = (
    FcfsPolicy,
    UserFairSharePolicy,
    HierarchicalFairSharePolicy,
    UserGroupFairSharePolicy,
)
USERS = ("u0", "u1", "u2")
GROUPS = ("g0", "g1")
#: Clock advance before a call: mostly none (repeated submit times),
#: otherwise about a minute, an hour or four hours (crossing time-of-day
#: phases), never a round fraction of a day (see the module docstring).
STEPS = (0.0, 0.0, 0.0, 59.9, 3599.9, 14399.9)
#: First instants: midnight, just before the 07:00 and 19:00 phase
#: changes, and Friday 23:00 (t = 0 is Monday 00:00).
STARTS = (0.0, 6.5 * 3600.0, 18.5 * 3600.0, 4 * 86400.0 + 23 * 3600.0)

_SUBMIT = st.tuples(
    st.just("submit"),
    st.sampled_from(USERS),
    st.sampled_from(GROUPS),
    st.integers(1, CPUS),
    st.sampled_from((600.0, 3600.0, 7200.0)),
)
#: Finish ``count`` running jobs from position ``first`` (mod the
#: number running) as one cohort.
_FINISH = st.tuples(st.just("finish"), st.integers(0, 15), st.integers(1, 3))
_SCHEDULE = st.tuples(st.just("schedule"))
_HEAD = st.tuples(st.just("head"))


def _ids(jobs: List[Job]) -> List[int]:
    return [job.job_id for job in jobs]


def _id(job: Optional[Job]) -> Optional[int]:
    return None if job is None else job.job_id


@settings(max_examples=200, deadline=None)
@given(
    policy_cls=st.sampled_from(POLICIES),
    backfill=st.sampled_from(tuple(BackfillMode)),
    with_timeofday=st.booleans(),
    start=st.sampled_from(STARTS),
    calls=st.lists(
        st.tuples(
            st.sampled_from(STEPS),
            st.one_of(_SUBMIT, _FINISH, _SCHEDULE, _HEAD),
        ),
        min_size=20,
        max_size=80,
    ),
)
def test_every_call_matches_reference(
    policy_cls, backfill, with_timeofday, start, calls
):
    machine = Machine(name="PropBox", cpus=CPUS, clock_ghz=1.0)

    def build(cls):
        timeofday = (
            TimeOfDayPolicy(max_day_cpus=CPUS // 4)
            if with_timeofday
            else None
        )
        scheduler = cls(
            policy=policy_cls(), backfill=backfill, timeofday=timeofday
        )
        return scheduler, ClusterState(machine)

    inc, inc_cluster = build(QueueScheduler)
    ref, ref_cluster = build(ReferenceQueueScheduler)
    #: (incremental's job, reference's copy) pairs, in start order.
    running = []
    t = start
    for job_id, (step, call) in enumerate(calls, start=1):
        t += step
        op = call[0]
        if op == "submit":
            _op, user, group, cpus, runtime = call
            job = make_job(
                cpus=cpus, runtime=runtime, submit=t, user=user, group=group
            )
            job.job_id = job_id
            inc.submit(job, t)
            ref.submit(job.copy_unscheduled(), t)
        elif op == "finish" and running:
            _op, first, count = call
            first %= len(running)
            done = running[first:first + count]
            del running[first:first + count]
            for side, (scheduler, cluster) in enumerate(
                ((inc, inc_cluster), (ref, ref_cluster))
            ):
                jobs = [pair[side] for pair in done]
                cluster.finish(jobs)
                scheduler.on_finish(jobs, t)
        elif op == "schedule":
            inc_starts = inc.schedule(t, inc_cluster)
            ref_starts = ref.schedule(t, ref_cluster)
            assert _ids(inc_starts) == _ids(ref_starts)
            if inc_starts:
                inc_cluster.start(inc_starts, t)
                ref_cluster.start(ref_starts, t)
                running.extend(zip(inc_starts, ref_starts))
        assert _id(inc.head_job(t)) == _id(ref.head_job(t))
        assert _ids(inc.pending_jobs()) == _ids(ref.pending_jobs())
        assert inc.queue_length == ref.queue_length
        assert inc.n_backfill_starts == ref.n_backfill_starts


@pytest.mark.xfail(
    strict=True,
    reason="rank_key and sort_key round an exact tie across submit "
    "times differently",
)
def test_exact_tie_across_submit_times():
    """Hierarchical fair share, one group.  Job ``a`` of user u1 (both
    factors 0 after u1's one charge) has waited 6 h = 0.25 day when
    ``b`` arrives from newcomer u0, whose within-group factor 0.5 has
    weight 0.5: both score exactly 0.25.  The reference computes both
    sort keys as -0.25 and breaks the tie by submit time (``a``), but
    ``88200 / 86400 - 0.25`` rounds one ulp below ``66600 / 86400``, so
    the incremental order puts ``b`` first."""
    machine = Machine(name="PropBox", cpus=CPUS, clock_ghz=1.0)
    heads = []
    for cls in (QueueScheduler, ReferenceQueueScheduler):
        scheduler = cls(
            policy=HierarchicalFairSharePolicy(), backfill=BackfillMode.NONE
        )
        cluster = ClusterState(machine)
        done = make_job(cpus=4, runtime=600.0, submit=66600.0, user="u1",
                        group="g1")
        a = make_job(cpus=5, runtime=600.0, submit=66600.0, user="u1",
                     group="g1")
        b = make_job(cpus=1, runtime=600.0, submit=88200.0, user="u0",
                     group="g1")
        done.job_id, a.job_id, b.job_id = 1, 2, 3
        scheduler.submit(done, 66600.0)
        scheduler.submit(a, 66600.0)
        started = scheduler.schedule(66600.0, cluster)
        assert _ids(started) == [1]
        cluster.start(started, 66600.0)
        cluster.finish(started)
        scheduler.on_finish(started, 70200.0)
        scheduler.submit(b, 88200.0)
        heads.append(scheduler.head_job(88200.0).job_id)
    assert heads[0] == heads[1]
