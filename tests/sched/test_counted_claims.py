"""Run-aware claim walkers against their per-member expansion.

Release claims are runs ``(finish, cpus, count)``: a counted cohort of
``count`` members is one claim.  Every walker must return exactly — bit
for bit — what walking the members one at a time returns, including
EASY's ``extra`` surplus, which depends on where inside a run the walk
stops.  The per-member references below are the walkers as they were
written before claims carried counts.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import Cohort, JobKind
from repro.machines import Machine
from repro.sched import fcfs_scheduler
from repro.sched.backfill import select_conservative, select_easy, shadow_of
from repro.sim.profile import CapacityProfile
from repro.sim.state import ClusterState

from tests.conftest import make_job

Run = Tuple[float, float, int]

#: Few distinct finish times, so runs tie with each other often.
_finishes = st.sampled_from([0.0, 10.0, 25.0, 40.0, 100.0, 250.0])
_runs = st.lists(
    st.tuples(_finishes, st.integers(1, 16).map(float), st.integers(1, 12)),
    max_size=8,
)


def _members(runs: List[Run]) -> List[Tuple[float, float]]:
    return [(f, c) for f, c, n in runs for _ in range(n)]


def _shadow_per_member(need, free, claims):
    for finish, cpus in sorted(claims):
        free += cpus
        if free >= need:
            return finish, free - need
    return math.inf, 0.0


def _capacity_per_member(cpus, free, claims):
    for finish, released in sorted(claims):
        free += released
        if free >= cpus:
            return finish
    return math.inf


def _profile_per_member(capacity, start, claims):
    active = sorted((float(f), float(c)) for f, c in claims if f > start)
    times, caps = [float(start)], [float(capacity)]
    if active:
        current = float(capacity) - sum(c for _f, c in active)
        caps[0] = current
        for finish, c in active:
            current += c
            if finish == times[-1]:
                caps[-1] = current
            else:
                times.append(finish)
                caps.append(current)
    return times, caps


def _bits(value: float) -> str:
    return float(value).hex()


@settings(max_examples=300, deadline=None)
@given(runs=_runs, need=st.integers(1, 200), free=st.integers(0, 64))
def test_shadow_of_matches_member_walk(runs, need, free):
    shadow, extra = shadow_of(need, float(free), runs)
    ref_shadow, ref_extra = _shadow_per_member(
        need, float(free), _members(runs)
    )
    assert (_bits(shadow), _bits(extra)) == (
        _bits(ref_shadow), _bits(ref_extra)
    )


@settings(max_examples=200, deadline=None)
@given(runs=_runs, capacity=st.integers(0, 256),
       start=st.sampled_from([0.0, 10.0, 30.0]))
def test_profile_from_claims_matches_member_sweep(runs, capacity, start):
    profile = CapacityProfile.from_claims(float(capacity), start, runs)
    times, caps = _profile_per_member(capacity, start, _members(runs))
    assert list(profile.breakpoints) == times
    assert [_bits(c) for c in profile._caps] == [_bits(c) for c in caps]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), runs=_runs, available=st.integers(0, 96))
def test_planners_match_member_claims(data, runs, available):
    """Both planners (hence the conservative ``free_now``) decide the
    same starts from runs as from one claim per member."""
    queue = [
        make_job(
            cpus=data.draw(st.integers(1, 16)),
            runtime=data.draw(st.sampled_from([5.0, 20.0, 60.0, 300.0])),
        )
        for _ in range(data.draw(st.integers(0, 6)))
    ]
    members = [(f, c, 1) for f, c in _members(runs)]
    busy = sum(c * n for _f, c, n in runs)
    free = max(0, available - int(busy))
    est = lambda job: job.estimate  # noqa: E731
    assert select_easy(0.0, queue, free, runs, est) == select_easy(
        0.0, queue, free, members, est
    )
    assert select_conservative(
        0.0, queue, available, runs, est
    ) == select_conservative(0.0, queue, available, members, est)
    free_now = float(available) - sum(c * n for _f, c, n in runs)
    assert _bits(free_now) == _bits(
        float(available) - sum(c for _f, c, _one in members)
    )


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 8), st.sampled_from([50.0, 80.0, 120.0]),
                  st.integers(1, 10)),
        min_size=1, max_size=6,
    ),
    need=st.integers(1, 128),
)
def test_earliest_capacity_matches_member_walk(shapes, need):
    """The scheduler's cached ``_earliest_capacity`` walks cohort runs
    and equals the per-member walk over the same running set."""
    machine = Machine(name="M", cpus=128, clock_ghz=1.0,
                      queue_algorithm="FCFS")
    cluster = ClusterState(machine)
    claims = []
    for cpus, estimate, count in shapes:
        if cpus * count > cluster.free_cpus:
            break
        template = make_job(cpus=cpus, runtime=estimate, estimate=estimate,
                            kind=JobKind.INTERSTITIAL)
        record = Cohort(template, count) if count > 1 else template
        cluster.start([record], 0.0)
        claims += [(estimate, float(cpus))] * count
    expected = (
        0.0 if need <= cluster.free_cpus
        else _capacity_per_member(need, float(cluster.free_cpus), claims)
    )
    scheduler = fcfs_scheduler()
    assert scheduler._earliest_capacity(need, 0.0, cluster) == expected
