"""Tests for the EASY and conservative backfill planners."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.backfill import select_conservative, select_easy, shadow_of

from tests.conftest import make_job


def est(job):
    return job.estimate


class TestShadow:
    def test_shadow_accumulates_releases(self):
        # Need 10; free 2; releases (t=50, 4), (t=80, 6).
        shadow, extra = shadow_of(
            10, 2.0, [(80.0, 6.0, 1), (50.0, 4.0, 1)]
        )
        assert shadow == 80.0
        assert extra == 2.0

    def test_shadow_immediate_surplus(self):
        shadow, extra = shadow_of(4, 2.0, [(50.0, 10.0, 1)])
        assert shadow == 50.0
        assert extra == 8.0

    def test_shadow_unreachable(self):
        shadow, extra = shadow_of(100, 2.0, [(50.0, 4.0, 1)])
        assert math.isinf(shadow)
        assert extra == 0.0


class TestSelectEasy:
    def test_starts_head_run(self):
        queue = [make_job(cpus=2), make_job(cpus=2), make_job(cpus=8)]
        starts = select_easy(0.0, queue, 4, [], est)
        assert starts == queue[:2]

    def test_backfills_short_job_under_shadow(self):
        blocked = make_job(cpus=8, runtime=50.0)
        short = make_job(cpus=2, runtime=10.0)
        # 4 free; 6 release at t=100 -> shadow 100.
        starts = select_easy(
            0.0, [blocked, short], 4, [(100.0, 6.0, 1)], est
        )
        assert starts == [short]

    def test_rejects_backfill_past_shadow_without_extra(self):
        blocked = make_job(cpus=10, runtime=50.0)
        long_job = make_job(cpus=2, runtime=500.0)
        # free 4, release (100, 6): shadow=100, extra=0.
        starts = select_easy(
            0.0, [blocked, long_job], 4, [(100.0, 6.0, 1)], est
        )
        assert starts == []

    def test_allows_long_backfill_on_extra_nodes(self):
        blocked = make_job(cpus=6, runtime=50.0)
        long_job = make_job(cpus=2, runtime=500.0)
        # free 4, release (100, 6): shadow=100, extra=(4+6)-6=4 >= 2.
        starts = select_easy(
            0.0, [blocked, long_job], 4, [(100.0, 6.0, 1)], est
        )
        assert starts == [long_job]

    def test_extra_nodes_deplete(self):
        blocked = make_job(cpus=8, runtime=50.0)
        long_a = make_job(cpus=2, runtime=500.0)
        long_b = make_job(cpus=2, runtime=500.0)
        long_c = make_job(cpus=2, runtime=500.0)
        # free 6 + release 6 = 12 at shadow; extra = 12 - 8 = 4:
        # only two of the three 2-wide long jobs fit on it.
        starts = select_easy(
            0.0,
            [blocked, long_a, long_b, long_c],
            6,
            [(100.0, 6.0, 1)],
            est,
        )
        assert starts == [long_a, long_b]

    def test_no_backfill_flag(self):
        blocked = make_job(cpus=8, runtime=50.0)
        short = make_job(cpus=2, runtime=10.0)
        starts = select_easy(
            0.0, [blocked, short], 4, [(100.0, 6.0, 1)], est,
            backfill=False,
        )
        assert starts == []

    def test_unreachable_head_blocks_shadow_backfill(self):
        blocked = make_job(cpus=100, runtime=50.0)
        short = make_job(cpus=2, runtime=10.0)
        starts = select_easy(0.0, [blocked, short], 4, [], est)
        assert starts == []

    def test_empty_queue(self):
        assert select_easy(0.0, [], 10, [], est) == []


class TestSelectConservative:
    def test_starts_what_fits_now(self):
        a = make_job(cpus=4, runtime=10.0)
        b = make_job(cpus=4, runtime=10.0)
        starts = select_conservative(0.0, [a, b], 8, [], est)
        assert starts == [a, b]

    def test_backfill_cannot_delay_any_reservation(self):
        # 8 CPUs. Running: 6 CPUs until t=100. Queue: wide(8) then two
        # narrows. narrow_short fits in the hole before wide's
        # reservation at 100; narrow_long (runtime 200) would push
        # wide's start and must not run.
        wide = make_job(cpus=8, runtime=50.0)
        narrow_long = make_job(cpus=2, runtime=200.0)
        narrow_short = make_job(cpus=2, runtime=100.0)
        starts = select_conservative(
            0.0,
            [wide, narrow_long, narrow_short],
            8,
            [(100.0, 6.0, 1)],
            est,
        )
        assert starts == [narrow_short]

    def test_more_restrictive_than_easy(self):
        """A job EASY admits on extra nodes is rejected when it would
        collide with a *second* queued job's reservation."""
        blocked = make_job(cpus=6, runtime=10.0)
        second = make_job(cpus=8, runtime=10.0)
        long_narrow = make_job(cpus=2, runtime=500.0)
        releases = [(100.0, 6.0, 1)]
        easy = select_easy(
            0.0, [blocked, second, long_narrow], 4, releases, est
        )
        conservative = select_conservative(
            0.0, [blocked, second, long_narrow], 8, releases, est
        )
        assert long_narrow in easy
        assert long_narrow not in conservative

    def test_respects_outage_capacity(self):
        job = make_job(cpus=8, runtime=10.0)
        # Only 4 in service.
        starts = select_conservative(0.0, [job], 4, [], est)
        assert starts == []

    @pytest.mark.parametrize(
        "releases",
        [[(10.0, 4.0, 2)], [(10.0, 4.0, 1), (10.0, 4.0, 1)]],
        ids=["cohort", "members"],
    )
    def test_depth_one_reservation_is_not_easy(self, releases):
        """EASY's extra nodes are not a depth-1 reservation planner's
        spare capacity, so no reservation-depth planner over
        ``CapacityProfile`` can stand in for ``select_easy``."""
        head = make_job(cpus=6, runtime=100.0)
        narrow = make_job(cpus=2, runtime=50.0)
        # 2 free plus the first 4-CPU member cover the head at t=10:
        # only the covering member counts, so no node is extra.
        assert shadow_of(6, 2.0, releases) == (10.0, 0.0)
        assert select_easy(0.0, [head, narrow], 2, releases, est) == []
        # Conservative reserves the head alone at t=10, and narrow fits
        # beside it: 2 free before, 10 - 6 from then on.
        starts = select_conservative(0.0, [head, narrow], 10, releases, est)
        assert starts == [narrow]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_selected_sets_fit(data):
    """Both planners return sets that simultaneously fit in free CPUs."""
    free = data.draw(st.integers(0, 32))
    queue = [
        make_job(
            cpus=data.draw(st.integers(1, 16)),
            runtime=data.draw(st.floats(1.0, 1000.0)),
        )
        for _ in range(data.draw(st.integers(0, 10)))
    ]
    releases = [
        (data.draw(st.floats(1.0, 500.0)), data.draw(st.integers(1, 8)),
         data.draw(st.integers(1, 3)))
        for _ in range(data.draw(st.integers(0, 5)))
    ]
    busy = sum(c * n for _, c, n in releases)
    easy = select_easy(0.0, queue, free, releases, est)
    assert sum(j.cpus for j in easy) <= free
    conservative = select_conservative(
        0.0, queue, free + busy, releases, est
    )
    assert sum(j.cpus for j in conservative) <= free


def test_conservative_does_not_start_into_overdue_claims():
    """A running job past its estimated finish (predictor underestimate)
    still occupies its CPUs: the planning profile sees free capacity at
    ``t``, but the start must be gated on the instantaneous free count."""
    job = make_job(cpus=8, runtime=50.0)
    # The machine's 8 CPUs are held by a job whose estimated finish
    # (90.0) already passed; nothing is physically free at t=100.
    starts = select_conservative(100.0, [job], 8, [(90.0, 8.0, 1)], est)
    assert starts == []
    # Once the claim is live again (finish in the future), the queued
    # job is planned behind it, not started.
    starts = select_conservative(100.0, [job], 8, [(150.0, 8.0, 1)], est)
    assert starts == []
