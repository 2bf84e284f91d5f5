"""Tests for ClusterState."""

import math

import pytest

from repro.errors import CapacityError, SchedulingError
from repro.jobs import Cohort, JobKind
from repro.sched import fcfs_scheduler
from repro.sim.state import ClusterState

from tests.conftest import make_job


@pytest.fixture
def cluster(small_machine):
    return ClusterState(small_machine)


class TestAllocation:
    def test_start_reduces_free(self, cluster):
        cluster.start([make_job(cpus=10)], 0.0)
        assert cluster.busy_cpus == 10
        assert cluster.free_cpus == 54

    def test_finish_releases(self, cluster):
        job = make_job(cpus=10)
        cluster.start([job], 0.0)
        cluster.finish([job])
        assert cluster.busy_cpus == 0
        assert cluster.free_cpus == 64

    def test_start_finish_roundtrip_many(self, cluster):
        jobs = [make_job(cpus=i + 1) for i in range(8)]
        for j in jobs:
            cluster.start([j], 0.0)
        for j in jobs:
            cluster.finish([j])
        assert cluster.busy_cpus == 0
        assert not cluster.running

    def test_rejects_oversubscription(self, cluster):
        cluster.start([make_job(cpus=60)], 0.0)
        with pytest.raises(CapacityError):
            cluster.start([make_job(cpus=5)], 0.0)

    def test_rejects_too_wide_for_machine(self, cluster):
        with pytest.raises(CapacityError):
            cluster.start([make_job(cpus=65)], 0.0)

    def test_rejects_double_start(self, cluster):
        job = make_job(cpus=1)
        cluster.start([job], 0.0)
        with pytest.raises(SchedulingError):
            cluster.start([job], 1.0)

    def test_rejects_finish_of_unknown(self, cluster):
        with pytest.raises(SchedulingError):
            cluster.finish([make_job()])

    def test_fits_now(self, cluster):
        cluster.start([make_job(cpus=60)], 0.0)
        assert cluster.fits_now(4)
        assert not cluster.fits_now(5)

    def test_instantaneous_utilization(self, cluster):
        cluster.start([make_job(cpus=32)], 0.0)
        assert cluster.instantaneous_utilization == 0.5


class TestRunningRecords:
    """A running record is its own entry in ``running``."""

    def test_start_stamps_start_time(self, cluster):
        jobs = [make_job(cpus=2), make_job(cpus=3)]
        cluster.start(jobs, 12.5)
        assert [job.start_time for job in jobs] == [12.5, 12.5]

    def test_running_entry_is_the_record(self, cluster):
        job = make_job(cpus=2)
        cohort = Cohort(make_job(cpus=1, kind=JobKind.INTERSTITIAL), 4)
        cluster.start([job, cohort], 3.0)
        assert cluster.running[job.job_id] is job
        assert cluster.running[cohort.job_id] is cohort

    def test_split_piece_keeps_start_time(self, cluster):
        cohort = Cohort(
            make_job(cpus=2, estimate=100.0, kind=JobKind.INTERSTITIAL), 6
        )
        cluster.start([cohort], 7.0)
        piece = cohort.split(4)
        cluster.split(cohort, piece)
        assert cluster.running[piece.job_id] is piece
        assert piece.start_time == cohort.start_time == 7.0
        assert cluster.busy_cpus == 12
        assert cluster.release_claims() == [(107.0, 2.0, 2), (107.0, 2.0, 4)]


class TestOutageInteraction:
    def test_down_cpus_reduce_free(self, cluster):
        cluster.down_cpus = 60
        assert cluster.available_cpus == 4
        assert cluster.free_cpus == 4

    def test_free_clamped_at_zero_during_outage(self, cluster):
        cluster.start([make_job(cpus=30)], 0.0)
        cluster.down_cpus = 50  # busy (30) + down (50) > 64
        assert cluster.free_cpus == 0


def _earliest(cluster, cpus, t):
    """The scheduler's ``backfillWallTime`` walk for a ``cpus``-wide
    head job over ``cluster``'s release claims."""
    return fcfs_scheduler()._earliest_capacity(cpus, t, cluster)


class TestEstimates:
    def test_release_claims_sorted_by_estimate(self, cluster):
        slow = make_job(cpus=1, runtime=10.0, estimate=500.0)
        fast = make_job(cpus=2, runtime=10.0, estimate=100.0)
        cluster.start([slow], 0.0)
        cluster.start([fast], 0.0)
        # fast's claim (2 CPUs at its estimate) comes first.
        assert cluster.release_claims() == [(100.0, 2.0, 1), (500.0, 1.0, 1)]

    def test_earliest_fit_estimate_now(self, cluster):
        assert _earliest(cluster, 64, 5.0) == 5.0

    def test_earliest_fit_estimate_waits_for_release(self, cluster):
        job = make_job(cpus=60, runtime=10.0, estimate=100.0)
        cluster.start([job], 0.0)
        # A 30-wide job must wait until the 60-wide job's estimated end.
        assert _earliest(cluster, 30, 5.0) == 100.0

    def test_earliest_fit_estimate_accumulates(self, cluster):
        a = make_job(cpus=30, runtime=10.0, estimate=50.0)
        b = make_job(cpus=30, runtime=10.0, estimate=80.0)
        cluster.start([a], 0.0)
        cluster.start([b], 0.0)
        # Needs both releases: 4 free + 30 + 30 >= 64.
        assert _earliest(cluster, 64, 0.0) == 80.0
        # Needs only the first release: 4 + 30 >= 34.
        assert _earliest(cluster, 34, 0.0) == 50.0

    def test_earliest_fit_estimate_infinite_under_outage(self, cluster):
        cluster.down_cpus = 60
        assert math.isinf(_earliest(cluster, 10, 0.0))


class TestCohorts:
    """``start``/``finish`` take a cohort: one joint capacity check and
    one epoch bump, with the same release timeline as one-at-a-time."""

    def test_cohort_start_and_finish_bump_epoch_once(self, cluster):
        jobs = [make_job(cpus=4) for _ in range(5)]
        cluster.start(jobs, 0.0)
        assert (cluster.busy_cpus, cluster.epoch) == (20, 1)
        cluster.finish(jobs)
        assert (cluster.busy_cpus, cluster.epoch) == (0, 2)
        assert not cluster.running

    def test_capacity_checked_jointly_before_allocating(self, cluster):
        jobs = [make_job(cpus=30), make_job(cpus=30), make_job(cpus=10)]
        with pytest.raises(CapacityError):
            cluster.start(jobs, 0.0)
        assert (cluster.busy_cpus, cluster.epoch) == (0, 0)
        assert not cluster.running

    def test_rejects_job_twice_in_one_cohort(self, cluster):
        job = make_job(cpus=1)
        with pytest.raises(SchedulingError):
            cluster.start([job, job], 0.0)

    def test_timeline_matches_one_at_a_time(self, small_machine):
        def populated():
            state = ClusterState(small_machine)
            state.start([make_job(cpus=2, runtime=10.0, estimate=150.0)], 0.0)
            state.start([make_job(cpus=3, runtime=10.0, estimate=100.0)], 0.0)
            return state

        cohort = [
            make_job(cpus=3, runtime=10.0, estimate=100.0),
            make_job(cpus=1, runtime=10.0, estimate=300.0),
            make_job(cpus=3, runtime=10.0, estimate=100.0),
            make_job(cpus=2, runtime=10.0, estimate=50.0),
        ]
        together, apart = populated(), populated()
        together.start(cohort, 0.0)
        for job in cohort:
            apart.start([job], 0.0)
        assert together._release_keys == apart._release_keys
        assert together.release_claims() == apart.release_claims()
        together.finish(cohort[::2])
        for job in cohort[::2]:
            apart.finish([job])
        assert together._release_keys == apart._release_keys

    def test_partial_cohort_finish_keeps_timeline_sorted(self, cluster):
        cohort = [make_job(cpus=2, estimate=100.0) for _ in range(6)]
        other = make_job(cpus=2, estimate=100.0)
        cluster.start(cohort, 0.0)
        cluster.start([other], 0.0)
        cluster.finish([cohort[1], cohort[4]])
        cluster.finish([cohort[0], cohort[2], cohort[3], cohort[5]])
        assert cluster.release_claims() == [(100.0, 2.0, 1)]
        assert cluster.busy_cpus == 2
