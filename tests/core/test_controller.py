"""Tests for the Figure-1 interstitial controller."""


import pytest

from repro.core.controller import InterstitialController
from repro.errors import ConfigurationError
from repro.jobs import InterstitialProject, JobKind, JobState, expand
from repro.sched import fcfs_scheduler
from repro.sim.state import ClusterState

from tests.conftest import make_job


@pytest.fixture
def project():
    return InterstitialProject(n_jobs=100, cpus_per_job=2,
                               runtime_1ghz=100.0)


@pytest.fixture
def cluster(small_machine):
    return ClusterState(small_machine)


def controller_for(machine, project, **kwargs):
    return InterstitialController(machine=machine, project=project, **kwargs)


class TestValidation:
    def test_rejects_too_wide_project(self, tiny_machine):
        wide = InterstitialProject(n_jobs=1, cpus_per_job=9,
                                   runtime_1ghz=10.0)
        with pytest.raises(ConfigurationError):
            controller_for(tiny_machine, wide)

    def test_rejects_bad_cap(self, small_machine, project):
        with pytest.raises(ConfigurationError):
            controller_for(small_machine, project, max_utilization=0.0)
        with pytest.raises(ConfigurationError):
            controller_for(small_machine, project, max_utilization=1.5)

    def test_rejects_negative_start(self, small_machine, project):
        with pytest.raises(ConfigurationError):
            controller_for(small_machine, project, start_time=-1.0)

    def test_rejects_zero_jobs(self, small_machine, project):
        with pytest.raises(ConfigurationError):
            controller_for(small_machine, project, n_jobs=0)


class TestFigure1Gate:
    def test_fills_empty_machine_empty_queue(
        self, small_machine, project, cluster
    ):
        ctrl = controller_for(small_machine, project)
        jobs = ctrl.offer(0.0, cluster, fcfs_scheduler())
        # floor(64 free / 2 cpus) = 32 jobs.
        assert len(jobs) == 32
        assert all(j.kind is JobKind.INTERSTITIAL for j in jobs)

    def test_respects_free_cpus(self, small_machine, project, cluster):
        cluster.start([make_job(cpus=59)], 0.0)
        ctrl = controller_for(small_machine, project)
        jobs = ctrl.offer(0.0, cluster, fcfs_scheduler())
        # floor(5 / 2) = 2.
        assert len(jobs) == 2

    def test_no_room_no_jobs(self, small_machine, project, cluster):
        cluster.start([make_job(cpus=63)], 0.0)
        ctrl = controller_for(small_machine, project)
        assert ctrl.offer(0.0, cluster, fcfs_scheduler()) == []

    def test_blocked_by_imminent_head_job(
        self, small_machine, project, cluster
    ):
        # Head job can start (by estimates) before one interstitial
        # runtime elapses -> no submission.
        sched = fcfs_scheduler()
        running = make_job(cpus=60, runtime=10.0, estimate=50.0)
        cluster.start([running], 0.0)
        sched.submit(make_job(cpus=30), 0.0)
        ctrl = controller_for(small_machine, project)  # runtime 100 s
        assert ctrl.offer(0.0, cluster, sched) == []

    def test_allowed_when_head_far_out(
        self, small_machine, project, cluster
    ):
        sched = fcfs_scheduler()
        running = make_job(cpus=60, runtime=10.0, estimate=5000.0)
        cluster.start([running], 0.0)
        sched.submit(make_job(cpus=30), 0.0)
        ctrl = controller_for(small_machine, project)
        jobs = ctrl.offer(0.0, cluster, sched)
        assert len(jobs) == 2  # floor(4 free / 2)

    def test_dormant_before_start_time(
        self, small_machine, project, cluster
    ):
        ctrl = controller_for(small_machine, project, start_time=500.0)
        assert ctrl.offer(0.0, cluster, fcfs_scheduler()) == []
        assert len(ctrl.offer(500.0, cluster, fcfs_scheduler())) > 0


class TestSupply:
    def test_finite_project_exhausts(self, small_machine, cluster):
        project = InterstitialProject(n_jobs=5, cpus_per_job=2,
                                      runtime_1ghz=100.0)
        ctrl = controller_for(small_machine, project)
        jobs = ctrl.offer(0.0, cluster, fcfs_scheduler())
        assert len(jobs) == 5
        assert ctrl.exhausted
        assert ctrl.offer(1.0, cluster, fcfs_scheduler()) == []

    def test_continual_never_exhausts(self, small_machine, project,
                                      cluster):
        ctrl = controller_for(small_machine, project, continual=True)
        for _ in range(5):
            jobs = ctrl.offer(0.0, cluster, fcfs_scheduler())
            assert len(jobs) == 32
            # Pretend they never start (cluster unchanged).
        assert not ctrl.exhausted

    def test_n_submitted_tracks(self, small_machine, project, cluster):
        ctrl = controller_for(small_machine, project)
        ctrl.offer(0.0, cluster, fcfs_scheduler())
        assert ctrl.n_submitted == 32

    def test_offers_copy_one_untouched_template(
        self, small_machine, project, cluster
    ):
        ctrl = controller_for(small_machine, project, continual=True)
        first = ctrl.offer(10.0, cluster, fcfs_scheduler())
        cluster.start(first, 10.0)
        second = ctrl.offer(25.0, ClusterState(small_machine),
                            fcfs_scheduler())
        assert [r.submit_time for r in first] == [10.0]
        assert [r.submit_time for r in second] == [25.0]
        assert first[0].start_time == 10.0
        assert second[0].start_time is None
        template = ctrl._template
        assert template.state is JobState.CREATED
        assert template.start_time is None
        assert template.submit_time == 0.0


class TestUtilizationCap:
    def test_cap_limits_submission(self, small_machine, project, cluster):
        # 64 CPUs, cap 0.5 -> at most 32 busy.
        ctrl = controller_for(small_machine, project, max_utilization=0.5)
        jobs = ctrl.offer(0.0, cluster, fcfs_scheduler())
        assert len(jobs) == 16  # 32 CPUs / 2 per job

    def test_cap_counts_running_work(self, small_machine, project, cluster):
        cluster.start([make_job(cpus=30)], 0.0)
        ctrl = controller_for(small_machine, project, max_utilization=0.5)
        jobs = ctrl.offer(0.0, cluster, fcfs_scheduler())
        assert len(jobs) == 1  # budget floor(32) - 30 = 2 -> one 2-wide job

    def test_cap_blocks_above_threshold(self, small_machine, project,
                                        cluster):
        cluster.start([make_job(cpus=40)], 0.0)
        ctrl = controller_for(small_machine, project, max_utilization=0.5)
        assert ctrl.offer(0.0, cluster, fcfs_scheduler()) == []


class TestPreemption:
    def test_not_preemptible_by_default(self, small_machine, project):
        assert not controller_for(small_machine, project).preemptible

    def test_preempted_jobs_recredited(self, small_machine, cluster):
        project = InterstitialProject(n_jobs=5, cpus_per_job=2,
                                      runtime_1ghz=100.0)
        ctrl = controller_for(small_machine, project, preemptible=True)
        jobs = expand(ctrl.offer(0.0, cluster, fcfs_scheduler()))
        assert ctrl.exhausted
        ctrl.on_preempted(jobs[:2], 10.0)
        assert ctrl.n_preempted == 2
        assert not ctrl.exhausted
