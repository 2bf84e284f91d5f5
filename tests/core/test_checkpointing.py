"""Tests for checkpointed preemption and controller decision logging."""

import pytest

from repro.core.controller import InterstitialController
from repro.core.runners import run_with_controller
from repro.errors import ConfigurationError
from repro.jobs import InterstitialProject, expand
from repro.machines import Machine
from repro.sched import fcfs_scheduler
from repro.sim.state import ClusterState

from tests.conftest import make_job


@pytest.fixture
def machine():
    return Machine(name="R", cpus=16, clock_ghz=1.0, queue_algorithm="LSF")


def long_project():
    return InterstitialProject(
        n_jobs=1, cpus_per_job=2, runtime_1ghz=10_000.0
    )


class TestCheckpointing:
    def test_requires_preemptible(self, machine):
        with pytest.raises(ConfigurationError):
            InterstitialController(
                machine=machine,
                project=long_project(),
                continual=True,
                checkpointing=True,
            )

    def test_preserved_work_tracked(self, machine):
        controller = InterstitialController(
            machine=machine,
            project=long_project(),
            continual=True,
            preemptible=True,
            checkpointing=True,
        )
        trigger = make_job(cpus=1, runtime=1.0, submit=0.0)
        native = make_job(cpus=16, runtime=100.0, submit=50.0)
        result = run_with_controller(
            machine, [trigger, native], controller, horizon=40.0
        )
        assert len(result.killed) == 8
        # Each 2-CPU victim ran ~50 s before the kill.
        assert controller.work_preserved_cpu_s == pytest.approx(
            2 * (50.0 * 7 + 49.0), rel=0.01
        )

    def test_fragments_restart_with_remaining_runtime(self, machine):
        controller = InterstitialController(
            machine=machine,
            project=long_project(),
            continual=True,
            preemptible=True,
            checkpointing=True,
        )
        trigger = make_job(cpus=1, runtime=1.0, submit=0.0)
        native = make_job(cpus=16, runtime=100.0, submit=50.0)
        # Horizon past the native job so fragments can restart at 150.
        result = run_with_controller(
            machine, [trigger, native], controller, horizon=200.0
        )
        restarts = [
            j
            for j in result.finished + result.unfinished + [
                rec for rec in ()
            ]
            if j.is_interstitial and j.runtime < 9999.0
        ]
        # Fragments carry only the remaining runtime (~9950 s), not the
        # full 10000 s.
        fragment_runtimes = sorted(
            {round(j.runtime) for j in restarts}
        )
        assert fragment_runtimes
        assert all(9000 <= r < 10_000 for r in fragment_runtimes)

    def test_no_recredit_without_checkpoint_queue_drain(self, machine):
        """Plain preemption re-credits whole jobs; checkpointing queues
        fragments instead of bumping the fresh-job count."""
        plain = InterstitialController(
            machine=machine, project=long_project(),
            n_jobs=8, preemptible=True,
        )
        cluster = ClusterState(machine)
        jobs = expand(plain.offer(0.0, cluster, fcfs_scheduler()))
        assert plain.exhausted
        plain.on_preempted(jobs[:3], 10.0)
        assert plain._remaining == 3

        ckpt = InterstitialController(
            machine=machine, project=long_project(),
            n_jobs=8, preemptible=True, checkpointing=True,
        )
        cluster2 = ClusterState(machine)
        jobs2 = expand(ckpt.offer(0.0, cluster2, fcfs_scheduler()))
        for j in jobs2[:3]:
            j.start_time = 0.0
            j.finish_time = 10.0
        ckpt.on_preempted(jobs2[:3], 10.0)
        assert ckpt._remaining == 0
        assert len(ckpt._restart_queue) == 3
        assert not ckpt.exhausted

    def test_tiny_remainders_dropped(self, machine):
        ckpt = InterstitialController(
            machine=machine, project=long_project(),
            n_jobs=1, preemptible=True, checkpointing=True,
        )
        cluster = ClusterState(machine)
        jobs = ckpt.offer(0.0, cluster, fcfs_scheduler())
        job = jobs[0]
        job.start_time = 0.0
        job.finish_time = job.runtime - 0.5  # killed 0.5 s before done
        ckpt.on_preempted([job], job.finish_time)
        assert ckpt.exhausted  # remainder below MIN_RESTART_RUNTIME


class TestDecisionLog:
    def test_disabled_by_default(self, machine):
        controller = InterstitialController(
            machine=machine, project=long_project(), continual=True
        )
        assert controller.decisions is None

    def test_records_submissions_and_gates(self, machine):
        controller = InterstitialController(
            machine=machine,
            project=InterstitialProject(
                n_jobs=1, cpus_per_job=2, runtime_1ghz=500.0
            ),
            continual=True,
            record_decisions=True,
        )
        trigger = make_job(cpus=1, runtime=1.0, submit=0.0)
        blocked_native = make_job(
            cpus=16, runtime=10.0, estimate=50.0, submit=5.0
        )
        run_with_controller(
            machine, [trigger, blocked_native], controller, horizon=400.0
        )
        reasons = {d.reason for d in controller.decisions}
        assert "submitted" in reasons
        # The machine fills up, so no_room or head_imminent must occur.
        assert reasons & {"no_room", "head_imminent"}
        submitted = [
            d for d in controller.decisions if d.reason == "submitted"
        ]
        assert all(d.n_submitted > 0 for d in submitted)
        times = [d.time for d in controller.decisions]
        assert times == sorted(times)
