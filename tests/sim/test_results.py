"""Tests for SimResult metrics plumbing."""

import pytest

from repro.jobs import JobKind
from repro.sim.engine import Engine, SimConfig
from repro.sim.results import SimResult

from tests.conftest import fcfs, make_job


@pytest.fixture
def simple_result(tiny_machine):
    # One 8-wide job for 100 s starting at t=0; metrics over [0, 200].
    job = make_job(cpus=8, runtime=100.0)
    return Engine(
        tiny_machine, fcfs(), trace=[job], config=SimConfig(horizon=200.0)
    ).run()


class TestViews:
    def test_jobs_by_kind(self, tiny_machine):
        native = make_job(cpus=1, runtime=10.0)
        inter = make_job(cpus=1, runtime=10.0, kind=JobKind.INTERSTITIAL)
        result = SimResult(
            machine=tiny_machine, finished_records=[native, inter]
        )
        assert result.native_jobs == [native]
        assert result.interstitial_jobs == [inter]
        assert len(result.jobs()) == 2

    def test_metrics_end_prefers_horizon(self, simple_result):
        assert simple_result.metrics_end == 200.0

    def test_metrics_end_falls_back_to_end_time(self, tiny_machine):
        job = make_job(cpus=1, runtime=50.0)
        result = Engine(tiny_machine, fcfs(), trace=[job]).run()
        assert result.metrics_end == 50.0


class TestUtilization:
    def test_utilization_simple(self, simple_result):
        # 8 CPUs busy for 100 s of a 200 s window on an 8-CPU machine.
        assert simple_result.overall_utilization == pytest.approx(0.5)

    def test_utilization_by_kind(self, tiny_machine):
        native = make_job(cpus=4, runtime=100.0)
        inter = make_job(
            cpus=4, runtime=100.0, kind=JobKind.INTERSTITIAL
        )
        result = Engine(
            tiny_machine,
            fcfs(),
            trace=[native, inter],
            config=SimConfig(horizon=100.0),
        ).run()
        assert result.native_utilization == pytest.approx(0.5)
        assert result.utilization(JobKind.INTERSTITIAL) == pytest.approx(0.5)
        assert result.overall_utilization == pytest.approx(1.0)

    def test_utilization_window(self, simple_result):
        assert simple_result.utilization(t0=0.0, t1=100.0) == pytest.approx(
            1.0
        )
        assert simple_result.utilization(
            t0=100.0, t1=200.0
        ) == pytest.approx(0.0)

    def test_empty_window_rejected(self, simple_result):
        with pytest.raises(ValueError):
            simple_result.utilization(t0=10.0, t1=10.0)


class TestProfiles:
    def test_busy_profile_steps(self, simple_result):
        busy = simple_result.busy_profile()
        assert busy(0.0) == 8.0
        assert busy(99.9) == 8.0
        assert busy(100.0) == 0.0

    def test_down_profile_empty(self, simple_result):
        down = simple_result.down_profile()
        assert down(50.0) == 0.0

    def test_unfinished_jobs_count_to_end_time(self, tiny_machine):
        job = make_job(cpus=8, runtime=1000.0)
        result = Engine(
            tiny_machine, fcfs(), trace=[job], config=SimConfig(until=100.0)
        ).run()
        busy = result.busy_profile()
        # Truncated job occupies CPUs up to the truncation point.
        assert busy(50.0) == 8.0
        assert busy(150.0) == 0.0
