"""Tests for the high-level runners."""

import numpy as np
import pytest

from repro.core.runners import (
    run_continual,
    run_native,
    run_omniscient_samples,
)
from repro.jobs import InterstitialProject, JobState
from repro.machines import Machine

from tests.conftest import random_native_trace


@pytest.fixture
def machine():
    return Machine(name="R", cpus=32, clock_ghz=1.0, queue_algorithm="LSF")


@pytest.fixture
def trace(machine, rng):
    return random_native_trace(rng, machine, n_jobs=30, horizon=20_000.0)


class TestRunNative:
    def test_trace_not_mutated(self, machine, trace):
        run_native(machine, trace)
        assert all(j.state is JobState.CREATED for j in trace)
        assert all(j.start_time is None for j in trace)

    def test_all_jobs_finish(self, machine, trace):
        result = run_native(machine, trace)
        assert len(result.finished) == len(trace)

    def test_replayable(self, machine, trace):
        a = run_native(machine, trace)
        b = run_native(machine, trace)
        starts_a = sorted(j.start_time for j in a.finished)
        starts_b = sorted(j.start_time for j in b.finished)
        assert starts_a == starts_b


class TestRunContinual:
    def test_produces_interstitial_work(self, machine, trace):
        project = InterstitialProject(n_jobs=1, cpus_per_job=2,
                                      runtime_1ghz=50.0)
        result, controller = run_continual(
            machine, trace, project, horizon=20_000.0
        )
        assert controller.n_submitted > 0
        assert len(result.interstitial_jobs) > 0

    def test_raises_overall_utilization(self, machine, trace):
        baseline = run_native(machine, trace, horizon=20_000.0)
        project = InterstitialProject(n_jobs=1, cpus_per_job=2,
                                      runtime_1ghz=50.0)
        result, _ = run_continual(machine, trace, project,
                                  horizon=20_000.0)
        assert result.overall_utilization > baseline.overall_utilization

    def test_native_job_count_preserved(self, machine, trace):
        project = InterstitialProject(n_jobs=1, cpus_per_job=2,
                                      runtime_1ghz=50.0)
        result, _ = run_continual(machine, trace, project,
                                  horizon=20_000.0)
        assert len(result.native_jobs) == len(trace)

    def test_cap_limits_utilization(self, machine, trace):
        project = InterstitialProject(n_jobs=1, cpus_per_job=2,
                                      runtime_1ghz=50.0)
        capped, _ = run_continual(
            machine, trace, project, max_utilization=0.7,
            horizon=20_000.0,
        )
        uncapped, _ = run_continual(
            machine, trace, project, horizon=20_000.0
        )
        assert (
            capped.overall_utilization <= uncapped.overall_utilization
        )
        assert len(capped.interstitial_jobs) < len(
            uncapped.interstitial_jobs
        )


class TestRunOmniscientSamples:
    def test_sample_count_and_determinism(self, machine, trace):
        project = InterstitialProject(n_jobs=30, cpus_per_job=2,
                                      runtime_1ghz=50.0)
        native = run_native(machine, trace)
        a, packs = run_omniscient_samples(
            native, trace, project, n_samples=5,
            rng=np.random.default_rng(3),
        )
        b, _ = run_omniscient_samples(
            native, trace, project, n_samples=5,
            rng=np.random.default_rng(3),
        )
        assert a.shape == (5,)
        assert np.array_equal(a, b)
        assert len(packs) == 5
