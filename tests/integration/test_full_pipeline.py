"""Cross-module integration tests: the paper's claims end-to-end on a
scaled-down machine with a synthetic workload."""

import numpy as np
import pytest

from repro.core.omniscient import headroom_profile
from repro.core.runners import (
    run_continual,
    run_native,
    run_omniscient_samples,
)
from repro.core.sampling import sample_short_projects
from repro.jobs import InterstitialProject, JobKind
from repro.machines import preset
from repro.metrics.waits import wait_times
from repro.sched.presets import scheduler_for
from repro.workload.synthetic import synthetic_trace_for


@pytest.fixture(scope="module")
def setup():
    """One shared tiny Blue Mountain scenario for all integration tests."""
    machine = preset("blue_mountain")
    trace = synthetic_trace_for(
        "blue_mountain", rng=np.random.default_rng(42), scale=0.02
    )
    native = run_native(machine, trace.jobs, horizon=trace.duration)
    return machine, trace, native


class TestOmniscientHasZeroNativeImpact:
    def test_native_schedule_identical(self, setup):
        """The defining §4.1 property: with omniscient packing the
        native jobs run exactly as they would alone — guaranteed by
        construction, verified against an independent re-run."""
        machine, trace, native = setup
        rerun = run_native(machine, trace.jobs, horizon=trace.duration)
        a = sorted(
            (j.job_id, j.start_time, j.finish_time)
            for j in native.finished
        )
        b = sorted(
            (j.job_id, j.start_time, j.finish_time)
            for j in rerun.finished
        )
        assert a == b

    def test_packing_fits_headroom(self, setup):
        machine, trace, native = setup
        project = InterstitialProject(
            n_jobs=400, cpus_per_job=32, runtime_1ghz=120.0
        )
        _, packings = run_omniscient_samples(
            native,
            trace.jobs,
            project,
            n_samples=3,
            rng=np.random.default_rng(0),
        )
        headroom = headroom_profile(native)
        for packing in packings:
            usage = packing.usage_profile()
            probes = np.union1d(headroom.times, usage.times)
            slack = headroom.sample(probes) - usage.sample(probes)
            assert slack.min() >= -1e-6


class TestFallibleWorsensMakespans:
    def test_fallible_at_least_omniscient(self, setup):
        """§4.3: estimate-driven submission can only slow projects
        down relative to omniscient placement (on average)."""
        machine, trace, native = setup
        project = InterstitialProject(
            n_jobs=300, cpus_per_job=32, runtime_1ghz=120.0
        )
        omni, _ = run_omniscient_samples(
            native,
            trace.jobs,
            project,
            n_samples=5,
            rng=np.random.default_rng(1),
        )
        cont, _ = run_continual(
            machine, trace.jobs, project, horizon=trace.duration
        )
        fallible = sample_short_projects(
            cont.jobs(JobKind.INTERSTITIAL),
            n_jobs=300,
            n_samples=25,
            rng=np.random.default_rng(2),
        )
        assert fallible.size > 0
        assert fallible.mean() >= 0.5 * omni.mean()


class TestContinualClaims:
    def test_utilization_rises_native_throughput_holds(self, setup):
        machine, trace, native = setup
        project = InterstitialProject(
            n_jobs=1, cpus_per_job=32, runtime_1ghz=120.0
        )
        boosted, controller = run_continual(
            machine, trace.jobs, project, horizon=trace.duration
        )
        assert (
            boosted.overall_utilization
            > native.overall_utilization + 0.1
        )
        assert len(boosted.native_jobs) == len(native.native_jobs)
        assert controller.n_submitted > 100

    def test_native_waits_grow_but_bounded_cascades(self, setup):
        machine, trace, native = setup
        project = InterstitialProject(
            n_jobs=1, cpus_per_job=32, runtime_1ghz=120.0
        )
        boosted, _ = run_continual(
            machine, trace.jobs, project, horizon=trace.duration
        )
        base_waits = wait_times(native.native_jobs)
        new_waits = wait_times(boosted.native_jobs)
        assert np.median(new_waits) >= np.median(base_waits)

    def test_caps_trade_throughput_for_native_protection(self, setup):
        machine, trace, native = setup
        project = InterstitialProject(
            n_jobs=1, cpus_per_job=32, runtime_1ghz=120.0
        )
        counts = []
        for cap in (0.90, 0.98, None):
            result, controller = run_continual(
                machine,
                trace.jobs,
                project,
                max_utilization=cap,
                horizon=trace.duration,
            )
            counts.append(controller.n_submitted)
        assert counts[0] <= counts[1] <= counts[2]


class TestCrossMachine:
    @pytest.mark.parametrize(
        "name", ["ross", "blue_mountain", "blue_pacific"]
    )
    def test_full_pipeline_on_every_machine(self, name):
        machine = preset(name)
        trace = synthetic_trace_for(
            name, rng=np.random.default_rng(9), scale=0.02
        )
        project = InterstitialProject(
            n_jobs=1, cpus_per_job=8, runtime_1ghz=120.0
        )
        result, controller = run_continual(
            machine,
            trace.jobs,
            project,
            scheduler=scheduler_for(machine),
            horizon=trace.duration,
        )
        assert len(result.native_jobs) == trace.n_jobs
        assert controller.n_submitted > 0
        busy = result.busy_profile()
        assert busy.values.max() <= machine.cpus
