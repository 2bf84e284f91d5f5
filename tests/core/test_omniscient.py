"""Tests for the omniscient gap packer, including its central invariant:
packed interstitial usage never exceeds the native headroom anywhere."""


import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.omniscient import (
    add_step_functions,
    headroom_profile,
    pack_project,
)
from repro.errors import ConfigurationError
from repro.jobs import InterstitialProject
from repro.machines import Machine
from repro.sim.engine import Engine
from repro.sim.outages import Outage, OutageSchedule

from tests.conftest import fcfs, make_job, random_native_trace


def native_run(machine, jobs, outages=None):
    return Engine(machine, fcfs(), trace=jobs, outages=outages).run()


class TestAddStepFunctions:
    def test_sum(self):
        from repro.sim.profile import StepFunction

        a = StepFunction.from_deltas([0.0, 10.0], [2.0, -2.0])
        b = StepFunction.from_deltas([5.0, 15.0], [3.0, -3.0])
        s = add_step_functions(a, b)
        assert s(0.0) == 2.0
        assert s(7.0) == 5.0
        assert s(12.0) == 3.0
        assert s(20.0) == 0.0


class TestHeadroom:
    def test_empty_machine_full_headroom(self, tiny_machine):
        result = native_run(tiny_machine, [])
        h = headroom_profile(result)
        assert h(0.0) == 8.0

    def test_headroom_subtracts_native(self, tiny_machine):
        result = native_run(
            tiny_machine, [make_job(cpus=5, runtime=100.0)]
        )
        h = headroom_profile(result)
        assert h(50.0) == 3.0
        assert h(150.0) == 8.0

    def test_headroom_subtracts_outages(self, tiny_machine):
        outages = OutageSchedule([Outage(10.0, 20.0, 4)])
        result = native_run(tiny_machine, [], outages=outages)
        h = headroom_profile(result)
        assert h(15.0) == 4.0
        assert h(25.0) == 8.0


class TestPackProject:
    def test_empty_machine_packs_at_full_width(self, tiny_machine):
        result = native_run(tiny_machine, [])
        project = InterstitialProject(n_jobs=16, cpus_per_job=2,
                                      runtime_1ghz=100.0)
        packing = pack_project(result, project)
        # 4 jobs per wave (8 cpus / 2), 4 waves of 100 s.
        assert packing.makespan == pytest.approx(400.0)
        assert packing.n_jobs == 16

    def test_single_gap(self, tiny_machine):
        # Native occupies the whole machine on [0, 100); the project
        # must wait for the gap.
        native = make_job(cpus=8, runtime=100.0)
        result = native_run(tiny_machine, [native])
        project = InterstitialProject(n_jobs=4, cpus_per_job=8,
                                      runtime_1ghz=50.0)
        packing = pack_project(result, project)
        assert packing.placements[0][0] == 100.0
        assert packing.finish_time == pytest.approx(300.0)

    def test_window_min_blocks_partial_gaps(self, tiny_machine):
        # Gap [0, 30) of width 8 cannot host a 50 s full-width job:
        # the packer must wait for the native job to *finish*.
        native = make_job(cpus=8, runtime=100.0, submit=30.0)
        result = native_run(tiny_machine, [native])
        project = InterstitialProject(n_jobs=1, cpus_per_job=8,
                                      runtime_1ghz=50.0)
        packing = pack_project(result, project)
        assert packing.placements[0][0] == 130.0

    def test_narrow_jobs_use_partial_gap(self, tiny_machine):
        native = make_job(cpus=6, runtime=100.0)
        result = native_run(tiny_machine, [native])
        project = InterstitialProject(n_jobs=2, cpus_per_job=2,
                                      runtime_1ghz=50.0)
        packing = pack_project(result, project)
        # One job fits beside the native job immediately; capacity for
        # exactly one (2 <= 8-6 < 4).
        assert packing.placements[0] == (0.0, 1)

    def test_start_time_offset(self, tiny_machine):
        result = native_run(tiny_machine, [])
        project = InterstitialProject(n_jobs=4, cpus_per_job=8,
                                      runtime_1ghz=25.0)
        packing = pack_project(result, project, start_time=1000.0)
        assert packing.start_time == 1000.0
        assert packing.makespan == pytest.approx(100.0)

    def test_makespan_grows_with_project_size(self, small_machine, rng):
        trace = random_native_trace(rng, small_machine, n_jobs=30)
        result = native_run(small_machine, trace)
        small = InterstitialProject(n_jobs=50, cpus_per_job=2,
                                    runtime_1ghz=100.0)
        large = InterstitialProject(n_jobs=500, cpus_per_job=2,
                                    runtime_1ghz=100.0)
        assert (
            pack_project(result, large).makespan
            >= pack_project(result, small).makespan
        )

    def test_rejects_too_wide(self, tiny_machine):
        result = native_run(tiny_machine, [])
        project = InterstitialProject(n_jobs=1, cpus_per_job=9,
                                      runtime_1ghz=10.0)
        with pytest.raises(ConfigurationError):
            pack_project(result, project)

    def test_rejects_negative_start(self, tiny_machine):
        result = native_run(tiny_machine, [])
        project = InterstitialProject(n_jobs=1, cpus_per_job=1,
                                      runtime_1ghz=10.0)
        with pytest.raises(ConfigurationError):
            pack_project(result, project, start_time=-5.0)

    @pytest.mark.parametrize("start", [math.inf, math.nan])
    def test_rejects_unbounded_start(self, tiny_machine, start):
        # A project dropped in at no finite time never starts: its
        # makespan would read NaN.
        result = native_run(tiny_machine, [])
        project = InterstitialProject(n_jobs=1, cpus_per_job=1,
                                      runtime_1ghz=10.0)
        with pytest.raises(ConfigurationError):
            pack_project(result, project, start_time=start)

    def test_usage_profile_conserves_work(self, tiny_machine):
        result = native_run(tiny_machine, [])
        project = InterstitialProject(n_jobs=10, cpus_per_job=2,
                                      runtime_1ghz=30.0)
        packing = pack_project(result, project)
        usage = packing.usage_profile()
        total = usage.integrate(0.0, packing.finish_time + 1.0)
        assert total == pytest.approx(10 * 2 * 30.0)


class TestNoOvercommitInvariant:
    """The paper-defining invariant: omniscient packing never takes a CPU
    a native job uses — machine-checked on random traces."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        width=st.sampled_from([1, 2, 3, 8, 16]),
        runtime=st.floats(10.0, 3000.0),
        n_jobs=st.integers(1, 300),
        start_frac=st.floats(0.0, 1.0),
    )
    def test_never_exceeds_headroom(
        self, seed, width, runtime, n_jobs, start_frac
    ):
        rng = np.random.default_rng(seed)
        machine = Machine(name="P", cpus=32, clock_ghz=1.0)
        trace = random_native_trace(rng, machine, n_jobs=25)
        result = native_run(machine, trace)
        project = InterstitialProject(
            n_jobs=n_jobs, cpus_per_job=width, runtime_1ghz=runtime
        )
        start = start_frac * result.end_time
        packing = pack_project(result, project, start_time=start)
        assert packing.n_jobs == n_jobs

        headroom = headroom_profile(result)
        usage = packing.usage_profile()
        probes = np.union1d(headroom.times, usage.times)
        if probes.size:
            slack = headroom.sample(probes) - usage.sample(probes)
            assert slack.min() >= -1e-6

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_no_placement_before_start(self, seed):
        rng = np.random.default_rng(seed)
        machine = Machine(name="P", cpus=32, clock_ghz=1.0)
        trace = random_native_trace(rng, machine, n_jobs=15)
        result = native_run(machine, trace)
        project = InterstitialProject(n_jobs=20, cpus_per_job=2,
                                      runtime_1ghz=50.0)
        start = 0.5 * result.end_time
        packing = pack_project(result, project, start_time=start)
        assert all(t >= start for t, _ in packing.placements)
