"""Tests for the omniscient continual harvest bound."""

import math

import numpy as np
import pytest

from repro.core.omniscient import pack_continual, pack_project
from repro.errors import ConfigurationError
from repro.jobs import InterstitialProject
from repro.machines import Machine
from repro.sim.engine import Engine

from tests.conftest import fcfs, make_job, random_native_trace


def native_run(machine, jobs):
    return Engine(machine, fcfs(), trace=jobs).run()


class TestPackContinual:
    def test_empty_machine_full_harvest(self, tiny_machine):
        # 8 CPUs, 2-wide 100 s jobs, horizon 1000 s: 4 lanes x 10 waves.
        result = native_run(tiny_machine, [])
        total, placements = pack_continual(result, 2, 100.0, 1000.0)
        assert total == 40
        assert placements[0] == (0.0, 4)

    def test_submission_stops_at_horizon(self, tiny_machine):
        result = native_run(tiny_machine, [])
        total_short, _ = pack_continual(result, 2, 100.0, 500.0)
        total_long, _ = pack_continual(result, 2, 100.0, 1000.0)
        assert total_short == 20
        assert total_long == 40

    def test_native_occupancy_reduces_harvest(self, tiny_machine):
        native = make_job(cpus=8, runtime=500.0)
        busy = native_run(tiny_machine, [native])
        idle = native_run(tiny_machine, [])
        total_busy, _ = pack_continual(busy, 2, 100.0, 1000.0)
        total_idle, _ = pack_continual(idle, 2, 100.0, 1000.0)
        assert total_busy == total_idle - 20  # 4 lanes x 5 waves lost

    def test_wide_jobs_blocked_by_partial_occupancy(self, tiny_machine):
        native = make_job(cpus=4, runtime=1000.0)
        result = native_run(tiny_machine, [native])
        # 8-wide interstitial jobs never fit while the native runs.
        total, _ = pack_continual(result, 8, 100.0, 900.0)
        assert total == 0

    def test_validation(self, tiny_machine):
        result = native_run(tiny_machine, [])
        with pytest.raises(ConfigurationError):
            pack_continual(result, 9, 10.0, 100.0)
        with pytest.raises(ConfigurationError):
            pack_continual(result, 2, 0.0, 100.0)
        with pytest.raises(ConfigurationError):
            pack_continual(result, 2, 10.0, 0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_rejects_unbounded_horizon(self, tiny_machine, horizon):
        # The feed is unbounded: past the end of the log every finish
        # frees room for another batch, so only the horizon stops it.
        result = native_run(tiny_machine, [])
        with pytest.raises(ConfigurationError):
            pack_continual(result, 2, 10.0, horizon)

    def test_placements_respect_headroom(self, small_machine, rng):
        from tests.conftest import random_native_trace

        trace = random_native_trace(rng, small_machine, n_jobs=25)
        result = native_run(small_machine, trace)
        total, placements = pack_continual(
            result, 4, 250.0, result.end_time
        )
        assert total == sum(c for _, c in placements)
        # Reconstruct usage and check against headroom.
        import numpy as np

        from repro.core.omniscient import headroom_profile
        from repro.sim.profile import StepFunction

        times, deltas = [], []
        for start, count in placements:
            times += [start, start + 250.0]
            deltas += [count * 4, -count * 4]
        usage = StepFunction.from_deltas(times, deltas)
        headroom = headroom_profile(result)
        probes = np.union1d(usage.times, headroom.times)
        if probes.size:
            assert (
                headroom.sample(probes) - usage.sample(probes)
            ).min() >= -1e-6


class TestAgreesWithPackProject:
    """Both packers run one greedy loop: a finite project packed from
    time 0 is the continual harvest up to the instant its last job
    starts, where it may take only part of the batch."""

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_project_is_a_prefix_of_the_harvest(self, width):
        machine = Machine(name="P", cpus=32, clock_ghz=1.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            result = native_run(
                machine, random_native_trace(rng, machine, n_jobs=25)
            )
            project = InterstitialProject(
                n_jobs=150, cpus_per_job=width, runtime_1ghz=400.0
            )
            packed = pack_project(result, project).placements
            last = packed[-1][0]
            _, harvest = pack_continual(
                result,
                width,
                project.runtime_on(machine),
                math.nextafter(last, math.inf),
            )
            assert len(packed) > 1
            assert harvest[-1][0] == last
            assert list(packed[:-1]) == harvest[:-1]
            assert packed[-1][1] <= harvest[-1][1]
