"""Crash semantics: FAILURE/REPAIR events, retry, and invariant mode.

The deterministic tests use a :class:`FixedFaults` model whose crash
windows are given explicitly instead of sampled, plus fault scenarios
where the victim draw is forced (hypergeometric over the full
population), so kill timings can be computed by hand.
"""

import numpy as np
import pytest

from repro.core.base import InterstitialSource
from repro.core.controller import InterstitialController
from repro.core.runners import run_with_controller
from repro.errors import SimulationError
from repro.faults import FaultModel, FaultSchedule, NodeFault, RetryPolicy
from repro.jobs import InterstitialProject, JobKind, JobState
from repro.machines import Machine
from repro.sim.engine import Engine, SimConfig, weighted_index

from tests.conftest import fcfs, make_job, random_native_trace


class FixedFaults(FaultModel):
    """Fault model with an explicit, pre-computed crash schedule."""

    def __init__(self, windows, seed=0):
        super().__init__(mtbf=1e12, seed=seed)
        object.__setattr__(self, "_windows", tuple(windows))

    def sample(self, machine, until):
        return FaultSchedule(
            [NodeFault(start, end, cpus) for start, end, cpus in self._windows]
        )


class RecordingSource(InterstitialSource):
    """Offers a fixed batch of jobs once and records fault callbacks."""

    def __init__(self, jobs):
        self._jobs = list(jobs)
        self.preempted = []
        self.faults_seen = []

    def offer(self, t, cluster, scheduler):
        jobs = [j for j in self._jobs if j.cpus <= cluster.free_cpus]
        for job in jobs:
            self._jobs.remove(job)
        return jobs

    @property
    def exhausted(self):
        return not self._jobs

    def on_preempted(self, jobs, t):
        self.preempted.extend(jobs)

    def on_fault(self, t, cpus):
        self.faults_seen.append((t, cpus))


class TestCrashSemantics:
    def test_native_killed_and_requeued_with_backoff(self, tiny_machine):
        # The machine-wide fault at t=10 must hit the machine-wide job;
        # the default RetryPolicy resubmits it base_delay=60s later.
        job = make_job(cpus=8, runtime=100.0, submit=0.0)
        result = Engine(
            tiny_machine,
            fcfs(),
            trace=[job],
            faults=FixedFaults([(10.0, 20.0, 8)]),
        ).run()
        assert result.n_failures == 1
        assert job.state is JobState.FINISHED
        assert job.start_time == 70.0  # killed at 10, resubmitted at 10+60
        assert job.finish_time == 170.0
        assert result.attempts == {job.job_id: 1}
        # The wasted first run is recorded as a killed fragment.
        (fragment,) = result.killed
        assert fragment.job_id == job.job_id
        assert fragment.state is JobState.KILLED
        assert fragment.start_time == 0.0
        assert fragment.finish_time == 10.0
        assert fragment.kind is JobKind.NATIVE

    def test_stale_finish_of_killed_incarnation_ignored(self, tiny_machine):
        # The original FINISH event (t=100) is still queued when the job
        # restarts at t=70; it must not terminate the new incarnation.
        job = make_job(cpus=8, runtime=100.0, submit=0.0)
        result = Engine(
            tiny_machine,
            fcfs(),
            trace=[job],
            faults=FixedFaults([(10.0, 20.0, 8)]),
        ).run()
        assert len(result.finished) == 1
        assert result.finished[0].finish_time == 170.0
        assert not result.unfinished

    def test_retry_waits_out_long_repair(self, tiny_machine):
        # Backoff expires while the machine is still down: the job
        # requeues at t=70 but can only start once repair completes.
        job = make_job(cpus=8, runtime=100.0, submit=0.0)
        Engine(
            tiny_machine,
            fcfs(),
            trace=[job],
            faults=FixedFaults([(10.0, 500.0, 8)]),
        ).run()
        assert job.start_time == 500.0
        assert job.finish_time == 600.0

    def test_idle_node_failure_kills_nothing(self, tiny_machine):
        job = make_job(cpus=4, runtime=50.0, submit=0.0)
        result = Engine(
            tiny_machine,
            fcfs(),
            trace=[job],
            faults=FixedFaults([(60.0, 70.0, 4)]),
        ).run()
        assert result.n_failures == 1
        assert not result.killed
        assert not result.attempts
        assert job.finish_time == 50.0

    def test_failed_cpus_block_new_starts(self, tiny_machine):
        # Crash-downed capacity behaves like an outage for queued work.
        job = make_job(cpus=8, runtime=10.0, submit=5.0)
        Engine(
            tiny_machine,
            fcfs(),
            trace=[job],
            faults=FixedFaults([(0.0, 100.0, 8)]),
        ).run()
        assert job.start_time == 100.0

    def test_dead_letter_after_exhausted_retries(self, tiny_machine):
        job = make_job(cpus=8, runtime=100.0, submit=0.0)
        result = Engine(
            tiny_machine,
            fcfs(),
            trace=[job],
            faults=FixedFaults([(10.0, 12.0, 8), (30.0, 32.0, 8)]),
            retry=RetryPolicy(max_attempts=1, base_delay=10.0),
        ).run()
        # Killed at 10, retried at 20, killed again at 30 -> dead letter.
        assert result.attempts == {job.job_id: 2}
        assert result.dead_lettered == [job]
        assert job.state is JobState.KILLED
        assert not result.finished
        assert len(result.killed) == 2

    def test_job_awaiting_retry_reported_unfinished(self, tiny_machine):
        # Hard stop before the RESUBMIT fires: the killed native is
        # neither finished nor dead-lettered, so it must show up as
        # unfinished work.
        job = make_job(cpus=8, runtime=100.0, submit=0.0)
        result = Engine(
            tiny_machine,
            fcfs(),
            trace=[job],
            faults=FixedFaults([(10.0, 20.0, 8)]),
            config=SimConfig(until=30.0),
        ).run()
        assert not result.finished
        assert [j.job_id for j in result.unfinished] == [job.job_id]

    def test_interstitial_victims_route_through_on_preempted(
        self, tiny_machine
    ):
        native = make_job(cpus=1, runtime=5.0, submit=0.0)
        ijob = make_job(cpus=4, runtime=100.0, kind=JobKind.INTERSTITIAL)
        source = RecordingSource([ijob])
        result = Engine(
            tiny_machine,
            fcfs(),
            trace=[native],
            interstitial=source,
            faults=FixedFaults([(10.0, 20.0, 8)]),
        ).run()
        # The machine-wide fault at t=10 finds only the interstitial job
        # running; it is killed and re-credited, never retried.
        assert source.preempted == [ijob]
        assert ijob.state is JobState.KILLED
        assert ijob in result.killed
        assert not result.attempts
        assert not result.dead_lettered
        assert native.state is JobState.FINISHED

    def test_on_fault_fires_even_without_victims(self, tiny_machine):
        source = RecordingSource([])
        Engine(
            tiny_machine,
            fcfs(),
            trace=[make_job(cpus=1, runtime=1.0)],
            interstitial=source,
            faults=FixedFaults([(50.0, 60.0, 4), (70.0, 80.0, 2)]),
        ).run()
        assert source.faults_seen == [(50.0, 4), (70.0, 2)]

    def test_repair_restores_capacity(self, tiny_machine):
        faults = FixedFaults([(0.0, 30.0, 4)])
        narrow = make_job(cpus=4, runtime=10.0, submit=5.0)
        wide = make_job(cpus=8, runtime=10.0, submit=5.0)
        Engine(
            tiny_machine, fcfs(), trace=[narrow, wide], faults=faults
        ).run()
        assert narrow.start_time == 5.0
        assert wide.start_time == 30.0


class TestReproducibility:
    def _run(self, trace, check_invariants=False):
        machine = Machine(name="P", cpus=32, clock_ghz=1.0)
        faults = FaultModel(
            mtbf=20_000.0, mttr=1_000.0, cpus_per_node=4, seed=7
        )
        return Engine(
            machine,
            fcfs(),
            trace=[j.copy_unscheduled() for j in trace],
            faults=faults,
            retry=RetryPolicy(max_attempts=2, base_delay=30.0),
            config=SimConfig(check_invariants=check_invariants),
        ).run()

    def _trace(self):
        rng = np.random.default_rng(1234)
        machine = Machine(name="P", cpus=32, clock_ghz=1.0)
        return random_native_trace(rng, machine, n_jobs=40)

    @staticmethod
    def _fingerprint(result):
        return (
            sorted(
                (j.job_id, j.start_time, j.finish_time)
                for j in result.finished
            ),
            sorted(
                (j.job_id, j.start_time, j.finish_time)
                for j in result.killed
            ),
            sorted(result.attempts.items()),
            sorted(j.job_id for j in result.dead_lettered),
            result.fault_transitions,
            result.n_failures,
            result.end_time,
        )

    def test_same_seed_bit_for_bit_identical(self):
        trace = self._trace()
        a = self._run(trace)
        b = self._run(trace)
        # The scenario must actually exercise the fault path.
        assert a.n_failures > 0
        assert a.killed
        assert a.attempts
        assert self._fingerprint(a) == self._fingerprint(b)
        assert a.utilization() == b.utilization()

    def test_invariant_mode_passes_and_changes_nothing(self):
        trace = self._trace()
        plain = self._run(trace, check_invariants=False)
        checked = self._run(trace, check_invariants=True)
        assert self._fingerprint(plain) == self._fingerprint(checked)


class TestVictimDraw:
    def test_weighted_index_is_numpys_choice(self):
        """The victim draw is ``Generator.choice``'s sampling step: over
        seeded random integer widths it picks the same index and leaves
        the generator in the same state."""
        source = np.random.default_rng(2003)
        for _ in range(300):
            widths = [
                int(w) for w in source.integers(
                    1, 513, size=int(source.integers(1, 300))
                )
            ]
            seed = int(source.integers(0, 2**32))
            ours, theirs = (np.random.default_rng(seed) for _ in range(2))
            p = np.array(widths, dtype=float)
            for _draw in range(3):
                assert weighted_index(ours, widths) == int(
                    theirs.choice(len(widths), p=p / p.sum())
                )
            assert ours.bit_generator.state == theirs.bit_generator.state


def _invariant_checks(machine, config=None) -> int:
    """Validator runs during one small native run under ``config``."""
    trace = [make_job(cpus=2, runtime=10.0 * (i + 1)) for i in range(3)]
    result = Engine(machine, fcfs(), trace, config=config).run()
    return result.counters.invariant_checks


class TestInvariantChecking:
    def test_config_flag_controls_checking(self, tiny_machine):
        assert SimConfig(check_invariants=True).check_invariants
        assert _invariant_checks(
            tiny_machine, SimConfig(check_invariants=True)
        ) > 0
        assert _invariant_checks(
            tiny_machine, SimConfig(check_invariants=False)
        ) == 0

    def test_off_by_default_with_no_process_global(self, tiny_machine):
        # The old process-wide default was removed with the RunContext
        # refactor: checking is a plain per-config flag, off unless the
        # caller threads it through explicitly.
        assert not SimConfig().check_invariants
        assert _invariant_checks(tiny_machine) == 0
        import repro.sim.engine as engine_mod

        assert not hasattr(engine_mod, "set_default_invariant_checking")
        assert not hasattr(engine_mod, "_DEFAULT_CHECK_INVARIANTS")

    def test_detects_corrupted_accounting(self, tiny_machine):
        engine = Engine(tiny_machine, fcfs())
        engine.cluster.busy_cpus = 3  # no running jobs back this up
        with pytest.raises(SimulationError) as excinfo:
            engine._check_invariants(0.0)
        assert "busy" in str(excinfo.value)

    def test_controller_run_with_faults_under_invariants(self, rng):
        # Integration: continual controller + stochastic faults + retry,
        # with the validator threaded through explicitly (the CLI's
        # --check-invariants path via RunContext).
        machine = Machine(name="P", cpus=32, clock_ghz=1.0)
        trace = random_native_trace(rng, machine, n_jobs=30)
        project = InterstitialProject(
            n_jobs=1, cpus_per_job=4, runtime_1ghz=300.0
        )
        controller = InterstitialController(
            machine=machine,
            project=project,
            continual=True,
            throttle_after_failures=2,
            throttle_window=10_000.0,
            throttle_quiet_period=5_000.0,
        )
        faults = FaultModel(
            mtbf=15_000.0, mttr=2_000.0, cpus_per_node=8, seed=5
        )
        result = run_with_controller(
            machine,
            trace,
            controller,
            faults=faults,
            retry=RetryPolicy(max_attempts=3, base_delay=30.0),
            horizon=60_000.0,
            check_invariants=True,
        )
        assert result.n_failures > 0
        assert controller.n_faults_seen == result.n_failures
        assert len(result.finished) > 0
