"""Tests for multi-project interstitial coexistence."""

import pytest

from repro.core.composite import CompositeInterstitialSource, _BudgetedView
from repro.core.controller import InterstitialController
from repro.core.runners import run_with_controller
from repro.errors import ConfigurationError
from repro.jobs import InterstitialProject
from repro.machines import Machine
from repro.sched import FcfsPolicy, ReferenceQueueScheduler, fcfs_scheduler
from repro.sim.state import ClusterState

from tests.conftest import make_job, random_native_trace


@pytest.fixture
def machine():
    return Machine(name="C", cpus=64, clock_ghz=1.0, queue_algorithm="FCFS")


def controller(machine, cpus=2, runtime=100.0, n_jobs=None, **kwargs):
    project = InterstitialProject(
        n_jobs=n_jobs or 1,
        cpus_per_job=cpus,
        runtime_1ghz=runtime,
    )
    return InterstitialController(
        machine=machine,
        project=project,
        continual=n_jobs is None,
        n_jobs=n_jobs,
        **kwargs,
    )


class TestBudgetedView:
    def test_budget_reduces_free(self, machine):
        cluster = ClusterState(machine)
        cluster.start([make_job(cpus=10)], 0.0)
        view = _BudgetedView(cluster, granted_cpus=20)
        assert view.free_cpus == 34
        assert view.busy_cpus == 30
        assert view.fits_now(34)
        assert not view.fits_now(35)

    def test_utilization_includes_grant(self, machine):
        cluster = ClusterState(machine)
        view = _BudgetedView(cluster, granted_cpus=32)
        assert view.instantaneous_utilization == 0.5

    def test_backfill_wall_follows_each_view(self, machine):
        """Each child's view has fewer free CPUs in the same epoch, so
        its ``backfillWallTime`` may be later than its sibling's: with
        14 CPUs free and 30 released at 100 s, a 40-CPU head fits at
        100 s, but with 8 of the 14 granted it waits for the 20 CPUs
        released at 500 s.  Both schedulers must agree on every
        view."""
        cluster = ClusterState(machine)
        cluster.start([make_job(cpus=30, runtime=100.0),
                       make_job(cpus=20, runtime=500.0)], 0.0)
        assert cluster.free_cpus == 14
        walls = []
        for scheduler in (fcfs_scheduler(),
                          ReferenceQueueScheduler(policy=FcfsPolicy())):
            scheduler.submit(make_job(cpus=40), 0.0)
            walls.append([
                scheduler.head_start_estimate(
                    0.0, _BudgetedView(cluster, granted_cpus=granted)
                )
                for granted in (0, 8)
            ])
        assert walls == [[100.0, 500.0], [100.0, 500.0]]


class TestCompositeValidation:
    def test_needs_sources(self):
        with pytest.raises(ConfigurationError):
            CompositeInterstitialSource([])

    def test_rejects_unknown_policy(self, machine):
        with pytest.raises(ConfigurationError):
            CompositeInterstitialSource(
                [controller(machine)], policy="lottery"
            )


class TestOfferMultiplexing:
    def test_never_overcommits(self, machine):
        a = controller(machine, cpus=8)
        b = controller(machine, cpus=8)
        composite = CompositeInterstitialSource([a, b])
        cluster = ClusterState(machine)
        jobs = composite.offer(0.0, cluster, fcfs_scheduler())
        assert sum(j.cpus for j in jobs) <= machine.cpus

    def test_priority_order_starves_second(self, machine):
        first = controller(machine, cpus=2)
        second = controller(machine, cpus=2)
        composite = CompositeInterstitialSource(
            [first, second], policy="priority"
        )
        cluster = ClusterState(machine)
        composite.offer(0.0, cluster, fcfs_scheduler())
        # First source fills the whole machine; second gets nothing.
        assert first.n_submitted == 32
        assert second.n_submitted == 0

    def test_round_robin_alternates_first_access(self, machine):
        a = controller(machine, cpus=2)
        b = controller(machine, cpus=2)
        composite = CompositeInterstitialSource([a, b])
        cluster = ClusterState(machine)
        composite.offer(0.0, cluster, fcfs_scheduler())
        composite.offer(1.0, cluster, fcfs_scheduler())
        # Each source got one pass at the full machine (the cluster is
        # never actually allocated here, so both full grabs succeed).
        assert a.n_submitted == 32
        assert b.n_submitted == 32

    def test_exhausted_children_skipped(self, machine):
        finite = controller(machine, cpus=2, n_jobs=3)
        hungry = controller(machine, cpus=2)
        composite = CompositeInterstitialSource(
            [finite, hungry], policy="priority"
        )
        cluster = ClusterState(machine)
        composite.offer(0.0, cluster, fcfs_scheduler())
        assert finite.n_submitted == 3
        assert hungry.n_submitted == 29
        assert finite.exhausted
        assert not composite.exhausted


class TestEndToEnd:
    def test_two_projects_share_a_run(self, machine, rng):
        trace = random_native_trace(rng, machine, n_jobs=30,
                                    horizon=30_000.0)
        a = controller(machine, cpus=2, runtime=120.0)
        b = controller(machine, cpus=4, runtime=240.0)
        composite = CompositeInterstitialSource([a, b])
        result = run_with_controller(
            machine, trace, composite, scheduler=fcfs_scheduler(),
            horizon=30_000.0,
        )
        assert a.n_submitted > 0
        assert b.n_submitted > 0
        busy = result.busy_profile()
        assert busy.values.max() <= machine.cpus

    def test_round_robin_roughly_fair(self, machine, rng):
        """Equal-shape projects get within 3x of each other's harvest."""
        trace = random_native_trace(rng, machine, n_jobs=30,
                                    horizon=30_000.0)
        a = controller(machine, cpus=2, runtime=120.0)
        b = controller(machine, cpus=2, runtime=120.0)
        composite = CompositeInterstitialSource([a, b])
        run_with_controller(
            machine, trace, composite, scheduler=fcfs_scheduler(),
            horizon=30_000.0,
        )
        low, high = sorted([a.n_submitted, b.n_submitted])
        assert low > 0
        assert high <= 3 * low

    def test_preemption_routed_to_owner(self, machine):
        long_project = InterstitialProject(
            n_jobs=1, cpus_per_job=2, runtime_1ghz=10_000.0
        )
        a = InterstitialController(
            machine=machine, project=long_project, continual=True,
            preemptible=True,
        )
        composite = CompositeInterstitialSource([a])
        assert composite.preemptible
        trigger = make_job(cpus=1, runtime=1.0, submit=0.0)
        native = make_job(cpus=64, runtime=10.0, submit=50.0)
        result = run_with_controller(
            machine, [trigger, native], composite,
            scheduler=fcfs_scheduler(), horizon=40.0,
        )
        assert result.killed
        assert a.n_preempted == len(result.killed)

    def test_preemption_routed_after_renumbering(self, machine):
        """The engine renumbers interstitial jobs after the offer, and
        jobs built earlier in the process move the ids a child sees at
        offer time away from the final ones; routing must survive both
        and the partial kill of one child's offer."""
        trigger = make_job(cpus=1, runtime=1.0, submit=0.0)
        native = make_job(cpus=64, runtime=10.0, submit=50.0)
        for _ in range(1000):
            make_job()
        a = controller(machine, cpus=2, n_jobs=20, preemptible=True)
        b = controller(machine, cpus=2, n_jobs=20, preemptible=True)
        composite = CompositeInterstitialSource([a, b])
        result = run_with_controller(
            machine, [trigger, native], composite,
            scheduler=fcfs_scheduler(),
        )
        killed = len(result.killed)
        assert killed > 0
        assert a.n_preempted + b.n_preempted == killed
        assert a.n_preempted > 0 and b.n_preempted > 0
        # Every killed member is re-credited and redone.
        assert a.exhausted and b.exhausted
        assert len(result.jobs()) == 2 + 40
