"""Cache-correctness properties of :class:`RunContext`.

The content-addressed store is only sound if (a) a cached hit is
bit-for-bit the same run a cold context would compute, (b) runs that
differ in any configuration field — down to a fault seed — never share
a store entry, and (c) knobs that cannot change results (invariant
checking) never fragment the cache.
"""

import pytest

from repro.experiments import fig4_outages
from repro.experiments.context import RunContext
from repro.faults import FaultModel, RetryPolicy
from repro.sim.state import ClusterState
from repro.store import RunStore


def fingerprint(result):
    """Stable digest of a SimResult's observable behaviour."""
    return (
        sorted(
            (j.job_id, j.kind.name, j.start_time, j.finish_time)
            for j in result.finished
        ),
        sorted(
            (j.job_id, j.start_time, j.finish_time) for j in result.killed
        ),
        sorted(result.attempts.items()),
        result.n_failures,
        result.end_time,
        result.utilization(),
    )


FAULTS = FaultModel(mtbf=30_000.0, mttr=1_000.0, cpus_per_node=8, seed=5)
RETRY = RetryPolicy(max_attempts=3, base_delay=30.0)


class TestHitEqualsColdCompute:
    def test_native(self, micro_scale):
        warm = RunContext(scale=micro_scale)
        warm.native_result_for("ross")
        hit = warm.native_result_for("ross")
        cold = RunContext(scale=micro_scale).native_result_for("ross")
        assert fingerprint(hit) == fingerprint(cold)

    def test_native_faulted(self, micro_scale):
        warm = RunContext(scale=micro_scale)
        warm.native_result_for("ross", faults=FAULTS, retry=RETRY)
        hit = warm.native_result_for("ross", faults=FAULTS, retry=RETRY)
        cold = RunContext(scale=micro_scale).native_result_for(
            "ross", faults=FAULTS, retry=RETRY
        )
        assert fingerprint(hit) == fingerprint(cold)

    def test_continual(self, micro_scale):
        warm = RunContext(scale=micro_scale)
        warm.continual_result_for("ross", 32, 120.0)
        hit, hit_ctrl = warm.continual_result_for("ross", 32, 120.0)
        cold, cold_ctrl = RunContext(
            scale=micro_scale
        ).continual_result_for("ross", 32, 120.0)
        assert fingerprint(hit) == fingerprint(cold)
        assert hit_ctrl.n_submitted == cold_ctrl.n_submitted

    def test_disk_hit_equals_cold_compute(self, micro_scale, tmp_path):
        writer = RunContext(
            scale=micro_scale, store=RunStore(tmp_path / "runs")
        )
        written = writer.native_result_for("ross")
        reader = RunContext(
            scale=micro_scale, store=RunStore(tmp_path / "runs")
        )
        unpickled = reader.native_result_for("ross")
        assert reader.store.disk_hits == 1
        assert unpickled is not written
        assert fingerprint(unpickled) == fingerprint(written)


class TestContinualRecipeIsShared:
    def test_direct_run_equals_cached_run(self, micro_scale):
        """``continual_result_for`` computes through ``continual_run``,
        so a driver's direct run of the plain shape is the cached run."""
        ctx = RunContext(scale=micro_scale)
        direct, _ = ctx.continual_run("blue_mountain", 32, 120.0)
        cached, _ = ctx.continual_result_for("blue_mountain", 32, 120.0)
        assert direct is not cached
        assert direct.counters.as_dict() == cached.counters.as_dict()

        def records(result):
            return [
                (r.job_id, r.start_time, r.finish_time)
                for r in result.finished_records
            ]

        assert records(direct) == records(cached)


class TestKeySeparation:
    def test_fault_seeds_never_collide(self, micro_scale):
        ctx = RunContext(scale=micro_scale)
        a = ctx.native_result_for(
            "ross", faults=FaultModel(mtbf=30_000.0, mttr=1_000.0, seed=1)
        )
        b = ctx.native_result_for(
            "ross", faults=FaultModel(mtbf=30_000.0, mttr=1_000.0, seed=2)
        )
        assert a is not b
        assert ctx.store.misses == 3  # trace + two distinct runs

    def test_faulted_never_collides_with_healthy(self, micro_scale):
        ctx = RunContext(scale=micro_scale)
        healthy = ctx.native_result_for("ross")
        faulted = ctx.native_result_for("ross", faults=FAULTS, retry=RETRY)
        assert healthy is not faulted
        assert faulted.n_failures > 0 and healthy.n_failures == 0

    def test_continual_shapes_never_collide(self, micro_scale):
        ctx = RunContext(scale=micro_scale)
        a, _ = ctx.continual_result_for("ross", 32, 120.0)
        b, _ = ctx.continual_result_for("ross", 32, 600.0)
        c, _ = ctx.continual_result_for("ross", 16, 120.0)
        d, _ = ctx.continual_result_for(
            "ross", 32, 120.0, max_utilization=0.9
        )
        assert len({id(r) for r in (a, b, c, d)}) == 4

    def test_scales_never_collide(self, micro_scale):
        from dataclasses import replace

        store = RunStore()
        a = RunContext(scale=micro_scale, store=store).trace_for("ross")
        other = replace(micro_scale, name="micro-2", seed=100)
        b = RunContext(scale=other, store=store).trace_for("ross")
        assert a is not b


class TestInvariantFlagSharesEntries:
    def test_check_invariants_excluded_from_keys(self, micro_scale):
        # Validation never changes results, so a checked run and an
        # unchecked run of the same configuration share one entry.
        store = RunStore()
        plain = RunContext(scale=micro_scale, store=store)
        checked = RunContext(
            scale=micro_scale, store=store, check_invariants=True
        )
        a = checked.native_result_for("ross")
        assert plain.native_result_for("ross") is a
        assert store.hits == 1


class TestInvariantFlagReachesDriverRuns:
    @pytest.mark.parametrize("flag", [True, False])
    def test_fig4_outages_direct_run(self, micro_scale, monkeypatch, flag):
        """fig4-outages' only engine run is its own, outside the store:
        the validator reaches it through ``engine_options()`` alone."""
        calls = []
        check = ClusterState.check_invariants

        def counted(self, t):
            calls.append(t)
            return check(self, t)

        monkeypatch.setattr(ClusterState, "check_invariants", counted)
        fig4_outages.run(
            RunContext(scale=micro_scale, check_invariants=flag)
        )
        assert (len(calls) > 0) is flag
