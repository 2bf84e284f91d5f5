"""Tests for the shared continual-table builder."""

import pytest

from repro.experiments.continual_tables import (
    CONTINUAL_CPUS,
    CONTINUAL_RUNTIMES_1GHZ,
    build,
    column_stats,
)
from repro.sim.results import SimResult

from tests.conftest import make_job


class TestColumnStats:
    def test_counts_and_utilization(self, tiny_machine):
        native = make_job(cpus=8, runtime=100.0)
        native.start_time = 0.0
        native.finish_time = 100.0
        result = SimResult(
            machine=tiny_machine,
            finished_records=[native],
            end_time=200.0,
            horizon=200.0,
        )
        stats = column_stats(result)
        assert stats["native_jobs"] == 1
        assert stats["interstitial_jobs"] == 0
        assert stats["overall_utilization"] == pytest.approx(0.5)
        assert stats["median_wait_all_s"] == 0.0

    def test_largest_population_nonempty(self, tiny_machine):
        jobs = []
        for i in range(20):
            job = make_job(cpus=1 + i % 4, runtime=100.0, submit=0.0)
            job.start_time = float(i)
            job.finish_time = job.start_time + 100.0
            jobs.append(job)
        result = SimResult(
            machine=tiny_machine,
            finished_records=jobs,
            end_time=300.0,
            horizon=300.0,
        )
        stats = column_stats(result)
        assert stats["median_wait_largest_s"] >= 0.0


class TestBuild:
    def test_standard_shape(self, micro_ctx):
        result = build(
            "test_exp", "ross", micro_ctx, "Ross (test)"
        )
        assert result.exp_id == "test_exp"
        # Baseline + one column per continual runtime.
        assert len(result.headers) == 2 + len(CONTINUAL_RUNTIMES_1GHZ)
        assert len(result.data["columns"]) == 1 + len(
            CONTINUAL_RUNTIMES_1GHZ
        )
        labels = list(result.data["columns"])
        assert labels[0] == "Native Jobs"
        assert str(CONTINUAL_CPUS) in labels[1]

    def test_cap_variant(self, micro_ctx):
        capped = build(
            "test_capped", "ross", micro_ctx, "Ross (test)",
            max_utilization=0.9,
        )
        assert "90%" in capped.title
