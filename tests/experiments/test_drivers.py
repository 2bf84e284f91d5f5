"""End-to-end tests of every experiment driver at micro scale.

Each driver must produce a well-formed TableResult whose machine-
readable data satisfies the paper's *shape* claims that survive micro
scale (orderings and monotonicities; absolute values are checked at
larger scale in the benchmark harness, not here).
"""

import math

import pytest

from repro.experiments import (
    ablation_caps,
    ablation_efficiency,
    ablation_estimates,
    ablation_load,
    ablation_predictor,
    ablation_preemption,
    ablation_width,
    cascade_analysis,
    elastic_tables,
    fault_ablation,
    fig2,
    fig3,
    fig4,
    fig4_outages,
    fig5,
    fig6,
    fit_theory,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8_limited,
    table8_ross,
)

ALL_DRIVERS = [
    table1, table2, table3, table4, table5, table6, table7,
    table8_ross, table8_limited, fig2, fig3, fig4, fig4_outages,
    fig5, fig6,
    fit_theory, ablation_caps, ablation_efficiency, ablation_estimates,
    ablation_load, ablation_predictor, ablation_preemption,
    ablation_width, cascade_analysis, fault_ablation,
]


@pytest.mark.parametrize(
    "driver", ALL_DRIVERS, ids=lambda d: d.__name__.rsplit(".", 1)[-1]
)
def test_driver_produces_wellformed_table(driver, micro_ctx):
    result = driver.run(micro_ctx)
    assert result.exp_id
    assert result.title
    assert result.headers
    assert result.rows
    for row in result.rows:
        assert len(row) == len(result.headers)
    rendered = result.render()
    assert result.headers[0] in rendered


class TestShapeClaims:
    def test_table1_machines_configured(self, micro_ctx):
        data = table1.run(micro_ctx).data
        assert data["blue_mountain"]["cpus"] == 4662
        assert data["blue_pacific"]["measured_utilization"] > 0.3
        # Offered load is calibrated to the paper's target exactly.
        for m in ("ross", "blue_mountain", "blue_pacific"):
            assert data[m]["offered_utilization"] == pytest.approx(
                data[m]["paper_utilization"], abs=0.05
            )

    def test_table2_makespan_grows_with_size(self, micro_ctx):
        points = table2.run(micro_ctx).data["points"]
        for machine, pts in points.items():
            by_width = {}
            for p in pts:
                by_width.setdefault(p["cpus_per_job"], []).append(
                    (p["peta_cycles"], p["mean_makespan_s"])
                )
            for series in by_width.values():
                series.sort()
                spans = [m for _, m in series]
                assert spans == sorted(spans), (machine, series)

    def test_table3_breakage_finite_and_ordered(self, micro_ctx):
        data = table3.run(micro_ctx).data
        # Blue Pacific has the worst theoretical breakage of the three
        # (its free pool is the smallest multiple of 32).
        theory = data["theory_paper_u"]
        assert theory["blue_pacific"] > theory["ross"] > theory[
            "blue_mountain"
        ]
        for ratio in data["actual"].values():
            assert math.isfinite(ratio) and ratio > 0.5

    def test_fit_theory_positive_slope(self, micro_ctx):
        fit = fit_theory.run(micro_ctx).data["fit"]
        assert fit.slope > 0.5

    def test_table6_utilization_gain(self, micro_ctx):
        cols = table6.run(micro_ctx).data["columns"]
        labels = list(cols)
        baseline = cols[labels[0]]
        boosted = cols[labels[1]]
        assert boosted["overall_utilization"] > (
            baseline["overall_utilization"] + 0.1
        )
        assert boosted["native_jobs"] == baseline["native_jobs"]

    def test_table8_limited_monotone_caps(self, micro_ctx):
        cols = table8_limited.run(micro_ctx).data["columns"]
        jobs = [
            cols[label]["interstitial_jobs"]
            for label in ("util < 90%", "util < 95%", "util < 98%")
        ]
        assert jobs == sorted(jobs)
        assert jobs[-1] <= cols["uncapped"]["interstitial_jobs"]

    def test_fig4_interstitial_flattens_utilization(self, micro_ctx):
        data = fig4.run(micro_ctx).data
        import numpy as np

        without = np.array(data["without interstitial"]["utilization"])
        with_i = np.array(data["with interstitial"]["utilization"])
        assert with_i.mean() > without.mean()
        assert with_i.std() < without.std()

    def test_fig5_histograms_normalized(self, micro_ctx):
        data = fig5.run(micro_ctx).data
        for hist in data.values():
            assert sum(hist) == pytest.approx(1.0)

    def test_fig5_interstitial_shifts_mass_right(self, micro_ctx):
        data = fig5.run(micro_ctx).data
        labels = list(data)
        baseline_first_bin = data[labels[0]][0]
        for label in labels[1:]:
            assert data[label][0] <= baseline_first_bin + 1e-9

    def test_ablation_width_theory_monotone(self, micro_ctx):
        data = ablation_width.run(micro_ctx).data
        theories = [v["theory_breakage"] for v in data.values()]
        finite = [t for t in theories if math.isfinite(t)]
        assert finite == sorted(finite)

    def test_ablation_preemption_waste_counted(self, micro_ctx):
        data = ablation_preemption.run(micro_ctx).data
        pre = data["preemptible"]
        assert pre["wasted_cpu_h"] >= 0.0
        assert pre["n_preempted"] >= 0

    def test_elastic_tables_jobs_column_counts_members(self, micro_ctx):
        """The jobs column counts finished jobs, whether a policy's jobs
        are counted cohorts (rigid) or one record each (elastic)."""
        result = elastic_tables.run(micro_ctx)
        names = {
            label: name
            for name, label in elastic_tables.MACHINE_LABELS.items()
        }
        for machine, policy, jobs, *_rest in result.rows:
            stats = result.data[names[machine]][policy]
            assert int(jobs) == stats["interstitial_jobs"] > 0

    def test_fault_ablation_failures_scale_with_rate(self, micro_ctx):
        data = fault_ablation.run(micro_ctx).data
        assert data["no faults"]["n_failures"] == 0
        assert data["no faults"]["dead_lettered"] == 0
        counts = [
            data[label]["n_failures"]
            for label in (
                "MTBF 90 d/node", "MTBF 30 d/node", "MTBF 10 d/node"
            )
        ]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0] > 0
        worst = data["MTBF 10 d/node"]
        assert worst["killed_interstitial"] > 0
        assert worst["overall_utilization"] < data["no faults"][
            "overall_utilization"
        ]
