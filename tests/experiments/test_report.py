"""Tests for the experiment registry and report generator."""

import pytest

from repro.experiments.context import RunContext
from repro.experiments.registry import REPORT_ORDER, SPECS
from repro.experiments.report import generate_report, write_report


class TestRegistry:
    def test_report_order_covers_registry(self):
        assert set(REPORT_ORDER) == set(SPECS)

    def test_no_duplicates_in_order(self):
        assert len(REPORT_ORDER) == len(set(REPORT_ORDER))

    def test_report_order_is_presentation_order(self):
        # Follows SPECS' declaration order, which fixes the report's
        # section order and `repro all`.
        assert REPORT_ORDER == (
            "table1",
            "table2",
            "fit-theory",
            "table3",
            "fig2",
            "table4",
            "fig3",
            "table5",
            "table6",
            "table7",
            "table8-ross",
            "table8-limited",
            "fig4",
            "fig4-outages",
            "fault-ablation",
            "fig5",
            "fig6",
            "cascade-analysis",
            "ablation-estimates",
            "ablation-predictor",
            "ablation-preemption",
            "ablation-width",
            "ablation-caps",
            "ablation-load",
            "ablation-efficiency",
            "elastic-tables",
        )

    def test_paper_artifacts_present(self):
        for name in (
            "table1", "table2", "table3", "table4", "table5",
            "table6", "table7", "table8-ross", "table8-limited",
            "fig2", "fig3", "fig4", "fig5", "fig6", "fit-theory",
        ):
            assert name in SPECS

    def test_all_runners_callable(self):
        assert all(callable(spec.driver) for spec in SPECS.values())


class TestReport:
    def test_generate_subset(self, micro_scale):
        text = generate_report(
            ctx=RunContext(scale=micro_scale), experiments=["table1"]
        )
        assert "# Reproduction report" in text
        assert "## table1" in text
        assert "Blue Mt." in text
        assert "micro-test" in text

    def test_unknown_experiment(self, micro_scale):
        with pytest.raises(KeyError):
            generate_report(
                ctx=RunContext(scale=micro_scale), experiments=["table99"]
            )

    def test_write_report(self, micro_scale, tmp_path):
        path = write_report(
            tmp_path / "report.md",
            ctx=RunContext(scale=micro_scale),
            experiments=["table1", "table3"],
        )
        content = path.read_text(encoding="utf-8")
        assert "## table1" in content
        assert "## table3" in content
        # Sections appear in the requested order.
        assert content.index("## table1") < content.index("## table3")
