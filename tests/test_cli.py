"""Tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.common import TableResult
from repro.experiments.config import SCALES, ExperimentScale
from repro.experiments.registry import SPECS

#: A scale small enough to run multi-simulation drivers in a CLI test.
MICRO = ExperimentScale(
    name="micro-test",
    trace_scale=0.02,
    project_scale=0.01,
    omniscient_samples=3,
    sampled_projects=20,
    seed=99,
)


class TestParser:
    def test_known_experiments_registered(self):
        for name in ("table1", "table2", "fig5", "ablation-caps"):
            assert name in SPECS

    def test_parser_accepts_experiment(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_scale_option(self):
        args = build_parser().parse_args(["table1", "--scale", "quick"])
        assert args.scale == "quick"

    def test_jobs_option(self):
        args = build_parser().parse_args(["report", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["report"]).jobs == 1

    def test_store_option(self, tmp_path):
        store = str(tmp_path / "runs")
        args = build_parser().parse_args(["table1", "--store", store])
        assert args.store == store
        assert build_parser().parse_args(["table1"]).store is None

    def test_trace_option(self):
        args = build_parser().parse_args(["table1", "--trace", "t.jsonl"])
        assert args.trace == "t.jsonl"
        assert build_parser().parse_args(["table1"]).trace is None

    def test_trace_rejected_with_store_and_report(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table1", "--trace", "t.jsonl",
                  "--store", str(tmp_path / "runs")])
        with pytest.raises(SystemExit):
            main(["report", "--trace", "t.jsonl"])

    def test_profile_requires_target(self):
        with pytest.raises(SystemExit):
            main(["profile"])
        with pytest.raises(SystemExit):
            main(["table1", "table2"])  # target only valid with profile

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4",
             "--bulk-cap", "0.75", "--max-queue", "16"]
        )
        assert args.experiment == "serve"
        assert args.port == 0
        assert args.workers == 4
        assert args.bulk_cap == pytest.approx(0.75)
        assert args.max_queue == 16

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.workers == 2
        assert args.bulk_cap == pytest.approx(0.9)

    def test_serve_rejects_trace_and_jobs(self):
        with pytest.raises(SystemExit):
            main(["serve", "--trace", "t.jsonl"])
        with pytest.raises(SystemExit):
            main(["serve", "--jobs", "2"])


class TestMain:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_import_leaves_version_unresolved(self):
        """``import repro`` does not read the distribution metadata;
        ``repro.__version__`` does, on first access."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        probe = (
            "import sys, repro\n"
            "print('repro.version' in sys.modules)\n"
            "print(repro.__version__ == repro.version.repro_version())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        assert out == ["False", "True"]

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "ablation-width" in out

    def test_run_one_experiment(self, capsys):
        assert main(["table1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Blue Mt." in out

    def test_runs_the_registered_driver(self, capsys, monkeypatch):
        # A driver replaced in SPECS (as a tracing harness does) is the
        # one `repro <experiment>` runs.
        def stub(ctx):
            return TableResult(exp_id="stub", title="stub driver ran",
                               headers=["scale"], rows=[[ctx.scale.name]])

        monkeypatch.setitem(
            SPECS, "table1", dataclasses.replace(SPECS["table1"],
                                                 driver=stub)
        )
        assert main(["table1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "stub driver ran" in out
        assert "Table 1" not in out

    def test_store_dir_populated(self, capsys, tmp_path):
        store = tmp_path / "runs"
        code = main(
            ["table1", "--scale", "quick", "--store", str(store)]
        )
        assert code == 0
        assert any(p.suffix == ".pkl" for p in store.iterdir())

    def test_trace_writes_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["table1", "--scale", "quick", "--trace", str(trace)]
        ) == 0
        lines = trace.read_text().splitlines()
        assert lines, "trace file must not be empty"
        first = json.loads(lines[0])
        assert first["ev"] == "run_start"
        assert {"t", "ev"} <= set(first)
        err = capsys.readouterr().err
        assert f"{len(lines)} trace records" in err

    def test_trace_holds_every_driver_run(
        self, capsys, tmp_path, monkeypatch
    ):
        """The fault ablation's four faulted runs and the continual run
        its fault-free row takes from the context all reach the trace."""
        monkeypatch.setitem(SCALES, MICRO.name, MICRO)
        trace = tmp_path / "fault-ablation.jsonl"
        assert main(
            ["fault-ablation", "--scale", MICRO.name, "--trace", str(trace)]
        ) == 0
        with trace.open() as lines:
            events = [json.loads(line)["ev"] for line in lines]
        assert events.count("run_start") == 5

    def test_profile_times_driver_runs(self, capsys, monkeypatch):
        """fig4-outages simulates only outside the context's store."""
        monkeypatch.setitem(SCALES, MICRO.name, MICRO)
        assert main(["profile", "fig4-outages", "--scale", MICRO.name]) == 0
        out = capsys.readouterr().out
        assert "(no phases recorded)" not in out
        assert "event_dispatch" in out

    def test_profile_prints_phases_and_counters(self, capsys):
        assert main(["profile", "table1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "profile: table1" in out
        assert "event_dispatch" in out
        assert "scheduling_pass" in out
        assert "scheduling_passes" in out
