"""``benchmarks/bench_engine.py``'s output file keeps its "before" point.

The pre-overhaul engine's throughput (``pre_pr``) was measured once; a
rewrite of ``BENCH_engine.json`` must carry it over from the file it
replaces and recompute ``speedup_vs_pre_pr`` from the new full section.
Measurements are stubbed: only the file handling is under test.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_engine.py"

PRE_PR = {
    "native-ross": {"events": 10, "seconds": 0.5, "events_per_sec": 20.0},
}


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_engine", BENCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _stub(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "PRE_PR_BASELINE", tmp_path / "absent.json")
    monkeypatch.setattr(
        bench,
        "_measure_section",
        lambda scale: {
            "scale": scale,
            "scenarios": {
                "native-ross": {
                    "events": 10,
                    "incremental_events_per_sec": 50.0,
                    "reference_events_per_sec": 40.0,
                    "speedup": 1.25,
                }
            },
        },
    )


def test_rewrite_carries_pre_pr_over(tmp_path, monkeypatch):
    bench = _load_bench()
    _stub(bench, monkeypatch, tmp_path)
    out = tmp_path / "BENCH_engine.json"
    out.write_text(
        json.dumps({"pre_pr": PRE_PR, "speedup_vs_pre_pr": {"x": 1.0}})
    )
    bench.run_bench(out)
    written = json.loads(out.read_text())
    assert written["pre_pr"] == PRE_PR
    assert written["speedup_vs_pre_pr"] == {"native-ross": 2.5}


def test_quick_rewrite_keeps_pre_pr_without_speedups(tmp_path, monkeypatch):
    bench = _load_bench()
    _stub(bench, monkeypatch, tmp_path)
    out = tmp_path / "BENCH_engine.json"
    out.write_text(json.dumps({"pre_pr": PRE_PR}))
    bench.run_bench(out, quick_only=True)
    written = json.loads(out.read_text())
    assert written["pre_pr"] == PRE_PR
    assert "speedup_vs_pre_pr" not in written


def test_fresh_output_has_no_pre_pr(tmp_path, monkeypatch):
    bench = _load_bench()
    _stub(bench, monkeypatch, tmp_path)
    out = tmp_path / "BENCH_engine.json"
    bench.run_bench(out)
    assert "pre_pr" not in json.loads(out.read_text())
