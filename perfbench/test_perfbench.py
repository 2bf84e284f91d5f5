"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import hostspeed
import layers
import serveclient
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_benchmark_json_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == sorted(
        workloads.WORKLOADS, key=["report", "replay", "serve"].index
    )
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


def test_every_registry_driver_has_a_row():
    workloads.program_on_path()
    from repro.experiments.registry import REPORT_ORDER

    names = {m["name"] for m in SPEC["per_layer"]}
    for driver in REPORT_ORDER:
        assert f"experiments.{driver}_s" in names
    for row in set(layers.ENGINE_ROWS.values()) | set(
        layers.SERVICE_ROWS.values()
    ):
        assert row in names


# ----------------------------------------------------------------------
# Tiny runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["report", "replay", "serve"])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds",
                     "3", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        # The traced rows reconcile with the traced interval.
        assert values["bench.traced_s"] > 0
        assert values["bench.unattributed_s"] >= -1e-6
        assert values["failed_share"] == 0


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(HERE / "reference.json", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "report", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ----------------------------------------------------------------------
# Output checks reject corrupted outputs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload, key", [
    ("report", "report:quick:7:table1"),
    ("replay", "replay:0.05:7:blue_pacific-faulted"),
])
def test_a_corrupted_output_fails_the_run(tmp_path, workload, key):
    # A checkout whose earlier run recorded another digest for one output.
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / ".perfbench").mkdir()
    (tmp_path / ".perfbench" / "digests.json").write_text(
        json.dumps({key: "0" * 64}), encoding="utf-8")
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds",
                     "1", "--trace", "0", "--size", "tiny", cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert key in proc.stdout  # the failed check is named


def test_digest_book_rejects_a_corrupted_report(tmp_path):
    good = checks.digest("table4 output")
    bad = checks.digest("table4 output, corrupted")
    book = checks.DigestBook(tmp_path / "d.json",
                             reference={"report:quick:2003:table4": good})
    assert book.check("report:quick:2003:table4", good) == 0
    assert book.check("report:quick:2003:table4", bad) == 1
    # Without a reference, the first run's digest is the reference.
    assert book.check("report:quick:5:table4", good) == 0
    book.save()
    later = checks.DigestBook(tmp_path / "d.json")
    assert later.check("report:quick:5:table4", bad) == 1
    assert later.check("report:quick:5:table4", good) == 0
    assert later.same("traced", good, bad) == 1


def test_replay_fingerprint_sees_one_moved_job():
    jobs = [(1, 0.0, 10.0), (2, 5.0, 20.0)]
    moved = [(1, 0.0, 10.0), (2, 5.0, 20.5)]
    assert checks.replay_fingerprint(4, jobs) == checks.replay_fingerprint(
        4, list(reversed(jobs)))
    assert checks.replay_fingerprint(4, jobs) != checks.replay_fingerprint(
        4, moved)
    assert checks.replay_fingerprint(4, jobs) != checks.replay_fingerprint(
        5, jobs)


def _exchange(body, text, key=None, status=200, due=0.0):
    ex = serveclient.Exchange(body=body, due=due, sent=due, began=due,
                              received=due + 0.1)
    ex.reply = {"http_status": status, "result": text,
                "key": key if key is not None else workloads._expected_key(
                    body)}
    return ex


def _pass(exchanges, exit_code=0):
    return {"exchanges": exchanges, "bulk": [], "exit_code": exit_code}


def test_serve_checks_reject_corrupted_replies(tmp_path):
    workloads.program_on_path()
    body = {"experiment": "table1", "seed": 11, "priority": "interactive"}
    book = checks.DigestBook(tmp_path / "d.json")
    attempted, failed, _texts = workloads.check_serve_pass(
        _pass([_exchange(body, "t"), _exchange(body, "t")]), book, "ok")
    assert (attempted, failed) == (3, 0)
    # A repeat that is not byte-identical to its first compute.
    _, failed, _ = workloads.check_serve_pass(
        _pass([_exchange(body, "t"), _exchange(body, "t ")]), book, "rep")
    assert failed == 1
    # A reply carrying another request's content key.
    _, failed, _ = workloads.check_serve_pass(
        _pass([_exchange(body, "t", key="0" * 64)]), book, "key")
    assert failed == 1
    # A refused request.
    _, failed, _ = workloads.check_serve_pass(
        _pass([_exchange(body, "t", status=429)]), book, "status")
    assert failed == 1
    # A daemon that did not drain cleanly.
    _, failed, _ = workloads.check_serve_pass(
        _pass([_exchange(body, "t")], exit_code=1), book, "drain")
    assert failed == 1


def test_rerender_rejects_a_corrupted_reply(tmp_path):
    workloads.program_on_path()
    from dataclasses import replace

    from repro.experiments.config import SCALES
    from repro.experiments.executor import render_experiment

    body = {"experiment": "table1", "seed": 3}
    key = workloads._expected_key(body)
    text = render_experiment("table1", replace(SCALES["quick"], seed=3))
    book = checks.DigestBook(tmp_path / "d.json")
    assert workloads.recheck({key: text}, [body], book) == (1, 0)
    assert workloads.recheck({key: text + "x"}, [body], book) == (1, 1)


def test_invalid_open_loop_lag_is_detected():
    start = 100.0
    exchanges = [serveclient.Exchange(body={}, due=start + i, sent=start + i,
                                      began=start + i, received=start + i + 1)
                 for i in range(3)]
    exchanges[2].sent += 0.5
    for ex in exchanges:
        ex.reply = {"http_status": 200}
    figures = workloads.serve_figures({
        "exchanges": exchanges, "repeats": [False] * 3, "bulk": [],
        "start": start, "until": start + 3,
    })
    assert figures["generator_lag_s"] == pytest.approx(0.5)
    assert figures["generator_lag_s"] > workloads.GENERATOR_LAG_BOUND_S


def test_wall_factor_leaves_out_stolen_time(tmp_path):
    speed = hostspeed.HostSpeed.__new__(hostspeed.HostSpeed)
    speed.cpus = [0]
    speed.files = {0: tmp_path / "hostspeed-0.txt"}
    # The kernel runs at half the reference speed, and the hypervisor
    # takes a quarter of the CPU.
    kernel_s = 2 * hostspeed.REFERENCE_KERNEL_S
    speed.files[0].write_text(
        "".join(f"{t} {kernel_s} {0.25 * t}\n" for t in range(5))
    )
    assert speed.factor(1, 3) == pytest.approx(0.5)
    assert speed.available(1, 3) == pytest.approx(0.75)
    assert speed.wall_factor(1.5, 2.5) == pytest.approx(0.375)


# ----------------------------------------------------------------------
# Tracing reconciles
# ----------------------------------------------------------------------

def test_call_tracer_self_times_partition_the_interval():
    import time

    tracer = layers.CallTracer()

    def leaf():
        time.sleep(0.01)

    def middle():
        tracer.enter("phase")
        leaf_w()
        tracer.exit("phase")
        time.sleep(0.01)

    leaf_w = tracer.wrap("leaf", leaf)
    outer = tracer.span("outer", tracer.wrap("middle", middle), "id")
    t0 = time.perf_counter()
    outer()
    wall = time.perf_counter() - t0
    stats = tracer.stats
    assert stats["leaf"][0] == 1
    assert stats["phase"][1] >= stats["leaf"][1]
    assert stats["phase"][2] == pytest.approx(
        stats["phase"][1] - stats["leaf"][1])
    self_total = sum(stat[2] for stat in stats.values())
    assert self_total <= wall
    assert self_total == pytest.approx(stats["outer"][1])
    assert tracer.spans[0][:2] == ("outer", "id")


def test_span_self_times():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert layers.span_self_times(spans) == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_ruff_passes():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed")
    proc = subprocess.run([ruff, "check", str(HERE)], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
