"""The three workloads, driven from outside the program.

Each ``run_<workload>`` launches the program through ``child.py`` (or
``repro serve`` through it), measures the end-to-end metrics with
tracing off, checks every output, and — when asked for a traced run —
repeats the measured work once more with tracing on for the per-layer
rows.  A workload returns an :class:`Outcome`; ``run.py`` turns it into
the benchmark's result line.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import layers
import serveclient
from checks import DigestBook, check_reply
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Registry experiments the ``report`` workload renders.  The whole
#: registry takes ~39 s at the quick preset on a 2-vCPU Xeon, more than
#: one run can hold twice; these four take ~60% of that time and keep
#: every per-job path: interstitial controllers and job materialization
#: (table4, table8-limited), faults (fault-ablation) and preemption
#: (ablation-preemption).
REPORT_SUBSET = ("table4", "table8-limited", "fault-ablation",
                 "ablation-preemption")
#: Seed of the control inputs and of the reference outputs kept in
#: ``reference.json``: the quick preset's own seed.
DEFAULT_SEED = 2003
#: Trace length of the replays, as a fraction of the paper's logs.  A
#: paper-length round of the six replays takes ~21 s on a 2-vCPU Xeon,
#: which leaves no repeats in a run; at one fifth (the engine bench's
#: full scale) a round takes ~2.5 s.
REPLAY_SCALE = 0.2
#: Trace sets drawn from the run's seed, next to the control set.  One
#: set's replay time moved by 17% (coefficient of variation over 14
#: seeds) with its seed; six of them, weighed together as much as the
#: control, leave about 3.5% of that in a run's figure.
REPLAY_SEEDED = 6
#: ``serve`` traffic: interactive requests per second on connection 1
#: and the share of them that repeat an earlier request.  A computed
#: ``table1`` takes 0.15-0.4 s on a 2-vCPU Xeon, so at 2 requests/s a
#: request rarely waits behind the previous one on its connection.  At
#: 3/s a third of them did on a slow host, and that queueing made the
#: latency grow faster than the host slowed down.
INTERACTIVE_RATE = 2.0
REPEAT_EVERY = 4
#: A run whose open-loop sends left later than this against their
#: schedule measured the client, not the daemon: it is invalid.
GENERATOR_LAG_BOUND_S = 0.25
#: Launches whose launch-to-ready time gives one run's ``setup_s``.
SETUP_SAMPLES = 5
#: ``repro serve`` arguments of the measured daemon (plus --port,
#: --store and --journal, fresh for every launch).
SERVE_ARGS = ("serve", "--workers", "2", "--bulk-cap", "0.5",
              "--scale", "quick")
#: Re-rendered in-process after the window: this many computed
#: interactive replies and this many bulk replies.
RECHECK_INTERACTIVE = 2
RECHECK_BULK = 1

CHILD_TIMEOUT_S = 170.0
#: No reply takes this long unless the daemon is broken (a bulk table5
#: takes ~1.5 s).
REPLY_TIMEOUT_S = 30.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: Dict[str, float]
    rows: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    valid: bool = True
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Options:
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    run_dir: Path
    book: DigestBook
    speed: HostSpeed


# ----------------------------------------------------------------------
# Launching the program
# ----------------------------------------------------------------------

def program_env(run_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
        else src
    )
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_BENCH_SCALE", None)
    return env


def launch(argv: List[str], run_dir: Path, log: str,
           stdout=subprocess.DEVNULL) -> Tuple[subprocess.Popen, float]:
    """Start ``child.py argv``; returns the process and its launch time."""
    log_file = open(run_dir / log, "ab")
    try:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *argv],
            cwd=ROOT, env=program_env(run_dir), stdout=stdout,
            stderr=log_file,
        )
    finally:
        log_file.close()
    return proc, t0


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc``; returns (exit code, peak RSS in MB).  The peak
    covers the process and every descendant it waited for."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def setup_time(opts: Options, launched: float, ready: float) -> float:
    """Launch-to-ready seconds, in reference seconds (see hostspeed)."""
    return (ready - launched) * opts.speed.wall_factor(launched, ready)


def ready_sample(opts: Options) -> float:
    """Set-up time of one bare program launch (until ``import repro``
    is done)."""
    proc, t0 = launch(["ready"], opts.run_dir, "ready.log",
                      stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("the program failed to import; see ready.log")
    return setup_time(opts, t0, json.loads(out)["ready"])


def run_child(argv: List[str], opts: Options, name: str):
    """Run one child to completion on the probed program CPU; returns
    (result dict or None, set-up seconds, peak RSS MB)."""
    out = opts.run_dir / f"{name}.json"
    proc, t0 = launch(
        argv + ["--cpu", str(opts.speed.program_cpu), "--out", str(out)],
        opts.run_dir, f"{name}.log",
    )
    code, rss = reap(proc, CHILD_TIMEOUT_S)
    if code != 0 or not out.exists():
        return None, None, rss
    result = json.loads(out.read_text(encoding="utf-8"))
    return result, setup_time(opts, t0, result["ready"]), rss


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def reconcile(rows: Dict[str, float], self_rows: List[str],
              traced_s: float) -> Dict[str, float]:
    """``bench.traced_s`` and the remainder no self-time row covers."""
    attributed = sum(rows.get(name, 0.0) for name in self_rows)
    return {"bench.traced_s": traced_s,
            "bench.unattributed_s": traced_s - attributed}


#: Self-time rows of the engine-side workloads (they partition the
#: traced interval; ``sim.run_s`` is inclusive and not one of them).
ENGINE_SELF_ROWS = sorted(set(layers.ENGINE_ROWS.values()))


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def run_seeds(seed: int, tiny: bool, seeded: int = 1) -> List[int]:
    """Seeds of one run's inputs: a control at :data:`DEFAULT_SEED`,
    whose outputs are checked against ``reference.json`` in every run,
    then ``seeded`` seeds drawn from the run's own (the first is the
    run's seed itself).  A report's time moves by up to a quarter with
    its seed, because the seed's traces decide how many jobs run; the
    fixed control keeps a run's figures from following its seed
    alone."""
    if tiny:
        return [seed]
    return [DEFAULT_SEED] + [seed + 7919 * i for i in range(seeded)]


def control_weighted(per_set: Dict[str, float]) -> float:
    """Mean of the control set's figure (position ``"0"``) and the mean
    of the seeded sets' figures: the control weighs as much as every
    seeded set together, as in ``report``.  A run of one set (tiny)
    takes that set's figure."""
    seeded = [v for position, v in per_set.items() if position != "0"]
    if "0" not in per_set or not seeded:
        return statistics.fmean(per_set.values())
    return (per_set["0"] + statistics.fmean(seeded)) / 2


def run_report(opts: Options) -> Outcome:
    subset = ("table1",) if opts.tiny else REPORT_SUBSET
    seeds = run_seeds(opts.seed, opts.tiny)
    book = opts.book
    walls, cpus, speeds, events, setups, rss = [], [], [], 0, [], []
    attempted = failed = 0
    untraced = {}
    for index, seed in enumerate(seeds):
        argv = ["report", "--seed", str(seed),
                "--experiments", ",".join(subset)]
        result, setup, peak = run_child(argv, opts, f"report-{index}")
        rss.append(peak)
        attempted += len(subset)
        if result is None:
            failed += len(subset)
            book.problems.append(f"report child for seed {seed} failed")
            continue
        setups.append(setup)
        walls.append(result["wall_s"])
        speed = opts.speed.factor(*result["interval"],
                                  cpus=[opts.speed.program_cpu])
        speeds.append(speed)
        cpus.append(result["cpu_s"] * speed)
        events += result["events"]
        untraced[seed] = result
        for name in subset:
            got = result["digests"].get(name, "missing")
            failed += book.check(f"report:quick:{seed}:{name}", got)
    while len(setups) < (2 if opts.tiny else SETUP_SAMPLES):
        setups.append(ready_sample(opts))
    mean_wall = statistics.fmean(walls) if walls else float("nan")
    outcome = Outcome(
        e2e={
            "latency_s": statistics.fmean(cpus) if cpus else float("nan"),
            "throughput": events / sum(cpus) if cpus else float("nan"),
            "setup_s": median(setups),
            "peak_rss_mb": max(rss),
        },
        details={"subset": list(subset), "seeds": seeds, "walls_s": walls,
                 "reference_cpu_s": cpus, "host_speed": speeds,
                 "setups_s": setups, "events": events},
    )
    outcome.rows = {
        "report_s": mean_wall,
        "events_per_s": events / sum(walls) if walls else float("nan"),
        "bench.host_speed": statistics.fmean(speeds) if speeds else 1.0,
    }
    if opts.trace and seeds[-1] in untraced:
        seed = seeds[-1]
        argv = ["report", "--seed", str(seed), "--trace", "1",
                "--experiments", ",".join(subset)]
        traced, _setup, _peak = run_child(argv, opts, "report-traced")
        attempted += len(subset)
        if traced is None:
            failed += len(subset)
            book.problems.append("traced report child failed")
        else:
            for name in subset:
                failed += book.same(
                    f"traced report {name}",
                    untraced[seed]["digests"].get(name, "missing"),
                    traced["digests"].get(name, "missing"),
                )
            outcome.rows.update(traced["rows"])
            outcome.rows.update(reconcile(
                outcome.rows,
                ENGINE_SELF_ROWS + [f"experiments.{n}_s" for n in subset],
                traced["wall_s"],
            ))
            outcome.rows["bench.trace_overhead"] = (
                traced["wall_s"] / untraced[seed]["wall_s"] - 1.0
            )
            spans = opts.run_dir / "report-spans.json"
            spans.write_text(json.dumps(traced["spans"]), encoding="utf-8")
            outcome.details["traced_wall_s"] = traced["wall_s"]
    outcome.attempted, outcome.failed = attempted, failed
    return outcome


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def run_replay(opts: Options) -> Outcome:
    book = opts.book
    scale = 0.05 if opts.tiny else REPLAY_SCALE
    # A control trace set and REPLAY_SEEDED drawn from the run's seed
    # (see run_seeds).  Each replay is normalized for host speed on its
    # own, so spreading a run over more inputs steadies it more than
    # repeating the same ones.
    seeds = run_seeds(opts.seed, opts.tiny, seeded=REPLAY_SEEDED)
    base = ["replay", "--seeds", ",".join(map(str, seeds)),
            "--scale", str(scale)]
    result, setup, peak = run_child(
        base + ["--seconds", str(opts.seconds)], opts, "replay"
    )
    setups = [] if setup is None else [setup]
    while len(setups) < (2 if opts.tiny else SETUP_SAMPLES):
        setups.append(ready_sample(opts))
    if result is None:
        book.problems.append("replay child failed")
        n = 6 * len(seeds)
        return Outcome(
            e2e={"latency_s": float("nan"), "throughput": float("nan"),
                 "setup_s": median(setups), "peak_rss_mb": peak},
            attempted=n, failed=n,
        )
    attempted = failed = 0
    for label, prints in result["fingerprints"].items():
        attempted += len(prints)
        key = f"replay:{scale}:{label.split(':', 1)[1]}"
        failed += book.check(key, prints[0])
        failed += sum(
            book.same(f"replay {label} round {i}", prints[0], p)
            for i, p in enumerate(prints[1:], start=2)
        )
    # Each replay's median over the run's rounds, each replay in
    # reference seconds: a transient host slowdown moves one round, not
    # the figure.
    speeds = {
        label: [opts.speed.factor(start, end,
                                  cpus=[opts.speed.program_cpu])
                for start, end in spans]
        for label, spans in result["intervals"].items()
    }
    replay_s = {
        label: median([t * f for t, f in zip(times, speeds[label])])
        for label, times in result["cpu_times"].items()
    }
    # Labels are "<set position>:<seed>:<machine>"; position 0 is the
    # control set.
    set_cpu: Dict[str, float] = {}
    set_events: Dict[str, float] = {}
    for label, seconds in replay_s.items():
        position = label.split(":", 1)[0]
        set_cpu[position] = set_cpu.get(position, 0.0) + seconds
        set_events[position] = (set_events.get(position, 0)
                                + result["events"][label])
    set_s = control_weighted(set_cpu)
    round_wall = sum(median(t) for t in result["times"].values())
    events = sum(result["events"].values())
    rounds = len(next(iter(result["times"].values())))
    outcome = Outcome(
        e2e={"latency_s": set_s,
             "throughput": control_weighted(set_events) / set_s,
             "setup_s": median(setups), "peak_rss_mb": peak},
        details={"scale": scale, "seeds": seeds, "rounds": rounds,
                 "events": events, "round_wall_s": round_wall,
                 "replay_s": replay_s,
                 "setups_s": setups},
    )
    outcome.rows = {
        "events_per_s": events / round_wall,
        "bench.host_speed": statistics.fmean(
            f for factors in speeds.values() for f in factors
        ),
    }
    if opts.trace:
        traced, _setup, _peak = run_child(
            base + ["--seconds", "0", "--trace", "1"], opts, "replay-traced"
        )
        if traced is None:
            book.problems.append("traced replay child failed")
            attempted += len(result["fingerprints"])
            failed += len(result["fingerprints"])
        else:
            for label, prints in traced["fingerprints"].items():
                attempted += 1
                failed += book.same(
                    f"traced replay {label}",
                    result["fingerprints"][label][0], prints[0],
                )
            outcome.rows.update(traced["rows"])
            outcome.rows.update(reconcile(
                outcome.rows, ENGINE_SELF_ROWS, traced["wall_s"]
            ))
            untraced_round = sum(t[0] for t in result["times"].values())
            outcome.rows["bench.trace_overhead"] = (
                traced["wall_s"] / untraced_round - 1.0
            )
            spans = opts.run_dir / "replay-spans.json"
            spans.write_text(json.dumps(traced["spans"]), encoding="utf-8")
    outcome.attempted, outcome.failed = attempted, failed
    return outcome


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve`` process with a fresh store and journal."""

    def __init__(self, opts: Options, name: str, traced: bool) -> None:
        self.port = free_port()
        self.name = name
        self.opts = opts
        self.spans = opts.run_dir / f"{name}-spans.json"
        argv = ["serve", "--trace", "1" if traced else "0",
                "--spans", str(self.spans), "--",
                *SERVE_ARGS, "--port", str(self.port),
                "--store", str(opts.run_dir / f"{name}-store"),
                "--journal", str(opts.run_dir / f"{name}-journal.jsonl")]
        self.proc, self.launched = launch(argv, opts.run_dir, f"{name}.log")
        try:
            self.setup_s = self._wait_ready()
        except BaseException:
            self.proc.kill()
            reap(self.proc, 30.0)
            raise

    def _wait_ready(self, timeout: float = 60.0) -> float:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.name} exited during start-up")
            try:
                status, _ = serveclient.get_json(
                    "127.0.0.1", self.port, "/healthz", timeout=1.0
                )
            except OSError:
                status = None
            if status == 200:
                return setup_time(self.opts, self.launched,
                                  time.monotonic())
            time.sleep(0.005)
        raise RuntimeError(f"{self.name} never became ready")

    def peak_rss_mb(self) -> float:
        """Largest VmHWM among the daemon and its worker processes."""
        peak = 0.0
        pids = [self.proc.pid]
        children = Path(f"/proc/{self.proc.pid}/task/{self.proc.pid}/"
                        "children")
        try:
            pids += [int(p) for p in children.read_text().split()]
        except OSError:
            pass
        for pid in pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def stop(self) -> Tuple[int, float]:
        """SIGTERM drain; returns (exit code, peak RSS MB)."""
        sampled = self.peak_rss_mb()
        self.proc.send_signal(signal.SIGTERM)
        code, rss = reap(self.proc, 60.0)
        return code, max(sampled, rss)


def serve_script(seed: int, seconds: float,
                 tiny: bool = False) -> Tuple[List[Dict], List[Dict]]:
    """The interactive stream and the bulk sweep of one run.

    Fresh requests alternate between the control seeds (drawn from
    :data:`DEFAULT_SEED`, the same in every run) and seeds drawn from
    the run's seed; see :func:`run_seeds` for why.  The run's seed
    also picks which earlier request each repeat asks for again.
    """
    sources = [random.Random(f"perfbench-serve-{position}-{s}")
               for position, s in enumerate(run_seeds(seed, tiny))]
    drawn = [iter(src.sample(range(1, 2 ** 31 - 1), 1000))
             for src in sources]
    count = [0]

    def fresh() -> int:
        count[0] += 1
        return next(drawn[count[0] % len(drawn)])

    rng = sources[-1]
    n = max(1, int(seconds * INTERACTIVE_RATE))
    interactive: List[Dict] = []
    for i in range(n):
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            earlier = [b for b in interactive if not b.get("_repeat")]
            body = dict(rng.choice(earlier), _repeat=True)
        else:
            body = {"experiment": "table1", "seed": fresh(),
                    "priority": "interactive"}
        interactive.append(body)
    bulk = [
        {"experiment": "table5", "seed": fresh(), "priority": "bulk",
         "tenant": "tenant-a" if i % 2 == 0 else "tenant-b"}
        for i in range(400)
    ]
    return interactive, bulk


def program_on_path() -> None:
    """Let this process import the program (for the client-side content
    keys and the in-process re-render)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _expected_key(body: Dict) -> str:
    from repro.experiments.config import SCALES
    from repro.service import SimRequest

    request = SimRequest(experiment=body["experiment"], seed=body["seed"])
    return request.run_key(SCALES["quick"])


def serve_pass(opts: Options, name: str, traced: bool,
               interactive: List[Dict], bulk: List[Dict]) -> Dict[str, Any]:
    """One daemon, one measurement window, all replies checked."""
    daemon = Daemon(opts, name, traced)
    host, port = "127.0.0.1", daemon.port
    start = time.monotonic() + 0.05
    until = start + opts.seconds
    exchanges = [
        serveclient.Exchange(
            body={k: v for k, v in body.items() if not k.startswith("_")},
            due=start + i / INTERACTIVE_RATE,
        )
        for i, body in enumerate(interactive)
    ]
    repeats = [bool(body.get("_repeat")) for body in interactive]
    bulk_done: List[serveclient.Exchange] = []
    conns: List[serveclient.Connection] = []
    try:
        conn1 = serveclient.Connection(host, port, REPLY_TIMEOUT_S)
        conns.append(conn1)
        conn2 = serveclient.Connection(host, port, REPLY_TIMEOUT_S)
        conns.append(conn2)
        while time.monotonic() < start:
            time.sleep(0.001)
        receiver = serveclient.open_loop(conn1, exchanges, REPLY_TIMEOUT_S)
        bulker = serveclient.closed_loop(conn2, bulk, until, REPLY_TIMEOUT_S,
                                         bulk_done)
        for thread in (receiver, bulker):
            thread.join(max(0.0, until + REPLY_TIMEOUT_S - time.monotonic()))
        _, metrics = serveclient.get_json(host, port, "/metrics")
    finally:
        for conn in conns:
            conn.close()
        code, rss = daemon.stop()
    spans = []
    if traced and daemon.spans.exists():
        spans = json.loads(daemon.spans.read_text(encoding="utf-8"))
    return {"daemon": daemon, "exchanges": exchanges, "repeats": repeats,
            "bulk": bulk_done, "metrics": metrics, "exit_code": code,
            "rss": rss, "start": start, "until": until, "spans": spans}


def check_serve_pass(result: Dict[str, Any], book: DigestBook,
                     label: str) -> Tuple[int, int, Dict[str, str]]:
    """(attempted, failed, key -> result text) for one pass."""
    attempted = failed = 0
    texts: Dict[str, str] = {}
    everything = result["exchanges"] + result["bulk"]
    for ex in everything:
        attempted += 1
        why = ex.error or check_reply(ex.reply, _expected_key(ex.body))
        if why is not None:
            failed += 1
            book.problems.append(f"{label} {ex.body}: {why}")
            continue
        text = ex.reply["result"]
        key = ex.reply["key"]
        if key in texts:
            # A repeat: byte-identical to its first compute.
            failed += book.same(f"{label} repeat {key[:12]}", texts[key],
                                text)
        else:
            texts[key] = text
    attempted += 1
    if result["exit_code"] != 0:
        failed += 1
        book.problems.append(
            f"{label} daemon exited {result['exit_code']} on SIGTERM drain"
        )
    return attempted, failed, texts


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile; a failed request (inf) sorts last."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def serve_figures(result: Dict[str, Any]) -> Dict[str, Any]:
    computed, hits, lags = [], [], []
    for ex, repeat in zip(result["exchanges"], result["repeats"]):
        if ex.sent is not None:
            lags.append(ex.sent - ex.due)
        ok = ex.error is None and ex.reply.get("http_status") == 200
        if repeat:
            if ok:
                hits.append(ex.received - ex.began)
        else:
            computed.append(ex.received - ex.due if ok else float("inf"))
    completions = sorted(
        ex.received - result["start"] for ex in result["bulk"]
        if ex.received is not None and ex.received <= result["until"]
        and ex.reply.get("http_status") == 200
    )
    # Completed bulk requests over the time the last of them took: no
    # partial request at the window's end quantizes the rate.
    bulk_rps = (len(completions) / completions[-1] if completions
                else 0.0)
    return {
        "interactive_p50_s": quantile(computed, 0.5),
        "interactive_p90_s": quantile(computed, 0.9),
        "hit_p50_s": quantile(hits, 0.5),
        "bulk_rps": bulk_rps,
        "generator_lag_s": max(lags) if lags else 0.0,
        "computed": len(computed),
        "hits": len(hits),
        "bulk_completed": len(completions),
    }


def reference_latency(result: Dict[str, Any], speed: HostSpeed) -> float:
    """Mean due-to-reply latency of the computed interactive requests,
    each in reference seconds at the host's speed during that request
    (see hostspeed); infinite when one of them failed.

    The host's speed moves within a run: the same request took from
    0.1 to 0.2 s across runs.  Scaling each request by its own
    interval halved that, where one factor for the whole window did
    not.  The mean, not the median, because every request then counts.
    """
    values = []
    for ex, repeat in zip(result["exchanges"], result["repeats"]):
        if repeat:
            continue
        if ex.error is not None or ex.reply.get("http_status") != 200:
            return float("inf")
        values.append((ex.received - ex.due)
                      * speed.wall_factor(ex.due, ex.received))
    return statistics.fmean(values) if values else float("nan")


def recheck(texts: Dict[str, str], bodies: List[Dict],
            book: DigestBook) -> Tuple[int, int]:
    """Re-render a fixed sample of served requests in-process."""
    from dataclasses import replace

    from repro.experiments.config import SCALES
    from repro.experiments.executor import render_experiment

    attempted = failed = 0
    for body in bodies:
        key = _expected_key(body)
        if key not in texts:
            continue
        attempted += 1
        scale = replace(SCALES["quick"], seed=body["seed"])
        local = render_experiment(body["experiment"], scale)
        failed += book.same(f"re-render {body['experiment']} "
                            f"seed {body['seed']}", local, texts[key])
    return attempted, failed


def run_serve(opts: Options) -> Outcome:
    program_on_path()
    book = opts.book
    interactive, bulk = serve_script(opts.seed, opts.seconds, opts.tiny)
    setups: List[float] = []
    main = serve_pass(opts, "serve", False, interactive, bulk)
    setups.append(main["daemon"].setup_s)
    attempted, failed, texts = check_serve_pass(main, book, "serve")
    figures = serve_figures(main)
    fresh = [b for b in interactive if not b.get("_repeat")]
    sample = fresh[:RECHECK_INTERACTIVE] + bulk[:RECHECK_BULK]
    a, f = recheck(texts, sample, book)
    attempted, failed = attempted + a, failed + f
    rss = [main["rss"]]
    while len(setups) < (2 if opts.tiny else SETUP_SAMPLES):
        daemon = Daemon(opts, f"setup-{len(setups)}", False)
        setups.append(daemon.setup_s)
        code, peak = daemon.stop()
        rss.append(peak)
        attempted += 1
        if code != 0:
            failed += 1
            book.problems.append(f"set-up daemon exited {code}")
    valid = figures["generator_lag_s"] <= GENERATOR_LAG_BOUND_S
    if not valid:
        book.problems.append(
            f"invalid run: open-loop sends ran up to "
            f"{figures['generator_lag_s']:.3f} s late (bound "
            f"{GENERATOR_LAG_BOUND_S} s)"
        )
    # The daemon and its workers run on every CPU, so factors are the
    # mean of every probe.  A probe times its kernel in its own CPU
    # seconds, so the program's load next to it does not slow it (see
    # hostspeed): the factor is the host's.
    speed = opts.speed.factor(main["start"], main["until"])
    available = opts.speed.available(main["start"], main["until"])
    outcome = Outcome(
        e2e={
            "latency_s": reference_latency(main, opts.speed),
            "throughput": figures["bulk_rps"] / (speed * available),
            "setup_s": median(setups),
            "peak_rss_mb": max(rss),
        },
        valid=valid,
        details=dict(figures, host_speed=speed, available=available),
    )
    outcome.details["setups_s"] = setups
    outcome.details["window"] = [main["start"], main["until"]]
    outcome.rows = serve_rows(main, figures)
    outcome.rows["bench.host_speed"] = speed
    if opts.trace:
        traced = serve_pass(opts, "serve-traced", True, interactive, bulk)
        a, f, traced_texts = check_serve_pass(traced, book, "traced serve")
        attempted, failed = attempted + a, failed + f
        for key, text in traced_texts.items():
            if key in texts:
                failed += book.same(f"traced serve {key[:12]}", texts[key],
                                    text)
        outcome.rows.update(service_trace_rows(traced, main))
    failed_share = failed / attempted if attempted else 0.0
    outcome.rows["failed_share"] = failed_share
    outcome.attempted, outcome.failed = attempted, failed
    return outcome


def serve_rows(result: Dict[str, Any],
               figures: Dict[str, Any]) -> Dict[str, float]:
    counters = result["metrics"].get("counters", {})
    requests = counters.get("requests", 0)
    return {
        "interactive_p50_s": figures["interactive_p50_s"],
        "interactive_p90_s": figures["interactive_p90_s"],
        "hit_p50_s": figures["hit_p50_s"],
        "bulk_rps": figures["bulk_rps"],
        "bench.generator_lag_s": figures["generator_lag_s"],
        "service.cap_deferrals": counters.get("cap_deferrals", 0),
        "service.rejections": counters.get("rejections", 0),
        "service.failures": counters.get("failures", 0),
        "service.retries": counters.get("retries", 0),
        "service.worker_replacements": counters.get(
            "worker_replacements", 0),
        "service.journal_fsyncs": result["metrics"].get(
            "resilience", {}).get("journal_fsyncs", 0),
        "service.cache_hit_share": (
            counters.get("cache_hits", 0) / requests if requests else 0.0
        ),
        "store.hits": counters.get("cache_hits", 0),
        "store.misses": counters.get("computes", 0),
        "store.hit_share": (
            counters.get("cache_hits", 0)
            / (counters.get("cache_hits", 0) + counters.get("computes", 0))
            if requests else 0.0
        ),
    }


#: Self-time rows of a serve request (they partition its wire time).
SERVICE_SELF_ROWS = ["service.http_s", "service.fleet_s",
                     "service.admission_wait_s", "service.dispatch_s",
                     "service.journal_s", "store.s"]


def service_trace_rows(traced: Dict[str, Any],
                       untraced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer rows of the traced pass.

    The reconciled interval is the summed latency of every ``/run``
    exchange, from its due time to its reply.  ``service.http_s`` is
    the wire time (from when the daemon could start on a request: its
    send, or the previous reply on its connection) minus the daemon's
    ``FleetMember.submit`` span; the daemon's spans split the rest.
    What remains unattributed is the time requests waited on their
    connection behind earlier ones.
    """

    def wire(result) -> List[float]:
        return [ex.received - ex.began
                for ex in result["exchanges"] + result["bulk"]
                if ex.received is not None]

    rows = layers.service_rows(traced["spans"])
    traced_s = sum(
        ex.received - ex.due
        for ex in traced["exchanges"] + traced["bulk"]
        if ex.received is not None
    )
    rows["service.http_s"] = sum(wire(traced)) - rows.pop("service.submit_s")
    rows["service.store_s"] = rows["store.s"]
    window = traced["until"] - traced["start"]
    workers = int(SERVE_ARGS[SERVE_ARGS.index("--workers") + 1])
    dispatch = sum(s["end"] - s["start"] for s in traced["spans"]
                   if s["name"] == "WorkerSupervisor.run")
    rows["service.busy_share"] = dispatch / (workers * window)
    rows.update(reconcile(rows, SERVICE_SELF_ROWS, traced_s))
    rows["bench.trace_overhead"] = (
        statistics.fmean(wire(traced)) / statistics.fmean(wire(untraced))
        - 1.0
    )
    return rows


WORKLOADS = {"report": run_report, "replay": run_replay, "serve": run_serve}
