"""Call-boundary tracing for the benchmark's traced runs.

A traced run installs these wrappers in the program's process before
the program starts.  They time calls into the program's public
functions and pass arguments and results through untouched, so a
traced run computes exactly what an untraced one does (the benchmark
checks that its outputs are byte-identical).

Two recorders:

* :class:`CallTracer` for synchronous code (``report``, ``replay``).
  Every wrapped call pushes a frame on one stack; when it returns, its
  duration is added to its name's total and to its parent's child
  time.  A name's *self time* is its total minus its children, so the
  self times of all names partition the traced interval and sum to at
  most its wall time.  Per-job functions run hundreds of thousands of
  times, so they only accumulate a call count and totals; coarse
  boundaries (drivers, engine runs, trace builds) are also kept as
  spans.  Engine phases come from the program's own ``PhaseTimers``
  hooks: :class:`StackTimers` makes each phase a frame of the same
  stack and is handed to every engine through ``Engine``'s ``timers=``
  argument.
* :class:`SpanRecorder` for the daemon's coroutines (``serve``).  The
  open span travels in a context variable, so concurrent requests each
  keep their own parent chain.  Every span is kept in memory and
  written out when the daemon has drained.

:func:`engine_rows` and :func:`service_rows` roll the recordings up
into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextvars
import functools
import os
from time import monotonic, perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Wrapped name -> per-layer self-time row (report and replay).
ENGINE_ROWS = {
    "Engine.__init__": "sim.other_s",
    "Engine.run": "sim.other_s",
    "event_queue_ops": "sim.queue_ops_s",
    "event_dispatch": "sim.dispatch_s",
    "fault_apply": "sim.fault_apply_s",
    "ClusterState.start": "sim.state_s",
    "ClusterState.finish": "sim.state_s",
    "ClusterState.resize": "sim.state_s",
    "scheduling_pass": "sched.pass_s",
    "QueueScheduler.schedule": "sched.pass_s",
    "priority_maintenance": "sched.priority_s",
    "release_timeline": "sched.release_timeline_s",
    "FairShareTracker.charge": "sched.fairshare_s",
    "offer": "core.offer_s",
    "InterstitialProject.make_job": "jobs.make_s",
    "synthetic_trace_for": "workload.trace_s",
    "RunStore.get_or_compute": "store.s",
    "RunStore.get": "store.s",
    "RunStore.put": "store.s",
}

#: Prefix of the stats entries that hold a registry driver's self time.
DRIVER_PREFIX = "driver:"


class CallTracer:
    """Self-time accounting over wrapped synchronous calls."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: Coarse spans: (name, id, start, end, parent index or -1).
        self.spans: List[Tuple[str, str, float, float, int]] = []
        #: Open frames; each holds the time its wrapped children took.
        self._stack: List[List[Any]] = [[0.0]]
        self._span_stack: List[Tuple[int, str]] = [(-1, "")]
        #: Name of the registry driver currently running, if any.
        self.driver: Optional[str] = None

    def _stat(self, name: str) -> List[float]:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        return stat

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one frame named ``name``."""
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            stack.pop()
            stack[-1][0] += elapsed
            stat = self._stat(name)
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - frame[0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as frames named ``name`` (the hot-path form:
        everything it touches per call is bound once here)."""
        stack = self._stack
        stat = self._stat(name)
        clock = perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]

        return timed

    def span(self, name: str, fn: Callable, span_id: str = "") -> Callable:
        """Like :meth:`wrap`, and also keep one span per call.  Spans
        without an id of their own take the id of their parent."""
        spans = self.spans
        span_stack = self._span_stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent, parent_id = span_stack[-1]
            own_id = span_id or parent_id
            index = len(spans)
            spans.append((name, own_id, perf_counter(), 0.0, parent))
            span_stack.append((index, own_id))
            try:
                return self.call(name, fn, *args, **kwargs)
            finally:
                span_stack.pop()
                name_, id_, start, _end, parent_ = spans[index]
                spans[index] = (name_, id_, start, perf_counter(), parent_)

        return spanned

    # Phase frames for StackTimers.
    def enter(self, name: str) -> None:
        self._stack.append([0.0, perf_counter(), name])

    def exit(self, name: str) -> None:
        frame = self._stack.pop()
        if len(frame) != 3 or frame[2] != name:
            raise RuntimeError(f"phase {name!r} closed out of order")
        elapsed = perf_counter() - frame[1]
        self._stack[-1][0] += elapsed
        stat = self._stat(name)
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[0]

    def span_records(self) -> List[Dict[str, Any]]:
        """JSON-ready spans."""
        return [
            {"name": n, "id": i, "start": s, "end": e, "parent": p}
            for n, i, s, e, p in self.spans
        ]


def stack_timers(tracer: CallTracer):
    """A ``PhaseTimers`` whose phases are frames of ``tracer``."""
    from repro.obs import PhaseTimers

    class StackTimers(PhaseTimers):
        def start(self, phase: str) -> None:
            tracer.enter(phase)

        def stop(self, phase: str) -> None:
            tracer.exit(phase)

    return StackTimers()


def _rebind(name: str, original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's ``name`` binding that refers
    to ``original`` at ``replacement`` (``from x import f`` copies)."""
    import sys

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "repro" or module is None:
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, replacement)


def install_engine_tracing(tracer: CallTracer, counters) -> None:
    """Wrap the engine-side entry points (report and replay).

    ``counters`` is a ``repro.obs.Counters`` that every finished
    engine run's ``SimResult.counters`` is merged into.
    """
    import dataclasses

    import repro.experiments.registry as registry
    import repro.workload.synthetic as synthetic
    from repro.core.composite import CompositeInterstitialSource
    from repro.core.controller import InterstitialController
    from repro.elastic.controller import ElasticInterstitialController
    from repro.jobs.project import InterstitialProject
    from repro.sched.fairshare import FairShareTracker
    from repro.sched.queue_scheduler import QueueScheduler
    from repro.sim.engine import Engine
    from repro.sim.state import ClusterState
    from repro.store import RunStore

    timers = stack_timers(tracer)
    init = Engine.__init__

    def engine_init(self, *args, **kwargs):
        if len(args) > 9:
            if args[9] is None:
                args = args[:9] + (timers,) + args[10:]
        elif kwargs.get("timers") is None:
            kwargs["timers"] = timers
        init(self, *args, **kwargs)

    Engine.__init__ = tracer.wrap("Engine.__init__", engine_init)
    run = Engine.run

    def engine_run(self):
        result = run(self)
        counters.merge(result.counters)
        return result

    Engine.run = tracer.span("Engine.run", engine_run)
    QueueScheduler.schedule = tracer.wrap(
        "QueueScheduler.schedule", QueueScheduler.schedule
    )
    for method in ("start", "finish", "resize"):
        setattr(ClusterState, method, tracer.wrap(
            f"ClusterState.{method}", getattr(ClusterState, method)
        ))
    FairShareTracker.charge = tracer.wrap(
        "FairShareTracker.charge", FairShareTracker.charge
    )
    InterstitialProject.make_job = tracer.wrap(
        "InterstitialProject.make_job", InterstitialProject.make_job
    )

    offers = tracer._stat("offers")
    depth = [0]
    for cls in (
        InterstitialController,
        ElasticInterstitialController,
        CompositeInterstitialSource,
    ):
        offer = tracer.wrap("offer", cls.__dict__["offer"])

        def counted_offer(self, *args, _offer=offer, **kwargs):
            depth[0] += 1
            try:
                jobs = _offer(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:  # a composite's children count once
                offers[0] += 1
                offers[1] += len(jobs)
            return jobs

        cls.offer = counted_offer

    get_or_compute = tracer.wrap(
        "RunStore.get_or_compute", RunStore.get_or_compute
    )

    def store_get_or_compute(self, payload, compute):
        # The compute callable is the caller's work, not the store's:
        # charge its self time to the driver that asked.
        owner = DRIVER_PREFIX + (tracer.driver or "?")
        return get_or_compute(
            self, payload, lambda: tracer.call(owner, compute)
        )

    RunStore.get_or_compute = store_get_or_compute
    RunStore.get = tracer.wrap("RunStore.get", RunStore.get)
    RunStore.put = tracer.wrap("RunStore.put", RunStore.put)

    original = synthetic.synthetic_trace_for
    _rebind(
        "synthetic_trace_for",
        original,
        tracer.span("synthetic_trace_for", original),
    )

    for name, spec in list(registry.SPECS.items()):
        registry.SPECS[name] = dataclasses.replace(
            spec, driver=_driver_span(tracer, name, spec.driver)
        )


def _driver_span(tracer: CallTracer, name: str, driver: Callable):
    inner = tracer.span(DRIVER_PREFIX + name, driver, span_id=name)

    @functools.wraps(driver)
    def run(ctx):
        outer, tracer.driver = tracer.driver, name
        try:
            return inner(ctx)
        finally:
            tracer.driver = outer

    return run


def engine_rows(
    stats: Dict[str, List[float]],
    counts: Dict[str, int],
    drivers: List[str],
) -> Dict[str, float]:
    """Per-layer metrics from a :class:`CallTracer` recording.

    ``counts`` holds the merged ``SimResult.counters`` and the store's
    hit and miss counts; ``drivers`` names every registry driver (each
    gets a row, zero when it did not run).
    """
    rows: Dict[str, float] = {}
    for name, row in ENGINE_ROWS.items():
        rows[row] = rows.get(row, 0.0) + stats.get(name, [0, 0.0, 0.0])[2]
    for driver in drivers:
        stat = stats.get(DRIVER_PREFIX + driver, [0, 0.0, 0.0])
        rows[f"experiments.{driver}_s"] = stat[2]

    def calls(name: str) -> int:
        return int(stats.get(name, [0])[0])

    offers = stats.get("offers", [0, 0])
    passes = counts.get("scheduling_passes", 0)
    hits, misses = counts.get("store_hits", 0), counts.get("store_misses", 0)
    rows.update({
        "sim.run_s": stats.get("Engine.run", [0, 0.0])[1],
        "sim.runs": calls("Engine.run"),
        "sim.events": counts.get("events", 0),
        "sched.passes": passes,
        "sched.pass_skips": counts.get("pass_skips", 0),
        "sched.pass_skip_share": (
            counts.get("pass_skips", 0) / passes if passes else 0.0
        ),
        "sched.rekeys": counts.get("priority_rekeys", 0),
        "sched.backfill_starts": counts.get("backfill_starts", 0),
        "core.offers": int(offers[0]),
        "core.interstitial_starts": int(offers[1]),
        "jobs.made": calls("InterstitialProject.make_job"),
        "workload.traces": calls("synthetic_trace_for"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_share": hits / (hits + misses) if hits + misses else 0.0,
    })
    return rows


# ----------------------------------------------------------------------
# Daemon spans (serve)
# ----------------------------------------------------------------------

class SpanRecorder:
    """Spans over the daemon's request path, parented per task.  Times
    are ``time.monotonic()`` readings, the client's clock too."""

    def __init__(self) -> None:
        #: Each span: [name, id, start, end, parent index or -1].
        self.spans: List[List[Any]] = []
        self._open: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_open_span", default=-1
        )
        self._arrivals = 0
        self._pid = os.getpid()

    def _begin(self, name: str) -> Tuple[int, Any]:
        index = len(self.spans)
        self.spans.append([name, "", monotonic(), 0.0, self._open.get()])
        return index, self._open.set(index)

    def _end(self, index: int, token: Any) -> None:
        self.spans[index][3] = monotonic()
        self._open.reset(token)

    def wrap_sync(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if os.getpid() != self._pid:  # a forked pool worker
                return fn(*args, **kwargs)
            index, token = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index, token)

        return spanned

    def wrap_async(self, name: str, fn: Callable, root: bool = False):
        @functools.wraps(fn)
        async def spanned(*args, **kwargs):
            if root:
                self._arrivals += 1
                arrival = self._arrivals
            index, token = self._begin(name)
            response = None
            try:
                response = await fn(*args, **kwargs)
                return response
            finally:
                self._end(index, token)
                if root:
                    payload = getattr(response, "payload", None) or {}
                    self.spans[index][1] = (
                        f"{payload.get('key', '?')}#{arrival}"
                    )

        return spanned

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-ready spans; children carry their root's id."""
        out = []
        for name, span_id, start, end, parent in self.spans:
            root = parent
            while not span_id and root >= 0:
                span_id = self.spans[root][1]
                root = self.spans[root][4]
            out.append({"name": name, "id": span_id, "start": start,
                        "end": end, "parent": parent})
        return out


def install_service_tracing(recorder: SpanRecorder) -> None:
    """Wrap the daemon's request path (serve)."""
    from repro.service.daemon import SimulationService
    from repro.service.fleet import FleetMember
    from repro.service.resilience import BulkJournal, WorkerSupervisor
    from repro.store import RunStore

    FleetMember.submit = recorder.wrap_async(
        "FleetMember.submit", FleetMember.submit, root=True
    )
    SimulationService.submit = recorder.wrap_async(
        "SimulationService.submit", SimulationService.submit
    )
    WorkerSupervisor.run = recorder.wrap_async(
        "WorkerSupervisor.run", WorkerSupervisor.run
    )
    RunStore.get = recorder.wrap_sync("RunStore.get", RunStore.get)
    RunStore.put = recorder.wrap_sync("RunStore.put", RunStore.put)
    BulkJournal.sync = recorder.wrap_sync("BulkJournal.sync", BulkJournal.sync)


#: Daemon span name -> self-time row (serve).
SERVICE_ROWS = {
    "FleetMember.submit": "service.fleet_s",
    "SimulationService.submit": "service.admission_wait_s",
    "WorkerSupervisor.run": "service.dispatch_s",
    "RunStore.get": "store.s",
    "RunStore.put": "store.s",
    "BulkJournal.sync": "service.journal_s",
}


def span_self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span name -> summed self time (duration minus direct children)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span["end"] - span["start"] - child[index]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def service_rows(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Daemon-side self-time rows from :class:`SpanRecorder` spans."""
    selves = span_self_times(spans)
    rows = {row: 0.0 for row in SERVICE_ROWS.values()}
    for name, row in SERVICE_ROWS.items():
        rows[row] += selves.get(name, 0.0)
    rows["service.submit_s"] = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "FleetMember.submit"
    )
    return rows
