"""The explicit run context threaded through every experiment driver.

Historically the experiment layer kept module-level caches (traces,
native baselines, continual logs) and the engine kept a process-wide
invariant-checking default.  Both made the codebase single-process by
construction: two concurrent runs would silently share (or fight over)
global state.  :class:`RunContext` replaces all of it with one explicit
object that owns

* the :class:`~repro.experiments.config.ExperimentScale` in force,
* deterministic per-label RNG streams derived from the scale seed,
* a content-addressed :class:`~repro.store.RunStore` of simulation
  products (optionally disk-backed, so separate processes share runs),
* the engine invariant-checking flag (previously a mutable global),
  trace recorder and phase timers, which :meth:`RunContext.engine_options`
  hands to every engine run the context or a driver makes.

Drivers take ``ctx`` and ask it for traces and runs; nothing below the
driver layer reaches into module globals, which is what makes the
parallel executor (:mod:`repro.experiments.executor`) safe.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, TypeVar

import numpy as np

from repro.core.controller import InterstitialController
from repro.core.runners import run_native, run_with_controller
from repro.errors import ConfigurationError
from repro.experiments.common import INTERSTITIAL_USER, rng_for
from repro.experiments.config import ExperimentScale
from repro.faults import FaultModel, RetryPolicy
from repro.jobs import InterstitialProject
from repro.machines import Machine, preset
from repro.machines.presets import preset_names
from repro.obs import PhaseTimers, TraceRecorder
from repro.sched.base import Scheduler
from repro.sim.outages import OutageSchedule
from repro.sim.results import SimResult
from repro.store import RunStore
from repro.workload.synthetic import synthetic_trace_for
from repro.workload.trace import Trace

T = TypeVar("T")

#: Shape of the simulation products this module stores: results carry
#: counted cohort records (``SimResult.finished_records``).  Part of
#: every run payload, so entries a store holds from another shape are
#: misses, never mis-reads.
RESULT_FORMAT = "records-1"


def _fault_payload(faults: Optional[FaultModel]) -> Optional[Dict[str, Any]]:
    """Content-address fields of a fault model (None when disabled).

    The concrete class is part of the address: subclasses (e.g. test
    models with fixed schedules) must not collide with the stock model
    even when their dataclass fields match.
    """
    if faults is None:
        return None
    payload = dict(asdict(faults))
    payload["class"] = type(faults).__qualname__
    return payload


def _retry_payload(retry: Optional[RetryPolicy]) -> Optional[Dict[str, Any]]:
    if retry is None:
        return None
    return dict(asdict(retry))


@dataclass
class RunContext:
    """Everything one experiment run needs, made explicit.

    Parameters
    ----------
    scale:
        The scaling preset; also the root of every RNG stream.
    store:
        Content-addressed store of run products.  Defaults to a fresh
        in-memory store; pass a disk-backed one to share runs across
        processes.
    check_invariants:
        Run every simulation with the engine's accounting validator
        enabled (the CLI's ``--check-invariants``).  Excluded from run
        keys: validation never changes results (and a dedicated test
        enforces that).
    recorder:
        Optional :class:`~repro.obs.TraceRecorder` handed to every
        simulation this context computes (the CLI's ``--trace``).
        Observability state, so — like ``check_invariants`` — excluded
        from run keys; note that store *hits* skip the engine and thus
        emit no records, so tracing wants a fresh (in-memory) store.
    timers:
        Optional :class:`~repro.obs.PhaseTimers` shared by every
        simulation this context computes (``repro profile``); same
        store-hit caveat as ``recorder``.
    """

    scale: ExperimentScale
    store: RunStore = field(default_factory=RunStore)
    check_invariants: bool = False
    recorder: Optional[TraceRecorder] = None
    timers: Optional[PhaseTimers] = None

    # ------------------------------------------------------------------
    # Deterministic streams and payload helpers
    # ------------------------------------------------------------------
    def rng_for(self, salt: str) -> np.random.Generator:
        """Deterministic generator derived from the scale seed + label."""
        return rng_for(self.scale, salt)

    def scale_payload(self) -> Dict[str, Any]:
        """The scale's full field set (run keys use actual parameters,
        not preset names, so same-named presets can never collide)."""
        return dict(asdict(self.scale))

    def engine_options(self) -> Dict[str, Any]:
        """The engine keywords of every run this context makes, cached
        or direct: the invariant validator, the trace recorder and the
        phase timers (observability only, so never part of a run key)."""
        return {
            "check_invariants": self.check_invariants,
            "recorder": self.recorder,
            "timers": self.timers,
        }

    # ------------------------------------------------------------------
    # Machines and traces
    # ------------------------------------------------------------------
    def machine_for(self, machine_name: str) -> Machine:
        """Preset machine lookup."""
        if machine_name not in preset_names():
            raise ConfigurationError(f"unknown machine {machine_name!r}")
        return preset(machine_name)

    def trace_for(self, machine_name: str) -> Trace:
        """The (store-cached) synthetic native trace for a preset
        machine at this context's scale."""
        machine = self.machine_for(machine_name)  # validates the name
        payload = {
            "kind": "trace",
            "machine": machine.name,
            "scale": self.scale_payload(),
        }
        return self.store.get_or_compute(
            payload,
            lambda: synthetic_trace_for(
                machine_name,
                rng=self.rng_for(f"trace:{machine_name}"),
                scale=self.scale.trace_scale,
            ),
        )

    # ------------------------------------------------------------------
    # Cached simulation runs
    # ------------------------------------------------------------------
    def native_result_for(
        self,
        machine_name: str,
        faults: Optional[FaultModel] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> SimResult:
        """The (store-cached) native-only baseline run, optionally on a
        faulty machine."""
        machine = self.machine_for(machine_name)
        payload = {
            "kind": "native",
            "results": RESULT_FORMAT,
            "machine": machine.name,
            "scheduler": machine.queue_algorithm,
            "scale": self.scale_payload(),
            "faults": _fault_payload(faults),
            "retry": _retry_payload(retry),
        }

        def compute() -> SimResult:
            trace = self.trace_for(machine_name)
            return run_native(
                machine,
                trace.jobs,
                faults=faults,
                retry=retry,
                horizon=trace.duration,
                **self.engine_options(),
            )

        return self.store.get_or_compute(payload, compute)

    def continual_result_for(
        self,
        machine_name: str,
        cpus_per_job: int,
        runtime_1ghz: float,
        max_utilization: Optional[float] = None,
        faults: Optional[FaultModel] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Tuple[SimResult, InterstitialController]:
        """The (store-cached) continual-interstitial run for one job
        shape, optionally capped and/or on a faulty machine, computed
        by :meth:`continual_run`."""
        machine = self.machine_for(machine_name)
        payload = {
            "kind": "continual",
            "results": RESULT_FORMAT,
            "machine": machine.name,
            "scheduler": machine.queue_algorithm,
            "scale": self.scale_payload(),
            "cpus_per_job": int(cpus_per_job),
            "runtime_1ghz": float(runtime_1ghz),
            "max_utilization": max_utilization,
            "faults": _fault_payload(faults),
            "retry": _retry_payload(retry),
        }
        return self.store.get_or_compute(
            payload,
            lambda: self.continual_run(
                machine_name,
                cpus_per_job,
                runtime_1ghz,
                faults=faults,
                retry=retry,
                max_utilization=max_utilization,
            ),
        )

    def continual_run(
        self,
        machine_name: str,
        cpus_per_job: int,
        runtime_1ghz: float,
        trace: Optional[Trace] = None,
        scheduler: Optional[Scheduler] = None,
        outages: Optional[OutageSchedule] = None,
        faults: Optional[FaultModel] = None,
        retry: Optional[RetryPolicy] = None,
        **controller: Any,
    ) -> Tuple[SimResult, InterstitialController]:
        """One continual-interstitial run (§4.3.2), never cached: a
        continual :class:`InterstitialController` (``controller`` holds
        its keywords: cap, preemption, fault throttling) feeds
        ``cpus_per_job`` x ``runtime_1ghz`` jobs under the interstitial
        user and group until ``trace.duration`` (default trace: the
        context's own for the machine).

        :meth:`continual_result_for` caches its plain shapes through
        this method; drivers call it directly for their variant rows
        (DESIGN §9)."""
        machine = self.machine_for(machine_name)
        if trace is None:
            trace = self.trace_for(machine_name)
        project = InterstitialProject(
            n_jobs=1,  # placeholder; the controller feeds continually
            cpus_per_job=cpus_per_job,
            runtime_1ghz=runtime_1ghz,
            name=f"continual-{cpus_per_job}x{runtime_1ghz:.0f}",
            user=INTERSTITIAL_USER,
            group=INTERSTITIAL_USER,
        )
        source = InterstitialController(
            machine=machine, project=project, continual=True, **controller
        )
        result = run_with_controller(
            machine,
            trace.jobs,
            source,
            scheduler=scheduler,
            outages=outages,
            faults=faults,
            retry=retry,
            horizon=trace.duration,
            **self.engine_options(),
        )
        return result, source

    # ------------------------------------------------------------------
    # Generic memoization hooks
    # ------------------------------------------------------------------
    def run_cached(
        self, payload: Mapping[str, Any], compute: Callable[[], T]
    ) -> T:
        """Memoize an arbitrary deterministic computation under a
        content-addressed configuration payload.  The context's scale
        fields and :data:`RESULT_FORMAT` are mixed in automatically."""
        full = dict(payload)
        full.setdefault("scale", self.scale_payload())
        full.setdefault("results", RESULT_FORMAT)
        return self.store.get_or_compute(full, compute)
