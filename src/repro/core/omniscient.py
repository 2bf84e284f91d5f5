"""Omniscient interstitial packing (paper §4.1).

"Interstitial jobs are submitted with omniscience about when the native
jobs will be run and when they will finish.  This means the interstitial
project has no effect on the native jobs" — all native jobs run exactly
as they would alone.

We realize that definition *by construction*: first simulate the native
trace alone, freeze its busy profile, and greedily pack the project's
identical jobs into the remaining *headroom* step function, never
exceeding it.  A placement of ``k`` jobs at time ``t`` is legal iff the
headroom minus interstitial CPUs already in use stays at or above
``k * cpus_per_job`` over the whole window ``[t, t + runtime)``; by
induction over placement instants this guarantees total usage never
exceeds the machine (see ``tests/core/test_omniscient.py`` for the
machine-checked invariant).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.jobs import InterstitialProject
from repro.machines import Machine
from repro.sim.profile import StepFunction
from repro.sim.results import SimResult

#: Absolute tolerance for float headroom comparisons (CPU counts are
#: integers, so anything below half a CPU is noise).
_EPS = 1e-6


def add_step_functions(a: StepFunction, b: StepFunction) -> StepFunction:
    """Pointwise sum of two step functions."""
    times = np.union1d(a.times, b.times)
    if times.size == 0:
        return StepFunction.constant(a.base + b.base)
    values = a.sample(times) + b.sample(times)
    return StepFunction(times, values, base=a.base + b.base)


def headroom_profile(native_result: SimResult) -> StepFunction:
    """Free-CPU step function of a native-only run: machine size minus
    native busy CPUs minus outage-down CPUs."""
    total = float(native_result.machine.cpus)
    occupied = add_step_functions(
        native_result.busy_profile(), native_result.down_profile()
    )
    return occupied.negate_from(total)


@dataclass(frozen=True)
class OmniscientPacking:
    """Result of packing one project omnisciently.

    ``placements`` lists (start_time, job_count) batches; identical jobs
    in a batch share start and finish times.
    """

    project: InterstitialProject
    machine: Machine
    start_time: float
    placements: Tuple[Tuple[float, int], ...]
    finish_time: float

    @property
    def makespan(self) -> float:
        """Project makespan: last job finish minus project start."""
        return self.finish_time - self.start_time

    @property
    def n_jobs(self) -> int:
        """Total jobs placed (always the full project)."""
        return sum(count for _, count in self.placements)

    @property
    def runtime(self) -> float:
        """Per-job runtime on this machine."""
        return self.project.runtime_on(self.machine)

    def usage_profile(self) -> StepFunction:
        """Interstitial busy-CPU step function implied by the packing."""
        width = self.project.cpus_per_job
        r = self.runtime
        times: List[float] = []
        deltas: List[float] = []
        for start, count in self.placements:
            times.append(start)
            deltas.append(count * width)
            times.append(start + r)
            deltas.append(-count * width)
        return StepFunction.from_deltas(times, deltas, base=0.0)


def _pack(
    native_result: SimResult,
    width: float,
    runtime: float,
    start: float,
    n_jobs: float = math.inf,
    horizon: float = math.inf,
) -> Tuple[List[Tuple[float, int]], float]:
    """Greedy earliest-fit into the headroom of a native-only run.

    From ``start``, at every decision instant (headroom breakpoint or
    interstitial batch completion) before ``horizon``, start as many
    ``width``-CPU jobs of ``runtime`` seconds as the window minimum
    allows, until ``n_jobs`` are placed.  Returns the (start, count)
    placements and the count left unplaced (nonzero only when the
    horizon passed or the headroom stays flat with nothing running).
    At least one bound must be finite: past the end of the log every
    finish frees room for the next batch, so with neither the loop
    never ends.
    """
    headroom = headroom_profile(native_result)
    bp_times = headroom.times
    t = start
    in_use = 0.0
    finish_heap: List[Tuple[float, float]] = []  # (finish, cpus)
    placements: List[Tuple[float, int]] = []
    remaining = n_jobs
    while t < horizon:
        while finish_heap and finish_heap[0][0] <= t:
            in_use -= heapq.heappop(finish_heap)[1]
        spare = headroom.min_over(t, t + runtime) - in_use
        k = (
            int(math.floor((spare + _EPS) / width))
            if spare >= width - _EPS
            else 0
        )
        k = min(k, remaining)
        if k > 0:
            placements.append((t, k))
            remaining -= k
            in_use += k * width
            heapq.heappush(finish_heap, (t + runtime, k * width))
            if remaining == 0:
                break
        idx = int(np.searchsorted(bp_times, t, side="right"))
        next_bp = bp_times[idx] if idx < bp_times.size else math.inf
        next_fin = finish_heap[0][0] if finish_heap else math.inf
        t = min(next_bp, next_fin)
    return placements, remaining


def pack_continual(
    native_result: SimResult,
    cpus_per_job: int,
    runtime_s: float,
    horizon: float,
) -> Tuple[int, List[Tuple[float, int]]]:
    """Zero-impact harvest ceiling: how many (``cpus_per_job`` x
    ``runtime_s``) jobs fit into the native headroom with submissions
    allowed until ``horizon`` (finite: the feed is unbounded).

    This is the omniscient counterpart of the continual §4.3.2 runs —
    an upper bound on what the fallible Figure-1 controller can push
    through, used by the harvest-efficiency ablation.  Returns the job
    count and the (start, count) placements.
    """
    machine = native_result.machine
    if cpus_per_job > machine.cpus:
        raise ConfigurationError(
            f"jobs of {cpus_per_job} CPUs exceed {machine.name}"
        )
    if runtime_s <= 0 or not 0 < horizon < math.inf:
        raise ConfigurationError(
            "runtime_s must be positive and horizon positive and finite"
        )
    placements, _ = _pack(
        native_result, float(cpus_per_job), runtime_s, 0.0, horizon=horizon
    )
    return sum(count for _, count in placements), placements


def pack_project(
    native_result: SimResult,
    project: InterstitialProject,
    start_time: float = 0.0,
) -> OmniscientPacking:
    """Pack ``project`` into the headroom of a native-only run.

    Greedy earliest-fit: at every decision instant (headroom breakpoint
    or interstitial batch completion) start as many jobs as the window
    minimum allows.  Runs past the end of the native trace if needed —
    the machine is then empty and the tail drains at full width, exactly
    like a real project outliving the log.
    """
    machine = native_result.machine
    if project.cpus_per_job > machine.cpus:
        raise ConfigurationError(
            f"project jobs ({project.cpus_per_job} CPUs) exceed "
            f"{machine.name} ({machine.cpus} CPUs)"
        )
    if not 0.0 <= start_time < math.inf:
        raise ConfigurationError(
            f"start_time must be finite and >= 0: {start_time}"
        )

    r = project.runtime_on(machine)
    placements, remaining = _pack(
        native_result,
        float(project.cpus_per_job),
        r,
        start_time,
        n_jobs=project.n_jobs,
    )
    if remaining > 0:
        # Flat headroom forever and nothing running: the machine is in
        # steady state and we still cannot place — impossible given the
        # width check above, so this is a genuine bug.
        raise SimulationError("omniscient packing stalled with jobs remaining")
    return OmniscientPacking(
        project=project,
        machine=machine,
        start_time=start_time,
        placements=tuple(placements),
        finish_time=placements[-1][0] + r,
    )
