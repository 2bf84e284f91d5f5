"""Simulation result container.

The engine collects raw outcomes as *records*: a job is a record of
one, and a :class:`~repro.jobs.Cohort` carries ``count`` identical
interstitial members.  :class:`SimResult` keeps the records and gives
member jobs on demand, together with lazily-built busy-CPU step
functions, so the metrics layer (:mod:`repro.metrics`) can compute
utilizations, wait statistics and makespans without re-running
anything.  Counts and occupancy weigh each record by its members and
never build them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.jobs import Job, JobKind, expand, member_count
from repro.machines import Machine
from repro.obs import Counters
from repro.sim.outages import OutageSchedule
from repro.sim.profile import StepFunction


@dataclass
class SimResult:
    """Everything a simulation run produced.

    Attributes
    ----------
    machine:
        The simulated machine.
    finished_records:
        Records that ran to completion (``start_time``/``finish_time``
        set), in finish order; :attr:`finished` lists their members.
    unfinished_records:
        Records still running or queued when the run was truncated by
        ``until`` (empty for full runs); :attr:`unfinished` lists their
        members.
    killed_records:
        Records (or run fragments) whose work was wasted: interstitial
        members preempted for native work or killed by node failures,
        and the partial runs of fault-killed natives awaiting retry.
        Their partial occupancy counts as busy time; :attr:`killed`
        lists their members.
    end_time:
        Time of the last processed event.
    horizon:
        Metrics window end: the configured horizon if one was set,
        otherwise ``end_time``.  Utilization averages use ``[0, horizon]``.
    outages:
        The outage schedule that was in force.
    attempts:
        Per-job fault-retry counters (job_id -> times the job was
        killed by a node failure); only jobs hit at least once appear.
    dead_lettered:
        Native jobs abandoned after exhausting the
        :class:`~repro.faults.RetryPolicy` attempt budget.
    fault_transitions:
        (time, cpu-delta) pairs of the compiled fault schedule, merged
        into :meth:`down_profile` alongside the outage transitions.
    n_failures:
        Number of FAILURE events processed.
    counters:
        The engine's :class:`~repro.obs.Counters` registry for this
        run (events handled, scheduling passes, preempt kills and
        elastic shrinks/grows, backfill
        starts, invariant checks, ...); always populated — counting is
        cheap enough to leave on.
    """

    machine: Machine
    finished_records: List[Job] = field(default_factory=list)
    unfinished_records: List[Job] = field(default_factory=list)
    killed_records: List[Job] = field(default_factory=list)
    end_time: float = 0.0
    horizon: Optional[float] = None
    outages: OutageSchedule = field(default_factory=OutageSchedule)
    attempts: Dict[int, int] = field(default_factory=dict)
    dead_lettered: List[Job] = field(default_factory=list)
    fault_transitions: Sequence[Tuple[float, int]] = ()
    n_failures: int = 0
    counters: Counters = field(default_factory=Counters)

    # ------------------------------------------------------------------
    # Job views (members are built on each call)
    # ------------------------------------------------------------------
    @property
    def finished(self) -> List[Job]:
        """Members of :attr:`finished_records`."""
        return expand(self.finished_records)

    @property
    def unfinished(self) -> List[Job]:
        """Members of :attr:`unfinished_records`."""
        return expand(self.unfinished_records)

    @property
    def killed(self) -> List[Job]:
        """Members of :attr:`killed_records`."""
        return expand(self.killed_records)

    def records(self, kind: Optional[JobKind] = None) -> List[Job]:
        """Finished records, optionally filtered by kind."""
        if kind is None:
            return list(self.finished_records)
        return [j for j in self.finished_records if j.kind is kind]

    def jobs(self, kind: Optional[JobKind] = None) -> List[Job]:
        """Finished jobs (members), optionally filtered by kind."""
        return expand(self.records(kind))

    def count(self, kind: Optional[JobKind] = None) -> int:
        """Number of finished jobs (members) of ``kind``."""
        return member_count(self.records(kind))

    def killed_count(self, kind: Optional[JobKind] = None) -> int:
        """Number of killed jobs (members) of ``kind``."""
        return member_count(
            j for j in self.killed_records if kind is None or j.kind is kind
        )

    @property
    def native_jobs(self) -> List[Job]:
        """Finished native jobs."""
        return self.jobs(JobKind.NATIVE)

    @property
    def interstitial_jobs(self) -> List[Job]:
        """Finished interstitial jobs."""
        return self.jobs(JobKind.INTERSTITIAL)

    @property
    def metrics_end(self) -> float:
        """End of the metrics window (horizon or last event time)."""
        return self.horizon if self.horizon is not None else self.end_time

    # ------------------------------------------------------------------
    # Occupancy profiles
    # ------------------------------------------------------------------
    def busy_profile(self, kind: Optional[JobKind] = None) -> StepFunction:
        """Busy-CPU step function over time for finished jobs of ``kind``
        (all kinds when None).  Jobs truncated by an early stop contribute
        up to ``end_time``.

        Elastic jobs that resized while running (``width_history`` set)
        contribute their per-segment widths rather than a constant
        ``cpus``, so utilization reflects the CPUs actually held over
        time.  A cohort steps by its members' summed width: deltas are
        integer-valued, so the summed steps are exactly the per-member
        ones.
        """
        times: List[float] = []
        deltas: List[float] = []

        def add(job: Job, end: float) -> None:
            history = job.width_history
            if history:
                prev = 0
                for seg_start, seg_width in history:
                    times.append(seg_start)
                    deltas.append(seg_width - prev)
                    prev = seg_width
                times.append(end)
                deltas.append(-prev)
            else:
                width = job.cpus * job.count
                times.append(job.start_time)  # type: ignore[arg-type]
                deltas.append(width)
                times.append(end)
                deltas.append(-width)

        for job in self.finished_records + self.killed_records:
            if kind is not None and job.kind is not kind:
                continue
            add(job, job.finish_time)  # type: ignore[arg-type]
        for job in self.unfinished_records:
            if job.start_time is None:
                continue
            if kind is not None and job.kind is not kind:
                continue
            add(job, self.end_time)
        return StepFunction.from_deltas(times, deltas, base=0.0)

    def down_profile(self) -> StepFunction:
        """Down-CPU step function from the outage schedule plus any
        fault-injected crash windows."""
        transitions = list(self.outages.transitions())
        transitions.extend(self.fault_transitions)
        transitions.sort()
        return StepFunction.from_deltas(
            [t for t, _ in transitions], [d for _, d in transitions], base=0.0
        )

    # ------------------------------------------------------------------
    # Headline numbers (thin wrappers; richer stats in repro.metrics)
    # ------------------------------------------------------------------
    def utilization(
        self,
        kind: Optional[JobKind] = None,
        t0: float = 0.0,
        t1: Optional[float] = None,
    ) -> float:
        """Average utilization (busy CPU-time / machine CPU-time) over
        ``[t0, t1]``; the denominator includes outages, matching the
        paper's "including outages" convention."""
        end = t1 if t1 is not None else self.metrics_end
        if end <= t0:
            raise ValueError(f"empty utilization window [{t0}, {end}]")
        busy = self.busy_profile(kind).integrate(t0, end)
        return busy / (self.machine.cpus * (end - t0))

    @property
    def overall_utilization(self) -> float:
        """Average utilization of all work over the metrics window."""
        return self.utilization()

    @property
    def native_utilization(self) -> float:
        """Average utilization of native work over the metrics window."""
        return self.utilization(JobKind.NATIVE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimResult({self.machine.name}: {self.count()} finished, "
            f"{member_count(self.unfinished_records)} unfinished, "
            f"end={self.end_time:.0f}s)"
        )
