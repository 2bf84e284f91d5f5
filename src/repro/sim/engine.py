"""The discrete-event scheduling engine.

The engine is deliberately policy-free: native job selection lives in a
:class:`~repro.sched.base.Scheduler` and interstitial job injection in an
:class:`~repro.core.base.InterstitialSource`.  Per the paper's Figure 1,
the scheduling algorithm runs "every time the system checks for new
jobs, e.g., when a native job is submitted, when any job is finished, or
at given time intervals" — i.e. after every event batch and at optional
periodic wake-ups.  Each pass first lets the native policy start and
backfill everything it can, then offers the remaining capacity to the
interstitial source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultModel, RetryPolicy
from repro.jobs import Job, JobState, member_count
from repro.machines import Machine
from repro.obs import NULL_RECORDER, Counters, PhaseTimers, TraceRecord, TraceRecorder
from repro.sim.events import EventKind, EventQueue
from repro.sim.outages import OutageSchedule
from repro.sim.results import SimResult
from repro.sim.state import ClusterState

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.base import InterstitialSource
    from repro.sched.base import Scheduler


def weighted_index(rng: np.random.Generator, weights: List[int]) -> int:
    """Index into ``weights`` drawn with probability proportional to
    its weight.

    This is the sampling step of ``rng.choice(len(weights), p=p /
    p.sum())`` with ``p`` the weights as floats: the same cumulative
    sum, the same normalisation and one ``rng.random()`` draw, so it
    returns the same index and leaves ``rng`` in the same state,
    without ``choice``'s per-call validation of ``p``.
    """
    p = np.array(weights, dtype=float)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass(frozen=True)
class SimConfig:
    """Engine knobs.

    Parameters
    ----------
    horizon:
        Time after which the interstitial source is no longer consulted
        and which bounds the metrics window.  Native jobs and already
        started work always run to completion; the horizon only stops
        *new* interstitial submissions (how the continual experiments
        bound themselves to the trace length).
    wake_interval:
        Optional period for extra scheduling passes ("at given time
        intervals" in Figure 1).  Useful when the interstitial source
        should react to utilization thresholds between job events.
    until:
        Hard stop: events after this time are not processed and the
        result reports unfinished jobs.  Mostly for debugging.
    check_invariants:
        Validate cluster accounting (busy == sum of running widths, no
        double allocation, counters in range, monotone event times)
        after every event batch, raising :class:`SimulationError` with
        a diagnostic snapshot on violation.  There is deliberately no
        process-wide default: callers that want validation plumb the
        flag explicitly (the CLI threads it through
        :class:`~repro.experiments.context.RunContext`), keeping the
        engine free of global state.
    """

    horizon: Optional[float] = None
    wake_interval: Optional[float] = None
    until: Optional[float] = None
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.wake_interval is not None and self.wake_interval <= 0:
            raise ConfigurationError(
                f"wake_interval must be positive, got {self.wake_interval}"
            )


class Engine:
    """Replays a native trace through a scheduler on a machine.

    Parameters
    ----------
    machine:
        Machine model (CPU count and clock).
    scheduler:
        Native queueing policy (see :mod:`repro.sched`).
    trace:
        Native jobs to replay.  Jobs are mutated in place (state, start
        and finish times); pass copies if the trace is reused.
    interstitial:
        Optional interstitial job source (see :mod:`repro.core`).
    outages:
        Optional downtime schedule (drain semantics: running jobs
        survive).
    faults:
        Optional stochastic node-failure model (crash semantics: jobs
        on the failed CPUs are killed; see :mod:`repro.faults`).
    retry:
        Resubmission policy for fault-killed *native* jobs (defaults to
        ``RetryPolicy()`` when ``faults`` is given).  Interstitial jobs
        instead route through the source's ``on_preempted`` path.
    config:
        Engine options.
    recorder:
        Optional :class:`~repro.obs.TraceRecorder` receiving one
        structured record per engine event.  Defaults to the shared
        :data:`~repro.obs.NULL_RECORDER` (a single attribute check per
        emission site); recorders observe but never influence the
        simulation.
    timers:
        Optional :class:`~repro.obs.PhaseTimers` accumulating
        wall-clock spans of event dispatch, the scheduling pass and
        fault application (``repro profile``).
    """

    def __init__(
        self,
        machine: Machine,
        scheduler: "Scheduler",
        trace: Iterable[Job] = (),
        interstitial: Optional["InterstitialSource"] = None,
        outages: Optional[OutageSchedule] = None,
        faults: Optional[FaultModel] = None,
        retry: Optional[RetryPolicy] = None,
        config: Optional[SimConfig] = None,
        recorder: Optional[TraceRecorder] = None,
        timers: Optional[PhaseTimers] = None,
    ) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.interstitial = interstitial
        self.outages = outages or OutageSchedule()
        self.faults = faults
        self.retry = retry if retry is not None else (
            RetryPolicy() if faults is not None else None
        )
        self.config = config or SimConfig()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Hot-path gate: one attribute read decides whether records
        #: are constructed at all.
        self._rec = self.recorder.enabled
        self.timers = timers
        if timers is not None:
            self.scheduler.attach_timers(timers)
        self.counters = Counters()
        self.cluster = ClusterState(machine)
        self.events = EventQueue()
        self._finished: List[Job] = []
        self._killed: List[Job] = []
        self._dead_lettered: List[Job] = []
        self._trace: List[Job] = list(trace)
        #: Interstitial jobs are renumbered from here at offer time.
        #: Relying on the ids the source's constructor drew from the
        #: process-wide counter would make results depend on process
        #: history (and collide with unpickled traces in worker
        #: processes); renumbering pins ids — and therefore the
        #: id-ordered fault-victim and preemption draws — to the trace
        #: alone.  A cohort takes one consecutive id per member.
        self._next_interstitial_id = (
            max((job.job_id for job in self._trace), default=0) + 1
        )
        self._last_submit = 0.0
        #: job_id -> fault-kill count (retry accounting).
        self._attempts: Dict[int, int] = {}
        #: Fault-killed natives with a pending RESUBMIT event.
        self._awaiting_retry: Dict[int, Job] = {}
        #: job_id -> scheduled finish time of the *current* incarnation,
        #: used to discard stale FINISH events of killed-then-retried
        #: jobs.
        self._expected_finish: Dict[int, float] = {}
        self._fault_transitions: List[Tuple[float, int]] = []
        self._n_failures = 0
        #: Jobs started during the current scheduling pass (trace detail).
        self._pass_starts = 0
        self._victim_rng: Optional[np.random.Generator] = (
            faults.victim_rng() if faults is not None else None
        )
        self._validate()

    def _validate(self) -> None:
        for job in self._trace:
            if job.cpus > self.machine.cpus:
                raise ConfigurationError(
                    f"trace job {job.job_id} needs {job.cpus} CPUs but "
                    f"{self.machine.name} has {self.machine.cpus}"
                )
        if self.outages.max_down() > self.machine.cpus:
            raise ConfigurationError(
                "outage schedule takes down more CPUs than the machine has"
            )

    # ------------------------------------------------------------------
    def _record(
        self,
        time: float,
        kind: str,
        job: Optional[Job] = None,
        detail: Optional[int] = None,
    ) -> None:
        """Emit one trace record snapshotting queue/occupancy state.

        Callers gate on ``self._rec`` so a disabled recorder never even
        constructs the record.
        """
        cluster = self.cluster
        busy = cluster.busy_cpus
        self.recorder.record(
            TraceRecord(
                time=time,
                kind=kind,
                job_id=None if job is None else job.job_id,
                cpus=None if job is None else job.cpus,
                queue_depth=self.scheduler.queue_length,
                busy_cpus=busy,
                free_cpus=max(0, cluster.available_cpus - busy),
                detail=detail,
            )
        )

    def _record_members(
        self,
        time: float,
        kind: str,
        records: Iterable[Job],
        busy: int,
        sign: int,
        youngest_first: bool = False,
    ) -> None:
        """Emit one ``kind`` record per member of ``records``, written
        from the records without building member jobs.

        Records are allocated or released in one call, and each
        member's record shows the occupancy just after that member
        alone (``busy`` is the count before the call, ``sign`` +1 for
        starts and -1 for releases), as if the members had been handled
        one at a time.  Members go in id order, or highest id first
        with ``youngest_first`` (preemption's kill order).
        """
        cluster = self.cluster
        depth = self.scheduler.queue_length
        available = cluster.available_cpus
        record = self.recorder.record
        for job in records:
            cpus = job.cpus
            step = sign * cpus
            ids = range(job.job_id, job.job_id + job.count)
            for job_id in reversed(ids) if youngest_first else ids:
                busy += step
                record(
                    TraceRecord(
                        time=time,
                        kind=kind,
                        job_id=job_id,
                        cpus=cpus,
                        queue_depth=depth,
                        busy_cpus=busy,
                        free_cpus=max(0, available - busy),
                    )
                )

    def run(self) -> SimResult:
        """Run to completion and return the collected results."""
        for job in self._trace:
            self.events.push(job.submit_time, EventKind.SUBMIT, job)
            self._last_submit = max(self._last_submit, job.submit_time)
        for time, delta in self.outages.transitions():
            self.events.push(time, EventKind.OUTAGE, delta)
        if self.faults is not None:
            schedule = self.faults.sample(self.machine, self._fault_until())
            for time, delta in schedule.transitions():
                kind = EventKind.FAILURE if delta > 0 else EventKind.REPAIR
                self.events.push(time, kind, abs(delta))
                self._fault_transitions.append((time, delta))
        wake_until = self._wake_until()
        if self.config.wake_interval is not None and wake_until > 0:
            self.events.push(self.config.wake_interval, EventKind.WAKE, None)
        check = self.config.check_invariants
        until = self.config.until
        events = self.events
        counters = self.counters
        timers = self.timers
        if self._rec:
            self.recorder.record(
                TraceRecord(
                    time=0.0,
                    kind="run_start",
                    cpus=self.machine.cpus,
                    free_cpus=self.machine.cpus,
                    detail=len(self._trace),
                )
            )

        t = 0.0
        while True:
            next_time = events.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                t = until
                break
            if timers is not None:
                timers.start("event_queue_ops")
            batch = events.pop_batch()
            if timers is not None:
                timers.stop("event_queue_ops")
            if batch[0].time < t:
                raise SimulationError(
                    f"time went backwards: {batch[0].time} < {t}"
                )
            t = batch[0].time
            counters.events += len(batch)
            if timers is not None:
                timers.start("event_dispatch")
            for event in batch:
                self._handle(event, t, wake_until)
            if timers is not None:
                timers.stop("event_dispatch")
                timers.start("scheduling_pass")
            self._scheduling_pass(t)
            if timers is not None:
                timers.stop("scheduling_pass")
            if check:
                self._check_invariants(t)
                counters.invariant_checks += 1
            if not events and self.scheduler.queue_length > 0:
                # Stall recovery: jobs remain queued (e.g. held by a
                # time-of-day policy) but no event will ever re-run the
                # scheduler.  Wake periodically until they drain —
                # progress is guaranteed because queued jobs fit the
                # machine and every hold (time-of-day windows, outages)
                # eventually opens.
                events.push(t + self._stall_interval(), EventKind.WAKE, None)
        if self._rec:
            self._record(t, "run_end", detail=self.counters.finishes)
        return self._collect(t)

    def _stall_interval(self) -> float:
        """Re-check period while the queue is stalled with no events."""
        if self.config.wake_interval is not None:
            return self.config.wake_interval
        return 900.0

    # ------------------------------------------------------------------
    def _wake_until(self) -> float:
        """Last time periodic wake events should fire."""
        if self.config.horizon is not None:
            return self.config.horizon
        return self._last_submit

    def _fault_until(self) -> float:
        """End of the fault-sampling window.

        Failures are injected while the workload is active: up to the
        hard stop, the horizon, or the last native submission —
        whichever is latest among those configured.  Work running past
        that point winds down crash-free (an unbounded tail cannot be
        pre-sampled).
        """
        candidates = [self._last_submit]
        if self.config.horizon is not None:
            candidates.append(self.config.horizon)
        if self.config.until is not None:
            candidates.append(self.config.until)
        return max(candidates)

    def _handle(self, event, t: float, wake_until: float) -> None:
        if event.kind is EventKind.SUBMIT:
            job: Job = event.payload
            job.state = JobState.QUEUED
            self.scheduler.submit(job, t)
            self.counters.submits += 1
            if self._rec:
                self._record(t, "submit", job)
        elif event.kind is EventKind.FINISH:
            # One entry carries the records of one start that share
            # this finish time, and the member count they had then.
            # The loop counted the entry once; ``Counters.events``
            # counts each member.
            members, records = event.payload
            self.counters.events += members - 1
            expected = self._expected_finish
            # Records that were preempted or fault-killed (CPUs already
            # free), resized (a newer entry holds their finish), or that
            # belong to a killed, retried incarnation are stale here.
            jobs = [
                job
                for job in records
                if job.state is JobState.RUNNING
                and expected.get(job.job_id) == t
            ]
            if not jobs:
                return
            busy = self.cluster.busy_cpus
            self.cluster.finish(jobs)
            finished = 0
            for job in jobs:
                del expected[job.job_id]
                job.finish_time = t
                job.state = JobState.FINISHED
                finished += job.count
            self.scheduler.on_finish(jobs, t)
            self._finished.extend(jobs)
            self.counters.finishes += finished
            if self._rec:
                self._record_members(t, "finish", jobs, busy, -1)
        elif event.kind is EventKind.OUTAGE:
            self.cluster.apply_outage(int(event.payload))
            if self.cluster.down_cpus < 0:
                raise SimulationError("negative down CPU count")
            self.counters.outages += 1
            if self._rec:
                self._record(t, "outage", detail=int(event.payload))
        elif event.kind is EventKind.FAILURE:
            if self.timers is not None:
                self.timers.start("fault_apply")
            self._apply_failure(int(event.payload), t)
            if self.timers is not None:
                self.timers.stop("fault_apply")
        elif event.kind is EventKind.REPAIR:
            self.cluster.apply_failed(-int(event.payload))
            if self.cluster.failed_cpus < 0:
                raise SimulationError("negative failed CPU count")
            self.counters.repairs += 1
            if self._rec:
                self._record(t, "repair", detail=int(event.payload))
        elif event.kind is EventKind.RESUBMIT:
            job = event.payload
            self._awaiting_retry.pop(job.job_id, None)
            job.state = JobState.QUEUED
            job.start_time = None
            job.finish_time = None
            self.scheduler.submit(job, t)
            self.counters.requeues += 1
            if self._rec:
                self._record(t, "requeue", job)
        elif event.kind is EventKind.WAKE:
            # Periodic wake-ups re-arm themselves within their window;
            # stall-recovery wakes (pushed by the main loop) do not.
            self.counters.wakes += 1
            interval = self.config.wake_interval
            if interval is not None and t + interval <= wake_until:
                self.events.push(t + interval, EventKind.WAKE, None)
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"unknown event kind {event.kind!r}")

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _apply_failure(self, cpus: int, t: float) -> None:
        """Crash ``cpus`` processors: remove them from service and kill
        the jobs running on them.

        Placement is not tracked, so which running work the failed CPUs
        were hosting is drawn from the model's seeded victim stream: the
        number of *busy* CPUs among the failed ones is hypergeometric in
        (busy, idle) in-service counts, and each busy hit belongs to a
        running job with probability proportional to its width.  A job
        is killed whole — losing one CPU of a wide job kills the job —
        so a single narrow failure can release more capacity than it
        took down.
        """
        in_service = self.cluster.available_cpus
        self.cluster.apply_failed(cpus)
        self._n_failures += 1
        self.counters.failures += 1
        if self._rec:
            self._record(t, "failure", detail=cpus)
        if self._victim_rng is None:
            raise SimulationError("FAILURE event without a fault model")
        busy_eff = min(self.cluster.busy_cpus, in_service)
        idle_eff = in_service - busy_eff
        sample = min(cpus, in_service)
        if sample <= 0 or busy_eff <= 0:
            hits = 0
        else:
            hits = int(
                self._victim_rng.hypergeometric(busy_eff, idle_eff, sample)
            )
        victims = self._draw_victims(hits) if hits > 0 else []
        self._kill(victims, t, "kill")
        self.counters.fault_kills += len(victims)
        interstitial_victims: List[Job] = []
        for victim in victims:
            if victim.is_interstitial:
                self._killed.append(victim)
                interstitial_victims.append(victim)
            else:
                self._requeue_native(victim, t)
        if self.interstitial is not None:
            if interstitial_victims:
                self.interstitial.on_preempted(interstitial_victims, t)
            self.interstitial.on_fault(t, cpus)

    def _draw_victims(self, hits: int) -> List[Job]:
        """Draw running members until ``hits`` busy CPUs are covered;
        returns one record of one per victim, in draw order.

        The seeded draw sees one width per running *member* in job-id
        order (a cohort's members have consecutive ids), exactly the
        array per-job tracking gave; deleting each victim in place
        preserves that order.  A victim inside a cohort is carved out
        of it with :meth:`_detach`.
        """
        running = self.cluster.running  # keyed by (first) job id
        records = [running[job_id] for job_id in sorted(running)]
        widths = [job.cpus for job in records]
        members: Optional[List[Tuple[int, int]]] = None
        if sum(widths) != self.cluster.busy_cpus:
            # Some record counts several members: (record, offset) each.
            members = [
                (r, o) for r, job in enumerate(records)
                for o in range(job.count)
            ]
            widths = [records[r].cpus for r, _o in members]
        picks: list = []
        rng = self._victim_rng
        while hits > 0 and widths:
            index = weighted_index(rng, widths)
            hits -= min(hits, widths.pop(index))
            picks.append(
                records.pop(index) if members is None
                else members.pop(index)
            )
        if members is None:
            return picks
        carved: Dict[Tuple[int, int], Job] = {}
        for r in sorted({r for r, _o in picks}):
            record = records[r]
            offsets = sorted((o for rr, o in picks if rr == r), reverse=True)
            # Carve from the top so lower offsets keep their meaning.
            for o in offsets:
                if o + 1 < record.count:
                    self._detach(record, o + 1)
                carved[r, o] = self._detach(record, o) if o else record
        return [carved[pick] for pick in picks]

    def _detach(self, record: Job, at: int) -> Job:
        """Split running cohort ``record`` at member ``at`` and track
        the upper piece as a running record of its own, finishing in
        ``record``'s FINISH entry right after it."""
        piece = record.split(at)  # type: ignore[attr-defined]
        self.cluster.split(record, piece)
        self._expected_finish[piece.job_id] = (
            self._expected_finish[record.job_id]
        )
        run = record.run  # type: ignore[attr-defined]
        run.insert(
            next(i for i, job in enumerate(run) if job is record) + 1, piece
        )
        piece.run = run
        return piece

    def _kill(
        self, jobs: List[Job], t: float, kind: str,
        youngest_first: bool = False,
    ) -> None:
        """Release killed records ``jobs`` in one
        :meth:`ClusterState.finish` call, mark each one killed at ``t``
        and emit a ``kind`` record per member.  Their pending FINISH
        entries go stale."""
        if not jobs:
            return
        busy = self.cluster.busy_cpus
        self.cluster.finish(jobs)
        for job in jobs:
            self._expected_finish.pop(job.job_id, None)
            job.state = JobState.KILLED
            job.finish_time = t
        if self._rec:
            self._record_members(t, kind, jobs, busy, -1, youngest_first)

    def _requeue_native(self, job: Job, t: float) -> None:
        """Record the wasted run fragment of a fault-killed native job
        and resubmit it per the retry policy (or dead-letter it)."""
        fragment = job.copy_unscheduled()
        fragment.state = JobState.KILLED
        fragment.start_time = job.start_time
        fragment.finish_time = t
        self._killed.append(fragment)
        attempts = self._attempts.get(job.job_id, 0) + 1
        self._attempts[job.job_id] = attempts
        if self.retry is None or not self.retry.allows(attempts):
            self._dead_lettered.append(job)
            return
        self._awaiting_retry[job.job_id] = job
        self.events.push(
            t + self.retry.delay(attempts), EventKind.RESUBMIT, job
        )

    def _check_invariants(self, t: float) -> None:
        """Post-batch consistency check (``check_invariants`` mode)."""
        self.cluster.check_invariants(t)
        next_time = self.events.peek_time()
        if next_time is not None and next_time < t:
            raise SimulationError(
                f"pending event at {next_time} is earlier than the "
                f"current time {t}"
            )

    def _scheduling_pass(self, t: float) -> None:
        """One pass: native policy to quiescence, then (optionally)
        shrink/preemption of interstitial jobs for a blocked native head
        job, then interstitial feeding and elastic grow-back."""
        self.counters.scheduling_passes += 1
        self._pass_starts = 0
        try:
            self._start(self.scheduler.schedule(t, self.cluster), t)
            source = self.interstitial
            if source is None:
                return
            elastic = source.elastic
            if (
                (source.preemptible or elastic)
                and self.scheduler.queue_length > 0
            ):
                # Elastic sources repeat the carve-and-seat round until
                # no further native can be seated (each round shrinks
                # exactly the head's deficit, so arrivals behind it need
                # their own round); the kill-only path keeps its
                # historical single round.
                while self._preempt_for_head(t):
                    started = self.scheduler.schedule(t, self.cluster)
                    self._start(started, t)
                    if not elastic or not started:
                        break
                    if self.scheduler.queue_length == 0:
                        break
            horizon = self.config.horizon
            if horizon is not None and t >= horizon:
                return
            if t < source.throttled_until:
                self.counters.fault_throttle_passes += 1
                if self._rec:
                    self._record(t, "fault_throttle")
            jobs = source.offer(t, self.cluster, self.scheduler)
            next_id = self._next_interstitial_id
            for job in jobs:
                job.job_id = next_id
                next_id += job.count
                if job.min_cpus is not None:
                    self.counters.molded_starts += 1
            self._next_interstitial_id = next_id
            self._start(jobs, t)
            if elastic:
                for job, width in source.grow_requests(
                    t, self.cluster, self.scheduler
                ):
                    self._resize(job, width, t, grow=True)
        finally:
            if self._rec:
                self._record(t, "sched_pass", detail=self._pass_starts)

    def _preempt_for_head(self, t: float) -> bool:
        """Carve just enough CPUs out of running interstitial jobs
        (youngest first) so the top-priority native job fits; returns
        True when anything was shrunk or killed.

        Elastic sources release CPUs the cheap way first: malleable
        jobs *shrink* toward their ``min_cpus`` floor with their
        remaining runtime re-scaled, so no work is lost (DESIGN §16).
        Any remaining deficit falls through to the historical kill path
        (preemptible sources only), where killed work is wasted — jobs
        are non-preemptive with no checkpoint/restart — and the source
        is told to redo it.
        """
        source = self.interstitial
        if source is None:
            raise SimulationError(
                "preemption pass without an interstitial source"
            )
        head = self.scheduler.head_job(t)
        if head is None:
            return False
        deficit = head.cpus - self.cluster.free_cpus
        if deficit <= 0:
            return False
        # The feasibility sums are order-free integer sums, so they run
        # over the unsorted records; most calls give up right after.
        victims = [
            job for job in self.cluster.running.values() if job.is_interstitial
        ]
        shrinkable = 0
        if source.elastic:
            shrinkable = sum(
                job.cpus - job.min_cpus for job in victims if job.malleable
            )
        killable = (
            sum(job.cpus * job.count for job in victims)
            if source.preemptible
            else 0
        )
        if shrinkable + killable < deficit:
            # Even shrinking every malleable job to its floor and
            # killing everything killable cannot seat the head job
            # (natives hold the rest) — carving now would only cost
            # interstitial throughput without helping, so wait for
            # native releases instead.
            return False
        victims.sort(key=lambda job: (-job.start_time, -job.job_id))
        freed = 0
        if shrinkable > 0:
            for job in victims:
                if freed >= deficit:
                    break
                if not job.malleable:
                    continue
                give = min(job.cpus - job.min_cpus, deficit - freed)
                if give <= 0:
                    continue
                old_cpus = job.cpus
                self._resize(job, job.cpus - give, t, grow=False)
                source.on_shrunk(job, old_cpus, t)
                freed += give
        if freed >= deficit:
            return True
        killed: List[Job] = []
        for job in victims:
            if freed >= deficit:
                break
            if job.state is not JobState.RUNNING:
                continue  # defensive; shrinks never change state
            # A cohort's youngest members are the top of its id range;
            # take the fewest that cover what is still missing.
            take = min(job.count, -(-(deficit - freed) // job.cpus))
            if take < job.count:
                job = self._detach(job, job.count - take)
            killed.append(job)
            freed += job.cpus * take
        self._kill(killed, t, "preempt", youngest_first=True)
        self.counters.preempt_kills += member_count(killed)
        self._killed.extend(killed)
        source.on_preempted(killed, t)
        return True

    def _resize(self, job: Job, new_cpus: int, t: float, grow: bool) -> None:
        """Change a running malleable job's width to ``new_cpus``,
        conserving CPU-seconds of remaining work.

        The remaining work at ``t`` is ``old_cpus * (finish - t)``
        CPU-seconds; at the new width it takes ``remaining * old/new``
        seconds, so the job's runtime/estimate become the elapsed time
        plus the re-scaled remainder, the cluster re-accounts the width
        (bumping its epoch, which invalidates scheduler pass-skip
        caches), and a fresh FINISH event replaces the old one — the
        stale event is discarded by the ``_expected_finish`` check,
        exactly like a killed-then-retried incarnation's.
        """
        old_cpus = job.cpus
        if new_cpus == old_cpus:
            return
        if job.min_cpus is None or job.max_cpus is None or not (
            job.min_cpus <= new_cpus <= job.max_cpus
        ):
            raise SimulationError(
                f"resize of job {job.job_id} to {new_cpus} CPUs outside "
                f"its elastic bounds [{job.min_cpus}, {job.max_cpus}]"
            )
        expected = self._expected_finish.get(job.job_id)
        if expected is None or job.state is not JobState.RUNNING:
            raise SimulationError(
                f"resize of job {job.job_id} which is not running"
            )
        started = job.start_time if job.start_time is not None else t
        remaining = max(0.0, expected - t)
        new_remaining = remaining * old_cpus / new_cpus
        if job.width_history is None:
            job.width_history = [(started, old_cpus)]
        job.width_history.append((t, new_cpus))
        job.cpus = new_cpus
        job.runtime = (t - started) + new_remaining
        job.estimate = job.runtime
        self.cluster.resize(job, old_cpus)
        event = self.events.push(
            t + new_remaining, EventKind.FINISH, (1, [job])
        )
        self._expected_finish[job.job_id] = event.time
        if grow:
            self.counters.grows += 1
        else:
            self.counters.preempt_shrinks += 1
        if self._rec:
            self._record(t, "grow" if grow else "shrink", job,
                         detail=old_cpus)

    def _start(self, jobs: List[Job], t: float) -> None:
        """Start the records one scheduling step (a native ``schedule``
        call or one interstitial ``offer``) hands over.

        The cluster allocates them in one call, stamping each record's
        ``start_time``, and each run of consecutive records that share
        a finish time gets one FINISH entry holding the records and
        their member count.  Per-member entries would have been pushed
        back to back with contiguous sequence numbers, so the single
        entry holds their place in the ``(time, kind, seq)`` order
        (DESIGN §13).
        """
        if not jobs:
            return
        busy = self.cluster.busy_cpus
        self.cluster.start(jobs, t)
        expected = self._expected_finish
        push = self.events.push
        running = JobState.RUNNING
        run: List[Job] = []
        members = started = 0
        end = None
        for job in jobs:
            job.state = running
            finish = t + job.runtime
            expected[job.job_id] = finish
            if finish != end:
                if run:
                    push(end, EventKind.FINISH, (members, run))
                    started += members
                run = []
                members = 0
                end = finish
            run.append(job)
            if job.count > 1:
                job.run = run  # type: ignore[attr-defined]
            members += job.count
        push(end, EventKind.FINISH, (members, run))
        started += members
        self.counters.starts += started
        self._pass_starts += started
        if self._rec:
            self._record_members(t, "start", jobs, busy, 1)

    def _collect(self, t: float) -> SimResult:
        unfinished: List[Job] = list(self.cluster.running.values())
        unfinished.extend(self.scheduler.pending_jobs())
        unfinished.extend(self._awaiting_retry.values())
        # Trace jobs whose SUBMIT event never fired (an ``until`` stop
        # before their submit time) are unfinished work too; without
        # them a truncated run silently under-reports its backlog.
        unfinished.extend(
            job for job in self._trace if job.state is JobState.CREATED
        )
        self.counters.backfill_starts = self.scheduler.backfill_starts
        self.counters.pass_skips = self.scheduler.n_pass_skips
        self.counters.priority_rekeys = self.scheduler.n_priority_rekeys
        self.counters.release_rebuilds = self.scheduler.n_release_rebuilds
        return SimResult(
            machine=self.machine,
            finished_records=self._finished,
            unfinished_records=unfinished,
            killed_records=self._killed,
            end_time=t,
            horizon=self.config.horizon,
            outages=self.outages,
            attempts=dict(self._attempts),
            dead_lettered=self._dead_lettered,
            fault_transitions=tuple(self._fault_transitions),
            n_failures=self._n_failures,
            counters=self.counters,
        )
