"""The Figure-1 interstitial submission algorithm.

Pseudo-code from the paper::

    if( Queue( firstJob ).canRun() ) { submit( firstJob ); }
    else { backfill( nativeJobs ); }
    nInterstitialJobs = Floor( nodesAvailable / interstitialJobSize );
    if( jobsInQueue == 0 ) {
        submit( nInterstitialJobs );
    } else if( backFillWallTime > interstitialRuntime ) {
        /* backfillWallTime is when the first job in the queue can run
           based on the expected finishing time of jobs currently
           running */
        submit( nInterstitialJobs );
    }

The native half (first two lines) is the engine's native scheduling
pass; this controller implements the interstitial half.  It is
*fallible* exactly the way the paper's realistic experiments are: the
``backFillWallTime`` test uses user runtime estimates, so interstitial
jobs can poach CPUs a native job would have used had its predecessors
finished as early as they actually did.

The controller also implements the two §4.3.2 variants:

* **continual** feeding (``continual=True``): an unbounded stream, cut
  off by the engine's horizon;
* **limited** feeding (``max_utilization``): submit only while the
  machine utilization *including the new interstitial jobs* stays below
  the cap — the §4.3.2.2 "Limiting Interstitial Jobs" policy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.core.base import InterstitialSource
from repro.errors import ConfigurationError
from repro.jobs import Cohort, InterstitialProject, Job, JobKind, Offer
from repro.machines import Machine
from repro.sim.state import ClusterState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.base import Scheduler


@dataclass(frozen=True)
class ControllerDecision:
    """One Figure-1 decision point (recorded when ``record_decisions``).

    ``reason`` is one of ``no_room`` (no hole wide enough),
    ``head_imminent`` (the backfillWallTime gate blocked submission),
    ``cap_blocked`` (the §4.3.2.2 utilization cap blocked it),
    ``fault_throttled`` (recent node failures crossed the graceful-
    degradation threshold) or ``submitted`` (``n_submitted`` jobs were
    handed to the engine).
    """

    time: float
    free_cpus: int
    queue_length: int
    n_submitted: int
    reason: str


class InterstitialController(InterstitialSource):
    """Submits jobs of one interstitial project per the Figure-1 rule.

    Parameters
    ----------
    machine:
        Machine the jobs will run on (fixes the per-job runtime via the
        project's 1 GHz normalization).
    project:
        The interstitial project specification (CPUs/job, runtime).
    n_jobs:
        Total jobs to run; ``None`` reads the count from the project;
        ``math.inf`` (or passing ``continual=True``) feeds continually.
    continual:
        Convenience flag for the unbounded §4.3.2 mode.
    max_utilization:
        Optional cap: never let instantaneous machine utilization
        (busy / total CPUs, interstitial included) exceed this value at
        submission time (§4.3.2.2).
    start_time:
        The controller stays dormant before this time — used to drop a
        project into the job stream "at a random time" (§3).
    preemptible:
        Ablation mode: allow the engine to kill running interstitial
        jobs when a native job is blocked.  Killed jobs are re-credited
        to the remaining count (their work must be redone) and tracked
        in :attr:`n_preempted`.
    checkpointing:
        Ablation refinement of ``preemptible``: killed jobs checkpoint
        their progress, so only their *remaining* runtime is
        resubmitted instead of the whole job.  The paper's baseline has
        no checkpoint/restart — that absence is exactly what creates
        "breakage in time" (§4.2) — so this mode measures what
        checkpointing would recover.
    throttle_after_failures:
        Graceful degradation under fault injection: stop submitting
        when at least this many node failures were observed within
        ``throttle_window`` seconds, and resume once
        ``throttle_quiet_period`` seconds pass without a failure.
        ``None`` (default) disables throttling.  Blocked decision
        points are recorded with reason ``fault_throttled``.
    throttle_window:
        Width of the recent-failure observation window, in seconds.
    throttle_quiet_period:
        Failure-free time required before submission resumes, in
        seconds.
    """

    #: Shortest restart fragment worth resubmitting (seconds); smaller
    #: remainders are treated as completed work.
    MIN_RESTART_RUNTIME = 1.0

    def __init__(
        self,
        machine: Machine,
        project: InterstitialProject,
        n_jobs: Optional[int] = None,
        continual: bool = False,
        max_utilization: Optional[float] = None,
        start_time: float = 0.0,
        preemptible: bool = False,
        checkpointing: bool = False,
        record_decisions: bool = False,
        throttle_after_failures: Optional[int] = None,
        throttle_window: float = 3600.0,
        throttle_quiet_period: float = 3600.0,
    ) -> None:
        if max_utilization is not None and not (0.0 < max_utilization <= 1.0):
            raise ConfigurationError(
                f"max_utilization must be in (0, 1], got {max_utilization}"
            )
        if throttle_after_failures is not None and throttle_after_failures < 1:
            raise ConfigurationError(
                f"throttle_after_failures must be >= 1, "
                f"got {throttle_after_failures}"
            )
        if throttle_window <= 0 or throttle_quiet_period <= 0:
            raise ConfigurationError(
                "throttle_window and throttle_quiet_period must be positive"
            )
        if start_time < 0.0:
            raise ConfigurationError(
                f"start_time must be >= 0, got {start_time}"
            )
        # Widths are checked where the spec first meets a machine, so a
        # too-wide project (nominal or elastic max) fails here with a
        # clear error instead of deep inside the engine.  ``make_job``
        # checks them while building the one template every offer's
        # cohort copies; the template is never started or mutated.
        self._template = project.make_job(machine)
        self.machine = machine
        self.project = project
        self.runtime = project.runtime_on(machine)
        self.max_utilization = max_utilization
        self.start_time = start_time
        if continual:
            self._remaining: float = math.inf
        else:
            self._remaining = float(n_jobs if n_jobs is not None
                                    else project.n_jobs)
        if self._remaining <= 0:
            raise ConfigurationError("controller needs at least one job")
        if checkpointing and not preemptible:
            raise ConfigurationError(
                "checkpointing only applies to preemptible controllers"
            )
        #: Members handed to the engine so far.
        self.n_submitted = 0
        self._preemptible = preemptible
        self._checkpointing = checkpointing
        self.n_preempted = 0
        #: Remaining runtimes (seconds) of checkpointed fragments
        #: awaiting resubmission, drained (FIFO) ahead of fresh jobs.
        self._restart_queue: Deque[float] = deque()
        #: CPU-seconds of killed work preserved by checkpointing.
        self.work_preserved_cpu_s = 0.0
        self.throttle_after_failures = throttle_after_failures
        self.throttle_window = throttle_window
        self.throttle_quiet_period = throttle_quiet_period
        #: Times of recently observed node failures (for throttling).
        self._recent_faults: Deque[float] = deque()
        #: Submission is suspended until this time (graceful
        #: degradation); -inf when not throttled.
        self._throttled_until = -math.inf
        #: Node failures observed via :meth:`on_fault`.
        self.n_faults_seen = 0
        #: Decision trace (None unless ``record_decisions``); continual
        #: runs make hundreds of thousands of decisions, so this is
        #: opt-in.
        self.decisions: Optional[List[ControllerDecision]] = (
            [] if record_decisions else None
        )

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._remaining <= 0 and not self._restart_queue

    @property
    def preemptible(self) -> bool:
        return self._preemptible

    def on_preempted(self, jobs: List[Job], t: float) -> None:
        """Account for killed records (a cohort counts its members).

        Without checkpointing the whole job must rerun (full
        re-credit).  With checkpointing only the unfinished remainder
        is queued for restart; completed work is preserved.
        """
        killed = sum(job.count for job in jobs)
        self.n_preempted += killed
        if not self._checkpointing:
            if math.isfinite(self._remaining):
                self._remaining += killed
            return
        for job in jobs:
            killed_at = job.finish_time if job.finish_time is not None else t
            started_at = (
                job.start_time if job.start_time is not None else killed_at
            )
            elapsed = max(0.0, killed_at - started_at)
            remainder = job.runtime - elapsed
            for _ in range(job.count):
                self.work_preserved_cpu_s += job.cpus * elapsed
                if remainder >= self.MIN_RESTART_RUNTIME:
                    self._restart_queue.append(remainder)

    def on_fault(self, t: float, cpus: int) -> None:
        """Observe a node failure; arm the submission throttle when the
        recent failure count crosses the configured threshold."""
        self.n_faults_seen += 1
        if self.throttle_after_failures is None:
            return
        self._recent_faults.append(t)
        cutoff = t - self.throttle_window
        while self._recent_faults and self._recent_faults[0] < cutoff:
            self._recent_faults.popleft()
        if len(self._recent_faults) >= self.throttle_after_failures:
            self._throttled_until = t + self.throttle_quiet_period

    @property
    def throttled_until(self) -> float:
        """Time until which fault throttling blocks submission
        (``-inf`` when the throttle has never armed)."""
        return self._throttled_until

    def offer(
        self, t: float, cluster: ClusterState, scheduler: "Scheduler"
    ) -> Offer:
        """Records to start now: checkpointed fragments (records of
        one) ahead of one :class:`~repro.jobs.Cohort` of fresh members,
        copied from the controller's template and submitted at ``t``."""
        if not self._may_submit(t, cluster, scheduler):
            return Offer()
        size = self.project.cpus_per_job
        free = cluster.free_cpus
        if free < size:
            self._log(t, cluster, scheduler, 0, "no_room")
            return Offer()
        # Figure-1 gate: only feed when the native queue is empty or the
        # head job cannot (by estimates) start within one interstitial
        # runtime, so our jobs finish before it needs the CPUs.
        if scheduler.queue_length > 0:
            wall = scheduler.head_start_estimate(t, cluster)
            if wall - t <= self.runtime:
                self._log(t, cluster, scheduler, 0, "head_imminent")
                return Offer()
        count = self._capped(cluster, free) // size
        if count <= 0:
            self._log(t, cluster, scheduler, 0, "cap_blocked")
            return Offer()
        # Checkpointed fragments restart ahead of fresh jobs.
        records = Offer()
        fresh = count
        while self._restart_queue and fresh > 0:
            fresh -= 1
            remainder = self._restart_queue.popleft()
            records.append(
                Job(
                    cpus=size,
                    runtime=remainder,
                    estimate=remainder,
                    submit_time=t,
                    user=self.project.user,
                    group=self.project.group,
                    kind=JobKind.INTERSTITIAL,
                )
            )
        if math.isfinite(self._remaining):
            fresh = min(fresh, int(self._remaining))
        if fresh > 0:
            cohort = Cohort(self._template, fresh)
            cohort.submit_time = t
            records.append(cohort)
            self._remaining -= fresh
        submitted = len(records)
        self.n_submitted += submitted
        self._log(t, cluster, scheduler, submitted, "submitted")
        return records

    # ------------------------------------------------------------------
    def _may_submit(
        self, t: float, cluster: ClusterState, scheduler: "Scheduler"
    ) -> bool:
        """The gate every offer passes first: nothing while the
        controller is dormant (before ``start_time``) or exhausted, nor
        while recent faults throttle it (logged ``fault_throttled``)."""
        if t < self.start_time or self.exhausted:
            return False
        if t < self._throttled_until:
            self._log(t, cluster, scheduler, 0, "fault_throttled")
            return False
        return True

    def _capped(self, cluster: ClusterState, cpus: int) -> int:
        """``cpus`` cut to the §4.3.2.2 cap's headroom,
        ``floor(max_utilization * total) - busy`` (uncut without a
        cap); the headroom is negative while the machine is above it."""
        if self.max_utilization is None:
            return cpus
        return min(
            cpus,
            math.floor(self.max_utilization * cluster.total_cpus)
            - cluster.busy_cpus,
        )

    # ------------------------------------------------------------------
    def _log(
        self,
        t: float,
        cluster: ClusterState,
        scheduler: "Scheduler",
        n_submitted: int,
        reason: str,
    ) -> None:
        if self.decisions is None:
            return
        self.decisions.append(
            ControllerDecision(
                time=t,
                free_cpus=cluster.free_cpus,
                queue_length=scheduler.queue_length,
                n_submitted=n_submitted,
                reason=reason,
            )
        )
