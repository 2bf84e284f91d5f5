"""The naive reference scheduler.

:class:`ReferenceQueueScheduler` is a verbatim retention of the
pre-incremental :class:`~repro.sched.queue_scheduler.QueueScheduler`:
it re-sorts the whole queue with :meth:`PriorityPolicy.sort_key` on
every pass, rebuilds the release list from ``cluster.running`` every
time it needs one, scans the queue with ``min()`` for the head job, and
never skips a pass.  It is deliberately O(queue x passes) — simple
enough to audit by eye — and exists as the behavioral oracle for the
incremental scheduler: the differential suite
(``tests/sched/test_incremental_differential.py``) replays seeded
workloads through both and asserts byte-identical traces, and
``benchmarks/bench_engine.py`` uses it as the events/sec denominator
the CI smoke job guards.

Do not optimize this class.  Its value is that it stays naive.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.jobs import Job
from repro.sched.backfill import select_conservative, select_easy
from repro.sched.base import Scheduler
from repro.sched.predictor import PerUserRuntimePredictor
from repro.sched.priority import PriorityPolicy
from repro.sched.queue_scheduler import BackfillMode
from repro.sched.timeofday import TimeOfDayPolicy
from repro.sim.state import ClusterState


class ReferenceQueueScheduler(Scheduler):
    """Priority queue + backfill scheduler, full re-sort every pass.

    Construction mirrors
    :class:`~repro.sched.queue_scheduler.QueueScheduler`; behavior must
    match it decision-for-decision (the incremental scheduler's tests
    depend on this class as ground truth).
    """

    def __init__(
        self,
        policy: PriorityPolicy,
        backfill: BackfillMode = BackfillMode.EASY,
        timeofday: Optional[TimeOfDayPolicy] = None,
        predictor: Optional[PerUserRuntimePredictor] = None,
    ) -> None:
        self.policy = policy
        self.backfill = backfill
        self.timeofday = timeofday
        self.predictor = predictor
        self.n_backfill_starts = 0
        self._queue: List[Job] = []

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def submit(self, job: Job, t: float) -> None:
        self._queue.append(job)

    def on_finish(self, jobs: Sequence[Job], t: float) -> None:
        self.policy.on_finish(jobs, t)
        if self.predictor is not None:
            for job in jobs:
                for _member in range(job.count):
                    self.predictor.observe(job)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def pending_jobs(self) -> List[Job]:
        return list(self._queue)

    def schedule(self, t: float, cluster: ClusterState) -> List[Job]:
        if not self._queue:
            return []
        ordered = sorted(self._queue, key=lambda j: self.policy.sort_key(j, t))
        eligible = [j for j in ordered if self._eligible(j, t)]
        releases = self._releases(cluster)
        if self.backfill is BackfillMode.CONSERVATIVE:
            starts = select_conservative(
                t,
                eligible,
                cluster.available_cpus,
                releases,
                self._estimate,
            )
        else:
            starts = select_easy(
                t,
                eligible,
                cluster.free_cpus,
                releases,
                self._estimate,
                backfill=self.backfill is BackfillMode.EASY,
            )
        started_ids = {job.job_id for job in starts}
        # A start is a *backfill* start when some higher-priority
        # eligible job stayed queued — the job jumped a blocked
        # predecessor rather than running in turn.
        in_priority_prefix = True
        for job in eligible:
            if job.job_id in started_ids:
                if not in_priority_prefix:
                    self.n_backfill_starts += 1
            else:
                in_priority_prefix = False
        self._queue = [j for j in self._queue if j.job_id not in started_ids]
        return starts

    def head_job(self, t: float):
        if not self._queue:
            return None
        return min(self._queue, key=lambda j: self.policy.sort_key(j, t))

    def head_start_estimate(self, t: float, cluster: ClusterState) -> float:
        """The paper's ``backfillWallTime``: expected earliest start of
        the top-priority queued job, given running jobs' (possibly
        predictor-corrected) estimated completions and, when a
        time-of-day policy holds the job, its next eligibility window."""
        head = self.head_job(t)
        if head is None:
            return math.inf
        start = self._earliest_capacity(head.cpus, t, cluster)
        if self.timeofday is not None:
            start = max(start, self.timeofday.next_eligible_time(head, t))
        return start

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _eligible(self, job: Job, t: float) -> bool:
        return self.timeofday is None or self.timeofday.eligible(job, t)

    def _estimate(self, job: Job) -> float:
        if self.predictor is not None:
            return self.predictor.estimate(job)
        return job.estimate

    def _releases(
        self, cluster: ClusterState
    ) -> List[Tuple[float, float, int]]:
        """One claim per running member (runs expanded)."""
        return [
            (job.start_time + self._estimate(job), float(job.cpus), 1)
            for job in cluster.running.values()
            for _member in range(job.count)
        ]

    def _earliest_capacity(
        self, cpus: int, t: float, cluster: ClusterState
    ) -> float:
        if cluster.fits_now(cpus):
            return t
        free = float(cluster.free_cpus)
        for finish, released, _one in sorted(self._releases(cluster)):
            free += released
            if free >= cpus:
                return max(t, finish)
        return math.inf
