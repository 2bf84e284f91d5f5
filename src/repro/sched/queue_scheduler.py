"""The composite native scheduler.

:class:`QueueScheduler` glues together a priority policy (who is most
deserving), a backfill mode (how aggressively to fill holes), an
optional time-of-day eligibility policy and an optional runtime
predictor.  Every production scheduler preset in
:mod:`repro.sched.presets` is an instance of this class.

Incremental maintenance (DESIGN §13)
------------------------------------

The naive formulation — re-sort the queue by ``sort_key(job, t)`` and
rebuild the running-job release list on every pass — is what
:class:`~repro.sched.reference.ReferenceQueueScheduler` retains, and
what dominated continual-mode profiles.  This class produces the same
decisions from incrementally maintained structures:

* the pending queue is bucketed by fair-share class, each bucket
  sorted by the time-invariant part of
  :meth:`~repro.sched.priority.PriorityPolicy.rank_key`, beside one
  factor per class that is refreshed only when
  :attr:`~repro.sched.priority.PriorityPolicy.priority_version` bumps
  (a fair-share charge actually changed relative priorities);
* no pass reuses a priority order: an EASY or NONE pass orders only
  the jobs it could start — the in-turn prefix merged from the class
  heads, the blocked job and the later jobs narrow enough for what the
  prefix leaves free — and a CONSERVATIVE pass, which reserves every
  eligible job, sorts the keyed buckets;
* queue membership is a dict keyed by job id (submission order for
  ``pending_jobs``, O(1) removal on start) beside a sorted multiset of
  queued ``(width, job id)`` pairs, whose first element gates whole
  passes and whose prefix holds the jobs a given free count can fit;
* release claims come from the cluster's sorted timeline (or, with a
  predictor, from a cache keyed on ``(cluster.epoch, predictor.version)``)
  instead of a rebuild-and-sort of ``cluster.running``;
* a pass that provably cannot start anything — same cluster epoch, same
  priority version, same queue membership, same time-of-day phase as a
  previous no-start pass, and (conservative backfill only) no estimated
  release expiring in between — is skipped outright.

The skip lives *inside* ``schedule`` so engine-level records and
counters (``sched_pass``, ``scheduling_passes``) stay byte-identical to
the naive scheduler's; the golden-trace suite and
``tests/sched/test_incremental_differential.py`` enforce exactly that.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.jobs import Job
from repro.sched.backfill import select_conservative, select_easy
from repro.sched.base import Scheduler
from repro.sched.predictor import PerUserRuntimePredictor
from repro.sched.priority import PriorityPolicy
from repro.sched.timeofday import TimeOfDayPolicy
from repro.sim.state import ClusterState


#: One queued job inside a fair-share class bucket:
#: ``(wait_term, submit_time, job_id, job)``.  ``job_id`` is unique, so
#: tuple comparison never reaches the (incomparable) job itself.
ClassEntry = Tuple[float, float, int, Job]

#: One queued job in the priority order: ``(*rank_key, job)``, i.e.
#: ``(wait_term - factor, submit_time, job_id, job)``.  Flat, so sorting
#: compares the entries themselves, not key tuples nested in pairs;
#: unique ids again keep ``job`` out of every comparison.
OrderEntry = Tuple[float, float, int, Job]

#: A fair-share class: ``(user, group)``.
ClassKey = Tuple[str, str]

#: One queued job in the width multiset: ``(cpus, job_id, class,
#: class entry)``.  Unique ids keep comparisons to ``(cpus, job_id)``.
WidthEntry = Tuple[int, int, ClassKey, ClassEntry]


class BackfillMode(enum.Enum):
    """How holes in the schedule may be filled."""

    #: No backfill: strictly run the queue in priority order.
    NONE = "none"
    #: EASY backfill: protect only the head job's reservation.
    EASY = "easy"
    #: Conservative backfill: protect every queued job's reservation.
    CONSERVATIVE = "conservative"


class QueueScheduler(Scheduler):
    """Priority queue + backfill native scheduler.

    Parameters
    ----------
    policy:
        Priority policy (fair share flavour).  Relative priorities are
        re-evaluated whenever the policy's version bumps, which yields
        the dynamic re-prioritization the paper discusses.
    backfill:
        One of :class:`BackfillMode`.
    timeofday:
        Optional :class:`TimeOfDayPolicy`; ineligible jobs are held (not
        considered for starting) for the current pass.
    predictor:
        Optional runtime predictor.  When given, all scheduler-internal
        estimates (backfill windows, shadow times, ``backfillWallTime``)
        use corrected estimates instead of the user's raw ones.
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
        self.n_pass_skips = 0
        self.n_priority_rekeys = 0
        self.n_release_rebuilds = 0
        #: Queued jobs by id, in submission order (what
        #: ``pending_jobs`` reports, unchanged from the naive scheduler).
        self._queue: Dict[int, Job] = {}
        #: The queued jobs as :data:`WidthEntry` tuples, ascending by
        #: ``(cpus, job_id)`` (a multiset of widths, one element per
        #: job).  ``_widths[0][0]`` is the narrowest request; the jobs
        #: that fit ``n`` CPUs are the prefix up to
        #: ``bisect_left(_widths, (n + 1,))``.
        self._widths: List[WidthEntry] = []
        #: Queued jobs bucketed by fair-share class ``(user, group)``,
        #: each bucket ascending by ``(wait_term, submit, job_id)``
        #: where ``wait_term = wait_weight * submit / 86400`` is the
        #: precomputed time-invariant component of ``rank_key``.  All
        #: jobs of one class share their fair-share factor, and within
        #: a class the relative order never changes — so a re-key costs
        #: one factor evaluation per *class*, not per queued job, and a
        #: bucket's first entry is its class's best job.
        self._classes: Dict[ClassKey, List[ClassEntry]] = {}
        #: Fair-share factor of each queued class (and of classes that
        #: were queued since the last re-key).  Valid while
        #: ``_factors_version == policy.priority_version``.
        self._factors: Dict[ClassKey, float] = {}
        self._factors_version = -1
        #: Bumped whenever queue membership changes (submit / start).
        self._membership_version = 0
        #: ``head_job``'s answer, cached per (factors version,
        #: membership version).
        self._head: Optional[Job] = None
        self._head_key: Tuple[int, int] = (-1, -1)
        #: Predictor-corrected release claims, sorted by (finish, cpus,
        #: count), cached per ``(cluster.epoch, predictor.version)``.
        self._claims_cache: List[Tuple[float, float, int]] = []
        self._claims_key: Tuple[int, int] = (-1, -1)
        #: ``_earliest_capacity`` release-walk result, cached per
        #: ``(cpus, free CPUs, epoch, predictor version)`` — for one
        #: starting free count and claim timeline the walk's outcome is
        #: a fixed release time, and only the final ``max(t, ...)``
        #: depends on the query instant.  A real cluster's free count
        #: is fixed within an epoch; a composite source's budgeted view
        #: lowers it without a new epoch, so it is part of the key.
        #: Keeps the per-pass ``backfillWallTime`` probe O(1) between
        #: allocation changes (wake-heavy continual runs probe it
        #: constantly).
        self._capacity_key: Optional[Tuple[int, int, int, int]] = None
        self._capacity_at: float = math.inf
        #: Snapshot of the last pass that started nothing:
        #: ``(t, cluster epoch, priority version, membership version,
        #: predictor version, daytime phase)``.  See ``_can_skip``.
        self._no_start_state: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def submit(self, job: Job, t: float) -> None:
        self._queue[job.job_id] = job
        self._membership_version += 1
        wt = self.policy.wait_weight * job.submit_time / 86400.0
        key = (job.user, job.group)
        entry = (wt, job.submit_time, job.job_id, job)
        bisect.insort(self._classes.setdefault(key, []), entry)
        bisect.insort(self._widths, (job.cpus, job.job_id, key, entry))
        if (
            self._factors_version == self.policy.priority_version
            and key not in self._factors
        ):
            # A class new to the queue: its factor is fixed now, by
            # the query rank_key makes (a known class's was fixed at
            # the re-key, and the tracker memoizes it per version).
            self._factors[key] = self.policy.fair_share_factor(job, t)

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
        return list(self._queue.values())

    def schedule(self, t: float, cluster: ClusterState) -> List[Job]:
        if not self._queue:
            return []
        if self._can_skip(t, cluster):
            self.n_pass_skips += 1
            return []
        free_cpus = cluster.free_cpus
        if self._widths[0][0] > free_cpus:
            # Capacity gate: every backfill mode starts a job only when
            # it fits the instantaneous free CPUs, so when even the
            # narrowest queued job is too wide the pass cannot start
            # anything — regardless of priority order, which therefore
            # need not be re-keyed.
            self.n_pass_skips += 1
            return []
        self._ensure_factors(t)
        releases = self._release_claims(cluster)
        if self.backfill is BackfillMode.CONSERVATIVE:
            candidates = self._eligible_order(t)
            starts = select_conservative(
                t,
                candidates,
                cluster.available_cpus,
                releases,
                self._estimate,
            )
        else:
            candidates = self._startable_view(t, free_cpus)
            starts = select_easy(
                t,
                candidates,
                free_cpus,
                releases,
                self._estimate,
                backfill=self.backfill is BackfillMode.EASY,
            )
        if not starts:
            self._no_start_state = self._pass_state(t, cluster)
            return starts
        started_ids = {job.job_id for job in starts}
        # A start is a *backfill* start when some higher-priority
        # eligible job stayed queued — the job jumped a blocked
        # predecessor rather than running in turn.  Every start is an
        # eligible job, so all but the leading run of started jobs did;
        # the startable view leads with the same run as the full order.
        in_turn = 0
        for job in candidates:
            if job.job_id not in started_ids:
                break
            in_turn += 1
        self.n_backfill_starts += len(starts) - in_turn
        queue, widths = self._queue, self._widths
        for job in starts:
            del queue[job.job_id]
            del widths[bisect.bisect_left(widths, (job.cpus, job.job_id))]
            self._remove_from_class(job)
        self._membership_version += 1
        self._no_start_state = None
        return starts

    def head_job(self, t: float):
        """The top-priority queued job, eligible or not: the best of
        the class heads, as the first entry of the full order is."""
        if not self._queue:
            return None
        self._ensure_factors(t)
        key = (self._factors_version, self._membership_version)
        if self._head_key != key:
            factors = self._factors
            self._head = min(
                (b[0][0] - factors[cls], b[0][1], b[0][2], b[0][3])
                for cls, b in self._classes.items()
            )[3]
            self._head_key = key
        return self._head

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
    # Incremental maintenance internals
    # ------------------------------------------------------------------
    def _ensure_factors(self, t: float) -> None:
        """Re-key: refresh the class factor table if charges
        invalidated it.

        Costs one fair-share factor per *class* — not per job — because
        every job of a class shares its factor, and ``wt - f`` (with
        ``wt`` the wait term precomputed at submit) is float-for-float
        the expression :meth:`~PriorityPolicy.rank_key` evaluates.  The
        factors of all classes come from one
        :meth:`~PriorityPolicy.class_factors` call.  Passes key the
        jobs they order from this table; no order is kept.
        """
        version = self.policy.priority_version
        if self._factors_version == version:
            return
        timers = self.timers
        if timers is not None:
            timers.start("priority_maintenance")
        classes = self._classes
        factors = self.policy.class_factors(
            [bucket[0][3] for bucket in classes.values()], t
        )
        self._factors = dict(zip(classes, factors))
        self._factors_version = version
        self.n_priority_rekeys += 1
        if timers is not None:
            timers.stop("priority_maintenance")

    def _day_limit(self, t: float) -> Optional[int]:
        """The widest job that may start at ``t``, or None when any may:
        by day, a time-of-day policy holds the wider jobs."""
        if self.timeofday is not None and self.timeofday.is_daytime(t):
            return self.timeofday.max_day_cpus
        return None

    def _eligible_order(self, t: float) -> List[Job]:
        """The eligible queued jobs in priority order, for the
        CONSERVATIVE planner, which reserves every one of them.

        Built on every pass that is not skipped: the bucket entries
        keyed ``wt - f``, by day only those within the width limit, in
        one sort that merges the buckets' sorted runs.  ``(submit_time,
        job_id)`` right after the key gives exact key ties the tie-break
        of :meth:`~PriorityPolicy.sort_key`, and jobs are never compared.
        """
        limit = self._day_limit(t)
        factors = self._factors
        entries: List[OrderEntry] = [
            (wt - f, s, jid, job)
            for cls, bucket in self._classes.items()
            for f in (factors[cls],)
            for wt, s, jid, job in bucket
            if limit is None or job.cpus <= limit
        ]
        entries.sort()
        return [entry[3] for entry in entries]

    def _startable_view(self, t: float, free_cpus: int) -> List[Job]:
        """The eligible jobs an EASY or NONE pass could start, in
        priority order: the in-turn prefix, the blocked job, and the
        later jobs narrow enough for what the prefix leaves free.

        :func:`select_easy` returns the same starts over this view as
        over the full eligible order.  The prefix and the blocked job
        are the full order's leading jobs, merged from the class heads
        (each class's first eligible entry).  After them the full order
        holds only later jobs, and one wider than the CPUs the prefix
        leaves free can never start: backfill starts only lower the
        free count further.  The shadow comes from the same live
        claims, so the starts, and their order, are the same.
        """
        limit = self._day_limit(t)
        factors = self._factors
        heads = []
        for cls, bucket in self._classes.items():
            if limit is None:
                wt, s, jid, job = bucket[0]
                i = 0
            else:
                for i, (wt, s, jid, job) in enumerate(bucket):
                    if job.cpus <= limit:
                        break
                else:
                    continue  # nothing of this class may start by day
            f = factors[cls]
            heads.append((wt - f, s, jid, job, f, i, bucket))
        heapq.heapify(heads)
        free = float(free_cpus)
        view: List[Job] = []
        while heads:
            _key, _s, _jid, job, f, i, bucket = heads[0]
            view.append(job)
            if job.cpus > free:
                break  # the blocked job: no later job starts in turn
            free -= job.cpus
            for i in range(i + 1, len(bucket)):
                wt, s, jid, nxt = bucket[i]
                if limit is None or nxt.cpus <= limit:
                    heapq.heapreplace(
                        heads, (wt - f, s, jid, nxt, f, i, bucket)
                    )
                    break
            else:
                heapq.heappop(heads)
        else:
            return view  # every eligible job starts in turn
        if self.backfill is not BackfillMode.EASY:
            return view
        fits = int(free) if limit is None else min(int(free), limit)
        widths = self._widths
        end = bisect.bisect_left(widths, (fits + 1,))
        # The prefix may be narrow enough to show up again below.
        taken = {job.job_id for job in view} if len(view) > 1 else ()
        later: List[OrderEntry] = []
        for _cpus, jid, cls, (wt, s, _jid, job) in widths[:end]:
            if jid not in taken:
                later.append((wt - factors[cls], s, jid, job))
        later.sort()
        view.extend([entry[3] for entry in later])
        return view

    def _remove_from_class(self, job: Job) -> None:
        """Drop a started job from its class bucket."""
        key = (job.user, job.group)
        bucket = self._classes[key]
        if len(bucket) == 1:
            del self._classes[key]
            return
        probe = (
            self.policy.wait_weight * job.submit_time / 86400.0,
            job.submit_time,
            job.job_id,
        )
        # The 3-tuple probe sorts immediately before its 4-tuple entry.
        idx = bisect.bisect_left(bucket, probe)
        while bucket[idx][2] != job.job_id:  # pragma: no cover - guard
            idx += 1
        del bucket[idx]

    def _release_claims(
        self, cluster: ClusterState
    ) -> List[Tuple[float, float, int]]:
        """(estimated finish, cpus, count) claims of running records,
        ascending.

        Without a predictor this is the cluster's own sorted timeline.
        With one, corrected claims are rebuilt only when the running set
        or the predictor's learned ratios changed; the stable sort from
        start order reproduces the naive scheduler's tie-breaking
        exactly.
        """
        if self.predictor is None:
            return cluster.release_claims()
        key = (cluster.epoch, self.predictor.version)
        if self._claims_key != key:
            timers = self.timers
            if timers is not None:
                timers.start("release_timeline")
            estimate = self.predictor.estimate
            claims = [
                (job.start_time + estimate(job), float(job.cpus), job.count)
                for job in cluster.running.values()
            ]
            claims.sort()
            self._claims_cache = claims
            self._claims_key = key
            self.n_release_rebuilds += 1
            if timers is not None:
                timers.stop("release_timeline")
        return self._claims_cache

    def _pass_state(self, t: float, cluster: ClusterState) -> tuple:
        return (
            t,
            cluster.epoch,
            self.policy.priority_version,
            self._membership_version,
            -1 if self.predictor is None else self.predictor.version,
            False if self.timeofday is None else self.timeofday.is_daytime(t),
        )

    def _can_skip(self, t: float, cluster: ClusterState) -> bool:
        """Whether this pass provably starts nothing.

        Sound because, relative to the remembered no-start pass at
        ``t_prev``: free/available CPUs and the claim set are unchanged
        (same epoch, same predictor version), the queue and its relative
        order are unchanged (same membership and priority versions), and
        eligibility is unchanged (same time-of-day phase).  Under EASY /
        NONE selection the only time-dependent term, the shadow-fit
        window ``t + estimate <= shadow``, shrinks as ``t`` grows — it
        can lose starts, never gain them.  Under CONSERVATIVE the
        reservation profile is additionally unchanged only while no
        claim expires, hence the release check over ``(t_prev, t]``.
        """
        state = self._no_start_state
        if state is None:
            return False
        t_prev, epoch, pversion, mversion, predversion, was_day = state
        if (
            epoch != cluster.epoch
            or pversion != self.policy.priority_version
            or mversion != self._membership_version
        ):
            return False
        if self.predictor is not None and predversion != self.predictor.version:
            return False
        if (
            self.timeofday is not None
            and self.timeofday.is_daytime(t) != was_day
        ):
            return False
        if self.backfill is BackfillMode.CONSERVATIVE:
            claims = self._release_claims(cluster)
            idx = bisect.bisect_right(claims, (t_prev, math.inf))
            if idx < len(claims) and claims[idx][0] <= t:
                return False
        # Advance the snapshot so the conservative expiry window stays
        # anchored to the most recent (equivalent) pass.
        self._no_start_state = (
            t, epoch, pversion, mversion, predversion, was_day
        )
        return True

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _estimate(self, job: Job) -> float:
        if self.predictor is not None:
            return self.predictor.estimate(job)
        return job.estimate

    def _earliest_capacity(
        self, cpus: int, t: float, cluster: ClusterState
    ) -> float:
        free_now = cluster.free_cpus
        if cpus <= free_now:
            return t
        key = (
            cpus,
            free_now,
            cluster.epoch,
            -1 if self.predictor is None else self.predictor.version,
        )
        if self._capacity_key != key:
            free = float(free_now)
            capacity_at = math.inf
            for finish, released, count in self._release_claims(cluster):
                # A run covers the need exactly when its last member
                # would: sums of integer-valued floats are exact.
                free += released * count
                if free >= cpus:
                    capacity_at = finish
                    break
            self._capacity_at = capacity_at
            self._capacity_key = key
        return max(t, self._capacity_at)
