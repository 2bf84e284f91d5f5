"""Queue priority policies.

A :class:`PriorityPolicy` maps a queued job and the current time to a
score; the scheduler sorts its queue by descending score each pass
("dynamic re-prioritization").  Ties break by submission time then job
id so the whole simulation stays deterministic.

Policies provided:

* :class:`FcfsPolicy` — first-come-first-served (no fair share);
* :class:`UserFairSharePolicy` — flat per-user fair share with equal
  shares, the paper's description of Ross/PBS ("the implementation at
  Ross being the simplest: all users have equal shares");
* :class:`HierarchicalFairSharePolicy` — group-level shares first, then
  users within their group, the paper's Blue Mountain/LSF;
* :class:`UserGroupFairSharePolicy` — user- and group-level factors
  combined, the paper's Blue Pacific/DPCS (time-of-day constraints are
  layered separately; see :mod:`repro.sched.timeofday`).
"""

from __future__ import annotations

import abc
from itertools import groupby, repeat
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.jobs import Job
from repro.sched.fairshare import FairShareTracker

#: Sort key type: higher compares first via sorting on the negated tuple.
ScoreKey = Tuple[float, float, float]

# Policies charge each run of consecutive same-entity records in one
# ``FairShareTracker.charge`` call, one amount per member (a cohort
# adds its ``count`` equal areas one at a time).  A charge at the
# tracker's last update time decays nothing, so this applies exactly
# the float additions, in the same order, of one charge per job, and
# entities first appear in the same order.
_USER = attrgetter("user")
_GROUP = attrgetter("group")
_GROUP_USER = attrgetter("group", "user")


def _areas(records: Iterable[Job]) -> List[float]:
    """One charge amount per member of ``records``."""
    amounts: List[float] = []
    for record in records:
        if record.count == 1:
            amounts.append(record.area)
        else:
            amounts.extend(repeat(record.area, record.count))
    return amounts


class PriorityPolicy(abc.ABC):
    """Maps queued jobs to priority scores and observes completions."""

    #: Weight of the queue-wait component (score units per day waited).
    #: Keeps every policy starvation-free: a job's priority grows without
    #: bound while it waits.
    wait_weight: float = 1.0

    #: Monotone counter bumped whenever completions change any job's
    #: fair-share factor (once per charging ``on_finish`` call).  Between
    #: bumps the *relative order* of queued jobs is frozen: the wait
    #: component ``wait_weight * (t - submit) / 86400`` shifts every
    #: score by the same ``wait_weight * t / 86400``, and decayed-usage
    #: shares are time-invariant between charges (see
    #: :mod:`repro.sched.fairshare`).  Schedulers key cached queue
    #: orderings on this value; policies that charge in ``on_finish``
    #: MUST bump it there.
    priority_version: int = 0

    @abc.abstractmethod
    def fair_share_factor(self, job: Job, t: float) -> float:
        """Fair-share component of the score, in [-1, 1]."""

    def class_factors(self, jobs: Sequence[Job], t: float) -> List[float]:
        """:meth:`fair_share_factor` of each of ``jobs`` at ``t``, in
        one call (a scheduler's re-key asks for one job per fair-share
        class).  Overrides batch their trackers' lookups and must return
        exactly what per-job calls would."""
        return [self.fair_share_factor(job, t) for job in jobs]

    def score(self, job: Job, t: float) -> float:
        """Priority score; higher runs earlier."""
        waited_days = max(0.0, t - job.submit_time) / 86400.0
        return self.fair_share_factor(job, t) + self.wait_weight * waited_days

    def sort_key(self, job: Job, t: float) -> ScoreKey:
        """Deterministic descending sort key (use with ``sorted(...)``)."""
        return (-self.score(job, t), job.submit_time, job.job_id)

    def rank_key(self, job: Job, t: float) -> ScoreKey:
        """Time-shift-invariant equivalent of :meth:`sort_key`.

        Subtracting the common ``wait_weight * t / 86400`` term from
        every negated score leaves ``wait_weight * submit / 86400 -
        factor``: the same total order (ties break identically by
        submit time then job id), but comparable across keys computed
        at *different* times as long as :attr:`priority_version` has
        not bumped in between.  This is what lets a scheduler keep its
        pending queue sorted incrementally — inserting a new submission
        with ``bisect`` against keys computed passes ago — instead of
        re-sorting per pass.
        """
        return (
            self.wait_weight * job.submit_time / 86400.0
            - self.fair_share_factor(job, t),
            job.submit_time,
            job.job_id,
        )

    def on_finish(self, jobs: Sequence[Job], t: float) -> None:
        """Observe jobs completing together at ``t`` (default: nothing
        to charge)."""


class FcfsPolicy(PriorityPolicy):
    """Pure first-come-first-served: no fair-share component, so the
    score reduces to the waiting time and the queue order is submission
    order."""

    def fair_share_factor(self, job: Job, t: float) -> float:
        return 0.0


class UserFairSharePolicy(PriorityPolicy):
    """Flat fair share over users with equal target shares (Ross/PBS).

    Parameters
    ----------
    half_life_s:
        Usage decay half-life.
    weight:
        Weight of the fair-share factor in the score.
    """

    def __init__(
        self,
        half_life_s: float = FairShareTracker.DEFAULT_HALF_LIFE,
        weight: float = 2.0,
    ) -> None:
        if weight < 0:
            raise ConfigurationError(f"weight must be >= 0, got {weight}")
        self.users = FairShareTracker(half_life_s)
        self.weight = weight

    def fair_share_factor(self, job: Job, t: float) -> float:
        return self.weight * self.users.factor(job.user, t)

    def class_factors(self, jobs: Sequence[Job], t: float) -> List[float]:
        weight = self.weight
        return [
            weight * f for f in self.users.factors(map(_USER, jobs), t)
        ]

    def on_finish(self, jobs: Sequence[Job], t: float) -> None:
        for user, run in groupby(jobs, _USER):
            self.users.charge(user, _areas(run), t)
        self.priority_version += 1


class HierarchicalFairSharePolicy(PriorityPolicy):
    """Hierarchical group-level fair share (Blue Mountain/LSF).

    The group factor dominates (groups own machine shares); a smaller
    within-group user factor arbitrates between users of one group.

    Parameters
    ----------
    group_shares:
        Optional explicit target shares per group.
    half_life_s:
        Usage decay half-life for both levels.
    group_weight, user_weight:
        Score weights of the two levels.
    """

    def __init__(
        self,
        group_shares: Optional[Dict[str, float]] = None,
        half_life_s: float = FairShareTracker.DEFAULT_HALF_LIFE,
        group_weight: float = 2.0,
        user_weight: float = 0.5,
    ) -> None:
        self.groups = FairShareTracker(half_life_s, shares=group_shares)
        self.half_life_s = half_life_s
        self.group_weight = group_weight
        self.user_weight = user_weight
        #: Per-group tracker of that group's users.
        self._per_group: Dict[str, FairShareTracker] = {}

    def _group_users(self, group: str) -> FairShareTracker:
        tracker = self._per_group.get(group)
        if tracker is None:
            tracker = FairShareTracker(self.half_life_s)
            self._per_group[group] = tracker
        return tracker

    def fair_share_factor(self, job: Job, t: float) -> float:
        g = self.group_weight * self.groups.factor(job.group, t)
        u = self.user_weight * self._group_users(job.group).factor(job.user, t)
        return g + u

    def class_factors(self, jobs: Sequence[Job], t: float) -> List[float]:
        gw, uw = self.group_weight, self.user_weight
        groups = self.groups.factors(map(_GROUP, jobs), t)
        return [
            gw * g + uw * self._group_users(job.group).factor(job.user, t)
            for g, job in zip(groups, jobs)
        ]

    def on_finish(self, jobs: Sequence[Job], t: float) -> None:
        for group, run in groupby(jobs, _GROUP):
            self.groups.charge(group, _areas(run), t)
        for (group, user), run in groupby(jobs, _GROUP_USER):
            self._group_users(group).charge(user, _areas(run), t)
        self.priority_version += 1


class UserGroupFairSharePolicy(PriorityPolicy):
    """User and group fair share combined at the same level (Blue
    Pacific/DPCS): both the user's global usage and the group's global
    usage feed the score."""

    def __init__(
        self,
        group_shares: Optional[Dict[str, float]] = None,
        user_shares: Optional[Dict[str, float]] = None,
        half_life_s: float = FairShareTracker.DEFAULT_HALF_LIFE,
        group_weight: float = 1.0,
        user_weight: float = 1.0,
    ) -> None:
        self.groups = FairShareTracker(half_life_s, shares=group_shares)
        self.users = FairShareTracker(half_life_s, shares=user_shares)
        self.group_weight = group_weight
        self.user_weight = user_weight

    def fair_share_factor(self, job: Job, t: float) -> float:
        return self.group_weight * self.groups.factor(
            job.group, t
        ) + self.user_weight * self.users.factor(job.user, t)

    def class_factors(self, jobs: Sequence[Job], t: float) -> List[float]:
        gw, uw = self.group_weight, self.user_weight
        groups = self.groups.factors(map(_GROUP, jobs), t)
        users = self.users.factors(map(_USER, jobs), t)
        return [gw * g + uw * u for g, u in zip(groups, users)]

    def on_finish(self, jobs: Sequence[Job], t: float) -> None:
        for group, run in groupby(jobs, _GROUP):
            self.groups.charge(group, _areas(run), t)
        for user, run in groupby(jobs, _USER):
            self.users.charge(user, _areas(run), t)
        self.priority_version += 1
