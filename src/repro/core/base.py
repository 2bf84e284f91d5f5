"""Interface between the engine and an interstitial job source."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Tuple

from repro.jobs import Job
from repro.sim.state import ClusterState

#: Sentinel for sources that never throttle (shared so the engine's
#: per-pass ``throttled_until`` read costs one attribute lookup, not a
#: float parse).
_NEVER_THROTTLED = float("-inf")

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.base import Scheduler


class InterstitialSource(abc.ABC):
    """Supplies interstitial jobs to start in leftover capacity.

    The engine consults the source once per scheduling pass, *after* the
    native policy has started everything it can — the paper's
    "meta-backfilled into the available processors from a low-priority
    queue after no more of the native jobs can be backfilled".
    """

    @abc.abstractmethod
    def offer(
        self, t: float, cluster: ClusterState, scheduler: "Scheduler"
    ) -> List[Job]:
        """Return interstitial records to start immediately at ``t``.

        A record is a job or a :class:`~repro.jobs.Cohort` of identical
        members; an :class:`~repro.jobs.Offer` holds them and its
        ``len()`` counts members.  The members must jointly fit in
        ``cluster.free_cpus``; the engine starts the records in order
        and numbers their members consecutively.
        """

    @property
    @abc.abstractmethod
    def exhausted(self) -> bool:
        """True once the source will never produce another job."""

    @property
    def preemptible(self) -> bool:
        """Whether running interstitial jobs may be killed to make room
        for a blocked native job.

        The paper's baseline is strictly non-preemptive (killed work is
        wasted because there is no checkpoint/restart); the preemptible
        mode is an ablation quantifying what zero native impact costs in
        wasted interstitial cycles.
        """
        return False

    @property
    def elastic(self) -> bool:
        """Whether this source's running jobs may be *resized* by the
        engine (DESIGN §16).

        An elastic source's malleable jobs (those carrying a
        non-degenerate ``[min_cpus, max_cpus]`` range) are shrunk —
        instead of killed — to seat a blocked native head job, and grown
        back into idle capacity via :meth:`grow_requests`.  Orthogonal
        to :attr:`preemptible`: a source may be both, in which case the
        engine shrinks first and kills only for the remaining deficit.
        """
        return False

    def grow_requests(
        self, t: float, cluster: ClusterState, scheduler: "Scheduler"
    ) -> List[Tuple[Job, int]]:
        """Width increases to apply to running malleable jobs at ``t``.

        Called once per scheduling pass (after :meth:`offer`) when the
        source is :attr:`elastic`.  Each ``(job, new_cpus)`` entry must
        name a currently running job of this source with
        ``job.cpus < new_cpus <= job.max_cpus``, and the total growth
        must fit in ``cluster.free_cpus``; the engine applies the
        resizes in order, re-scaling each job's remaining runtime.
        """
        return []

    def on_shrunk(self, job: Job, old_cpus: int, t: float) -> None:
        """Notification that the engine shrank ``job`` from
        ``old_cpus`` to ``job.cpus`` at ``t`` to seat a blocked native.

        No work is lost (the remaining runtime was re-scaled), so the
        default is a no-op; sources may track shrink statistics.
        """

    def on_preempted(self, jobs: List[Job], t: float) -> None:
        """Notification that the records ``jobs`` were killed at ``t``
        (a killed cohort piece counts ``count`` members).

        Sources that track remaining work should re-credit the killed
        jobs (their work was lost and must be redone).  Called both for
        preemption (making room for a blocked native head job) and for
        node-failure kills (:mod:`repro.faults`).
        """

    def on_fault(self, t: float, cpus: int) -> None:
        """Notification that ``cpus`` processors crashed at ``t``.

        Called for every FAILURE event, whether or not any interstitial
        job was killed by it.  Sources may use it to degrade gracefully
        (e.g. throttle submission while the machine is flaky).
        """

    @property
    def throttled_until(self) -> float:
        """Time until which the source suppresses submission after
        recent faults (``-inf`` when it never throttles).

        The engine reads this to attribute empty offers to graceful
        degradation in the observability trace (``fault_throttle``
        records) rather than to a lack of work or room.
        """
        return _NEVER_THROTTLED
