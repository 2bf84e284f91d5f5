"""Abstract scheduler interface consumed by the engine.

A scheduler owns the native queue.  The engine calls :meth:`submit` and
:meth:`on_finish` as events arrive and :meth:`schedule` once per
scheduling pass; the scheduler returns the jobs that should start *now*
(the engine performs the actual allocation so it can schedule the
completion events).  Completions arrive in batches: the members of one
start cohort that finish at the same instant are reported in one call.

The one extra hook beyond a textbook scheduler is
:meth:`head_start_estimate`: the paper's ``backfillWallTime`` — when the
highest-priority queued job is expected to be able to run, "based on the
expected finishing time of jobs currently running".  The interstitial
controller (Figure 1) compares it against the interstitial job runtime.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.jobs import Job
from repro.sim.state import ClusterState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import PhaseTimers


class Scheduler(abc.ABC):
    """Interface between the engine and a native queueing policy."""

    #: Cumulative count of jobs started *out of priority order* (i.e.
    #: backfilled around a blocked, higher-priority job).  Concrete
    #: schedulers that backfill maintain it; the engine reads the final
    #: value through :attr:`backfill_starts`.
    n_backfill_starts: int = 0

    #: Hot-path maintenance counters (see DESIGN §13).  Incremental
    #: schedulers maintain them; the class-level zero default means the
    #: engine can read them off *any* scheduler without duck typing.
    n_pass_skips: int = 0
    n_priority_rekeys: int = 0
    n_release_rebuilds: int = 0

    #: Optional :class:`~repro.obs.PhaseTimers` the engine attaches so
    #: scheduler-internal phases (priority maintenance, release-timeline
    #: rebuilds) show up in ``repro profile``.
    timers: "Optional[PhaseTimers]" = None

    @property
    def backfill_starts(self) -> int:
        """Jobs started out of priority order, for
        ``SimResult.counters.backfill_starts``.  A real property on the
        base class — custom schedulers that never backfill report the
        class default of 0 instead of relying on engine ``getattr``
        fallbacks."""
        return self.n_backfill_starts

    def attach_timers(self, timers: "Optional[PhaseTimers]") -> None:
        """Accept the engine's phase timers (no-op to ignore them)."""
        self.timers = timers

    @abc.abstractmethod
    def submit(self, job: Job, t: float) -> None:
        """Enqueue a newly arrived native job."""

    @abc.abstractmethod
    def on_finish(self, jobs: Sequence[Job], t: float) -> None:
        """Observe jobs completing together at ``t``, in completion
        order (fair-share charging, predictors)."""

    @abc.abstractmethod
    def schedule(self, t: float, cluster: ClusterState) -> List[Job]:
        """Return queued jobs to start at time ``t``.

        Must be consistent: the returned set must fit in
        ``cluster.free_cpus`` simultaneously.  The engine allocates them
        in order.
        """

    @abc.abstractmethod
    def head_start_estimate(self, t: float, cluster: ClusterState) -> float:
        """Expected earliest start time of the top-priority queued job,
        from running jobs' estimated completions (``math.inf`` when the
        queue is empty)."""

    @abc.abstractmethod
    def pending_jobs(self) -> List[Job]:
        """Jobs still waiting in the queue (for truncated-run reporting)."""

    @property
    @abc.abstractmethod
    def queue_length(self) -> int:
        """Number of queued (not yet started) jobs."""

    def head_job(self, t: float) -> "Job | None":
        """The top-priority queued job, or None (used by preemption to
        size the hole to carve; optional for custom schedulers)."""
        return None
