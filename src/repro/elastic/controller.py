"""Elastic interstitial controller: moldable and malleable feeding.

:class:`ElasticInterstitialController` extends the paper's Figure-1
controller (:class:`~repro.core.controller.InterstitialController`)
with the two elastic width policies of DESIGN §16:

* **MOLDABLE** — each submitted job picks its width once, greedily
  widest-first from the free CPUs within the resolved
  ``[min_width, max_width]`` range, so one scheduling pass tiles the
  hole with at most one sub-``max_width`` job instead of wasting the
  ``free mod n`` remainder.
* **MALLEABLE** — moldable at start *and* resizable while running: the
  engine shrinks this controller's jobs (down to ``min_width``) to seat
  a blocked native instead of killing them, and this controller's
  :meth:`grow_requests` grows them back into idle capacity, oldest
  first, at every scheduling pass.

Work accounting is in fixed per-job quanta: every job carries
``cpus_per_job * runtime_on(machine)`` CPU-seconds of work regardless
of the width it runs at, so a width-``w`` job runs ``quantum / w``
seconds and resizes re-scale the remainder.  The remaining-job budget
therefore debits exactly 1.0 per submission, same as the rigid
controller, and fault kills re-credit whole quanta through the
inherited ``on_preempted`` path.

The malleable policy deliberately skips the Figure-1
``backfillWallTime`` gate: rigid (and moldable) jobs must not start
when the native head job is imminent because they would hold their
CPUs past its start, but malleable jobs release CPUs the instant the
native needs them, so holding back would only waste the interstice.
The utilization cap (§4.3.2.2) still applies to both submission and
growth.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.core.controller import InterstitialController
from repro.elastic.spec import ElasticitySpec, WidthPolicy
from repro.errors import ConfigurationError
from repro.jobs import InterstitialProject, Job, JobKind, Offer
from repro.machines import Machine
from repro.sim.state import ClusterState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.base import Scheduler


class ElasticInterstitialController(InterstitialController):
    """Figure-1 feeding with moldable or malleable job widths.

    Takes the :class:`~repro.elastic.spec.ElasticitySpec` selecting
    the width policy and range, and forwards every other keyword
    (``n_jobs``, ``continual``, ``max_utilization``, ``start_time``,
    ``preemptible``, fault throttling, decision recording) to the rigid
    controller.  ``checkpointing`` is not supported (passing it is a
    ``TypeError``) — malleable shrink makes it moot (nothing is killed,
    so there is nothing to checkpoint) and moldable fragments would
    change width across restarts, breaking the fixed-quantum
    accounting.

    Attributes
    ----------
    min_width, max_width:
        The resolved width range on this machine.
    n_shrunk, n_grown:
        Engine-reported resize counts (shrinks via ``on_shrunk``,
        grows counted when requested).
    """

    def __init__(
        self,
        machine: Machine,
        project: InterstitialProject,
        spec: ElasticitySpec,
        **options: Any,
    ) -> None:
        if spec.is_rigid:
            raise ConfigurationError(
                "ElasticInterstitialController requires a MOLDABLE or "
                "MALLEABLE spec; use InterstitialController (or the "
                "elastic_controller factory) for RIGID"
            )
        super().__init__(
            machine=machine, project=project, checkpointing=False, **options
        )
        self.spec = spec
        self.min_width, self.max_width = spec.resolve(project)
        if self.max_width > machine.cpus:
            raise ConfigurationError(
                f"elastic max_width {self.max_width} exceeds "
                f"{machine.name}'s {machine.cpus} CPUs"
            )
        #: CPU-seconds of work per job quantum, fixed at the project's
        #: nominal shape; a width-``w`` job runs ``quantum / w`` seconds.
        self.work_quantum = project.cpus_per_job * self.runtime
        self.n_shrunk = 0
        self.n_grown = 0

    # ------------------------------------------------------------------
    @property
    def elastic(self) -> bool:
        return self.spec.policy is WidthPolicy.MALLEABLE

    def on_shrunk(self, job: Job, old_cpus: int, t: float) -> None:
        self.n_shrunk += 1

    def runtime_at(self, width: int) -> float:
        """Per-job runtime at ``width`` CPUs on this machine."""
        return self.work_quantum / width

    # ------------------------------------------------------------------
    def offer(
        self, t: float, cluster: ClusterState, scheduler: "Scheduler"
    ) -> Offer:
        if not self._may_submit(t, cluster, scheduler):
            return Offer()
        free = cluster.free_cpus
        budget = self._capped(cluster, free)
        if budget < self.min_width:
            self._log(
                t, cluster, scheduler, 0,
                "cap_blocked" if budget < free else "no_room",
            )
            return Offer()
        queue_blocked = scheduler.queue_length > 0
        wall = (
            scheduler.head_start_estimate(t, cluster)
            if queue_blocked
            else math.inf
        )
        malleable = self.spec.policy is WidthPolicy.MALLEABLE
        # A malleable job can always shrink to min_width the moment the
        # head native is blocked, so the only CPUs it can strand are
        # that residue.  Let malleable submissions bypass the Figure-1
        # gate while the total residue across our running + new jobs
        # stays within one nominal job width — no worse for the head
        # than the single rigid job the paper's gate already tolerates.
        residue = 0
        if malleable and queue_blocked:
            residue = sum(
                job.min_cpus or 0
                for job in cluster.running.values()
                if job.is_interstitial and job.malleable
            )
        jobs = Offer()
        remaining = self._remaining
        while budget >= self.min_width and remaining > 0:
            width = min(self.max_width, budget)
            runtime = self.runtime_at(width)
            # Figure-1 gate, per candidate: molded jobs hold their CPUs
            # to completion, so they must finish before the head native
            # can (by estimates) start.  Narrower candidates only run
            # longer, so the first blocked candidate blocks the rest.
            if queue_blocked and wall - t <= runtime:
                if not (
                    malleable
                    and residue + self.min_width <= self.max_width
                ):
                    break
                residue += self.min_width
            jobs.append(
                Job(
                    cpus=width,
                    runtime=runtime,
                    estimate=runtime,
                    submit_time=t,
                    user=self.project.user,
                    group=self.project.group,
                    kind=JobKind.INTERSTITIAL,
                    min_cpus=self.min_width if malleable else width,
                    max_cpus=self.max_width if malleable else width,
                )
            )
            budget -= width
            remaining -= 1.0
        if not jobs:
            self._log(
                t, cluster, scheduler, 0,
                "head_imminent" if queue_blocked else "no_room",
            )
            return Offer()
        self._remaining = remaining
        self.n_submitted += len(jobs)
        self._log(t, cluster, scheduler, len(jobs), "submitted")
        return jobs

    # ------------------------------------------------------------------
    def grow_requests(
        self, t: float, cluster: ClusterState, scheduler: "Scheduler"
    ) -> List[Tuple[Job, int]]:
        """Distribute idle capacity back to running malleable jobs,
        oldest first (they have the most remaining-work leverage)."""
        if self.spec.policy is not WidthPolicy.MALLEABLE:
            return []
        if t < self.start_time or t < self._throttled_until:
            return []
        budget = self._capped(cluster, cluster.free_cpus)
        if budget <= 0:
            return []
        requests: List[Tuple[Job, int]] = []
        for job in sorted(
            cluster.running.values(),
            key=lambda job: (job.start_time, job.job_id),
        ):
            if budget <= 0:
                break
            if not (job.is_interstitial and job.malleable):
                continue
            room = job.max_cpus - job.cpus  # type: ignore[operator]
            if room <= 0:
                continue
            give = min(room, budget)
            requests.append((job, job.cpus + give))
            budget -= give
        self.n_grown += len(requests)
        return requests


def elastic_controller(
    machine: Machine,
    project: InterstitialProject,
    spec: Optional[ElasticitySpec] = None,
    **kwargs,
) -> InterstitialController:
    """Build the controller matching ``spec``.

    RIGID (or ``None``) returns the plain paper-exact
    :class:`~repro.core.controller.InterstitialController`; MOLDABLE
    and MALLEABLE return an :class:`ElasticInterstitialController`.
    Keyword arguments pass through to the chosen constructor.
    """
    if spec is None or spec.is_rigid:
        return InterstitialController(machine=machine, project=project,
                                      **kwargs)
    return ElasticInterstitialController(
        machine=machine, project=project, spec=spec, **kwargs
    )
