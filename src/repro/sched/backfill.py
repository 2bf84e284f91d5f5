"""Backfill planners.

Given the queue in priority order and the (estimated) release times of
running jobs, decide which queued jobs start *now*:

* :func:`select_easy` — EASY/aggressive backfill: the top-priority
  blocked job gets a reservation at its *shadow time*; lower-priority
  jobs may start immediately if they terminate (by estimate) before the
  shadow time or fit in the reservation's spare ("extra") nodes.  Used
  for Blue Mountain (LSF) and Blue Pacific (DPCS).
* :func:`select_conservative` — every queued job receives a reservation
  in priority order on a capacity profile; a job starts now only when
  its earliest reservation is *now*, so no backfill can delay any queued
  job's planned start.  The paper notes Ross's backfill criteria are
  "more restrictive" than the other machines'; conservative backfill is
  the canonical restrictive variant.

Both planners work purely on estimates — fallibility is inherited from
the quality of user estimates, exactly as in the paper.

Release claims are *runs* ``(finish, cpus, count)``: ``count`` running
members each releasing ``cpus`` CPUs at ``finish`` (a counted cohort is
one run).  Every walk below takes a run whole or, where it stops inside
one, the fewest members that cover the need; claim widths are
integer-valued, so its float sums are exactly the per-member ones.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

from repro.jobs import Job
from repro.sim.profile import CapacityProfile

#: (estimated release time, cpus released per member, members) of a
#: running record.
Release = Tuple[float, float, int]

#: Scheduler-visible runtime estimate for a job (predictor hook).
EstimateFn = Callable[[Job], float]

#: Minimum reservation duration, guarding zero-estimate degenerate jobs.
_MIN_DURATION = 1e-9


def shadow_of(
    cpus_needed: int,
    free_now: float,
    releases: Sequence[Release],
) -> Tuple[float, float]:
    """Shadow time and extra nodes for a blocked head job.

    Walks the running members' estimated releases in time order until
    the accumulated free CPUs cover ``cpus_needed``.  Returns
    ``(shadow_time, extra_nodes)`` where ``extra_nodes`` is the surplus
    beyond the head job's need at the shadow instant.  If the head can
    never be satisfied (capacity lost to an outage), returns
    ``(inf, 0.0)`` and callers should disallow shadow-based backfill.

    The walk stops at the first *member* that covers the need, so in
    the run that does it takes the fewest members that suffice: the
    surplus is what a per-member walk leaves.
    """
    free = free_now
    for finish, cpus, count in sorted(releases):
        free += cpus * count
        if free >= cpus_needed:
            free -= cpus * count
            take = max(1, -(-(cpus_needed - free) // cpus))
            return finish, free + cpus * take - cpus_needed
    return math.inf, 0.0


def select_easy(
    t: float,
    queue: Sequence[Job],
    free_cpus: int,
    releases: Sequence[Release],
    estimate: EstimateFn,
    backfill: bool = True,
) -> List[Job]:
    """EASY selection: start-from-head, then backfill under the head
    job's reservation.

    Parameters
    ----------
    t:
        Current time.
    queue:
        Eligible queued jobs in descending priority order.
    free_cpus:
        CPUs free right now.
    releases:
        Estimated (finish, cpus, count) runs of currently running
        members.
    estimate:
        Scheduler-visible runtime estimate accessor.
    backfill:
        With False, stop at the first blocked job (plain priority FCFS
        within the current ordering — the no-backfill baseline).
    """
    starts: List[Job] = []
    free = float(free_cpus)
    live: List[Release] = list(releases)

    blocked: Job = None  # type: ignore[assignment]
    rest: List[Job] = []
    for job in queue:
        if blocked is None:
            if job.cpus <= free:
                starts.append(job)
                free -= job.cpus
                live.append((t + estimate(job), job.cpus, 1))
            else:
                blocked = job
        else:
            rest.append(job)
    if blocked is None or not backfill:
        return starts

    shadow, extra = shadow_of(blocked.cpus, free, live)
    for job in rest:
        if job.cpus > free:
            continue
        fits_shadow = math.isfinite(shadow) and t + estimate(job) <= shadow
        fits_extra = job.cpus <= extra
        if fits_shadow or fits_extra:
            starts.append(job)
            free -= job.cpus
            if not fits_shadow:
                extra -= job.cpus
    return starts


def select_conservative(
    t: float,
    queue: Sequence[Job],
    available_cpus: int,
    releases: Sequence[Release],
    estimate: EstimateFn,
) -> List[Job]:
    """Conservative selection: reserve for *every* queued job in priority
    order; start the jobs whose earliest reservation is now.

    ``available_cpus`` is the in-service CPU count (total minus down);
    running jobs' claims are subtracted via ``releases``, so overlap with
    an outage simply shows up as (possibly negative) capacity nothing
    can fit into until the jobs drain.

    A claim whose estimated finish is already past (a job overrunning a
    predictor-shrunk estimate) contributes no capacity loss to the
    planning profile, but its CPUs are still physically occupied — so a
    planned start at ``t`` is additionally gated on the instantaneous
    free count, and the job simply stays queued until the overdue claim
    really releases.
    """
    free_now = float(available_cpus) - sum([c * n for _f, c, n in releases])
    profile = CapacityProfile.from_claims(float(available_cpus), t, releases)
    starts: List[Job] = []
    for job in queue:
        duration = max(estimate(job), _MIN_DURATION)
        start = profile.earliest_fit(t, duration, job.cpus)
        if math.isinf(start):
            # Permanently unsatisfiable with current in-service capacity
            # (deep outage); leave the job queued without a reservation.
            continue
        profile.reserve(start, start + duration, job.cpus, check=False)
        if start == t and job.cpus <= free_now:
            starts.append(job)
            free_now -= job.cpus
    return starts
