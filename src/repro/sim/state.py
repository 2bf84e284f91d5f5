"""Live cluster state: which jobs are running on how many CPUs.

The scheduler sees only what a real batch system sees: the set of
running jobs with their *estimated* completion times, the free CPU
count, and the queue it manages itself.  Actual runtimes live only in
the engine's event queue.

The unit of tracking is a *record*: a job, or a
:class:`~repro.jobs.Cohort` of ``count`` identical members (a job is a
record of one).  A running record is its own running entry (stamped
with its ``start_time``) and has one release key; release claims are
``(estimated finish, cpus, count)`` runs.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

from repro.errors import CapacityError, SchedulingError, SimulationError
from repro.jobs import Job, JobState
from repro.machines import Machine

#: ``(estimated finish, cpus, count)`` of a running record: ``count``
#: members each releasing ``cpus`` CPUs at ``finish`` (a release claim).
Claim = Tuple[float, float, int]


class ClusterState:
    """Tracks CPU allocation on one machine during a simulation."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        #: Running records by (first) job id.
        self.running: Dict[int, Job] = {}
        self.busy_cpus: int = 0
        #: CPUs removed from service by drain-style outages (see
        #: repro.sim.outages); running jobs survive these.
        self.down_cpus: int = 0
        #: CPUs removed from service by node crashes (see repro.faults);
        #: the jobs running on them were killed.
        self.failed_cpus: int = 0
        #: Monotone counter bumped on every allocation change — start,
        #: finish/kill, outage and failure/repair transitions.  While it
        #: is unchanged, nothing a scheduler derives from this state
        #: (free CPUs, release claims) can have changed; schedulers key
        #: cached views and pass-skip decisions on it (DESIGN §13).
        self.epoch: int = 0
        #: Release timeline: the claim of every running record, kept
        #: sorted incrementally on start/finish instead of being rebuilt
        #: and re-sorted every scheduling pass.  It is also the
        #: ``release_claims()`` view itself.  Equal claims are
        #: interchangeable (a removal may take any of them), and the
        #: claim walkers cannot tell apart two orders of claims with
        #: equal ``(finish, cpus)``.
        self._release_keys: List[Claim] = []
        self._release_key_of: Dict[int, Claim] = {}

    # ------------------------------------------------------------------
    @property
    def total_cpus(self) -> int:
        """Machine size (independent of outages)."""
        return self.machine.cpus

    @property
    def available_cpus(self) -> int:
        """CPUs in service right now (total minus down minus failed).

        Clamped at zero: an outage window overlapping a burst of node
        failures can nominally take down more capacity than exists.
        """
        return max(0, self.machine.cpus - self.down_cpus - self.failed_cpus)

    @property
    def free_cpus(self) -> int:
        """CPUs a new job could occupy right now.

        During an outage the in-service count can momentarily be lower
        than the busy count (running jobs are not preempted), in which
        case no CPUs are free.  This is ``max(0, available - busy)``
        written as one expression (busy is never negative), because
        every scheduling pass asks for it.
        """
        return max(
            0,
            self.machine.cpus - self.down_cpus - self.failed_cpus
            - self.busy_cpus,
        )

    @property
    def instantaneous_utilization(self) -> float:
        """busy / total, the quantity the paper's utilization caps test."""
        return self.busy_cpus / self.total_cpus

    def fits_now(self, cpus: int) -> bool:
        """Whether a ``cpus``-wide job can start at this instant."""
        return cpus <= self.free_cpus

    # ------------------------------------------------------------------
    def start(self, jobs: Sequence[Job], t: float) -> None:
        """Allocate CPUs to the records ``jobs`` started together at
        time ``t``, with one joint capacity check and one epoch bump.

        Each record becomes its own running entry, stamped with
        ``start_time = t``.  The release timeline gains one key per
        record, however many members it counts (DESIGN §13).
        """
        running = self.running
        width = 0
        for job in jobs:
            if job.job_id in running:
                raise SchedulingError(f"job {job.job_id} already running")
            width += job.cpus * job.count
        if width > self.free_cpus:
            raise CapacityError(
                f"jobs {[job.job_id for job in jobs]} need {width} CPUs "
                f"but only {self.free_cpus} of {self.machine.name}'s "
                f"{self.machine.cpus} are free"
            )
        key_of = self._release_key_of
        keys = []
        before = len(running)
        for job in jobs:
            running[job.job_id] = job
            job.start_time = t
            key = (t + job.estimate, float(job.cpus), job.count)
            key_of[job.job_id] = key
            keys.append(key)
        if len(running) - before != len(keys):
            raise SchedulingError("a job appears twice in one cohort")
        self.busy_cpus += width
        self._insert_keys(keys)
        self.epoch += 1

    def finish(self, jobs: Sequence[Job]) -> None:
        """Release the CPUs of the records ``jobs`` (finished or killed
        together) with one epoch bump."""
        running = self.running
        key_of = self._release_key_of
        width = 0
        keys = []
        for job in jobs:
            if running.pop(job.job_id, None) is None:
                raise SchedulingError(
                    f"job {job.job_id} finished but was not running"
                )
            width += job.cpus * job.count
            keys.append(key_of.pop(job.job_id))
        self.busy_cpus -= width
        if self.busy_cpus < 0:
            raise SchedulingError("negative busy CPU count")
        self._remove_keys(keys)
        self.epoch += 1

    def _insert_keys(self, keys: List[Claim]) -> None:
        """Insert new release claims, keeping the timeline sorted.
        Claims started together usually land between the same two
        neighbours, and then go in as one slice."""
        timeline = self._release_keys
        if len(keys) > 1:
            keys.sort()
            at = bisect.bisect_left(timeline, keys[0])
            if at == bisect.bisect_left(timeline, keys[-1], at):
                timeline[at:at] = keys
                return
        for key in keys:
            bisect.insort(timeline, key)

    def _remove_keys(self, keys: List[Claim]) -> None:
        """Delete release claims; claims finishing together are usually
        adjacent in the timeline, so they leave as one slice."""
        timeline = self._release_keys
        if len(keys) > 1:
            keys.sort()
            at = bisect.bisect_left(timeline, keys[0])
            end = at + len(keys)
            if timeline[at:end] == keys:
                del timeline[at:end]
                return
        for key in keys:
            del timeline[bisect.bisect_left(timeline, key)]

    def resize(self, job: Job, old_cpus: int) -> None:
        """Re-account a running elastic job whose width (and estimate)
        the engine just changed from ``old_cpus`` to ``job.cpus``.

        The caller mutates ``job.cpus``/``job.estimate`` first and then
        reports the old width here; this updates the busy counter and
        re-keys the job's entry in the release timeline (its estimated
        finish moved with the re-scaled remaining runtime).  Bumps
        :attr:`epoch`, which
        is what keeps scheduler pass-skip caches sound across resizes
        (DESIGN §13).
        """
        if job.job_id not in self.running:
            raise SchedulingError(
                f"job {job.job_id} resized but was not running"
            )
        grow = job.cpus - old_cpus
        if grow > 0 and grow > self.free_cpus:
            raise CapacityError(
                f"job {job.job_id} grew by {grow} CPUs but only "
                f"{self.free_cpus} are free"
            )
        self.busy_cpus += grow
        if self.busy_cpus < 0:
            raise SchedulingError("negative busy CPU count")
        old_key = self._release_key_of.pop(job.job_id)
        del self._release_keys[bisect.bisect_left(self._release_keys, old_key)]
        key = (job.start_time + job.estimate, float(job.cpus), 1)
        bisect.insort(self._release_keys, key)
        self._release_key_of[job.job_id] = key
        self.epoch += 1

    def split(self, record: Job, piece: Job) -> None:
        """Track ``piece``, just detached from the running cohort
        ``record`` (:meth:`~repro.jobs.Cohort.split`, which copies the
        start time), as a running record of its own.  The CPUs stay
        allocated; the timeline carries the two records' claims and
        :attr:`epoch` bumps."""
        key_of = self._release_key_of
        finish, cpus, _count = old = key_of[record.job_id]
        self._remove_keys([old])
        key_of[record.job_id] = (finish, cpus, record.count)
        key_of[piece.job_id] = (finish, cpus, piece.count)
        self._insert_keys([key_of[record.job_id], key_of[piece.job_id]])
        self.running[piece.job_id] = piece
        self.epoch += 1

    def apply_outage(self, delta: int) -> None:
        """Apply a drain-outage transition (``delta`` CPUs down/up)."""
        self.down_cpus += delta
        self.epoch += 1

    def apply_failed(self, delta: int) -> None:
        """Apply a node-failure/repair transition to the failed count."""
        self.failed_cpus += delta
        self.epoch += 1

    # ------------------------------------------------------------------
    def release_claims(self) -> List[Claim]:
        """``(estimated finish, cpus, count)`` of every running record,
        ascending by finish time: ``count`` members each release
        ``cpus`` CPUs at ``finish``.

        This is the incrementally maintained timeline itself, so
        repeat reads within one scheduling pass cost nothing.  Callers
        must treat the returned list as read-only and must not keep it
        across allocation changes.
        """
        return self._release_keys

    # ------------------------------------------------------------------
    def check_invariants(self, t: float) -> None:
        """Validate cluster accounting; raise :class:`SimulationError`
        with a diagnostic snapshot on any violation.

        Checked invariants:

        * the busy counter equals the sum of running-job widths
          (no double allocation, no leaked release);
        * busy never exceeds the machine size;
        * down/failed counters are within ``[0, total]``;
        * free is exactly ``max(0, available - busy)``;
        * every tracked job is in the RUNNING state.

        ``busy <= available`` is deliberately *not* required: drain
        outages let running jobs survive capacity loss, so busy may
        exceed in-service capacity during a window.
        """
        problems: List[str] = []
        width_sum = sum(
            job.cpus * job.count for job in self.running.values()
        )
        if self.busy_cpus != width_sum:
            problems.append(
                f"busy_cpus={self.busy_cpus} != sum of running widths "
                f"{width_sum}"
            )
        if not 0 <= self.busy_cpus <= self.total_cpus:
            problems.append(
                f"busy_cpus={self.busy_cpus} outside [0, {self.total_cpus}]"
            )
        for name in ("down_cpus", "failed_cpus"):
            value = getattr(self, name)
            if not 0 <= value <= self.total_cpus:
                problems.append(
                    f"{name}={value} outside [0, {self.total_cpus}]"
                )
        expected_free = max(0, self.available_cpus - self.busy_cpus)
        if self.free_cpus != expected_free:
            problems.append(
                f"free_cpus={self.free_cpus} != expected {expected_free}"
            )
        if len(self._release_keys) != len(self.running) or any(
            a > b
            for a, b in zip(self._release_keys, self._release_keys[1:])
        ):
            problems.append(
                f"release timeline out of sync: {len(self._release_keys)} "
                f"entries for {len(self.running)} running records"
            )
        not_running = [
            job.job_id
            for job in self.running.values()
            if job.state is not JobState.RUNNING
        ]
        if not_running:
            problems.append(
                f"jobs tracked as running but not in RUNNING state: "
                f"{not_running[:10]}"
            )
        if problems:
            raise SimulationError(
                f"cluster invariant violation at t={t}: "
                + "; ".join(problems)
                + f" [snapshot: total={self.total_cpus} "
                f"busy={self.busy_cpus} down={self.down_cpus} "
                f"failed={self.failed_cpus} free={self.free_cpus} "
                f"running={len(self.running)}]"
            )
