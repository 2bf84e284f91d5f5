"""Counted cohorts: one record for an offer's identical jobs.

The paper's interstitial project is "a fixed number of identical jobs",
and Figure 1 submits ``Floor(nodesAvailable / interstitialJobSize)`` of
them at once.  A :class:`Cohort` carries such a batch as one record: a
member count, the first id of a contiguous id range, and the fields all
members share.  The engine starts, tracks, finishes and charges the
record as a whole; a member :class:`~repro.jobs.job.Job` is built only
when something asks for that member (DESIGN §13, Layer 5).

A plain :class:`~repro.jobs.job.Job` is a record of one (``count`` is
1), so the engine walks one kind of record whether it holds natives,
elastic jobs, restart fragments or counted cohorts.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import ValidationError
from repro.jobs.job import Job, JobKind


class Cohort:
    """``count`` identical jobs with consecutive ids, as one record.

    Members ``0 .. count - 1`` have ids ``job_id .. job_id + count - 1``
    and share every other field.  Cohorts are rigid: they carry no
    elastic bounds and never resize.  ``owner`` is the routing tag a
    :class:`~repro.core.composite.CompositeInterstitialSource` stamps on
    the records its children offer; ``run`` is the engine's FINISH
    entry holding the record while it runs.
    """

    __slots__ = (
        "count", "job_id", "cpus", "runtime", "estimate", "submit_time",
        "user", "group", "kind", "state", "start_time", "finish_time",
        "owner", "run",
    )

    min_cpus = None
    max_cpus = None
    width_history = None
    malleable = False

    def __init__(self, template: Job, count: int) -> None:
        if count < 1:
            raise ValidationError(f"count must be positive, got {count}")
        self.count = count
        self.job_id = template.job_id
        self.cpus = template.cpus
        self.runtime = template.runtime
        self.estimate = template.estimate
        self.submit_time = template.submit_time
        self.user = template.user
        self.group = template.group
        self.kind = template.kind
        self.state = template.state
        self.start_time = template.start_time
        self.finish_time = template.finish_time
        self.owner = None
        self.run: Optional[list] = None

    def __len__(self) -> int:
        return self.count

    @property
    def is_interstitial(self) -> bool:
        return self.kind is JobKind.INTERSTITIAL

    @property
    def area(self) -> float:
        """CPU-seconds of one member's work."""
        return self.cpus * self.runtime

    def split(self, at: int) -> "Cohort":
        """Detach members ``at .. count - 1`` as a new record; this one
        keeps members ``0 .. at - 1``."""
        if not 0 < at < self.count:
            raise ValidationError(
                f"split point {at} outside 1..{self.count - 1}"
            )
        piece = Cohort.__new__(Cohort)
        for name in Cohort.__slots__:
            setattr(piece, name, getattr(self, name))
        piece.job_id = self.job_id + at
        piece.count = self.count - at
        piece.run = None
        self.count = at
        return piece

    def members(self) -> List[Job]:
        """The members as :class:`Job` objects, built now."""
        jobs = []
        for offset in range(self.count):
            job = Job(
                cpus=self.cpus,
                runtime=self.runtime,
                estimate=self.estimate,
                submit_time=self.submit_time,
                user=self.user,
                group=self.group,
                kind=self.kind,
                job_id=self.job_id + offset,
            )
            job.state = self.state
            job.start_time = self.start_time
            job.finish_time = self.finish_time
            jobs.append(job)
        return jobs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cohort(ids={self.job_id}..{self.job_id + self.count - 1}, "
            f"cpus={self.cpus}, runtime={self.runtime:.0f}s, "
            f"state={self.state.value})"
        )


class Offer(list):
    """The records one interstitial offer hands the engine, in start
    order.  Iteration yields records; ``len()`` counts their members,
    and truth tests only whether any record is there (every record
    counts at least one member)."""

    def __len__(self) -> int:
        return sum(record.count for record in self)

    def __bool__(self) -> bool:
        return list.__len__(self) > 0


def expand(records: Iterable) -> List[Job]:
    """Members of ``records`` in record order (Jobs pass through)."""
    jobs: List[Job] = []
    for record in records:
        if type(record) is Cohort:
            jobs += record.members()
        else:
            jobs.append(record)
    return jobs


def member_count(records: Iterable) -> int:
    """Total members of ``records``."""
    return sum(record.count for record in records)


__all__ = ["Cohort", "Offer", "expand", "member_count"]
