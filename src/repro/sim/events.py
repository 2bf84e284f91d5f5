"""Event types and the time-ordered event queue.

Events are totally ordered by ``(time, priority, seq)``: ties at equal
times are broken first by event-kind priority (finishes before submits,
so capacity freed at time *t* is visible to jobs submitted at *t*) and
then by insertion order, which keeps the simulation fully deterministic.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from typing import Any, List, Optional

from repro.errors import SimulationError


class EventKind(enum.IntEnum):
    """Kinds of simulator events, in tie-break priority order.

    Capacity changes (OUTAGE, FAILURE, REPAIR) process before job
    completions so a scheduling pass at time *t* sees the capacity that
    is actually in service at *t*; FINISH before SUBMIT so capacity
    freed at *t* is visible to jobs submitted at *t*.
    """

    #: A machine partition goes down or comes back (payload: cpu delta).
    OUTAGE = 0
    #: Nodes crash, killing the jobs on them (payload: failed cpus).
    FAILURE = 1
    #: Crashed nodes return to service (payload: repaired cpus).
    REPAIR = 2
    #: Running jobs complete (payload: the list of jobs, members of one
    #: start cohort sharing this finish time).
    FINISH = 3
    #: A job arrives in the queue (payload: the job).
    SUBMIT = 4
    #: A fault-killed native job re-enters the queue (payload: the job).
    RESUBMIT = 5
    #: A periodic scheduler wake-up with no payload.
    WAKE = 6


class Event:
    """A single simulator event, ordered in its queue by
    ``(time, kind, seq)``.

    A plain slotted class rather than a dataclass: the engine builds
    one per push, and a generated frozen ``__init__`` costs a
    measurable share of a continual run.
    """

    __slots__ = ("time", "kind", "seq", "payload")

    def __init__(
        self, time: float, kind: EventKind, seq: int, payload: Any = None
    ) -> None:
        self.time = time
        self.kind = kind
        self.seq = seq
        self.payload = payload


#: Internal heap entry: ``(time, kind, seq, event)``.  The prefix is
#: the event's order key and ``seq`` is unique, so the heap compares
#: entries entirely in C tuple code and never reaches the event.
_Entry = tuple


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns the created :class:`Event`."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        seq = next(self._seq)
        event = Event(time, kind, seq, payload)
        heapq.heappush(self._heap, (time, kind, seq, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[3]

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def pop_batch(self) -> List[Event]:
        """Pop *all* events sharing the earliest timestamp.

        Processing same-time events as a batch lets the engine run a
        single scheduling pass per simulated instant, which is both what
        a real scheduler does and the main efficiency lever when an
        interstitial batch of hundreds of identical jobs finishes at the
        same moment.
        """
        heap = self._heap
        if not heap:
            raise SimulationError("pop_batch from an empty event queue")
        first = heapq.heappop(heap)
        batch = [first[3]]
        time = first[0]
        while heap and heap[0][0] == time:
            batch.append(heapq.heappop(heap)[3])
        return batch
