"""Structured event tracing for the engine.

The engine emits one :class:`TraceRecord` per semantic event — submit,
start, finish, failure (and the jobs it kills), repair, preempt,
elastic shrink/grow resizes, requeue, fault-throttled pass, scheduling
pass, plus ``run_start`` / ``run_end`` boundaries — through a
:class:`TraceRecorder`.  Because
every field of a record is derived from deterministic simulation state
(event times, job ids, queue depth, busy CPUs), the serialized trace of
a seeded configuration is byte-for-bit reproducible: the golden-trace
regression suite (``tests/obs``) pins exactly that.

The default :class:`NullRecorder` reduces the engine's tracing cost to
one attribute check per emission site, so leaving tracing off is free.
"""

from __future__ import annotations

import abc
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, TextIO, Union

#: Record kinds emitted by the engine, in no particular order.  Kept as
#: plain strings (not an enum) so trace files remain self-describing.
RECORD_KINDS = (
    "run_start",
    "submit",
    "start",
    "finish",
    "outage",
    "failure",
    "kill",
    "repair",
    "preempt",
    "shrink",
    "grow",
    "requeue",
    "fault_throttle",
    "sched_pass",
    "run_end",
)


@dataclass(frozen=True)
class TraceRecord:
    """One structured engine event.

    Field semantics by ``kind``:

    ==============  =====================================================
    kind            job_id / cpus / detail
    ==============  =====================================================
    run_start       cpus = machine size, detail = trace job count
    submit          the submitted job
    start           the started job
    finish          the finished job
    outage          detail = cpu delta (negative when capacity returns)
    failure         detail = failed CPUs
    kill            a job killed by that failure
    repair          detail = repaired CPUs
    preempt         a job killed to seat a blocked native head job
    shrink          a malleable job resized down for a blocked native
                    (cpus = new width, detail = old width)
    grow            a malleable job resized up into idle capacity
                    (cpus = new width, detail = old width)
    requeue         a fault-killed native re-entering the queue
    fault_throttle  a scheduling pass blocked by the fault throttle
    sched_pass      detail = jobs started during the pass
    run_end         detail = finished job count
    ==============  =====================================================

    ``queue_depth`` and ``busy_cpus``/``free_cpus`` snapshot the
    scheduler queue and cluster occupancy *after* the event applied.
    """

    time: float
    kind: str
    job_id: Optional[int] = None
    cpus: Optional[int] = None
    queue_depth: int = 0
    busy_cpus: int = 0
    free_cpus: int = 0
    detail: Optional[int] = None

    def to_json(self) -> str:
        """Compact single-line JSON with a fixed key order (the JSONL
        wire format; ``None`` fields are omitted)."""
        payload = {"t": self.time, "ev": self.kind}
        if self.job_id is not None:
            payload["job"] = self.job_id
        if self.cpus is not None:
            payload["cpus"] = self.cpus
        payload["q"] = self.queue_depth
        payload["busy"] = self.busy_cpus
        payload["free"] = self.free_cpus
        if self.detail is not None:
            payload["n"] = self.detail
        return json.dumps(payload, separators=(",", ":"))



class TraceRecorder(abc.ABC):
    """Sink for engine trace records.

    ``enabled`` is checked once per emission site before a record is
    even constructed, so a disabled recorder costs one attribute read
    per event — the engine's hot path never builds records it will not
    keep.
    """

    #: Whether the engine should construct and emit records at all.
    enabled: bool = True

    @abc.abstractmethod
    def record(self, rec: TraceRecord) -> None:
        """Accept one trace record."""

    def close(self) -> None:
        """Flush and release any underlying resources (no-op default)."""


class NullRecorder(TraceRecorder):
    """The zero-overhead default: drops everything.

    ``enabled`` is False, so the engine skips record construction
    entirely; :meth:`record` exists only for callers that emit
    unconditionally.
    """

    enabled = False

    def record(self, rec: TraceRecord) -> None:  # pragma: no cover - skipped
        pass


#: Shared stateless instance used as the engine default.
NULL_RECORDER = NullRecorder()


class MemoryRecorder(TraceRecorder):
    """Keeps every record in an in-process list (tests, analysis)."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def record(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def by_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, in emission order."""
        return [r for r in self.records if r.kind == kind]

    def to_jsonl(self) -> str:
        """The trace serialized exactly as :class:`JsonlRecorder`
        would write it (one record per line, trailing newline)."""
        return "".join(r.to_json() + "\n" for r in self.records)


class JsonlRecorder(TraceRecorder):
    """Buffered JSONL writer: one compact JSON object per record.

    Parameters
    ----------
    target:
        A path (opened for writing, truncating) or an existing text
        stream (not closed by :meth:`close` unless owned).
    buffer_records:
        Lines accumulated before a write; tracing a continual run emits
        hundreds of thousands of records, so per-record writes would
        dominate the run.
    """

    def __init__(
        self,
        target: Union[str, Path, TextIO],
        buffer_records: int = 1024,
    ) -> None:
        if buffer_records <= 0:
            raise ValueError(
                f"buffer_records must be positive, got {buffer_records}"
            )
        self._owns_stream = isinstance(target, (str, Path))
        if self._owns_stream:
            self._stream: TextIO = io.open(
                target, "w", encoding="utf-8", newline="\n"
            )
        else:
            self._stream = target
        self._buffer: List[str] = []
        self._buffer_records = buffer_records
        self.n_records = 0

    def record(self, rec: TraceRecord) -> None:
        self._buffer.append(rec.to_json())
        self.n_records += 1
        if len(self._buffer) >= self._buffer_records:
            self.flush()

    def flush(self) -> None:
        """Write buffered lines to the underlying stream."""
        if self._buffer:
            self._stream.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def close(self) -> None:
        self.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
