"""Step functions over simulated time.

Two complementary representations:

* :class:`StepFunction` — an immutable, NumPy-backed step function built
  once from a batch of (time, delta) events.  Used for utilization
  time-series, the native *headroom profile* consumed by the omniscient
  packer, and any bulk analytics (vectorized per the HPC guides).
* :class:`CapacityProfile` — a small, mutable, list-based profile used by
  conservative backfill to carve out job reservations incrementally.  Its
  sizes are bounded by (queue length + running jobs), so plain Python
  lists with bisect are the right tool.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import CapacityError, ValidationError

#: Sentinel for "never" / unbounded times.
INFINITY = math.inf


class StepFunction:
    """An immutable right-open step function ``f(t) = values[i]`` for
    ``times[i] <= t < times[i+1]``, extending ``values[-1]`` to +inf and
    ``base`` before ``times[0]``.
    """

    __slots__ = ("times", "values", "base")

    def __init__(
        self,
        times: Sequence[float],
        values: Sequence[float],
        base: float = 0.0,
    ) -> None:
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.base = float(base)
        if self.times.ndim != 1 or self.values.ndim != 1:
            raise ValidationError("times and values must be 1-D")
        if self.times.shape != self.values.shape:
            raise ValidationError(
                f"times ({self.times.shape}) and values "
                f"({self.values.shape}) must have equal length"
            )
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValidationError("times must be strictly increasing")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_deltas(
        cls,
        event_times: Iterable[float],
        deltas: Iterable[float],
        base: float = 0.0,
    ) -> "StepFunction":
        """Build from (time, delta) events: the function starts at
        ``base`` and steps by the summed delta at each distinct time."""
        t = np.asarray(list(event_times), dtype=float)
        d = np.asarray(list(deltas), dtype=float)
        if t.shape != d.shape:
            raise ValidationError("event_times and deltas length mismatch")
        if t.size == 0:
            return cls(np.empty(0), np.empty(0), base=base)
        order = np.argsort(t, kind="stable")
        t = t[order]
        d = d[order]
        # Aggregate duplicate timestamps.
        unique_t, inverse = np.unique(t, return_inverse=True)
        summed = np.zeros(unique_t.size)
        np.add.at(summed, inverse, d)
        values = base + np.cumsum(summed)
        return cls(unique_t, values, base=base)

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        """A step function equal to ``value`` everywhere."""
        return cls(np.empty(0), np.empty(0), base=value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __call__(self, t: float) -> float:
        return self.value_at(t)

    def value_at(self, t: float) -> float:
        """Value of the function at time ``t``."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0:
            return self.base
        return float(self.values[idx])

    def min_over(self, t0: float, t1: float) -> float:
        """Minimum of the function over the half-open window ``[t0, t1)``.

        ``t0 == t1`` returns the value at ``t0`` (a zero-length window is
        treated as a point query, which is what reservation checks want).
        """
        if t1 < t0:
            raise ValidationError(f"empty window: t0={t0} > t1={t1}")
        if t1 == t0:
            return self.value_at(t0)
        lo = int(np.searchsorted(self.times, t0, side="right"))
        hi = int(np.searchsorted(self.times, t1, side="left"))
        best = self.value_at(t0)
        if hi > lo:
            best = min(best, float(self.values[lo:hi].min()))
        return best

    def integrate(self, t0: float, t1: float) -> float:
        """Integral of the function over ``[t0, t1]``."""
        if t1 < t0:
            raise ValidationError(f"empty window: t0={t0} > t1={t1}")
        if t1 == t0 or self.times.size == 0:
            return self.base * (t1 - t0)
        # Breakpoints strictly inside the window.
        lo = int(np.searchsorted(self.times, t0, side="right"))
        hi = int(np.searchsorted(self.times, t1, side="left"))
        inner_times = self.times[lo:hi]
        edges = np.concatenate(([t0], inner_times, [t1]))
        # Value on each sub-interval is the function value at its left edge.
        left_vals = np.empty(edges.size - 1)
        left_vals[0] = self.value_at(t0)
        if hi > lo:
            left_vals[1:] = self.values[lo:hi]
        return float(np.sum(left_vals * np.diff(edges)))

    def average(self, t0: float, t1: float) -> float:
        """Time-average of the function over ``[t0, t1]``."""
        if t1 <= t0:
            raise ValidationError(f"window must have positive length")
        return self.integrate(t0, t1) / (t1 - t0)

    def sample(self, sample_times: Sequence[float]) -> np.ndarray:
        """Vectorized evaluation at many times."""
        st = np.asarray(sample_times, dtype=float)
        idx = np.searchsorted(self.times, st, side="right") - 1
        out = np.full(st.shape, self.base)
        mask = idx >= 0
        out[mask] = self.values[idx[mask]]
        return out

    def shift_values(self, offset: float) -> "StepFunction":
        """Return a copy with ``offset`` added to every value."""
        return StepFunction(
            self.times.copy(), self.values + offset, base=self.base + offset
        )

    def negate_from(self, total: float) -> "StepFunction":
        """Return ``total - f``, e.g. turning a busy-CPU profile into a
        free-CPU (headroom) profile."""
        return StepFunction(
            self.times.copy(), total - self.values, base=total - self.base
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StepFunction({self.times.size} breakpoints, "
            f"base={self.base:g})"
        )


class CapacityProfile:
    """A mutable step function of *remaining capacity* over time.

    Starts as a constant ``capacity`` over all time; :meth:`reserve`
    carves out (cpus x duration) rectangles.  Intended for small working
    sets (scheduler reservations), where list + bisect beats NumPy's
    array-rebuild cost.
    """

    def __init__(self, capacity: float, start: float = 0.0) -> None:
        if capacity < 0:
            raise ValidationError(f"capacity must be >= 0, got {capacity}")
        self._times: List[float] = [float(start)]
        self._caps: List[float] = [float(capacity)]

    @classmethod
    def from_claims(
        cls,
        capacity: float,
        start: float,
        claims: Iterable[Tuple[float, float, int]],
    ) -> "CapacityProfile":
        """Profile of ``capacity`` minus running members' active claims.

        ``claims`` is (estimated finish, cpus, count) per run of running
        members; each claim with ``finish > start`` occupies ``[start,
        finish)``.  Equivalent to ``reserve(start, finish, cpus,
        check=False)`` per member but built in one linear sweep instead
        of R quadratic inserts: capacity/claim widths are
        integer-valued, so float addition is exact and neither the
        summation order nor summing a run at once can change any
        segment value.
        """
        # (finish, width of the run), ascending by (finish, cpus).
        active = [
            (float(f), float(c) * n) for f, c, n in sorted(claims)
            if f > start
        ]
        profile = cls(capacity, start=start)
        if not active:
            return profile
        times = profile._times
        caps = profile._caps
        current = float(capacity) - sum([w for _f, w in active])
        caps[0] = current
        for finish, width in active:
            current += width
            if finish == times[-1]:
                caps[-1] = current
            else:
                times.append(finish)
                caps.append(current)
        return profile

    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> Tuple[float, ...]:
        """The profile's breakpoint times (ascending)."""
        return tuple(self._times)

    def copy(self) -> "CapacityProfile":
        dup = CapacityProfile.__new__(CapacityProfile)
        dup._times = list(self._times)
        dup._caps = list(self._caps)
        return dup

    def _segment_index(self, t: float) -> int:
        """Index of the segment containing time ``t`` (clamped left)."""
        return max(0, bisect.bisect_right(self._times, t) - 1)

    def _ensure_breakpoint(self, t: float) -> int:
        """Insert a breakpoint at ``t`` if absent; return its index."""
        idx = bisect.bisect_left(self._times, t)
        if idx < len(self._times) and self._times[idx] == t:
            return idx
        if t < self._times[0]:
            raise ValidationError(
                f"time {t} precedes profile start {self._times[0]}"
            )
        self._times.insert(idx, t)
        self._caps.insert(idx, self._caps[idx - 1])
        return idx

    # ------------------------------------------------------------------
    def capacity_at(self, t: float) -> float:
        """Remaining capacity at time ``t``."""
        return self._caps[self._segment_index(t)]

    def min_over(self, t0: float, t1: float) -> float:
        """Minimum remaining capacity over ``[t0, t1)``; a zero-length
        window is a point query."""
        if t1 < t0:
            raise ValidationError(f"empty window: t0={t0} > t1={t1}")
        i0 = self._segment_index(t0)
        if t1 == t0 or math.isinf(t0):
            return self._caps[i0]
        if math.isinf(t1):
            return min(self._caps[i0:])
        i1 = bisect.bisect_left(self._times, t1)
        return min(self._caps[i0:max(i1, i0 + 1)])

    def reserve(
        self, t0: float, t1: float, cpus: float, check: bool = True
    ) -> None:
        """Subtract ``cpus`` over ``[t0, t1)``.

        With ``check`` (default) raises :class:`CapacityError` if the
        reservation would drive any segment negative; the profile is left
        unmodified in that case.
        """
        if t1 <= t0:
            raise ValidationError(f"reservation window empty: [{t0}, {t1})")
        if cpus < 0:
            raise ValidationError(f"cpus must be >= 0, got {cpus}")
        if cpus == 0:
            return
        if check and self.min_over(t0, t1) < cpus:
            raise CapacityError(
                f"reserving {cpus} CPUs over [{t0}, {t1}) exceeds capacity "
                f"(min available {self.min_over(t0, t1)})"
            )
        i0 = self._ensure_breakpoint(t0)
        if math.isinf(t1):
            i1 = len(self._times)
        else:
            i1 = self._ensure_breakpoint(t1)
        for i in range(i0, i1):
            self._caps[i] -= cpus

    def earliest_fit(
        self, t_from: float, duration: float, cpus: float
    ) -> float:
        """Earliest ``t >= t_from`` with ``min_over(t, t+duration) >= cpus``.

        Candidate start times are ``t_from`` and later breakpoints
        (capacity only changes at breakpoints, so these are the only
        times the answer can change).  Rather than re-scanning the
        window at every candidate — O(k^2) over k segments — the scan
        jumps straight past each *blocking* segment: a segment below
        ``cpus`` keeps intersecting the window of every candidate
        before its end, so no skipped candidate can fit.  Because the
        profile is constant after its last breakpoint, a fit always
        exists provided the final capacity is at least ``cpus``;
        otherwise :data:`INFINITY` is returned.
        """
        if duration < 0:
            raise ValidationError(f"duration must be >= 0, got {duration}")
        if cpus <= 0:
            return t_from
        times = self._times
        caps = self._caps
        n = len(times)
        candidate = t_from
        i = max(0, bisect.bisect_right(times, candidate) - 1)
        while True:
            end = candidate + duration
            blocked = -1
            j = i
            while j < n:
                if caps[j] < cpus:
                    blocked = j
                    break
                if j + 1 >= n or times[j + 1] >= end:
                    break
                j += 1
            if blocked < 0:
                return candidate
            if blocked + 1 >= n:
                return INFINITY
            candidate = times[blocked + 1]
            i = blocked + 1

    def as_step_function(self) -> StepFunction:
        """Snapshot the profile as an immutable :class:`StepFunction`."""
        return StepFunction(
            list(self._times), list(self._caps), base=self._caps[0]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CapacityProfile({len(self._times)} segments)"
