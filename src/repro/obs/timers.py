"""Lightweight wall-clock phase timers for the engine hot path.

:class:`PhaseTimers` accumulates ``time.perf_counter`` spans per named
phase.  The engine brackets its hot phases — event dispatch, the
scheduling pass, event-queue pops, and fault application — and hands
the same timer object to the scheduler, which brackets its incremental
maintenance work (``priority_maintenance``, ``release_timeline``), only
when a timer object is attached; the default (``timers=None``) costs
one ``is not None`` test per phase and nothing else.

Timers are *observability*, never simulation state: they hold host
wall-clock readings, are excluded from run-store keys, and must not
influence results (the differential tests in ``tests/obs`` enforce the
same property for recorders).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional


@dataclass
class PhaseStat:
    """Accumulated wall-clock for one phase."""

    calls: int = 0
    total_s: float = 0.0

    @property
    def mean_ms(self) -> float:
        """Average milliseconds per call (0.0 before any call)."""
        if self.calls == 0:
            return 0.0
        return 1000.0 * self.total_s / self.calls


class PhaseTimers:
    """Named ``perf_counter`` accumulators.

    Phases may nest as long as their names differ (the engine times
    ``fault_apply`` inside ``event_dispatch``); re-entering an already
    open phase raises to catch unbalanced instrumentation early.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, PhaseStat] = {}
        self._open: Dict[str, float] = {}

    def start(self, phase: str) -> None:
        """Open a phase span."""
        if phase in self._open:
            raise RuntimeError(f"phase {phase!r} is already open")
        self._open[phase] = perf_counter()

    def stop(self, phase: str) -> None:
        """Close a phase span and accumulate its duration."""
        try:
            t0 = self._open.pop(phase)
        except KeyError:
            raise RuntimeError(f"phase {phase!r} was never started") from None
        stat = self._stats.setdefault(phase, PhaseStat())
        stat.calls += 1
        stat.total_s += perf_counter() - t0

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, PhaseStat]:
        """Phase -> accumulated stat, in first-seen order."""
        return dict(self._stats)

    def merge(self, other: "PhaseTimers") -> "PhaseTimers":
        """Fold another timer set into this one; returns self."""
        for phase, stat in other._stats.items():
            mine = self._stats.setdefault(phase, PhaseStat())
            mine.calls += stat.calls
            mine.total_s += stat.total_s
        return self

    def format(self, wall_s: Optional[float] = None) -> str:
        """Fixed-width text table of the accumulated phases.

        With ``wall_s`` (elapsed wall-clock of the profiled work) each
        phase also shows its share of that wall time; nested phases
        (``fault_apply`` inside ``event_dispatch``, the scheduler's
        maintenance phases inside ``scheduling_pass``) count toward
        both rows, so shares do not sum to 100%.
        """
        header = f"{'phase':<20} {'calls':>10} {'total s':>10} {'mean ms':>10}"
        if wall_s is not None:
            header += f" {'% wall':>8}"
        lines: List[str] = [header]
        for phase, stat in self._stats.items():
            line = (
                f"{phase:<20} {stat.calls:>10d} {stat.total_s:>10.3f} "
                f"{stat.mean_ms:>10.4f}"
            )
            if wall_s is not None:
                share = 100.0 * stat.total_s / wall_s if wall_s > 0 else 0.0
                line += f" {share:>7.1f}%"
            lines.append(line)
        if not self._stats:
            lines.append("(no phases recorded)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{k}={v.calls}x/{v.total_s:.3f}s" for k, v in self._stats.items()
        )
        return f"PhaseTimers({inner})"
