"""Machine (supercomputer) model.

Following the paper (§3) we "treat each machine as a collection of
identical processors": a machine is defined by a CPU count and an
*effective* clock speed.  Heterogeneous machines like Ross
(256 @ 533 MHz + 1180 @ 600 MHz) are described by
:class:`ProcessorGroup` lists from which the effective clock is the
capacity-weighted mean, so the machine's total capacity in tera-cycles
(Table 1's "TCycles" row) is preserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.units import GHZ, TERA


@dataclass(frozen=True)
class ProcessorGroup:
    """A homogeneous group of processors inside a machine."""

    count: int
    clock_ghz: float

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValidationError(f"count must be positive, got {self.count}")
        if not math.isfinite(self.clock_ghz) or self.clock_ghz <= 0:
            raise ValidationError(
                f"clock_ghz must be positive and finite, got {self.clock_ghz}"
            )

    @property
    def tera_cycles_per_s(self) -> float:
        """Capacity of the group in tera-cycles per second."""
        return self.count * self.clock_ghz * GHZ / TERA


class Machine:
    """A space-shared supercomputer: ``cpus`` identical processors.

    Parameters
    ----------
    name:
        Display name, e.g. ``"Blue Mountain"``.
    cpus:
        Total processor count (ignored when ``groups`` is given, in which
        case it is derived).
    clock_ghz:
        Effective clock speed in GHz (derived from ``groups`` when given).
    groups:
        Optional heterogeneous processor inventory.  The machine still
        schedules as if all CPUs were identical at the capacity-weighted
        mean clock, per the paper's simplification, but the inventory is
        kept for reporting.
    site:
        Hosting site, for reports (e.g. ``"Sandia"``).
    queue_algorithm:
        Name of the production queueing system emulated (e.g. ``"PBS"``).
    """

    def __init__(
        self,
        name: str,
        cpus: Optional[int] = None,
        clock_ghz: Optional[float] = None,
        groups: Optional[Sequence[ProcessorGroup]] = None,
        site: str = "",
        queue_algorithm: str = "",
    ) -> None:
        if groups is not None:
            groups = tuple(groups)
            if not groups:
                raise ValidationError("groups must be non-empty when given")
            derived_cpus = sum(g.count for g in groups)
            derived_clock = (
                sum(g.count * g.clock_ghz for g in groups) / derived_cpus
            )
            if cpus is not None and cpus != derived_cpus:
                raise ValidationError(
                    f"cpus={cpus} inconsistent with groups total "
                    f"{derived_cpus}"
                )
            cpus = derived_cpus
            clock_ghz = derived_clock
        if cpus is None or clock_ghz is None:
            raise ValidationError(
                "either (cpus, clock_ghz) or groups must be provided"
            )
        if cpus <= 0:
            raise ValidationError(f"cpus must be positive, got {cpus}")
        if not math.isfinite(clock_ghz) or clock_ghz <= 0:
            raise ValidationError(
                f"clock_ghz must be positive and finite, got {clock_ghz}"
            )
        self.name = name
        self.cpus = int(cpus)
        self.clock_ghz = float(clock_ghz)
        self.groups: Tuple[ProcessorGroup, ...] = (
            tuple(groups) if groups is not None
            else (ProcessorGroup(self.cpus, self.clock_ghz),)
        )
        self.site = site
        self.queue_algorithm = queue_algorithm

    # ------------------------------------------------------------------
    @property
    def tera_cycles_per_s(self) -> float:
        """Machine capacity in tera-cycles per second (Table 1 "TCycles")."""
        return sum(g.tera_cycles_per_s for g in self.groups)

    def fits(self, cpus: int) -> bool:
        """Whether a job of ``cpus`` processors can ever run here."""
        return 0 < cpus <= self.cpus

    def scaled(self, factor: float, name: Optional[str] = None) -> "Machine":
        """Return a copy with CPU counts scaled by ``factor``.

        Used by the benchmark harness to shrink experiments while keeping
        the clock (and therefore per-job runtimes) unchanged.  Group
        structure is preserved proportionally with at least one CPU per
        group.
        """
        if factor <= 0:
            raise ValidationError(f"factor must be positive, got {factor}")
        groups = tuple(
            ProcessorGroup(max(1, round(g.count * factor)), g.clock_ghz)
            for g in self.groups
        )
        return Machine(
            name=name or f"{self.name} (x{factor:g})",
            groups=groups,
            site=self.site,
            queue_algorithm=self.queue_algorithm,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.name!r}, cpus={self.cpus}, "
            f"clock={self.clock_ghz:.3f} GHz, "
            f"capacity={self.tera_cycles_per_s:.3f} TC/s)"
        )
