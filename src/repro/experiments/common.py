"""Shared infrastructure for experiment drivers.

Stateless helpers only: formatting, scaling, machine labels and the
:class:`TableResult` container.  Run caching lives in the explicit
:class:`~repro.experiments.context.RunContext` / content-addressed
:class:`~repro.store.RunStore` pair — this module deliberately holds
no mutable state, so any number of contexts (threads, processes) can
use it concurrently.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.experiments.config import ExperimentScale
from repro.jobs import InterstitialProject
from repro.metrics.tables import format_table

#: Interstitial accounting identity used by all experiments.
INTERSTITIAL_USER = "interstitial"


def rng_for(scale: ExperimentScale, salt: str) -> np.random.Generator:
    """Deterministic generator derived from the scale seed and a label."""
    return np.random.default_rng(
        (scale.seed, zlib.crc32(salt.encode("utf-8")))
    )


@dataclass
class TableResult:
    """A rendered experiment: paper-style rows plus raw data for tests.

    ``data`` carries machine-readable values (arrays, floats) keyed by
    descriptive names so tests and downstream analysis don't parse the
    formatted cells.
    """

    exp_id: str
    title: str
    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text table with title and footnotes."""
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return text


def fmt_h(seconds: float) -> str:
    """Format seconds as hours with one decimal."""
    return f"{seconds / 3600.0:.1f}"


def fmt_pm_h(mean_s: float, std_s: float) -> str:
    """Format a mean±std pair (seconds in, hours out)."""
    return f"{mean_s / 3600.0:.1f} ± {std_s / 3600.0:.1f}"


def fmt_k(seconds: float) -> str:
    """Format seconds the paper's 'k' way: whole seconds below 1k, one
    decimal of thousands (e.g. ``4.4k``) below 100k, and whole
    thousands (e.g. ``123k``) from 100k up.

    Thresholds sit at the rounding boundaries (999.5, 99 950) so the
    rendered value never reads ``1000`` or ``100.0k``.
    """
    if seconds < 999.5:
        return f"{seconds:.0f}"
    if seconds < 99_950.0:
        return f"{seconds / 1000.0:.1f}k"
    return f"{seconds / 1000.0:.0f}k"


def scaled_kjobs(kjobs: float, scale: ExperimentScale) -> int:
    """Scale a paper job count given in thousands; at least one job."""
    return max(1, round(kjobs * 1000 * scale.project_scale))


def project_from(
    kjobs: float,
    cpus: int,
    runtime_1ghz: float,
    scale: ExperimentScale,
    name: str = "",
) -> InterstitialProject:
    """Build the scaled version of a paper project configuration."""
    return InterstitialProject(
        n_jobs=scaled_kjobs(kjobs, scale),
        cpus_per_job=cpus,
        runtime_1ghz=runtime_1ghz,
        name=name or f"{kjobs:g}k x {cpus}CPU x {runtime_1ghz:.0f}s@1GHz",
        user=INTERSTITIAL_USER,
        group=INTERSTITIAL_USER,
    )


#: The three machines in the paper's column order.
MACHINE_ORDER: Sequence[str] = ("ross", "blue_mountain", "blue_pacific")

#: Pretty names for table headers.
MACHINE_LABELS: Dict[str, str] = {
    "ross": "Ross",
    "blue_mountain": "Blue Mt.",
    "blue_pacific": "Blue Pacific",
}
