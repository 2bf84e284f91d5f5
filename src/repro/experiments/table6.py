"""Table 6 — Continual interstitial computing on Blue Mountain.

Paper: 408 685 / 49 465 interstitial jobs pushed overall utilization
from .776 to ~.94 with native utilization and throughput unchanged; the
5 %-largest median wait grew from ~1k s to 4.4k / 5.7k s.
"""

from __future__ import annotations

from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import build


def run(ctx: RunContext) -> TableResult:
    result = build("table6", "blue_mountain", ctx, "Blue Mountain")
    result.title = "Table 6: " + result.title
    result.notes.append(
        "Paper shapes: overall util .776 -> ~.94; native util and job "
        "count unchanged; largest-5% median wait grows by roughly one "
        "interstitial runtime (more for the longer jobs)."
    )
    return result
