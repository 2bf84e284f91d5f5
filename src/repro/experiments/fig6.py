"""Figure 6 — Wait-time histogram of the 5 % largest native jobs
(by CPU-seconds) on Blue Mountain.

Same construction as Figure 5 restricted to the biggest jobs — the
population the paper shows suffering most, since wide jobs are exactly
the ones whose backfill windows interstitial jobs poach.
"""

from __future__ import annotations

from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.experiments.fig5 import build
from repro.metrics.waits import largest_fraction


def run(ctx: RunContext) -> TableResult:
    result = build(
        "fig6",
        "Figure 6: wait-time distribution of the 5% largest native jobs "
        f"on Blue Mountain (by CPU-sec) (scale={ctx.scale.name})",
        lambda jobs: largest_fraction(jobs, 0.05),
        ctx,
    )
    result.notes.append(
        "Paper shape: compared to Figure 5 the large-job distribution "
        "shifts further right under interstitial load, especially for "
        "the longer interstitial jobs."
    )
    return result
