"""Figure 5 — Wait-time histogram of all native jobs on Blue Mountain.

Probability mass over log10(wait seconds) bins [0,1) ... [5,6) for the
baseline (black), short continual interstitial jobs (gray) and long
continual interstitial jobs (white).  Paper shape: the big (0,1)-bin
peak of never-waiting jobs is pushed out to the bin containing one
interstitial runtime, with a small cascade tail reaching [4,6).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import (
    CONTINUAL_CPUS,
    CONTINUAL_RUNTIMES_1GHZ,
)
from repro.jobs import Job, JobKind
from repro.metrics.ascii_plots import histogram_rows
from repro.metrics.histograms import LOG10_WAIT_BINS, log10_wait_histogram
from repro.metrics.waits import wait_times

MACHINE = "blue_mountain"

BIN_LABELS = [
    f"[{int(lo)},{int(hi)})"
    for lo, hi in zip(LOG10_WAIT_BINS[:-1], LOG10_WAIT_BINS[1:])
]


def population(jobs: Sequence[Job]) -> Sequence[Job]:
    """Hook for Figure 6's subclassing-by-function: which native jobs
    to histogram (all of them here)."""
    return jobs


def build(exp_id: str, title: str, select, ctx: RunContext) -> TableResult:
    """Shared builder for Figures 5 and 6 (``select`` filters natives)."""
    cases = [("no interstitial", ctx.native_result_for(MACHINE))]
    for runtime_1ghz in CONTINUAL_RUNTIMES_1GHZ:
        res, _ = ctx.continual_result_for(
            MACHINE, CONTINUAL_CPUS, runtime_1ghz
        )
        cases.append((f"{CONTINUAL_CPUS}CPU x {runtime_1ghz:.0f}s@1GHz", res))
    result = TableResult(
        exp_id=exp_id,
        title=title,
        headers=["case"] + BIN_LABELS,
    )
    for label, res in cases:
        natives = select(res.jobs(JobKind.NATIVE))
        hist = log10_wait_histogram(wait_times(natives))
        result.rows.append([label] + [f"{p:.3f}" for p in hist])
        result.data[label] = hist.tolist()
    for label, _ in cases:
        result.notes.append(f"{label}:")
        for line in histogram_rows(BIN_LABELS, result.data[label]):
            result.notes.append("  " + line)
    return result


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    result = build(
        "fig5",
        "Figure 5: wait-time distribution of native jobs on Blue "
        f"Mountain, P(log10 wait s in bin) (scale={scale.name})",
        population,
        ctx,
    )
    result.notes.append(
        "Paper shape: baseline mass concentrated in [0,1); with "
        "interstitial jobs the peak moves to the bin holding one "
        "interstitial runtime ([2,3) for 458s, [3,4) for 3664s), plus a "
        "~1% cascade tail in [4,6)."
    )
    return result
