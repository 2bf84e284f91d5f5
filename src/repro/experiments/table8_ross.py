"""Table 8 (first) — Continual interstitial computing on Ross.

Paper: overall utilization jumps from .631 to .988; native impact is
modest except that 1633 s interstitial jobs inflate the 5 %-largest
median wait (Ross's week-long native jobs plus its more restrictive
backfill make the big jobs the victims).
"""

from __future__ import annotations

from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import build


def run(ctx: RunContext) -> TableResult:
    result = build("table8_ross", "ross", ctx, "Ross")
    result.title = "Table 8a: " + result.title
    result.notes.append(
        "Paper shapes: overall util .631 -> .988; native util ~flat; "
        "long interstitial jobs specifically hurt the 5% largest jobs."
    )
    return result
