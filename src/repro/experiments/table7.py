"""Table 7 — Continual interstitial computing on Blue Pacific.

Paper: the already-.916 machine gains little overall utilization
(.964/.946), the median native wait is essentially unchanged, and the
32 CPU x 2601 s stream only pushes ~1k jobs through — the machine's
small free pool and 32-CPU breakage strangle the long-job stream.
"""

from __future__ import annotations

from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import build


def run(ctx: RunContext) -> TableResult:
    result = build("table7", "blue_pacific", ctx, "Blue Pacific")
    result.title = "Table 7: " + result.title
    result.notes.append(
        "Paper shapes: small utilization gain (already >.9); median "
        "wait ~unchanged; far fewer long interstitial jobs than short."
    )
    return result
