"""Experiment drivers: one module per paper table/figure plus ablations.

Every driver is ``run(ctx: RunContext) -> TableResult``, producing
exactly the rows/series the paper reports (at a configurable scale),
and is reached through its :mod:`~repro.experiments.registry` entry:
the ``repro`` CLI, the report generator, the parallel executor and the
serving workers all call ``SPECS[name].driver(ctx)``.  ``ctx`` is a
:class:`~repro.experiments.context.RunContext` — the explicit bundle of
scale preset, seeded RNG streams and content-addressed run store that
replaced the old module-global caches; every engine run a driver makes
passes ``**ctx.engine_options()``.

Scaling: the paper's logs span 40-84 days and its largest project is a
million jobs; ``ExperimentScale`` shrinks log length, job counts and
project sizes together so the shape-defining ratios (utilization, job
mix, P/(NC(1-U))) are preserved while everything runs on a laptop.  Set
``REPRO_BENCH_SCALE=paper`` for full-scale runs.
"""

from repro.experiments.config import (
    SCALES,
    ExperimentScale,
    current_scale,
)
from repro.experiments.common import (
    TableResult,
    rng_for,
)
from repro.experiments.context import RunContext

__all__ = [
    "ExperimentScale",
    "SCALES",
    "current_scale",
    "TableResult",
    "rng_for",
    "RunContext",
]
