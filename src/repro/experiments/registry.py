"""Registry of all experiment drivers, keyed by CLI name.

Single source of truth consumed by the CLI, the report generator, the
parallel executor and the test suite.  Each entry is a declarative
:class:`ExperimentSpec`: the CLI name, the driver callable (every
driver exposes ``run(ctx) -> TableResult``) and the names of other
experiments whose artifacts it reuses.  ``deps`` are scheduling hints
for the parallel executor — running an experiment before its deps is
still *correct* (drivers recompute anything missing through the
content-addressed store), just wasteful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.experiments import (
    ablation_caps,
    ablation_efficiency,
    ablation_estimates,
    ablation_load,
    ablation_predictor,
    ablation_preemption,
    ablation_width,
    cascade_analysis,
    elastic_tables,
    fault_ablation,
    fig2,
    fig3,
    fig4,
    fig4_outages,
    fig5,
    fig6,
    fit_theory,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8_limited,
    table8_ross,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: CLI name, driver and scheduling hints."""

    #: CLI name (also the report section heading).
    name: str
    #: Driver callable; ``driver(ctx)`` returns a ``TableResult``.
    driver: Callable
    #: Experiments whose store/artifact output this driver reuses.
    deps: Tuple[str, ...] = field(default=())


def _specs(*entries: ExperimentSpec) -> Dict[str, ExperimentSpec]:
    return {spec.name: spec for spec in entries}


#: CLI name -> declarative spec, in presentation order (the paper's
#: tables and figures before the extensions).
SPECS: Dict[str, ExperimentSpec] = _specs(
    ExperimentSpec("table1", table1.run),
    ExperimentSpec("table2", table2.run),
    ExperimentSpec("fit-theory", fit_theory.run, deps=("table2",)),
    ExperimentSpec("table3", table3.run, deps=("table2",)),
    ExperimentSpec("fig2", fig2.run, deps=("table2",)),
    ExperimentSpec("table4", table4.run),
    ExperimentSpec("fig3", fig3.run),
    ExperimentSpec("table5", table5.run),
    ExperimentSpec("table6", table6.run, deps=("table5",)),
    ExperimentSpec("table7", table7.run),
    ExperimentSpec("table8-ross", table8_ross.run),
    ExperimentSpec("table8-limited", table8_limited.run, deps=("table6",)),
    ExperimentSpec("fig4", fig4.run, deps=("table6",)),
    ExperimentSpec("fig4-outages", fig4_outages.run),
    ExperimentSpec("fault-ablation", fault_ablation.run),
    ExperimentSpec("fig5", fig5.run, deps=("table6",)),
    ExperimentSpec("fig6", fig6.run, deps=("fig5",)),
    ExperimentSpec("cascade-analysis", cascade_analysis.run, deps=("table6",)),
    ExperimentSpec("ablation-estimates", ablation_estimates.run),
    ExperimentSpec("ablation-predictor", ablation_predictor.run),
    ExperimentSpec("ablation-preemption", ablation_preemption.run),
    ExperimentSpec("ablation-width", ablation_width.run),
    ExperimentSpec("ablation-caps", ablation_caps.run, deps=("table8-limited",)),
    ExperimentSpec("ablation-load", ablation_load.run),
    ExperimentSpec("ablation-efficiency", ablation_efficiency.run),
    ExperimentSpec("elastic-tables", elastic_tables.run),
)

#: Presentation order, used by the report generator and ``repro all``.
REPORT_ORDER = tuple(SPECS)
