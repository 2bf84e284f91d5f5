"""Table 1 — Comparison of ASCI machines.

Reports each preset machine's configuration (CPUs, clock, TCycles,
queue algorithm — exact reproductions of the paper's rows) alongside
the synthetic trace's realized statistics (utilization, log days, job
count — calibrated substitutes for the proprietary logs).
"""

from __future__ import annotations

from repro.experiments.common import (
    MACHINE_LABELS,
    MACHINE_ORDER,
    TableResult,
)
from repro.experiments.context import RunContext
from repro.machines.presets import targets
from repro.units import DAY


def run(ctx: RunContext) -> TableResult:
    """Build the Table 1 comparison for the given run context."""
    scale = ctx.scale
    result = TableResult(
        exp_id="table1",
        title=(
            "Table 1: Comparison of ASCI Machines "
            f"(scale={scale.name}: logs at {scale.trace_scale:g}x length)"
        ),
        headers=["row"] + [MACHINE_LABELS[m] for m in MACHINE_ORDER],
    )
    machines = {m: ctx.machine_for(m) for m in MACHINE_ORDER}
    traces = {m: ctx.trace_for(m) for m in MACHINE_ORDER}
    natives = {m: ctx.native_result_for(m) for m in MACHINE_ORDER}

    def row(label, fn):
        result.rows.append([label] + [fn(m) for m in MACHINE_ORDER])

    row("Site", lambda m: machines[m].site)
    row("CPUs", lambda m: str(machines[m].cpus))
    row("clock GHz", lambda m: f"{machines[m].clock_ghz:.3f}")
    row("TCycles", lambda m: f"{machines[m].tera_cycles_per_s:.3f}")
    row("Utilization (paper)", lambda m: f"{targets(m).utilization:.3f}")
    row(
        "Utilization (measured)",
        lambda m: f"{natives[m].native_utilization:.3f}",
    )
    row("times days", lambda m: f"{traces[m].duration / DAY:.1f}")
    row("Jobs", lambda m: str(traces[m].n_jobs))
    row("Queue algorithm", lambda m: machines[m].queue_algorithm)

    for m in MACHINE_ORDER:
        result.data[m] = {
            "cpus": machines[m].cpus,
            "clock_ghz": machines[m].clock_ghz,
            "tera_cycles": machines[m].tera_cycles_per_s,
            "paper_utilization": targets(m).utilization,
            "measured_utilization": natives[m].native_utilization,
            "offered_utilization": traces[m].offered_utilization(
                machines[m]
            ),
            "n_jobs": traces[m].n_jobs,
            "duration_days": traces[m].duration / DAY,
        }
    result.notes.append(
        "Utilization (measured) is the realized native utilization of "
        "the calibrated synthetic trace under the machine's scheduler."
    )
    return result
