"""Ablation — interstitial job width sweep (the breakage staircase).

Omniscient makespan of an equal-peta-cycle project as CPUs/job sweeps
over powers of two, on Blue Pacific (whose ~90-CPU average free pool
makes breakage bite hard, per §4.2).  Each measured point is compared
with the analytic breakage prediction relative to the 1-CPU project.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.core.runners import run_omniscient_samples
from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.jobs import InterstitialProject
from repro.theory import breakage_factor
from repro.units import HOUR

MACHINE = "blue_pacific"
WIDTHS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
PETA_CYCLES = 7.7
RUNTIME_1GHZ = 120.0


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    machine = ctx.machine_for(MACHINE)
    native = ctx.native_result_for(MACHINE)
    trace = ctx.trace_for(MACHINE)
    utilization = native.native_utilization
    result = TableResult(
        exp_id="ablation_width",
        title=(
            "Ablation: breakage staircase on Blue Pacific — omniscient "
            f"makespan vs CPUs/job at {PETA_CYCLES * scale.project_scale:.2g} "
            f"peta-cycles (scale={scale.name})"
        ),
        headers=[
            "CPUs/job",
            "mean makespan h",
            "vs 1-CPU",
            "theory breakage",
        ],
    )
    base_mean = None
    for width in WIDTHS:
        project = InterstitialProject.from_peta_cycles(
            PETA_CYCLES * scale.project_scale,
            cpus_per_job=width,
            runtime_1ghz=RUNTIME_1GHZ,
        )
        makespans, _ = run_omniscient_samples(
            native,
            trace.jobs,
            project,
            # The packer is cheap, so buy extra samples: width ratios
            # are a small effect easily drowned by drop-in-time noise.
            n_samples=max(30, 3 * scale.omniscient_samples),
            # One shared salt: every width sees the same drop-in times,
            # so the ratio isolates breakage from start-time luck.
            rng=ctx.rng_for("width-sweep"),
        )
        mean = float(makespans.mean())
        if base_mean is None:
            base_mean = mean
        theory = breakage_factor(machine.cpus, utilization, width)
        result.rows.append(
            [
                str(width),
                f"{mean / HOUR:.1f}",
                f"{mean / base_mean:.3f}",
                "inf" if math.isinf(theory) else f"{theory:.3f}",
            ]
        )
        result.data[width] = {
            "mean_makespan_s": mean,
            "ratio_vs_1cpu": mean / base_mean,
            "theory_breakage": theory,
        }
    result.notes.append(
        "Expected: ratios stay ~1 while many jobs tile the free pool, "
        "then climb in steps as floor(free/width) drops — the paper's "
        "breakage effect, dramatic only near the pool size."
    )
    return result
