"""Figure 4 (outage variant) — the "100% except for outages" panel.

The paper's bottom panel shows continual interstitial computing pinning
utilization at ~1.0 *except during outages*.  The default runs inject
no downtime, so this variant adds a realistic outage schedule (a full
maintenance day and a partial-loss window) and shows the dips appear
exactly where scheduled while the rest of the series stays pinned.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import TableResult
from repro.experiments.context import RunContext
from repro.metrics.ascii_plots import sparkline
from repro.metrics.utilization import hourly_utilization
from repro.sim.outages import Outage, OutageSchedule
from repro.units import DAY

MACHINE = "blue_mountain"
CPUS = 32
RUNTIME_1GHZ = 120.0


def outage_schedule(machine, duration: float) -> OutageSchedule:
    """A full-machine maintenance window at 40% of the log and a half-
    machine partial loss at 70%.

    Windows last a day, clamped to a fifth of the log so they never
    overlap (and never stack past the machine size) at tiny test
    scales.
    """
    window = min(DAY, 0.2 * duration)
    full_start = 0.4 * duration
    partial_start = 0.7 * duration
    return OutageSchedule(
        [
            Outage(full_start, full_start + window, machine.cpus),
            Outage(
                partial_start, partial_start + window, machine.cpus // 2
            ),
        ]
    )


def run(ctx: RunContext) -> TableResult:
    scale = ctx.scale
    machine = ctx.machine_for(MACHINE)
    trace = ctx.trace_for(MACHINE)
    outages = outage_schedule(machine, trace.duration)
    result_run, _ = ctx.continual_run(
        MACHINE, CPUS, RUNTIME_1GHZ, outages=outages
    )
    times, utils = hourly_utilization(result_run, t1=trace.duration)

    result = TableResult(
        exp_id="fig4_outages",
        title=(
            "Figure 4 variant: continual interstitial utilization with "
            f"injected outages (Blue Mountain, scale={scale.name})"
        ),
        headers=["window", "mean util"],
    )
    windows = {
        "outside outages": np.ones(times.size, dtype=bool),
        "full outage day": np.zeros(times.size, dtype=bool),
        "half outage day": np.zeros(times.size, dtype=bool),
    }
    for outage in outages:
        mask = (times >= outage.start) & (times < outage.end)
        key = (
            "full outage day"
            if outage.cpus == machine.cpus
            else "half outage day"
        )
        windows[key] |= mask
        windows["outside outages"] &= ~mask
    for label, mask in windows.items():
        mean = float(utils[mask].mean()) if mask.any() else float("nan")
        result.rows.append([label, f"{mean:.3f}"])
        result.data[label] = mean
    result.data["series"] = utils.tolist()
    result.notes.append(
        "hourly utilization: "
        + sparkline(utils, lo=0.0, hi=1.0, width=72)
    )
    result.notes.append(
        "Paper shape: pinned near 1.0 except during outages; the dips "
        "above occur exactly in the scheduled windows (drain + refill "
        "edges make them slightly wider than the windows themselves)."
    )
    return result
