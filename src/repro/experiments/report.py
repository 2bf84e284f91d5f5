"""One-shot markdown report over every experiment.

``repro report [--scale NAME] [--jobs N]`` (or :func:`generate_report`)
runs the full driver registry in presentation order and writes a
self-contained markdown document with every regenerated table and
figure — the machine-produced companion to the hand-written
``EXPERIMENTS.md``.

With ``jobs > 1`` the experiments run across worker processes sharing
a content-addressed :class:`~repro.store.RunStore`; the document is
assembled in ``REPORT_ORDER`` regardless of completion order, so the
output is byte-identical to a serial run at the same scale.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence, Union

from repro.experiments.context import RunContext
from repro.experiments.executor import aggregate_counters, run_experiments
from repro.experiments.registry import REPORT_ORDER
from repro.obs import PhaseTimers


def generate_report(
    ctx: RunContext,
    experiments: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> str:
    """Run the selected experiments (default: all, in ``REPORT_ORDER``)
    in ``ctx`` and render a markdown report; ``jobs`` selects the number
    of worker processes."""
    scale = ctx.scale
    names = list(experiments) if experiments is not None else list(
        REPORT_ORDER
    )
    rendered = run_experiments(names, ctx, jobs=jobs)
    lines = [
        "# Reproduction report — Interstitial Computing (CLUSTER'03)",
        "",
        f"Scale preset: **{scale.name}** (traces at "
        f"{scale.trace_scale:g}x paper length, projects at "
        f"{scale.project_scale:g}x paper size, seed {scale.seed}).",
        "",
        "Every artifact below is regenerated by "
        "`repro <name> --scale " + scale.name + "`.  Shape claims and "
        "paper-vs-measured commentary live in `EXPERIMENTS.md`.",
        "",
    ]
    for name in names:
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```text")
        lines.append(rendered[name])
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def profile_experiments(
    names: Sequence[str],
    ctx: RunContext,
) -> str:
    """Run experiments serially with phase timers attached and render a
    plain-text profile: engine hot-phase wall-clock, the aggregated
    :class:`~repro.obs.Counters` of every simulation triggered, and the
    store's memoization behavior.

    Backs the CLI's ``repro profile <experiment>``.  Always serial —
    ``perf_counter`` spans from different processes would not be
    comparable — and most informative with a fresh in-memory store
    (cache hits skip the engine entirely, which the cache-hit counter
    makes visible rather than hiding).
    """
    if ctx.timers is None:
        ctx.timers = PhaseTimers()
    wall_t0 = perf_counter()
    run_experiments(names, ctx, jobs=1)
    wall_s = perf_counter() - wall_t0
    counters = aggregate_counters(ctx)
    lines = [
        f"profile: {', '.join(names)} (scale {ctx.scale.name})",
        "",
        f"engine phases (wall-clock, {wall_s:.3f} s elapsed; "
        "priority_maintenance and release_timeline nest inside "
        "scheduling_pass, fault_apply inside event_dispatch)",
        ctx.timers.format(wall_s=wall_s),
        "",
        "aggregated counters",
        f"{'counter':<24} {'value':>12}",
    ]
    lines.extend(
        f"{name:<24} {value:>12d}"
        for name, value in counters.as_dict().items()
    )
    lines.append("")
    lines.append(
        f"store: {len(ctx.store)} products, {ctx.store.hits} memory hits, "
        f"{ctx.store.disk_hits} disk hits, {ctx.store.misses} computes"
    )
    return "\n".join(lines)


def write_report(
    path: Union[str, Path],
    ctx: RunContext,
    experiments: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> Path:
    """Generate and write the report; returns the path."""
    path = Path(path)
    path.write_text(
        generate_report(ctx, experiments, jobs), encoding="utf-8"
    )
    return path
