"""Parallel experiment executor.

Runs a set of registry experiments either serially (in the caller's
:class:`~repro.experiments.context.RunContext`) or across worker
processes with ``ProcessPoolExecutor``.  Parallel workers cannot share
in-process memory, so they communicate through the content-addressed
disk layer of :class:`~repro.store.RunStore`: each worker rebuilds a
``RunContext`` from the picklable ``(scale, store_path,
check_invariants)`` triple and returns only the rendered table text.

Because every driver is fully deterministic in the scale seed, the
rendered output of ``run_experiments(names, ctx, jobs=N)`` is
byte-identical for every ``N`` — parallelism only changes who computes
a given simulation first.

Scheduling honours :attr:`ExperimentSpec.deps` as a partial order: an
experiment is submitted only once all of its requested deps have
finished, so e.g. Table 3 reads Table 2's point grid from the store
instead of recomputing it in a second process.  Deps that are not part
of the requested set are ignored.
"""

from __future__ import annotations

import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Iterator, Optional, Sequence

from repro.experiments.config import ExperimentScale
from repro.experiments.context import RunContext
from repro.obs import Counters
from repro.sim.results import SimResult
from repro.store import RunStore


def _sim_results(value) -> Iterator[SimResult]:
    """Yield every :class:`SimResult` inside one store product (bare,
    or packed in the ``(result, controller)`` tuples continual runs
    store)."""
    if isinstance(value, SimResult):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            if isinstance(item, SimResult):
                yield item


def aggregate_counters(ctx: RunContext) -> Counters:
    """Merge the :class:`~repro.obs.Counters` of every simulation the
    context's store holds, plus the store's own memoization hit counts.

    This is the experiment-level view of the engine counters: after
    ``run_experiments`` (serial) or a ``repro profile`` run, it answers
    "how many events/passes/preemptions did this table actually cost".
    Parallel workers hold their own stores, so with ``jobs > 1`` the
    aggregate covers only what the calling process computed or loaded.
    """
    total = Counters()
    for value in ctx.store.values():
        for result in _sim_results(value):
            total.merge(result.counters)
    total.cache_hits += ctx.store.hits + ctx.store.disk_hits
    return total


def render_experiment(
    name: str,
    scale: ExperimentScale,
    store_path: Optional[str] = None,
    check_invariants: bool = False,
) -> str:
    """Rebuild a context in *this* process, run one registry driver and
    return its rendered table text.

    This is the shared picklable worker entry point: the parallel
    report executor and the serving daemon's long-lived worker pool
    (:mod:`repro.service`) both dispatch it to ``ProcessPoolExecutor``
    workers.  An unknown ``name`` (or a driver raising mid-run) fails
    only this call — the exception travels back to the submitting
    process and the pool stays usable.
    """
    from repro.experiments.registry import SPECS

    if name not in SPECS:
        raise KeyError(f"unknown experiment {name!r}")
    ctx = RunContext(
        scale=scale,
        store=RunStore(store_path),
        check_invariants=check_invariants,
    )
    return SPECS[name].driver(ctx).render()


def run_experiments(
    names: Sequence[str],
    ctx: RunContext,
    jobs: int = 1,
) -> Dict[str, str]:
    """Run the named experiments; return ``{name: rendered text}``.

    ``jobs <= 1`` runs everything serially in ``ctx``.  ``jobs > 1``
    fans out over a process pool; if ``ctx.store`` has no disk layer a
    temporary one is created for the duration of the call so workers
    can share simulation runs.
    """
    from repro.experiments.registry import SPECS

    unknown = [n for n in names if n not in SPECS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    if jobs <= 1 or len(names) <= 1:
        return {name: SPECS[name].driver(ctx).render() for name in names}

    tmpdir = None
    store_path = ctx.store.path
    if store_path is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-store-")
        store_path = tmpdir.name
    try:
        return _run_parallel(
            names, ctx.scale, str(store_path), ctx.check_invariants, jobs
        )
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()


def _run_parallel(
    names: Sequence[str],
    scale: ExperimentScale,
    store_path: str,
    check_invariants: bool,
    jobs: int,
) -> Dict[str, str]:
    from repro.experiments.registry import SPECS

    requested = set(names)
    rendered: Dict[str, str] = {}
    pending = list(names)  # keep request order for deterministic submits
    running = {}

    def ready(name: str) -> bool:
        return all(
            dep in rendered
            for dep in SPECS[name].deps
            if dep in requested and dep != name
        )

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while pending or running:
            batch = [n for n in pending if ready(n)]
            if not batch and not running:
                # Remaining deps point at each other: break the cycle
                # rather than deadlock (deps are only hints).
                batch = pending[:1]
            for name in batch:
                pending.remove(name)
                future = pool.submit(
                    render_experiment, name, scale, store_path,
                    check_invariants,
                )
                running[future] = name
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                rendered[running.pop(future)] = future.result()
    return rendered
