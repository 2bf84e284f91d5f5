"""Shared helpers for the service test suite.

The daemon tests swap the real ``ProcessPoolExecutor`` + experiment
worker for a thread pool running tiny stub workers, so admission,
coalescing, caching and backpressure can be driven deterministically
in milliseconds.  One integration test (and the HTTP suite's smoke
path) keeps the real pool to pin the end-to-end contract.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.config import SCALES
from repro.service import ServiceConfig, SimulationService


def run_async(coro):
    """Run one coroutine to completion on a fresh event loop."""
    return asyncio.run(coro)


def quick_worker(name, scale, store_path, check_invariants):
    """Instant fake worker: deterministic text per (name, seed)."""
    time.sleep(0.01)
    return f"rendered {name} seed={scale.seed}"


class GatedWorker:
    """A fake worker that blocks until :meth:`release` — the handle
    the admission tests use to hold the pool busy."""

    def __init__(self, fail=False):
        self._gate = threading.Event()
        self._fail = fail
        self.calls = 0

    def release(self):
        self._gate.set()

    def __call__(self, name, scale, store_path, check_invariants):
        self.calls += 1
        if not self._gate.wait(timeout=30.0):
            raise TimeoutError("gated worker never released")
        if self._fail:
            raise RuntimeError("injected worker failure")
        return f"rendered {name} seed={scale.seed}"


def make_service(
    workers=2,
    bulk_cap=0.9,
    max_queue=64,
    worker_fn=None,
    store_path=None,
):
    """A service wired to a thread pool and a stub worker."""
    config = ServiceConfig(
        workers=workers,
        bulk_cap=bulk_cap,
        max_queue=max_queue,
        scale=SCALES["quick"],
        store_path=store_path,
    )
    return SimulationService(
        config,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=worker_fn or quick_worker,
    )


@pytest.fixture
def gated():
    return GatedWorker()
