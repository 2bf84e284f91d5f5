"""Short-project makespans sampled from one continual run (paper §4.3.1).

"Rather than enduring the considerable simulation time that would go
into generating a statistically significant number of cases, we instead
run a continual interstitial project and then we select from within the
continual project a random start time ... if a short-term interstitial
project with N jobs starts at time t1 then simply find the time t2 when
N interstitial jobs have run from the continual interstitial log."

Given the interstitial jobs of a continual run, a sampled short project
starting at ``t1`` consists of the next ``n_jobs`` interstitial jobs the
controller started at or after ``t1``; its makespan is the latest finish
among them minus ``t1``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.jobs import Job


def _start_finish_arrays(jobs: Iterable[Job]):
    """Per-member start and finish times, ascending, from records (a
    cohort's members share both times, so its run is repeated)."""
    records = [
        (j.start_time, j.finish_time, j.count)
        for j in jobs
        if j.start_time is not None and j.finish_time is not None
    ]
    if not records:
        raise ValidationError("no completed interstitial jobs to sample from")
    records.sort()
    counts = [r[2] for r in records]
    starts = np.repeat(np.array([r[0] for r in records], dtype=float), counts)
    finishes = np.repeat(
        np.array([r[1] for r in records], dtype=float), counts
    )
    return starts, finishes


def makespan_from(
    starts: np.ndarray,
    finishes: np.ndarray,
    t1: float,
    n_jobs: int,
) -> Optional[float]:
    """Makespan of the ``n_jobs`` jobs starting at/after ``t1``.

    ``starts`` must be ascending with ``finishes`` aligned to it.
    Returns None when fewer than ``n_jobs`` jobs start after ``t1``
    (the sampled project would outlive the log — the paper marks such
    cells "makespan >= log time").
    """
    i0 = int(np.searchsorted(starts, t1, side="left"))
    i1 = i0 + n_jobs
    if i1 > starts.size:
        return None
    return float(finishes[i0:i1].max() - t1)


def sample_short_projects(
    interstitial_jobs: Sequence[Job],
    n_jobs: int,
    n_samples: int,
    rng: np.random.Generator,
    t_max: Optional[float] = None,
) -> np.ndarray:
    """Sample ``n_samples`` short-project makespans from a continual run.

    Parameters
    ----------
    interstitial_jobs:
        Completed interstitial jobs of the continual run, as members or
        as records (``SimResult.records``).
    n_jobs:
        Size of the sampled short project.
    n_samples:
        Number of random start times to draw.
    rng:
        Source of randomness (uniform start times).
    t_max:
        Upper bound for start-time draws (defaults to the last
        interstitial start).  Draws whose project would not complete
        within the log are redrawn up to a bounded number of times and
        then dropped, mirroring the paper's exclusion of ">= log time"
        samples.

    Returns
    -------
    numpy.ndarray
        The sampled makespans (possibly fewer than ``n_samples`` when
        the log is too short for the requested project size).
    """
    if n_jobs <= 0:
        raise ValidationError(f"n_jobs must be positive, got {n_jobs}")
    if n_samples <= 0:
        raise ValidationError(f"n_samples must be positive, got {n_samples}")
    starts, finishes = _start_finish_arrays(interstitial_jobs)
    if starts.size < n_jobs:
        return np.empty(0)
    hi = float(starts[-1]) if t_max is None else float(t_max)
    lo = float(starts[0])
    if hi <= lo:
        hi = lo + 1.0
    makespans = []
    attempts = 0
    max_attempts = 20 * n_samples
    while len(makespans) < n_samples and attempts < max_attempts:
        attempts += 1
        t1 = float(rng.uniform(lo, hi))
        span = makespan_from(starts, finishes, t1, n_jobs)
        if span is not None:
            makespans.append(span)
    return np.asarray(makespans, dtype=float)
