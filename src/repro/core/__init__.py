"""Interstitial computing — the paper's primary contribution.

Three ways to exploit the interstices:

* :class:`~repro.core.controller.InterstitialController` — the Figure-1
  algorithm: after every native scheduling pass, submit
  ``floor(free / size)`` interstitial jobs when the queue is empty or
  the head job cannot start (by estimates) for longer than one
  interstitial runtime.  Supports finite projects, continual feeds
  (``continual=True``) and utilization caps (§4.3.2.2's "limited"
  mode).  Its pass gate (dormant, exhausted, fault-throttled) and cap
  headroom serve the elastic controller too.
* :func:`~repro.core.omniscient.pack_project` — the §4.1 omniscient
  baseline: pack a project into the *exact* headroom profile of a
  native-only run, guaranteeing zero native impact by construction.
  :func:`~repro.core.omniscient.pack_continual`, the zero-impact
  harvest bound, runs the same greedy loop until a horizon instead of
  a job count.
* :func:`~repro.core.sampling.sample_short_projects` — the §4.3.1 trick
  of extracting statistically-many short-project makespans from a
  single continual run.

The runners (:mod:`repro.core.runners`) wrap these into one call each:
:func:`~repro.core.runners.run_with_controller` is the only one that
builds an engine, :func:`~repro.core.runners.run_native` and
:func:`~repro.core.runners.run_continual` delegate to it, and
:func:`~repro.core.runners.run_omniscient_samples` packs a project into
the native run it is given at random drop-in times.
"""

from repro.core.base import InterstitialSource
from repro.core.composite import CompositeInterstitialSource
from repro.core.controller import ControllerDecision, InterstitialController
from repro.core.guidelines import Advice, advise, recommend_width
from repro.core.omniscient import (
    OmniscientPacking,
    pack_continual,
    pack_project,
)
from repro.core.runners import (
    run_continual,
    run_native,
    run_omniscient_samples,
    run_with_controller,
)
from repro.core.sampling import sample_short_projects

__all__ = [
    "InterstitialSource",
    "InterstitialController",
    "CompositeInterstitialSource",
    "ControllerDecision",
    "Advice",
    "advise",
    "recommend_width",
    "OmniscientPacking",
    "pack_project",
    "pack_continual",
    "sample_short_projects",
    "run_native",
    "run_continual",
    "run_with_controller",
    "run_omniscient_samples",
]
