"""Always-on engine event counters.

:class:`Counters` is a flat integer registry the engine increments as
it processes events; each :class:`~repro.sim.results.SimResult` carries
the final values.  Increments are plain attribute adds, cheap enough to
leave on unconditionally — which is what makes them trustworthy: the
counters a test reconciles against aggregates are the ones production
runs collected too, not a parallel instrumented build.

Counters from many runs merge additively (:meth:`merge`), which is how
``repro profile`` and the experiment executor aggregate across every
simulation an experiment triggered.  ``cache_hits`` is the one field
the engine never touches: the store layer's hit count is merged in by
the aggregation helpers, so one registry describes both simulation and
memoization behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, TypeVar

_R = TypeVar("_R", bound="_Registry")


class _Registry:
    """The shared contract of the counter registries below: integer
    dataclass fields, additive :meth:`merge`, stable :meth:`as_dict`
    order."""

    def merge(self: _R, other: _R) -> _R:
        """Add ``other``'s counts into this registry; returns self."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self) -> Dict[str, int]:
        """Field -> value mapping in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __bool__(self) -> bool:
        """True when any counter is non-zero."""
        return any(getattr(self, f.name) for f in fields(self))


@dataclass
class Counters(_Registry):
    """Integer event counters for one simulation run (or a merged set).

    Attributes
    ----------
    events:
        Job-level simulator events handled (every kind, including
        wakes).  One FINISH queue entry carries the members of a start
        cohort that share a finish time and counts one event per
        member, stale members included — the count one entry per job
        gives (DESIGN §13).
    scheduling_passes:
        Scheduling passes executed (one per event batch).
    submits:
        Native SUBMIT events processed.
    starts:
        Jobs allocated CPUs (native and interstitial).
    finishes:
        Jobs that ran to completion.
    requeues:
        Fault-killed natives re-entering the queue (RESUBMIT events).
    preempt_kills:
        Interstitial jobs killed to seat a blocked native head job
        (work wasted).
    preempt_shrinks:
        Malleable interstitial jobs *shrunk* — CPUs released to a
        blocked native with the remaining runtime re-scaled, no work
        wasted (DESIGN §16).
    grows:
        Width increases of running malleable jobs into idle capacity.
    molded_starts:
        Interstitial starts whose width was molded to free capacity at
        submit time (jobs carrying elastic width bounds).
    fault_kills:
        Jobs killed by node failures (native and interstitial).
    failures, repairs, outages, wakes:
        Capacity/wake events processed, by kind.
    backfill_starts:
        Native jobs started out of priority order (around a blocked,
        higher-priority job) by the scheduler's backfill.
    pass_skips:
        Scheduling passes the scheduler proved could start nothing and
        skipped without evaluating the queue (DESIGN §13).
    priority_rekeys:
        Full re-keys of the scheduler's priority order (one per
        fair-share charge batch that actually changed priorities).
    release_rebuilds:
        Rebuilds of the scheduler's predictor-corrected release claim
        cache (running set or learned ratios changed).
    fault_throttle_passes:
        Scheduling passes during which the interstitial source was
        suppressed by its fault throttle.
    invariant_checks:
        Post-batch accounting validations executed
        (``check_invariants`` mode).
    cache_hits:
        Run-store memoization hits (merged in by the aggregation
        layer; always 0 on a single engine run).
    """

    events: int = 0
    scheduling_passes: int = 0
    submits: int = 0
    starts: int = 0
    finishes: int = 0
    requeues: int = 0
    preempt_kills: int = 0
    preempt_shrinks: int = 0
    grows: int = 0
    molded_starts: int = 0
    fault_kills: int = 0
    failures: int = 0
    repairs: int = 0
    outages: int = 0
    wakes: int = 0
    backfill_starts: int = 0
    pass_skips: int = 0
    priority_rekeys: int = 0
    release_rebuilds: int = 0
    fault_throttle_passes: int = 0
    invariant_checks: int = 0
    cache_hits: int = 0


@dataclass
class StoreCounters(_Registry):
    """Integer counters for one :class:`~repro.store.RunStore`.

    Same contract as :class:`Counters` — always on, additive
    :meth:`merge`, stable :meth:`as_dict` order — but counting cache
    and coordination behavior instead of engine events.

    Attributes
    ----------
    hits:
        In-memory layer hits.
    disk_hits:
        On-disk layer hits (entry loaded and promoted to memory).
    misses:
        Lookups that fell through to a compute.
    lease_waits:
        Times this store waited on another process's in-flight
        computation lease instead of stampeding into a duplicate run.
    lease_breaks:
        Stale leases (owner presumed dead) this store broke to take
        over a computation.
    integrity_failures:
        Disk entries whose content failed SHA-256 verification (or
        could not be decoded at all).
    quarantined:
        Corrupt disk entries moved into the store's ``corrupt/``
        subdirectory instead of crashing the reader.
    peer_gets:
        Peer cache lookups served to other fleet replicas (hit or
        miss; the asking side counts hits/misses in its own
        :class:`ServiceCounters`).
    peer_puts:
        Entries replicated *into* this store by other fleet replicas
        (a non-owner computed a key this replica owns).
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    lease_waits: int = 0
    lease_breaks: int = 0
    integrity_failures: int = 0
    quarantined: int = 0
    peer_gets: int = 0
    peer_puts: int = 0


@dataclass
class TenantCounters(_Registry):
    """Per-tenant request counters for the serving daemon's
    multi-tenant admission layer (:mod:`repro.service.tenancy`).

    Same contract as :class:`Counters` — always on, additive
    :meth:`merge`, stable :meth:`as_dict` order.  One instance exists
    per tenant id seen by a replica; ``/metrics`` surfaces them under
    a ``tenants`` section and ``/fleet/metrics`` sums them across
    replicas.

    Attributes
    ----------
    requests:
        Requests received from this tenant (every class and outcome).
    accepted:
        Requests admitted past backpressure (served from cache,
        coalesced, or dispatched).
    completed:
        Requests that returned a result (cache, coalesce, or compute).
    computes:
        Computations dispatched to the worker pool for this tenant.
    rejections:
        Requests bounced with 429 backpressure, any reason.
    quota_rejections:
        The subset of ``rejections`` caused by this tenant's own
        quota (max in-flight or max backlog share).
    failures:
        Dispatched computations that raised terminally.
    """

    requests: int = 0
    accepted: int = 0
    completed: int = 0
    computes: int = 0
    rejections: int = 0
    quota_rejections: int = 0
    failures: int = 0


@dataclass
class ServiceCounters(_Registry):
    """Integer request counters for the serving daemon
    (:mod:`repro.service`), surfaced by its ``/metrics`` endpoint.

    Same contract as :class:`Counters` — always on, additive
    :meth:`merge`, stable :meth:`as_dict` order — but counting
    *requests* through the admission pipeline rather than engine
    events.

    Attributes
    ----------
    requests:
        Requests received (every class and outcome).
    interactive_requests, bulk_requests:
        Requests received, by priority class.
    cache_hits:
        Requests answered straight from the run store.
    coalesced_hits:
        Requests that joined an identical in-flight computation
        instead of starting their own.
    computes:
        Underlying simulation runs actually dispatched to the worker
        pool (the denominator coalescing and caching shrink).
    admits:
        Dispatches admitted to the worker pool (both classes).
    cap_deferrals:
        Admission passes that held queued bulk work back because the
        pool's utilization cap left no interstice.
    rejections:
        Requests bounced with backpressure (full bulk queue).
    failures:
        Dispatched computations that raised in the worker.
    drain_rejections:
        Requests refused because the service was draining.
    retries:
        Re-executions of a request whose worker crashed, hung past
        its deadline, or lost its pool (bounded by the service's
        :class:`~repro.faults.RetryPolicy`).
    dead_letters:
        Requests abandoned after exhausting their retry budget.
    worker_replacements:
        Times the supervisor replaced the worker pool after a crash,
        a hung request, or a refused submission.
    request_timeouts:
        Dispatches that exceeded the per-request deadline.
    journal_replays:
        Accepted bulk requests recovered from the durable journal and
        re-executed after a restart.
    forwards:
        Requests this replica routed to their consistent-hash ring
        owner on another fleet replica (see
        :mod:`repro.service.fleet`).
    peer_hits:
        Computations avoided because the ring owner's cache already
        held the key (a peer lookup before compute hit).
    peer_misses:
        Peer lookups against the ring owner that found nothing (the
        asking replica then computed locally).
    peer_replications:
        Completed results this replica pushed to their ring owner's
        store (it computed a key it does not own).
    steals:
        Queued bulk requests this replica pulled from a loaded peer's
        fair queue and executed itself.
    steals_granted:
        Queued bulk requests this replica handed to an idle peer.
    steal_requeues:
        Stolen entries put back in the local fair queue because the
        thief never reported a result within the steal deadline, or
        refused the work (429/503).
    quota_rejections:
        Requests bounced because the *tenant* was over its quota
        (max in-flight or max backlog share); a subset of neither
        ``rejections`` nor ``drain_rejections`` — quota bounces are
        counted here and in ``rejections`` both, so ``rejections``
        stays the total 429 count.
    scale_ups, scale_downs:
        Worker-pool resizes by the cap-aware autoscaler (or a manual
        ``resize_workers`` call), by direction.
    """

    requests: int = 0
    interactive_requests: int = 0
    bulk_requests: int = 0
    cache_hits: int = 0
    coalesced_hits: int = 0
    computes: int = 0
    admits: int = 0
    cap_deferrals: int = 0
    rejections: int = 0
    failures: int = 0
    drain_rejections: int = 0
    retries: int = 0
    dead_letters: int = 0
    worker_replacements: int = 0
    request_timeouts: int = 0
    journal_replays: int = 0
    forwards: int = 0
    peer_hits: int = 0
    peer_misses: int = 0
    peer_replications: int = 0
    steals: int = 0
    steals_granted: int = 0
    steal_requeues: int = 0
    quota_rejections: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
