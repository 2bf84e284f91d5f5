"""Multi-tenant predictive admission for the serving daemon.

The daemon's bulk backlog was one FIFO: a tenant flooding a
million-request sweep would starve every later arrival until its
backlog drained.  This module dogfoods the remaining pieces of the
paper's scheduling machinery on the request path itself:

* :class:`TenantFairQueue` — the bulk backlog as per-tenant lanes,
  dequeued by the paper's priority formula (`sched/priority.py`):
  ``score = fair_share_factor + waited / wait_norm``.  The fair-share
  factor comes from a :class:`~repro.sched.fairshare.FairShareTracker`
  charged with *actual request service time*, so a tenant that has
  recently consumed the pool is deprioritized and a newcomer's requests
  interleave ahead of a flood instead of behind it.  The wait term is
  the same starvation guard as the simulator's ``wait_weight *
  waited_days``, rescaled from days to request timescales.
* :class:`TenantAdmission` — the bookkeeping hub: the tracker, a
  :class:`~repro.sched.predictor.PerUserRuntimePredictor` with tenants
  as "users" (429 ``Retry-After`` quotes each tenant's *predicted*
  backlog drain time, not a global observed-latency heuristic), and
  per-tenant in-flight counts for quota enforcement.
* :class:`TenantQuota` — ``--tenant-quota`` limits: max in-flight
  dispatches per tenant plus a max share of the bulk queue, each
  rejected with a tenant-scoped 429 reason.
* :class:`WorkerAutoscaler` — the continual-mode Table 8 loop applied
  to *capacity*: when queued bulk work is blocked by the utilization
  cap, grow the supervised pool (up to a ceiling); when the pool sits
  under-utilized with an empty backlog, shrink it back (down to a
  floor).  Both transitions require :data:`AUTOSCALE_PATIENCE`
  consecutive observations, the same hysteresis the paper's continual
  mode uses to avoid thrashing on transient load.

Everything here is sans-IO and deterministic under an injected clock;
the asyncio daemon owns the events and tasks.  Tenant ids never enter
content addresses (see :mod:`repro.service.requests`), so tenancy
changes *scheduling only* — results stay byte-identical to the
single-tenant path.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sched.fairshare import FairShareTracker
from repro.sched.predictor import PerUserRuntimePredictor
from repro.service.requests import DEFAULT_TENANT

#: Fair-share half-life for request-path usage.  The simulator defaults
#: to a week; request service times are seconds, so minutes of memory
#: is the equivalent horizon (a tenant stops paying for a sweep a few
#: minutes after it ends).
DEFAULT_TENANT_HALF_LIFE_S = 300.0

#: Seconds of queue wait worth one full unit of fair-share factor —
#: the request-path analogue of the paper's ``wait_weight = 1.0`` per
#: day.  A tenant over-served by the whole factor range catches back up
#: after this long at the head of its lane, bounding worst-case delay.
DEFAULT_WAIT_NORM_S = 300.0

#: Autoscaler control-loop tick period, in seconds.
AUTOSCALE_INTERVAL_S = 2.0

#: Consecutive qualifying autoscaler ticks before a grow or a shrink.
AUTOSCALE_PATIENCE = 2

#: The autoscaler shrinks once utilization falls to this fraction of the
#: bulk cap (with an empty backlog).
AUTOSCALE_SHRINK_UTIL = 0.5


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits (``--tenant-quota``).

    Parameters
    ----------
    max_inflight:
        Maximum concurrent dispatches (both priority classes) per
        tenant.  Interactive requests beyond it are rejected 429; bulk
        requests are never rejected by it — their lane is simply not
        eligible for admission until the tenant drops below the limit.
    max_backlog_share:
        Maximum fraction of the bulk queue bound (``max_queue``) one
        tenant may occupy, in ``(0, 1]``.  Arrivals beyond it are
        rejected 429 with a tenant-scoped reason while other tenants
        still queue freely.
    """

    max_inflight: int
    max_backlog_share: float = 0.5

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"tenant max_inflight must be >= 1: {self.max_inflight}"
            )
        if not (0.0 < self.max_backlog_share <= 1.0):
            raise ConfigurationError(
                f"tenant max_backlog_share must be in (0, 1]: "
                f"{self.max_backlog_share}"
            )

    @classmethod
    def parse(cls, spec: str) -> "TenantQuota":
        """Parse an ``INFLIGHT[:BACKLOG_SHARE]`` CLI spec."""
        head, _, tail = spec.partition(":")
        try:
            max_inflight = int(head)
        except ValueError:
            raise ConfigurationError(
                f"bad --tenant-quota {spec!r}: expected "
                f"INFLIGHT[:BACKLOG_SHARE]"
            ) from None
        if not tail:
            return cls(max_inflight=max_inflight)
        try:
            share = float(tail)
        except ValueError:
            raise ConfigurationError(
                f"bad --tenant-quota {spec!r}: backlog share must be a "
                f"number in (0, 1]"
            ) from None
        return cls(max_inflight=max_inflight, max_backlog_share=share)

    def max_backlog(self, max_queue: int) -> int:
        """The per-tenant bulk queue bound for a ``max_queue``-deep
        queue: at least 1, so a quota never blocks a tenant's first
        queued request."""
        return max(1, int(self.max_backlog_share * max_queue + 1e-9))


@dataclass
class TenantTicket:
    """One queued bulk admission: an opaque payload (the daemon stores
    a :class:`~repro.service.daemon.BulkWaiter`) tagged with its
    tenant, a global arrival sequence number (the deterministic
    tie-break) and its enqueue time (the starvation-guard wait
    term)."""

    tenant: str
    seq: int
    enqueued_at: float
    item: object


class TenantFairQueue:
    """Per-tenant FIFO lanes dequeued in paper-priority order.

    Within a tenant, order is strictly FIFO (a tenant cannot overtake
    itself).  Across tenants, :meth:`pop` picks the lane whose head
    maximizes::

        score = tracker.factor(tenant, now) + waited / DEFAULT_WAIT_NORM_S

    with ties broken by arrival sequence (earliest first) — the exact
    shape of :class:`~repro.sched.priority.PriorityPolicy.score` with
    the day-scale wait weight rescaled to request timescales.  All
    inputs (clock, tracker) are injected, so the ordering is a pure
    function of charge history and arrival order: same tenant mix +
    same charges → identical dequeue order.

    It is a fleet replica's only bulk queue: :meth:`steal` hands the
    tickets it would dispatch last to an idle peer, and
    :meth:`requeue` takes back one the peer never ran.
    """

    def __init__(
        self,
        tracker: FairShareTracker,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.tracker = tracker
        self._clock = clock
        self._lanes: Dict[str, Deque[TenantTicket]] = {}
        self._seq = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def depth(self, tenant: str) -> int:
        """Queued tickets for one tenant."""
        lane = self._lanes.get(tenant)
        return len(lane) if lane else 0

    def push(self, tenant: str, item: object) -> TenantTicket:
        """Append ``item`` to ``tenant``'s lane; returns its ticket."""
        ticket = TenantTicket(
            tenant=tenant,
            seq=self._seq,
            enqueued_at=self._clock(),
            item=item,
        )
        self._seq += 1
        self._lanes.setdefault(tenant, deque()).append(ticket)
        self._size += 1
        return ticket

    def _score(self, ticket: TenantTicket, now: float) -> float:
        waited = max(0.0, now - ticket.enqueued_at)
        return (
            self.tracker.factor(ticket.tenant, now)
            + waited / DEFAULT_WAIT_NORM_S
        )

    def _pop_key(self, ticket: TenantTicket, now: float):
        return (-self._score(ticket, now), ticket.seq)

    def pop(
        self, eligible: Optional[Callable[[str], bool]] = None
    ) -> Optional[TenantTicket]:
        """Dequeue the highest-priority head ticket among lanes whose
        tenant passes ``eligible`` (all lanes when ``None``); returns
        ``None`` when the queue is empty or no lane is eligible (the
        caller waits — quota back-off defers, it never drops)."""
        now = self._clock()
        best: Optional[Tuple[float, int]] = None
        best_tenant: Optional[str] = None
        for tenant, lane in self._lanes.items():
            if not lane:
                continue
            if eligible is not None and not eligible(tenant):
                continue
            key = self._pop_key(lane[0], now)
            if best is None or key < best:
                best = key
                best_tenant = tenant
        if best_tenant is None:
            return None
        lane = self._lanes[best_tenant]
        ticket = lane.popleft()
        if not lane:
            del self._lanes[best_tenant]
        self._size -= 1
        return ticket

    def steal(
        self, n: int, stealable: Callable[[TenantTicket], bool]
    ) -> List[TenantTicket]:
        """Remove and return (in pop order) the last ``n`` tickets
        passing ``stealable`` that successive :meth:`pop` calls would
        return at this instant — the work this queue would dispatch
        last.  Within a lane both ``seq`` and ``enqueued_at`` grow, so
        pop order is one sort of every ticket by pop's own key."""
        now = self._clock()
        order = sorted(
            (ticket for lane in self._lanes.values() for ticket in lane),
            key=lambda ticket: self._pop_key(ticket, now),
        )
        candidates = [ticket for ticket in order if stealable(ticket)]
        taken = candidates[max(0, len(candidates) - n):]
        for ticket in taken:
            lane = self._lanes[ticket.tenant]
            lane.remove(ticket)
            if not lane:
                del self._lanes[ticket.tenant]
        self._size -= len(taken)
        return taken

    def requeue(self, ticket: TenantTicket) -> None:
        """Put a ticket taken by :meth:`steal` back at its arrival
        position in its lane (by ``seq``), with its original enqueue
        time, so it keeps the wait credit it had earned."""
        lane = self._lanes.setdefault(ticket.tenant, deque())
        index = len(lane)
        while index and lane[index - 1].seq > ticket.seq:
            index -= 1
        lane.insert(index, ticket)
        self._size += 1


class TenantAdmission:
    """Tenancy bookkeeping for one service instance.

    Owns the fair-share tracker (charged with actual service seconds),
    the runtime predictor (tenants as "users": it learns each tenant's
    actual/quoted service-time ratio and corrects Retry-After quotes),
    the fair queue, and per-tenant in-flight counts.

    All methods are synchronous and loop-thread-only, mirroring the
    daemon's single-owner state discipline.
    """

    def __init__(
        self,
        *,
        quota: Optional[TenantQuota] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.quota = quota
        self.tracker = FairShareTracker(
            half_life_s=DEFAULT_TENANT_HALF_LIFE_S
        )
        self.predictor = PerUserRuntimePredictor()
        self.queue = TenantFairQueue(self.tracker, clock=clock)
        self._clock = clock
        self._inflight: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def inflight_of(self, tenant: str) -> int:
        return self._inflight.get(tenant, 0)

    def queued_of(self, tenant: str) -> int:
        return self.queue.depth(tenant)

    def pending_of(self, tenant: str) -> int:
        """Queued + dispatched work for one tenant — the depth term of
        its tenant-scoped Retry-After."""
        return self.queued_of(tenant) + self.inflight_of(tenant)

    def eligible(self, tenant: str) -> bool:
        """May the admission loop grant this tenant another dispatch
        right now?  (Quota-full tenants defer; they are never
        dropped.)"""
        if self.quota is None:
            return True
        return self.inflight_of(tenant) < self.quota.max_inflight

    # ------------------------------------------------------------------
    def begin_dispatch(self, tenant: str) -> None:
        """Account one dispatch entering the pool for ``tenant``."""
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1

    def end_dispatch(
        self, tenant: str, service_s: float, estimate_s: float
    ) -> None:
        """Account one dispatch leaving the pool: decrement in-flight,
        charge the tenant's decayed usage with the *actual* pool
        seconds consumed (success or failure — the pool time is spent
        either way), and teach the predictor the actual/quoted ratio.
        """
        count = self._inflight.get(tenant, 0) - 1
        if count > 0:
            self._inflight[tenant] = count
        else:
            self._inflight.pop(tenant, None)
        if service_s > 0.0:
            self.tracker.charge(tenant, (service_s,), self._clock())
            self.predictor.observe_ratio(tenant, service_s, estimate_s)

    # ------------------------------------------------------------------
    def predicted_service_time(
        self, tenant: Optional[str], base_estimate_s: float
    ) -> float:
        """Predictor-corrected per-request service time for a tenant:
        the base estimate (the tenant's own observed mean, or the
        global fallback chain) scaled by the tenant's learned
        actual/quoted ratio.  An unknown tenant has ratio 1.0, so this
        degrades to exactly the pre-tenancy heuristic."""
        user = tenant if tenant is not None else DEFAULT_TENANT
        return base_estimate_s * self.predictor.ratio(user)


class WorkerAutoscaler:
    """Cap-aware worker-pool autoscaler (``--autoscale MIN:MAX``).

    The Table 8 continual-mode loop, applied to capacity instead of
    admission: each tick observes the same signals the admission loop
    gates on —

    * **grow** when bulk work is queued but the utilization cap leaves
      no interstice (``(busy + 1) / workers > bulk_cap``): add one
      worker, up to ``maximum``.  Growing the pool is how the cap's
      *absolute* bulk throughput rises without loosening the cap
      itself — interactive headroom scales with the pool.
    * **shrink** when the backlog is empty and utilization has fallen
      to :data:`AUTOSCALE_SHRINK_UTIL` of the cap or below: drop one
      worker, down to ``minimum``.

    Both transitions require :data:`AUTOSCALE_PATIENCE` consecutive
    qualifying ticks (hysteresis against transient bursts).
    :meth:`tick` is pure decision logic over the service's public
    signals, so tests drive it synchronously; the daemon runs
    :meth:`run` as a background task that ticks every
    :data:`AUTOSCALE_INTERVAL_S` seconds.  Its bounds are checked by
    ``ServiceConfig``, the daemon being its only constructor.
    """

    def __init__(
        self,
        service: "object",
        minimum: int,
        maximum: int,
    ) -> None:
        self.service = service
        self.minimum = minimum
        self.maximum = maximum
        self._grow_streak = 0
        self._shrink_streak = 0

    def decide(self) -> int:
        """The resize delta (+1, -1, or 0) for the current signals,
        updating the hysteresis streaks.  Does not apply anything."""
        service = self.service
        workers = service.workers
        blocked = (
            service.bulk_queue_depth() > 0 and not service._cap_allows()
        )
        idle = (
            service.bulk_queue_depth() == 0
            and service.utilization()
            <= AUTOSCALE_SHRINK_UTIL * service.config.bulk_cap + 1e-9
        )
        if blocked and workers < self.maximum:
            self._grow_streak += 1
            self._shrink_streak = 0
            if self._grow_streak >= AUTOSCALE_PATIENCE:
                self._grow_streak = 0
                return 1
            return 0
        if idle and workers > self.minimum:
            self._shrink_streak += 1
            self._grow_streak = 0
            if self._shrink_streak >= AUTOSCALE_PATIENCE:
                self._shrink_streak = 0
                return -1
            return 0
        self._grow_streak = 0
        self._shrink_streak = 0
        return 0

    async def tick(self) -> int:
        """One control-loop step: decide and apply.  Returns the delta
        applied (0 when steady)."""
        delta = self.decide()
        if delta:
            await self.service.resize_workers(self.service.workers + delta)
        return delta

    async def run(self) -> None:
        """Tick forever every :data:`AUTOSCALE_INTERVAL_S` seconds
        (daemon task; cancelled on service stop)."""
        while True:
            await asyncio.sleep(AUTOSCALE_INTERVAL_S)
            await self.tick()
