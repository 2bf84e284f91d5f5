"""The simulation service core: admission control over a worker pool.

:class:`SimulationService` is the asyncio orchestrator behind ``repro
serve``.  It dogfoods the paper's interstitial policy on its own
request queue:

* **interactive** requests are the natives: they go straight to the
  long-lived ``ProcessPoolExecutor`` pool (the PR-2 report executor's
  worker entry point, now shared);
* **bulk** requests are the interstitials: they wait in a bounded
  queue and are admitted one at a time, only while admitting one more
  job keeps pool utilization at or below ``bulk_cap`` — the service
  scheduling its own interstices, exactly the Table 8 utilization-cap
  loop at request granularity;
* **tenants** are the users: the bulk queue is per-tenant fair-share
  lanes (:mod:`repro.service.tenancy`) charged with actual service
  time, Retry-After is quoted from each tenant's predicted backlog
  drain, quotas bound any one tenant's footprint, and an optional
  autoscaler grows/shrinks the pool against the cap signal.

Layered on top of admission:

* **caching** — responses are rendered-table products in a
  content-addressed :class:`~repro.store.RunStore`, so a repeated
  configuration is answered without touching the pool;
* **coalescing** — concurrent requests hashing to the same content
  address share one in-flight computation (the leader computes,
  followers await its future);
* **backpressure** — a full bulk queue (or an over-committed
  interactive backlog) bounces the request with a 429-style response
  whose ``retry_after`` is computed from queue depth and observed
  latency;
* **graceful drain** — new work is refused while everything already
  accepted (queued bulk included) runs to completion;
* **durability** — with a journal configured, every accepted bulk
  request is WAL-logged (fsynced before admission) and settled with
  exactly one terminal record, so a crashed or SIGKILLed daemon
  replays and finishes its accepted backlog on restart;
* **supervision** — dispatches run under the
  :class:`~repro.service.resilience.WorkerSupervisor`: crashed or
  hung workers are replaced and the victim request retried under a
  :class:`~repro.faults.RetryPolicy`, dead-lettered once the budget
  is spent.

The event loop owns all mutable state; only worker computations leave
the loop thread.  Tests can substitute the pool and the worker
function (``pool_factory`` / ``worker_fn``) to drive admission timing
deterministically without real simulations.  See ``DESIGN.md`` §12
for the failure semantics.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError, DeadLetterError, ServiceError
from repro.experiments.config import ExperimentScale, current_scale
from repro.experiments.executor import render_experiment
from repro.experiments.registry import SPECS
from repro.faults import RetryPolicy
from repro.service.metrics import ServiceMetrics
from repro.service.requests import (
    BULK,
    ServiceResponse,
    SimRequest,
)
from repro.service.resilience import (
    COMPLETED,
    DEAD_LETTERED,
    DEFAULT_SERVICE_RETRY,
    FAILED,
    BulkJournal,
    WorkerSupervisor,
)
from repro.service.tenancy import (
    TenantAdmission,
    TenantQuota,
    TenantTicket,
    WorkerAutoscaler,
)
from repro.store import RunStore, content_key
from repro.version import repro_version

#: Interactive overcommit bound: interactive requests are rejected once
#: more than ``workers + MAX_BACKLOG`` dispatches are in flight.
MAX_BACKLOG = 8


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance.

    Parameters
    ----------
    workers:
        Worker-pool processes (the "machine size" the cap is over).
    bulk_cap:
        Utilization cap for bulk admission in ``(0, 1]``: a bulk job
        is admitted only while ``(busy + 1) / workers <= bulk_cap``.
        ``1.0`` disables the policy (bulk may fill the pool).
    max_queue:
        Bulk queue bound; arrivals beyond it are rejected with
        backpressure.
    scale:
        Default :class:`ExperimentScale` for requests that name none.
    store_path:
        Optional directory for the shared on-disk run store (response
        cache *and* the workers' simulation-product cache).
    check_invariants:
        Run worker simulations with the engine validator enabled.
    journal_path:
        Optional path for the durable bulk-request journal (WAL).
        Accepted bulk requests are fsynced here before admission and
        replayed on the next start, so a crashed daemon resumes its
        queued work.  ``None`` disables journaling.
    request_timeout:
        Per-request worker deadline in seconds; a dispatch running
        longer is treated as hung — its pool is replaced and the
        request retried.  ``None`` disables deadlines.
    retry:
        :class:`~repro.faults.RetryPolicy` bounding re-execution of
        requests whose worker crashed or hung (dead-letter after the
        attempt budget).
    tenant_quota:
        Optional per-tenant admission limits (max in-flight dispatches
        plus max bulk-queue share); ``None`` leaves tenants bounded
        only by fair-share scheduling.
    autoscale_min, autoscale_max:
        Worker-pool bounds for the cap-aware autoscaler.  Both set
        enables it (``workers`` is the starting size and must lie in
        the range); both ``None`` (default) keeps the pool fixed.
    """

    workers: int = 2
    bulk_cap: float = 0.9
    max_queue: int = 64
    scale: Optional[ExperimentScale] = None
    store_path: Optional[str] = None
    check_invariants: bool = False
    journal_path: Optional[str] = None
    request_timeout: Optional[float] = None
    retry: RetryPolicy = DEFAULT_SERVICE_RETRY
    tenant_quota: Optional[TenantQuota] = None
    autoscale_min: Optional[int] = None
    autoscale_max: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1: {self.workers}")
        if not (0.0 < self.bulk_cap <= 1.0):
            raise ConfigurationError(
                f"bulk_cap must be in (0, 1]: {self.bulk_cap}"
            )
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1: {self.max_queue}"
            )
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be positive: {self.request_timeout}"
            )
        if (self.autoscale_min is None) != (self.autoscale_max is None):
            raise ConfigurationError(
                "autoscale_min and autoscale_max must be set together"
            )
        if self.autoscale_min is not None:
            if not (1 <= self.autoscale_min <= self.autoscale_max):
                raise ConfigurationError(
                    f"autoscale bounds must satisfy 1 <= min <= max: "
                    f"{self.autoscale_min}:{self.autoscale_max}"
                )
            if not (
                self.autoscale_min <= self.workers <= self.autoscale_max
            ):
                raise ConfigurationError(
                    f"workers ({self.workers}) must start inside the "
                    f"autoscale range "
                    f"{self.autoscale_min}:{self.autoscale_max}"
                )

    def effective_scale(self) -> ExperimentScale:
        return self.scale if self.scale is not None else current_scale()


@dataclass
class BulkWaiter:
    """A queued bulk request, as its fair-queue ticket carries it.

    ``request`` and ``key`` are what a fleet peer needs to run it;
    ``future`` is what its ``_execute`` awaits: ``None`` once the
    admission loop grants it a local slot, or the
    :class:`ServiceResponse` a peer reported after stealing it.
    """

    request: SimRequest
    key: str
    future: "asyncio.Future[Optional[ServiceResponse]]"


class SimulationService:
    """Admission-controlled, cached, coalescing, self-healing
    simulation runner.

    Lifecycle: construct, ``await start()`` (which replays any journal
    backlog), serve ``await submit(request)`` calls, then ``await
    stop()`` (which drains).  All coroutines must run on one event
    loop.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        pool_factory: Optional[Callable[[int], Any]] = None,
        worker_fn: Optional[Callable[..., str]] = None,
    ) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self.store = RunStore(config.store_path)
        self._scale = config.effective_scale()
        self._pool_factory = pool_factory or (
            lambda n: ProcessPoolExecutor(max_workers=n)
        )
        self._worker_fn = worker_fn or render_experiment
        self.supervisor: Optional[WorkerSupervisor] = None
        self.journal: Optional[BulkJournal] = None
        if config.journal_path is not None:
            self.journal = BulkJournal(config.journal_path)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._cond: Optional[asyncio.Condition] = None
        self._admission_task: Optional[asyncio.Task] = None
        #: content key -> future resolving to ("ok", text) | ("error", msg)
        self._inflight: Dict[str, asyncio.Future] = {}
        self.tenancy = TenantAdmission(quota=config.tenant_quota)
        #: The bulk backlog: per-tenant fair-share lanes of admission
        #: tickets (each ticket's item is a :class:`BulkWaiter`).
        self._bulk_queue = self.tenancy.queue
        self.autoscaler: Optional[WorkerAutoscaler] = None
        if config.autoscale_min is not None:
            self.autoscaler = WorkerAutoscaler(
                self, config.autoscale_min, config.autoscale_max
            )
        self._autoscale_task: Optional[asyncio.Task] = None
        self._replay_tasks: Set[asyncio.Task] = set()
        #: Current pool size; starts at ``config.workers`` and moves
        #: only via :meth:`resize_workers`.
        self._workers = config.workers
        self._busy = 0
        self._draining = False
        self._stopping = False
        self._started_at = time.monotonic()
        #: Journal entries replayed by the most recent ``start()``.
        self.replayed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the pool, the bulk admission loop, and (with a
        journal) replay the accepted-but-unsettled backlog (call once,
        inside the event loop)."""
        self._loop = asyncio.get_running_loop()
        self._cond = asyncio.Condition()
        self.supervisor = WorkerSupervisor(
            self._pool_factory,
            self._workers,
            counters=self.metrics.counters,
            retry=self.config.retry,
            request_timeout=self.config.request_timeout,
        )
        await self.supervisor.start()
        self._admission_task = self._loop.create_task(
            self._admission_loop()
        )
        if self.autoscaler is not None:
            self._autoscale_task = self._loop.create_task(
                self.autoscaler.run()
            )
        self._started_at = time.monotonic()
        if self.journal is not None:
            self._replay_journal()

    async def drain(self) -> None:
        """Refuse new work; wait until everything accepted (running,
        queued bulk, and replayed journal entries) has completed."""
        self._draining = True
        async with self._cond:
            self._cond.notify_all()
            await self._cond.wait_for(self._idle)

    async def stop(self) -> None:
        """Drain, stop the admission loop and shut the pool down."""
        await self.drain()
        self._stopping = True
        if self._autoscale_task is not None:
            self._autoscale_task.cancel()
            try:
                await self._autoscale_task
            except asyncio.CancelledError:
                pass
            self._autoscale_task = None
        async with self._cond:
            self._cond.notify_all()
        if self._admission_task is not None:
            await self._admission_task
            self._admission_task = None
        if self.supervisor is not None:
            await self.supervisor.stop()
        if self.journal is not None:
            self.journal.close()

    def _idle(self) -> bool:
        return (
            not self._bulk_queue
            and self._busy == 0
            and not self._inflight
            and not self._replay_tasks
        )

    # ------------------------------------------------------------------
    # Journal replay
    # ------------------------------------------------------------------
    def _replay_journal(self) -> None:
        """Resume every accepted-but-unsettled bulk request from the
        WAL: each replays through the normal cache/coalesce/admission
        pipeline (as bulk, so replayed work stays interstitial-class)
        and settles its journal entry exactly once."""
        entries = self.journal.recover()
        self.replayed = len(entries)
        self.metrics.counters.journal_replays += len(entries)
        for entry in entries:
            task = self._loop.create_task(self._replay_entry(entry))
            self._replay_tasks.add(task)
            task.add_done_callback(self._replay_done)

    def _replay_done(self, task: asyncio.Task) -> None:
        self._replay_tasks.discard(task)
        if not task.cancelled():
            task.exception()  # consume; failures settle inside the task
        if self._loop is not None and not self._loop.is_closed():
            self._loop.create_task(self._notify())

    async def _replay_entry(self, entry: Dict[str, Any]) -> None:
        entry_id = entry["id"]
        try:
            request = SimRequest(
                experiment=entry["experiment"],
                scale=entry.get("scale"),
                seed=entry.get("seed"),
                priority=BULK,
                # v1 (pre-tenancy) records have no tenant field and
                # replay as the default tenant.
                tenant=entry.get("tenant"),
            )
            scale, key = self.resolve(request)
        except (ServiceError, KeyError):
            # The journaled config no longer validates (registry or
            # scale drift across a restart): terminally failed.
            self.journal.record_settle(entry_id, FAILED)
            self.metrics.counters.failures += 1
            return
        cached = self.store.get(key, _MISS)
        if cached is not _MISS:
            # Completed before the crash (settle record was lost, or
            # another accepted entry computed the same key).
            self.journal.record_settle(entry_id, COMPLETED)
            return
        await self._settled(entry_id, self._coalesce(request, scale, key))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def default_scale(self) -> ExperimentScale:
        """The scale applied to requests that name none."""
        return self._scale

    @property
    def workers(self) -> int:
        """Current worker-pool size (``config.workers`` until an
        autoscaler or a ``resize_workers`` call moves it)."""
        return self._workers

    async def resize_workers(self, n: int) -> None:
        """Resize the supervised pool to ``n`` processes.

        In-flight dispatches finish on the old pool (it is shut down
        without cancelling); new dispatches land on the replacement.
        The cap and the backpressure arithmetic both follow the new
        size immediately, and the admission loop is woken — growing
        may have opened an interstice.
        """
        if n < 1:
            raise ConfigurationError(f"workers must be >= 1: {n}")
        if n == self._workers:
            return
        if n > self._workers:
            self.metrics.counters.scale_ups += 1
        else:
            self.metrics.counters.scale_downs += 1
        self._workers = n
        if self.supervisor is not None:
            self.supervisor.resize(n)
        await self._notify()

    def utilization(self) -> float:
        """In-flight dispatches over pool size (> 1.0 means the
        executor itself is queueing)."""
        return self._busy / self._workers

    def bulk_queue_depth(self) -> int:
        return len(self._bulk_queue)

    async def requeue_bulk(self, ticket: TenantTicket) -> None:
        """Return a stolen ticket its peer never ran to its arrival
        position in the fair queue, and wake the admission loop."""
        async with self._cond:
            self._bulk_queue.requeue(ticket)
            self._cond.notify_all()

    def healthz(self) -> Dict[str, Any]:
        """The ``/healthz`` payload."""
        payload = {
            "status": "draining" if self._draining else "ok",
            "version": repro_version(),
            "workers": self._workers,
            "bulk_cap": self.config.bulk_cap,
            "scale": self._scale.name,
            "utilization": self.utilization(),
            "bulk_queue_depth": self.bulk_queue_depth(),
            "uptime_s": time.monotonic() - self._started_at,
        }
        if self.autoscaler is not None:
            payload["autoscale"] = {
                "min": self.autoscaler.minimum,
                "max": self.autoscaler.maximum,
            }
        return payload

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` payload."""
        snap = self.metrics.snapshot()
        snap["utilization"] = self.utilization()
        snap["busy"] = self._busy
        snap["workers"] = self._workers
        snap["bulk_queue_depth"] = self.bulk_queue_depth()
        snap["inflight"] = len(self._inflight)
        store = self.store.counters
        snap["store"] = {
            "entries": len(self.store),
            "hits": store.hits,
            "disk_hits": store.disk_hits,
            "misses": store.misses,
            "lease_waits": store.lease_waits,
            "lease_breaks": store.lease_breaks,
            "integrity_failures": store.integrity_failures,
            "quarantined": store.quarantined,
        }
        snap["resilience"] = {
            "pool_generation": (
                self.supervisor.generation if self.supervisor else 0
            ),
            "journal_open": (
                self.journal.open_count if self.journal else 0
            ),
            "journal_torn_records": (
                self.journal.torn_records if self.journal else 0
            ),
            "journal_fsyncs": self.journal.fsyncs if self.journal else 0,
            "replayed_on_start": self.replayed,
        }
        return snap

    # ------------------------------------------------------------------
    # Request pipeline
    # ------------------------------------------------------------------
    async def submit(self, request: SimRequest) -> ServiceResponse:
        """Run one request through the full pipeline: validate, cache,
        coalesce, journal (bulk), admit, compute, store, settle."""
        counters = self.metrics.counters
        counters.requests += 1
        if request.priority == BULK:
            counters.bulk_requests += 1
        else:
            counters.interactive_requests += 1
        tenant = request.effective_tenant
        tenant_counters = self.metrics.tenant(tenant)
        tenant_counters.requests += 1
        if self._draining:
            counters.drain_rejections += 1
            return ServiceResponse(
                503, {"status": "draining", "error": "service is draining"}
            )
        try:
            scale, key = self.resolve(request)
        except ServiceError as exc:
            return ServiceResponse(
                400, {"status": "error", "error": str(exc)}
            )

        cached = self.store.get(key, _MISS)
        if cached is not _MISS:
            counters.cache_hits += 1
            tenant_counters.accepted += 1
            tenant_counters.completed += 1
            return self._ok(request, scale, key, cached,
                            cached=True, coalesced=False, elapsed=0.0)

        # Capture the in-flight future before the journal fsync yields:
        # the computation may finish (and pop its entry) meanwhile.
        future = self._inflight.get(key)
        if future is None:
            rejection = self._backpressure(request)
            if rejection is not None:
                counters.rejections += 1
                tenant_counters.rejections += 1
                return rejection
        tenant_counters.accepted += 1
        journal_id = await self._journal_accept(request, key)
        return await self._settled(
            journal_id, self._coalesce(request, scale, key, future)
        )

    def resolve(self, request: SimRequest) -> Tuple[ExperimentScale, str]:
        """The request's effective scale and content key; raises
        :class:`ServiceError` for an unknown experiment or scale."""
        if request.experiment not in SPECS:
            raise ServiceError(
                f"unknown experiment {request.experiment!r}; "
                f"see 'repro list'"
            )
        scale = request.resolve_scale(self._scale)
        return scale, content_key(request.run_payload(scale))

    async def _settled(
        self, journal_id: Optional[int], run: Awaitable[ServiceResponse]
    ) -> ServiceResponse:
        """Await ``run`` and write ``journal_id``'s one terminal record
        (when set) from its response.  A cancellation propagates first,
        leaving the entry open for the next replay: a cancelled
        computation has no terminal state yet."""
        response = await run
        if journal_id is not None:
            if response.ok:
                outcome = COMPLETED
            elif response.payload.get("dead_lettered"):
                outcome = DEAD_LETTERED
            else:
                outcome = FAILED
            self.journal.record_settle(journal_id, outcome)
        return response

    async def _coalesce(
        self,
        request: SimRequest,
        scale: ExperimentScale,
        key: str,
        future: "Optional[asyncio.Future[Any]]" = None,
    ) -> ServiceResponse:
        """Follow the key's in-flight computation — ``future``, or one
        registered since it was looked up — or compute it."""
        if future is None:
            future = self._inflight.get(key)
            if future is None:
                return await self._execute(request, scale, key)
        self.metrics.counters.coalesced_hits += 1
        outcome, value = await asyncio.shield(future)
        if outcome != "ok":
            return ServiceResponse(
                500, {"status": "error", "error": value}
            )
        self.metrics.tenant(request.effective_tenant).completed += 1
        return self._ok(request, scale, key, value,
                        cached=False, coalesced=True, elapsed=0.0)

    async def _execute(
        self, request: SimRequest, scale: ExperimentScale, key: str
    ) -> ServiceResponse:
        """Admit, compute on the supervised pool, store, and resolve
        coalesced waiters.  A bulk request a fleet peer stole answers
        with the peer's report instead of a dispatch."""
        counters = self.metrics.counters
        tenant = request.effective_tenant
        tenant_counters = self.metrics.tenant(tenant)
        future = self._loop.create_future()
        self._inflight[key] = future
        started = time.monotonic()
        try:
            if request.priority == BULK:
                # The admission grant reserves both the pool slot and
                # the tenant's in-flight unit; a ticket a fleet peer
                # stole comes back as that peer's response instead.
                stolen = await self._await_bulk_admission(request, key)
                if stolen is not None:
                    return self._settle_stolen(request, future, stolen)
            else:
                self._busy += 1
                self.tenancy.begin_dispatch(tenant)
            counters.admits += 1
            # The estimate quoted "on dispatch": the predictor learns
            # the tenant's actual/quoted ratio against this value.
            estimate = self.metrics.estimated_service_time(
                request.priority, tenant
            )
            dispatched_at = time.monotonic()
            try:
                text = await self.supervisor.run(
                    self._worker_fn,
                    request.experiment,
                    scale,
                    self.config.store_path,
                    self.config.check_invariants,
                )
            finally:
                # Pool time is spent whatever the outcome: charge the
                # tenant's fair-share usage, teach the predictor, and
                # feed the tenant-scoped service-time reservoir.
                service_s = time.monotonic() - dispatched_at
                self._busy -= 1
                self.tenancy.end_dispatch(tenant, service_s, estimate)
                self.metrics.record_service_time(tenant, service_s)
                await self._notify()
        except asyncio.CancelledError:
            # Never strand coalesced waiters on an unresolvable future.
            future.set_result(("error", "computation cancelled"))
            raise
        except Exception as exc:  # noqa: BLE001 - boundary to workers
            counters.failures += 1
            tenant_counters.failures += 1
            dead = isinstance(exc, DeadLetterError)
            error = str(exc) if dead else f"{type(exc).__name__}: {exc}"
            future.set_result(("error", error))
            payload = {"status": "error", "error": error}
            if dead:
                payload["dead_lettered"] = True
            return ServiceResponse(500, payload)
        else:
            elapsed = time.monotonic() - started
            counters.computes += 1
            tenant_counters.computes += 1
            tenant_counters.completed += 1
            self.store.put(key, text)
            self.metrics.record_latency(request.priority, elapsed)
            future.set_result(("ok", text))
            return self._ok(request, scale, key, text,
                            cached=False, coalesced=False, elapsed=elapsed)
        finally:
            self._inflight.pop(key, None)
            await self._notify()

    def _settle_stolen(
        self,
        request: SimRequest,
        future: "asyncio.Future[Any]",
        response: ServiceResponse,
    ) -> ServiceResponse:
        """Answer a bulk request that a fleet peer stole from the
        peer's report: coalesced waiters resolve as followers of the
        peer's computation (no compute or service time is counted
        here; the peer counts those)."""
        if response.ok:
            future.set_result(("ok", response.payload["result"]))
            self.metrics.tenant(request.effective_tenant).completed += 1
        else:
            future.set_result(("error", response.payload.get("error")))
        return response

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    async def _journal_accept(
        self, request: SimRequest, key: str
    ) -> Optional[int]:
        """WAL-log an accepted bulk request; durable (fsynced) before
        returning.  No-op (returns None) for interactive requests or
        when journaling is disabled.

        Group commit: every accept of one loop tick is appended before
        the first of them resumes from the yield, so that one's fsync
        covers them all and the rest find the log clean."""
        if self.journal is None or request.priority != BULK:
            return None
        entry_id = self.journal.record_accept(
            key=key,
            experiment=request.experiment,
            scale=request.scale,
            seed=request.seed,
            tenant=request.tenant,
        )
        await asyncio.sleep(0)
        self.journal.sync()
        return entry_id

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _cap_allows(self) -> bool:
        """Would admitting one more bulk job keep utilization at or
        below the cap?"""
        return (
            (self._busy + 1) / self._workers
            <= self.config.bulk_cap + 1e-9
        )

    async def _await_bulk_admission(
        self, request: SimRequest, key: str
    ) -> Optional[ServiceResponse]:
        """Queue a bulk ticket on the tenant's fair-share lane and
        wait until it leaves: ``None`` when the admission loop granted
        it (the grant reserves the pool slot and the tenant's
        in-flight unit), else the response of the fleet peer that
        stole it."""
        waiter = BulkWaiter(request, key, self._loop.create_future())
        async with self._cond:
            self._bulk_queue.push(request.effective_tenant, waiter)
            self._cond.notify_all()
        return await waiter.future

    async def _admission_loop(self) -> None:
        """Grant queued bulk tickets whenever the cap leaves a gap —
        the service-side interstice scheduler.  The grant goes to the
        highest-priority eligible tenant lane (paper-priority order;
        quota-full tenants defer), not FIFO."""
        while True:
            async with self._cond:
                while True:
                    if self._stopping and not self._bulk_queue:
                        return
                    ticket = None
                    if self._bulk_queue and self._cap_allows():
                        ticket = self._bulk_queue.pop(
                            self.tenancy.eligible
                        )
                        if ticket is not None:
                            break
                    if self._bulk_queue:
                        self.metrics.counters.cap_deferrals += 1
                    await self._cond.wait()
                if ticket.item.future.done():
                    continue  # its waiter was cancelled
                self._busy += 1  # reserve the slot before handing off
                self.tenancy.begin_dispatch(ticket.tenant)
                ticket.item.future.set_result(None)

    async def _notify(self) -> None:
        async with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Backpressure
    # ------------------------------------------------------------------
    def _backpressure(
        self, request: SimRequest
    ) -> Optional[ServiceResponse]:
        """A 429-style rejection when the request's queue (or its
        tenant's quota) is full, with ``retry_after`` priced from the
        *tenant's* predicted queued work — a tenant the fair-share
        order favors is quoted a short retry even while the global
        queue is deep with someone else's flood."""
        tenant = request.effective_tenant
        quota = self.config.tenant_quota
        # The labels of a rejection the tenant brought on itself (a
        # quota) and of one the shared queue did.
        over_quota = full = None
        if request.priority == BULK:
            if quota is not None:
                limit = quota.max_backlog(self.config.max_queue)
                queued = self.tenancy.queued_of(tenant)
                if queued >= limit:
                    over_quota = (
                        f"tenant {tenant!r} over bulk backlog share "
                        f"({queued}/{limit} queued)"
                    )
            if len(self._bulk_queue) >= self.config.max_queue:
                full = "bulk queue full"
        else:
            if (
                quota is not None
                and self.tenancy.inflight_of(tenant) >= quota.max_inflight
            ):
                over_quota = (
                    f"tenant {tenant!r} at max in-flight "
                    f"({quota.max_inflight})"
                )
            if self._busy - self._workers >= MAX_BACKLOG:
                full = "interactive backlog full"
        label = over_quota or full
        if label is None:
            return None
        payload = {"status": "rejected", "error": label, "tenant": tenant}
        if over_quota:
            self.metrics.counters.quota_rejections += 1
            self.metrics.tenant(tenant).quota_rejections += 1
            payload["quota"] = True
        # The depth term is the tenant's own queued + in-flight work,
        # at least 1 (there is always the request being bounced).
        payload["retry_after_s"] = self._retry_after(
            request.priority, max(1, self.tenancy.pending_of(tenant)), tenant
        )
        return ServiceResponse(429, payload)

    def _retry_after(
        self, priority: str, depth: int, tenant: Optional[str] = None
    ) -> float:
        """Expected seconds until ``depth`` jobs drain across
        ``workers`` lanes, each priced at the predictor-corrected
        per-request service time.  With a tenant, the base estimate is
        the tenant's own observed mean scaled by its learned
        actual/quoted ratio; without one (or before any history), the
        chain degrades to the pre-tenancy observed-latency heuristic.
        Always finite and >= 1, even on a fresh daemon whose
        reservoirs are empty."""
        base = self.metrics.estimated_service_time(priority, tenant)
        per_request = self.tenancy.predicted_service_time(tenant, base)
        return max(1.0, max(depth, 0) * per_request / self._workers)

    # ------------------------------------------------------------------
    def _ok(
        self,
        request: SimRequest,
        scale: ExperimentScale,
        key: str,
        text: str,
        *,
        cached: bool,
        coalesced: bool,
        elapsed: float,
    ) -> ServiceResponse:
        return ServiceResponse(
            200,
            {
                "status": "ok",
                "experiment": request.experiment,
                "scale": scale.name,
                "seed": scale.seed,
                "priority": request.priority,
                "cached": cached,
                "coalesced": coalesced,
                "elapsed_s": elapsed,
                "key": key,
                "result": text,
            },
        )


#: Private cache-miss sentinel (None is a legal stored value).
_MISS = object()
