"""Scale-out serving: a consistent-hash sharded fleet of daemons.

A *fleet* is ``N`` ``repro serve`` daemons that behave like one big
content-addressed service.  The first boot is the *coordinator*,
later boots join it with ``repro serve --join HOST:PORT``, and all of
them agree on a deterministic :class:`~repro.service.ring.HashRing`
over replica ids.  A solo daemon is a one-member fleet on the same
code path.  Three mechanisms make the fleet more than N isolated
daemons:

* **Content-address routing** — every request's RunStore key (already
  a SHA-256, see :meth:`SimRequest.run_payload`) has exactly one ring
  *owner*.  A replica receiving a client request forwards it to the
  owner, and the owner passes every request it owns, bulk or
  interactive, to its :meth:`SimulationService.submit`.  Repeated
  configurations always land on the same replica, and journaling,
  fair-share order, ``max_queue``, tenant quotas and ``Retry-After``
  each have one implementation — the service's — in every deployment
  shape.

* **Peer cache + replication** — when a replica computes a key it
  does not own (stolen work, or an unreachable owner), it first asks
  the owner's store (``peer_hits``/``peer_misses``) and, after
  computing, replicates the result back to the owner
  (``peer_replications``) — so the owner's store converges to hold
  everything it owns and the fleet answers repeats from cache no
  matter which replica computed first.  Values are immutable and
  deterministic, which is what makes this replication trivially
  consistent: any copy of a key is byte-identical, first write wins.

* **Work-stealing bulk sweeps** — a replica's only bulk queue is its
  service's :class:`~repro.service.tenancy.TenantFairQueue`.  An idle
  replica (empty fair queue, every stolen entry reported, a cap that
  admits one more bulk dispatch) polls peers, and a victim grants it
  the stealable tickets its fair queue would dispatch last.  The
  victim's waiter keeps waiting and settles from the thief's report;
  a thief that dies simply times out and the victim requeues the
  ticket at its arrival position (``steal_requeues``) — safe because
  every computation is deterministic and cache-absorbed.  Stolen
  entries run through the thief's own service and are never stolen
  again.

A peer is anything with the peer protocol's seven coroutines (``run``,
``cache_get``, ``cache_put``, ``steal``, ``stolen``, ``metrics``,
``membership``): another :class:`FleetMember` on the same event loop
(the in-process fleets the tests, bench and CI smoke build), or an
:class:`~repro.service.http.HttpPeerTransport` (keep-alive connections
to the peer's ``/metrics`` and ``/fleet/*`` routes, whose handlers
await those same member methods).  The fleet logic cannot tell them
apart.

See ``DESIGN.md`` §14 for the topology, join protocol, consistency
model, steal policy and the counters a stolen entry increments.
"""

from __future__ import annotations

import asyncio
import re
import threading
from dataclasses import asdict, dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, ServiceError
from repro.service.daemon import ServiceConfig, SimulationService
from repro.service.http import HttpPeerTransport
from repro.service.requests import (
    INTERACTIVE,
    ServiceResponse,
    SimRequest,
    typed_fields,
)
from repro.service.ring import HashRing
from repro.service.tenancy import TenantTicket
from repro.store import PEER_MISS


#: Most entries granted per steal request.
STEAL_BATCH = 2

#: Seconds a stolen entry may stay unreported before the victim
#: requeues it locally.
STEAL_TIMEOUT_S = 120.0


@dataclass
class FleetConfig:
    """Fleet-side tunables for one replica.

    Parameters
    ----------
    replica_id:
        Ring identity.  The coordinator is ``r0``; joining replicas
        are assigned ``r1``, ``r2``, ... by the coordinator.
    coordinator:
        Whether this replica assigns ids and membership (the first
        boot).  Joined replicas refuse ``/fleet/join`` with a 409.
    steal_interval:
        Idle-poll period (seconds) of the steal loop.
    """

    replica_id: str = "r0"
    coordinator: bool = True
    steal_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.steal_interval <= 0:
            raise ConfigurationError(
                f"steal_interval must be positive: {self.steal_interval}"
            )


#: The form of a content key (a SHA-256 hex digest, see
#: :func:`repro.store.content_key`); peer cache routes serve no other.
_CONTENT_KEY = re.compile(r"[0-9a-f]{64}")


class FleetMember:
    """One replica's fleet brain, wrapped around its
    :class:`SimulationService`.

    All coroutine methods must run on the service's event loop.  The
    peer protocol's coroutines (``run`` through ``membership``) are
    what other members call on it, directly in process or through the
    HTTP front end's ``/metrics`` and ``/fleet/*`` routes.
    """

    def __init__(
        self,
        service: SimulationService,
        config: Optional[FleetConfig] = None,
    ) -> None:
        self.service = service
        self.config = config or FleetConfig()
        self.replica_id = self.config.replica_id
        self.ring = HashRing([self.replica_id])
        #: replica id -> peer: a member or a transport (everyone but
        #: self).
        self.peers: Dict[str, Any] = {}
        #: replica id -> (host, port) for members joined over HTTP.
        self._members: Dict[str, Tuple[str, int]] = {}
        self._next_index = 1
        self._advertise: Optional[Tuple[str, int]] = None
        #: Victim side: fair-queue tickets granted to thieves, by entry
        #: id (the ticket's ``seq``), each under a steal deadline.
        self._stolen_out: Dict[int, TenantTicket] = {}
        self._steal_timers: Dict[int, asyncio.TimerHandle] = {}
        #: Thief side: content keys of stolen entries not yet reported
        #: (their tickets here are never granted onward).
        self._stolen_in: List[Optional[str]] = []
        self._tasks: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._steal_task: Optional[asyncio.Task] = None
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the steal loop (call once, on the event loop, after
        ``service.start()``)."""
        self._loop = asyncio.get_running_loop()
        self._steal_task = self._loop.create_task(self._steal_loop())

    def begin_close(self) -> None:
        """Stop acquiring work: no stealing, no steal grants.  Stolen
        work still settles in both directions."""
        self._closing = True

    async def wait_idle(self, timeout: float = 120.0) -> None:
        """Wait until every stolen-out ticket is settled or requeued
        and every stolen-in entry has been reported."""
        deadline = self._loop.time() + timeout
        while self._stolen_out or self._stolen_in:
            if self._loop.time() > deadline:
                raise ServiceError(
                    f"fleet member {self.replica_id} not idle after "
                    f"{timeout:.0f}s: "
                    f"stolen_out={len(self._stolen_out)} "
                    f"stolen_in={len(self._stolen_in)}"
                )
            await asyncio.sleep(0.01)

    async def finish_close(self) -> None:
        """Cancel the steal loop and close peer transports."""
        if self._steal_task is not None:
            self._steal_task.cancel()
            try:
                await self._steal_task
            except asyncio.CancelledError:
                pass
            self._steal_task = None
        for timer in self._steal_timers.values():
            timer.cancel()
        self._steal_timers.clear()
        for transport in self.peers.values():
            close = getattr(transport, "close", None)
            if close is not None:
                close()

    def _spawn(self, coro: Any) -> None:
        """Run ``coro`` as a task this member keeps a reference to."""
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def counters(self):
        return self.service.metrics.counters

    @property
    def replica_count(self) -> int:
        return len(self.ring)

    def set_advertise(self, host: str, port: int) -> None:
        """Record the address peers can reach this replica at (the
        bound front-end port, known only after listen)."""
        self._advertise = (host, port)
        self._members[self.replica_id] = (host, port)

    async def fleet_metrics(self) -> Dict[str, Any]:
        """Fleet-aggregated metrics: every replica's snapshot plus
        summed service counters (transport failures surface as an
        ``error`` entry for that replica rather than failing the
        aggregation)."""
        per: Dict[str, Any] = {self.replica_id: await self.metrics()}
        for rid in sorted(self.peers):
            try:
                per[rid] = await self.peers[rid].metrics()
            except Exception as exc:  # noqa: BLE001 - peer boundary
                per[rid] = {"error": f"{type(exc).__name__}: {exc}"}
        totals: Dict[str, int] = {}
        tenant_totals: Dict[str, Dict[str, int]] = {}
        for snap in per.values():
            for name, value in snap.get("counters", {}).items():
                totals[name] = totals.get(name, 0) + int(value)
            for tname, tsnap in snap.get("tenants", {}).items():
                bucket = tenant_totals.setdefault(tname, {})
                for name, value in tsnap.get("counters", {}).items():
                    bucket[name] = bucket.get(name, 0) + int(value)
        return {
            "replica_count": self.replica_count,
            "replicas": per,
            "totals": totals,
            "tenant_totals": tenant_totals,
        }

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    async def submit(self, request: SimRequest) -> ServiceResponse:
        """Front-door entry: route by content address.  The key's ring
        owner serves the request through ``service.submit``; on a
        one-member ring that is always this replica."""
        owner, key = self._remote_owner(request)
        if owner is None:
            return await self.service.submit(request)
        self.counters.forwards += 1
        # The request travels whole, tenant included: the owner charges
        # the originating tenant (content keys exclude it).
        try:
            return await self.peers[owner].run(request)
        except Exception:  # noqa: BLE001 - degraded: owner unreachable
            return await self._run_remote_owned(request, key, owner)

    def _remote_owner(
        self, request: SimRequest
    ) -> Tuple[Optional[str], Optional[str]]:
        """``(owner, key)`` when a peer owns the request's key, else
        ``(None, key)``: this replica serves it because it owns the
        key, does not know the owner, or the request does not
        validate (then the service answers its usual 400)."""
        try:
            _scale, key = self.service.resolve(request)
        except ServiceError:
            return None, None
        owner = self.ring.owner(key)
        if owner == self.replica_id or owner not in self.peers:
            return None, key
        return owner, key

    # ------------------------------------------------------------------
    # Peer protocol (what other members call on this one)
    # ------------------------------------------------------------------
    async def run(self, request: SimRequest) -> ServiceResponse:
        """A peer routed ``request`` here because we own its key.
        Never re-forward (membership skew between two replicas must
        not bounce a request around the ring)."""
        return await self.service.submit(request)

    async def cache_get(self, key: str) -> Tuple[bool, Any]:
        """Serve a peer's cache lookup: ``(hit, value)``.  Only JSON
        textual products travel the wire; anything else (a worker's
        pickled simulation product sharing the store) reports a miss,
        and so does a key that is not a content key — without touching
        the store, whose disk layer names files after keys."""
        if not _CONTENT_KEY.fullmatch(key):
            return False, None
        value = self.service.store.peer_get(key)
        if value is PEER_MISS or not isinstance(value, str):
            return False, None
        return True, value

    async def cache_put(self, key: str, value: str) -> None:
        """Accept a result replicated by the non-owner that computed
        it; raises :class:`ServiceError`, storing nothing, for a key
        that is not a content key."""
        if not _CONTENT_KEY.fullmatch(key):
            raise ServiceError(f"not a content key: {key!r}")
        self.service.store.peer_put(key, value)

    async def steal(
        self, thief: str, max_n: int
    ) -> List[Dict[str, Any]]:
        """Grant ``thief`` up to ``max_n`` (at most :data:`STEAL_BATCH`)
        queued bulk tickets: the stealable ones the fair queue would
        dispatch last.  Each waits in ``_stolen_out`` under a
        :data:`STEAL_TIMEOUT_S` deadline while its waiter waits for the
        thief's report."""
        if self._closing or self.service.draining:
            return []
        tickets = self.service.tenancy.queue.steal(
            min(max_n, STEAL_BATCH), self._stealable
        )
        for ticket in tickets:
            self._stolen_out[ticket.seq] = ticket
            self._steal_timers[ticket.seq] = self._loop.call_later(
                STEAL_TIMEOUT_S, self._steal_deadline, ticket.seq
            )
        self.counters.steals_granted += len(tickets)
        return [
            {"entry_id": ticket.seq, "request": asdict(ticket.item.request)}
            for ticket in tickets
        ]

    def _stealable(self, ticket: TenantTicket) -> bool:
        """Stolen-in entries are never granted onward (no ping-pong)."""
        return ticket.item.key not in self._stolen_in

    async def stolen(
        self, entry_id: int, status: int, payload: Dict[str, Any]
    ) -> None:
        """A thief reports the outcome of a stolen ticket; its waiter
        settles from the report.  A 429 or 503 means the thief refused
        the work: the ticket goes back to its arrival position in the
        fair queue."""
        timer = self._steal_timers.pop(entry_id, None)
        if timer is not None:
            timer.cancel()
        ticket = self._stolen_out.pop(entry_id, None)
        if ticket is None:
            return
        if status in (429, 503):
            self.counters.steal_requeues += 1
            await self.service.requeue_bulk(ticket)
        elif not ticket.item.future.done():
            ticket.item.future.set_result(
                ServiceResponse(status, payload)
            )

    def _steal_deadline(self, entry_id: int) -> None:
        """The thief never reported: take the ticket back as if it had
        refused the work.  Safe even if the thief later completes — its
        late report finds nothing to settle, and any duplicate compute
        is deterministic and cache-absorbed."""
        self._spawn(self.stolen(entry_id, 503, {}))

    async def metrics(self) -> Dict[str, Any]:
        """The service ``/metrics`` payload plus the fleet section."""
        snap = self.service.metrics_snapshot()
        snap["fleet"] = {
            "replica_id": self.replica_id,
            "replica_count": self.replica_count,
            "replicas": self.ring.replicas,
            "stolen_outstanding": len(self._stolen_out),
        }
        return snap

    async def membership(
        self, members: Sequence[Dict[str, Any]]
    ) -> None:
        """Adopt a membership broadcast: wire transports and ring
        points for members we have not met (append-only: the fleet
        has no leave protocol; see DESIGN §14).  Raises
        :class:`ServiceError`, adopting none of it, unless ``members``
        is a list of ``{"id": str, "host": str, "port": int}``."""
        if not isinstance(members, list) or not all(
            typed_fields(rec, id=str, host=str, port=int) for rec in members
        ):
            raise ServiceError(
                "'members' must be a list of {id, host, port} records"
            )
        for rec in members:
            rid = rec["id"]
            self._members[rid] = (rec["host"], rec["port"])
            if rid == self.replica_id or rid in self.peers:
                continue
            self.peers[rid] = HttpPeerTransport(rec["host"], rec["port"])
            self.ring.add(rid)

    # ------------------------------------------------------------------
    # Membership / join protocol
    # ------------------------------------------------------------------
    def members_payload(self) -> List[Dict[str, Any]]:
        return [
            {"id": rid, "host": host, "port": port}
            for rid, (host, port) in sorted(self._members.items())
        ]

    def handle_join(self, host: str, port: int) -> Dict[str, Any]:
        """Coordinator-side join: assign the next replica id, admit
        the newcomer, broadcast the membership to everyone else."""
        if not self.config.coordinator:
            raise ServiceError(
                "this replica is not the fleet coordinator; join via "
                "the first daemon"
            )
        rid = f"r{self._next_index}"
        self._next_index += 1
        self._members[rid] = (host, port)
        self.peers[rid] = HttpPeerTransport(host, port)
        self.ring.add(rid)
        members = self.members_payload()
        for peer_id in list(self.peers):
            if peer_id == rid:
                continue  # the newcomer learns from the join reply
            self._spawn(self._push_membership(peer_id, members))
        return {
            "id": rid,
            "members": members,
            "scale": self.service.default_scale.name,
        }

    async def _push_membership(
        self, peer_id: str, members: List[Dict[str, Any]]
    ) -> None:
        try:
            await self.peers[peer_id].membership(members)
        except Exception:  # noqa: BLE001 - peers catch up on next push
            pass

    async def join(self, host: str, port: int) -> Dict[str, Any]:
        """Replica-side join: register with the coordinator at
        ``host:port``, adopt the assigned id and the member list."""
        if self._advertise is None:
            raise ServiceError(
                "set_advertise() must run before join() so peers can "
                "reach this replica"
            )
        transport = HttpPeerTransport(host, port)
        try:
            reply = await transport.join(*self._advertise)
        finally:
            transport.close()
        old_id = self.replica_id
        self.replica_id = reply["id"]
        self._members.pop(old_id, None)
        self.set_advertise(*self._advertise)
        self.ring = HashRing([self.replica_id])
        await self.membership(reply["members"])
        return reply

    # ------------------------------------------------------------------
    # Stealing (thief side)
    # ------------------------------------------------------------------
    def _steal_ready(self) -> bool:
        """Steal only when this replica's bulk tier is idle: an empty
        fair queue, every stolen entry reported, and a cap that admits
        one more bulk dispatch."""
        return (
            not self._closing
            and not self.service.draining
            and not self.service.bulk_queue_depth()
            and not self._stolen_in
            and self.service._cap_allows()
        )

    async def _steal_loop(self) -> None:
        rotation = 0
        # Ends on ``_closing`` as well as on cancellation, because
        # ``finish_close`` awaits this task and, on Python 3.11,
        # ``asyncio.wait_for`` inside a peer RPC drops a cancel that
        # lands as its inner call completes.
        while not self._closing:
            await asyncio.sleep(self.config.steal_interval)
            if not self._steal_ready():
                continue
            peer_ids = [
                rid for rid in self.ring.replicas
                if rid != self.replica_id and rid in self.peers
            ]
            if not peer_ids:
                continue
            for offset in range(len(peer_ids)):
                victim = peer_ids[(rotation + offset) % len(peer_ids)]
                try:
                    grants = await self.peers[victim].steal(
                        self.replica_id, STEAL_BATCH
                    )
                except Exception:  # noqa: BLE001 - victim unreachable
                    continue
                if not grants:
                    continue
                for rec in grants:
                    # A malformed grant is skipped: the victim's steal
                    # deadline requeues its entry.
                    grant = typed_fields(rec, entry_id=int, request=dict)
                    if grant is None:
                        continue
                    entry_id, payload = grant
                    try:
                        request = SimRequest.from_payload(payload)
                    except ServiceError:
                        continue
                    self.counters.steals += 1
                    owner, key = self._remote_owner(request)
                    self._stolen_in.append(key)
                    self._spawn(
                        self._run_stolen(victim, entry_id, request, owner, key)
                    )
                break
            rotation += 1

    async def _run_stolen(
        self,
        victim: str,
        entry_id: int,
        request: SimRequest,
        owner: Optional[str],
        key: Optional[str],
    ) -> None:
        """Run one stolen entry through this replica's service (with
        the owner's peer cache when a peer owns its key) and report
        the outcome to the victim."""
        try:
            if owner is None:
                response = await self.service.submit(request)
            else:
                response = await self._run_remote_owned(
                    request, key, owner
                )
            await self.peers[victim].stolen(
                entry_id, response.status, response.payload
            )
        except Exception:  # noqa: BLE001 - victim requeues on timeout
            pass
        finally:
            self._stolen_in.remove(key)

    async def _run_remote_owned(
        self, request: SimRequest, key: str, owner: str
    ) -> ServiceResponse:
        """Compute a key owned by ``owner`` here: peer cache lookup
        first, replicate the result back after."""
        transport = self.peers.get(owner)
        if transport is not None:
            try:
                hit, value = await transport.cache_get(key)
            except Exception:  # noqa: BLE001 - lookup is best-effort
                hit, value = False, None
            if hit:
                self.counters.peer_hits += 1
                response = self.service._ok(
                    request,
                    request.resolve_scale(self.service.default_scale),
                    key,
                    value,
                    cached=True,
                    coalesced=False,
                    elapsed=0.0,
                )
                response.payload["peer"] = owner
                return response
            self.counters.peer_misses += 1
        response = await self.service.submit(request)
        if (
            transport is not None
            and response.ok
            and not response.payload.get("cached")
            and not response.payload.get("coalesced")
        ):
            try:
                await transport.cache_put(
                    key, response.payload["result"]
                )
                self.counters.peer_replications += 1
            except Exception:  # noqa: BLE001 - replication best-effort
                pass
        return response


# ----------------------------------------------------------------------
# In-process fleet harness
# ----------------------------------------------------------------------
class LocalFleet:
    """An N-replica fleet on one background event loop, no sockets.

    The harness the fleet tests, the service, resilience and fleet
    benches and the CI smoke demo share: N independent :class:`SimulationService` instances
    (each with its own store — that separation is what makes peer
    caching observable), each member the other members' peer,
    driven synchronously from a private event-loop thread.
    ``LocalFleet(1)`` is one daemon without sockets.

    Use as a context manager; ``__exit__`` settles stolen work, then
    drains and stops every service.
    """

    def __init__(
        self,
        replicas: int,
        *,
        service_config: Optional[ServiceConfig] = None,
        fleet_config: Optional[FleetConfig] = None,
        pool_factory: Optional[Callable[[int], Any]] = None,
        worker_fn: Optional[Callable[..., str]] = None,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1: {replicas}"
            )
        base_service = service_config or ServiceConfig()
        base_fleet = fleet_config or FleetConfig()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True
        )
        self.members: List[FleetMember] = []
        for i in range(replicas):
            service = SimulationService(
                base_service, pool_factory=pool_factory, worker_fn=worker_fn
            )
            member = FleetMember(
                service,
                replace(base_fleet, replica_id=f"r{i}", coordinator=i == 0),
            )
            self.members.append(member)
        for member in self.members:
            for other in self.members:
                if other is member:
                    continue
                member.peers[other.replica_id] = other
                member.ring.add(other.replica_id)

    # ------------------------------------------------------------------
    @property
    def coordinator(self) -> FleetMember:
        return self.members[0]

    def __enter__(self) -> "LocalFleet":
        self._thread.start()
        for member in self.members:
            self._await(member.service.start())
            self._await(member.start())
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for member in self.members:
            member.begin_close()
        for member in self.members:
            self._await(member.wait_idle())
        for member in self.members:
            self._await(member.finish_close())
        for member in self.members:
            self._await(member.service.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()

    # ------------------------------------------------------------------
    def run(
        self,
        experiment: str,
        *,
        scale: Optional[str] = None,
        seed: Optional[int] = None,
        priority: str = INTERACTIVE,
        tenant: Optional[str] = None,
        via: int = 0,
    ) -> ServiceResponse:
        """Submit one request through replica ``via`` (default: the
        coordinator), blocking for the reply."""
        request = SimRequest(
            experiment=experiment, scale=scale, seed=seed,
            priority=priority, tenant=tenant,
        )
        return self._await(self.members[via].submit(request))

    def run_many(
        self,
        payloads: Sequence[Dict[str, Any]],
        *,
        via: int = 0,
    ) -> List[ServiceResponse]:
        """Submit many request payloads concurrently (the concurrency
        that exercises routing, stealing and coalescing),
        order-preserving."""
        futures = [
            asyncio.run_coroutine_threadsafe(
                self.members[via].submit(SimRequest(**kw)), self._loop
            )
            for kw in payloads
        ]
        return [future.result() for future in futures]

    def metrics(self, via: int = 0) -> Dict[str, Any]:
        return self._await(self.members[via].metrics())

    def fleet_metrics(self) -> Dict[str, Any]:
        return self._await(self.coordinator.fleet_metrics())

    # ------------------------------------------------------------------
    def _await(self, coro: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop
        ).result(timeout=300.0)


# Re-exported for callers that only import the fleet module.
__all__ = [
    "FleetConfig",
    "FleetMember",
    "LocalFleet",
]
