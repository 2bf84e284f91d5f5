"""Minimal stdlib HTTP/1.1 for the simulation service: the front end
every daemon serves and the transport fleet peers call it with, on one
message reader and one message writer.

One deliberately small surface — JSON in/out, implemented directly on
``asyncio`` streams so the daemon stays single-threaded and adds no
runtime dependency.  :class:`HttpFrontend` serves a
:class:`~repro.service.fleet.FleetMember` (a solo daemon is a
one-member fleet):

* ``POST /run`` — body is a :class:`~repro.service.requests.SimRequest`
  payload; response status mirrors the service pipeline (200 ok, 400
  invalid, 429 backpressure + ``Retry-After``, 500 worker failure,
  503 draining).  An ``X-Repro-Tenant`` header names the tenant when
  the body carries no ``"tenant"`` field (the body field wins);
* ``GET /healthz`` — liveness, version and admission posture;
* ``GET /metrics`` — counters, per-class latency, store behavior and
  the replica's fleet section.

The same front end speaks the peer protocol — ``POST /fleet/run``
(owner-routed execution), ``GET``/``POST /fleet/cache/<key>`` (peer
cache lookup/replication), ``POST /fleet/steal`` and ``/fleet/stolen``
(work-stealing), ``POST /fleet/join`` and ``/fleet/membership``
(self-assembly), and ``GET /fleet/metrics`` (fleet-wide aggregation)
— and :class:`HttpPeerTransport` is its client.

Connections are **persistent** (HTTP/1.1 keep-alive): the handler
loops requests on one socket until the client sends ``Connection:
close``, goes quiet past :data:`KEEP_ALIVE_TIMEOUT_S`, or disconnects.
HTTP/1.0 clients get one response per connection unless they opt in
with ``Connection: keep-alive``.  Error responses close the connection
— after a parse failure the framing can't be trusted.

The parser accepts exactly what the bundled clients emit (start line,
headers, optional ``Content-Length`` body) and answers anything
malformed with a 400 rather than crashing the connection handler.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ServiceError
from repro.service.requests import ServiceResponse, SimRequest, typed_fields

if TYPE_CHECKING:
    from repro.service.fleet import FleetMember

#: Refuse unreasonable message bodies outright.
MAX_BODY_BYTES = 1 << 20

#: Seconds an idle persistent connection may sit between requests
#: before the server closes it.
KEEP_ALIVE_TIMEOUT_S = 75.0

#: Seconds a peer RPC may take to connect, and then to be answered.
PEER_TIMEOUT_S = 300.0

#: Request header naming the tenant a ``/run`` body should be
#: attributed to when the body itself carries no ``"tenant"`` field
#: (lower-cased: the parser folds header names to lower case).
TENANT_HEADER = "x-repro-tenant"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: The POST routes with a JSON object body.
_POST_ROUTES = (
    "/run", "/fleet/run", "/fleet/steal", "/fleet/stolen",
    "/fleet/join", "/fleet/membership",
)


class HttpFrontend:
    """Serve a :class:`~repro.service.fleet.FleetMember` over HTTP.

    ``port=0`` picks a free port, reflected back into :attr:`port`
    after :meth:`start`.
    """

    def __init__(
        self,
        member: "FleetMember",
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.member = member
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        """Bind and start accepting (``port=0`` picks a free port,
        reflected back into :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Unblock handlers parked on an idle keep-alive read; their
        # readline returns EOF and the handler exits cleanly.
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - already-dead socket
                pass
        self._connections.clear()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    parsed = await asyncio.wait_for(
                        _read_message(reader), KEEP_ALIVE_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    break  # idle between requests
                if parsed is None:
                    break  # clean EOF
                keep_alive = False
                if isinstance(parsed, ServiceResponse):
                    response = parsed
                else:
                    start, headers, body, keep_alive = parsed
                    try:
                        response = await self._route(
                            start[0].upper(),
                            start[1].split("?", 1)[0],
                            body,
                            headers,
                        )
                    except Exception as exc:  # noqa: BLE001 - boundary
                        keep_alive = False
                        response = _error(
                            500, f"{type(exc).__name__}: {exc}"
                        )
                extra = []
                if response.retry_after is not None:
                    extra.append(
                        f"Retry-After: {max(1, round(response.retry_after))}"
                    )
                reason = _REASONS.get(response.status, "Unknown")
                try:
                    writer.write(_serialize(
                        f"HTTP/1.1 {response.status} {reason}",
                        response.payload,
                        keep_alive,
                        *extra,
                    ))
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
                if not keep_alive:
                    break
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
    ) -> ServiceResponse:
        member = self.member
        if path in ("/healthz", "/metrics", "/fleet/metrics"):
            if method != "GET":
                return _method_not_allowed("GET")
            if path == "/healthz":
                return ServiceResponse(200, member.service.healthz())
            if path == "/metrics":
                return ServiceResponse(200, await member.metrics())
            return ServiceResponse(200, await member.fleet_metrics())
        if path.startswith("/fleet/cache/"):
            return await self._route_cache(
                method, path[len("/fleet/cache/"):], body
            )
        if path not in _POST_ROUTES:
            return _error(404, f"no such path {path!r}")
        if method != "POST":
            return _method_not_allowed("POST")
        payload = _parse_json(body)
        if isinstance(payload, ServiceResponse):
            return payload
        if path in ("/run", "/fleet/run"):
            # The body's own "tenant" field wins: it is what fleet
            # peers forward.
            if headers.get(TENANT_HEADER):
                payload.setdefault("tenant", headers[TENANT_HEADER])
            try:
                request = SimRequest.from_payload(payload)
            except ServiceError as exc:
                return _error(400, str(exc))
            if path == "/run":
                return await member.submit(request)
            return await member.run(request)
        if path == "/fleet/steal":
            fields = typed_fields(payload, thief=str, max_n=int)
            if fields is None:
                return _error(
                    400, "steal needs 'thief' (str) and 'max_n' (int)"
                )
            entries = await member.steal(*fields)
            return ServiceResponse(
                200, {"status": "ok", "entries": entries}
            )
        if path == "/fleet/stolen":
            fields = typed_fields(
                payload, entry_id=int, status=int, payload=dict
            )
            if fields is None or (
                200 <= fields[1] < 300
                and not isinstance(fields[2].get("result"), str)
            ):
                return _error(
                    400,
                    "a stolen report needs 'entry_id' and 'status' "
                    "(int) and a 'payload' object, with a 'result' "
                    "string on success",
                )
            await member.stolen(*fields)
            return ServiceResponse(200, {"status": "ok"})
        if path == "/fleet/join":
            fields = typed_fields(payload, host=str, port=int)
            if fields is None:
                return _error(
                    400, "join needs 'host' (str) and 'port' (int)"
                )
            try:
                return ServiceResponse(200, member.handle_join(*fields))
            except ServiceError as exc:
                return _error(409, str(exc))
        try:  # /fleet/membership
            await member.membership(payload.get("members"))
        except ServiceError as exc:
            return _error(400, str(exc))
        return ServiceResponse(200, {"status": "ok"})

    async def _route_cache(
        self, method: str, key: str, body: bytes
    ) -> ServiceResponse:
        if method == "GET":
            hit, value = await self.member.cache_get(key)
            if not hit:
                return ServiceResponse(404, {"status": "miss", "key": key})
            return ServiceResponse(
                200, {"status": "ok", "key": key, "value": value}
            )
        if method != "POST":
            return _method_not_allowed("GET, POST")
        payload = _parse_json(body)
        if isinstance(payload, ServiceResponse):
            return payload
        fields = typed_fields(payload, value=str)
        if fields is None:
            return _error(400, "'value' must be a string")
        try:
            await self.member.cache_put(key, *fields)
        except ServiceError as exc:
            return _error(400, str(exc))
        return ServiceResponse(200, {"status": "ok"})


class HttpPeerTransport:
    """Peer transport over keep-alive HTTP connections to one peer's
    ``/metrics`` and ``/fleet/*`` routes: the remote form of a
    :class:`~repro.service.fleet.FleetMember`'s peer protocol.

    Each RPC takes an idle connection, or opens one, and gives it back
    after a complete response, so RPCs to one peer run concurrently: a
    forwarded interactive request never waits behind a bulk request
    already forwarded to the same owner.  A connection that fails, or
    that the peer closes, is dropped, and the RPC is retried once on a
    fresh connection.  A steal whose first attempt died in flight is
    safe to retry: if the victim *did* grant entries to the lost
    request, its steal deadline re-enqueues them.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._idle: List[
            Tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = []

    # ------------------------------------------------------------------
    async def run(self, request: SimRequest) -> ServiceResponse:
        return ServiceResponse(*await self._request(
            "POST", "/fleet/run", asdict(request)
        ))

    async def cache_get(self, key: str) -> Tuple[bool, Any]:
        status, payload = await self._request(
            "GET", f"/fleet/cache/{key}"
        )
        if status == 200:
            return True, payload.get("value")
        return False, None

    async def cache_put(self, key: str, value: str) -> None:
        await self._call(
            "peer cache put", f"/fleet/cache/{key}", {"value": value}
        )

    async def steal(
        self, thief: str, max_n: int
    ) -> List[Dict[str, Any]]:
        payload = await self._call(
            "steal", "/fleet/steal", {"thief": thief, "max_n": max_n}
        )
        return payload.get("entries", [])

    async def stolen(
        self, entry_id: int, status: int, payload: Dict[str, Any]
    ) -> None:
        await self._call(
            "stolen report",
            "/fleet/stolen",
            {"entry_id": entry_id, "status": status, "payload": payload},
        )

    async def metrics(self) -> Dict[str, Any]:
        return await self._call("peer metrics", "/metrics")

    async def join(self, host: str, port: int) -> Dict[str, Any]:
        return await self._call(
            "join", "/fleet/join", {"host": host, "port": port}
        )

    async def membership(
        self, members: Sequence[Dict[str, Any]]
    ) -> None:
        await self._call(
            "membership push",
            "/fleet/membership",
            {"members": list(members)},
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the idle connections."""
        for _reader, writer in self._idle:
            writer.close()
        self._idle.clear()

    async def _call(
        self, what: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One RPC that must answer 200: its payload, else a
        :class:`ServiceError` (``body=None`` sends a GET)."""
        method = "GET" if body is None else "POST"
        status, payload = await self._request(method, path, body)
        if status != 200:
            raise ServiceError(
                f"{what} refused ({status}): {payload.get('error')}"
            )
        return payload

    async def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        message = _serialize(
            f"{method} {path} HTTP/1.1",
            body,
            True,
            f"Host: {self.host}:{self.port}",
        )
        for attempt in (0, 1):
            conn = None
            keep = False
            try:
                if self._idle and not attempt:
                    conn = self._idle.pop()
                else:
                    conn = await asyncio.wait_for(
                        asyncio.open_connection(self.host, self.port),
                        PEER_TIMEOUT_S,
                    )
                conn[1].write(message)
                await conn[1].drain()
                reply = await asyncio.wait_for(
                    _read_message(conn[0]), PEER_TIMEOUT_S
                )
                if (
                    not isinstance(reply, tuple)
                    or not reply[0][1].isdigit()
                ):
                    raise ConnectionError(f"bad peer reply: {reply!r}")
                start, _headers, raw, keep = reply
                return int(start[1]), (
                    json.loads(raw.decode("utf-8")) if raw else {}
                )
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                error = exc
            finally:
                # Only a connection whose response was read whole, and
                # that the peer keeps open, can carry the next RPC.
                if conn is not None:
                    if keep:
                        self._idle.append(conn)
                    else:
                        conn[1].close()
        raise ServiceError(
            f"peer {self.host}:{self.port} unreachable: "
            f"{type(error).__name__}: {error}"
        )


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
def _error(status: int, message: str) -> ServiceResponse:
    return ServiceResponse(status, {"status": "error", "error": message})


def _method_not_allowed(allowed: str) -> ServiceResponse:
    return _error(405, f"method not allowed; use {allowed}")


def _parse_json(body: bytes):
    """Decode a JSON object body, or a ready 400 response."""
    try:
        payload = json.loads(body.decode("utf-8") or "null")
    except ValueError as exc:
        return _error(400, f"bad JSON body: {exc}")
    if not isinstance(payload, dict):
        return _error(400, "body must be a JSON object")
    return payload


async def _read_message(reader: asyncio.StreamReader):
    """Parse one HTTP message, a request (the server's side) or a
    response (the peer transport's side).  Returns ``None`` on a clean
    EOF before it (the other end finished with the keep-alive
    connection), an error :class:`ServiceResponse` when the framing is
    broken, or ``(start, headers, body, keep_alive)``, ``start`` being
    the words of the request or status line."""
    try:
        start_line = await reader.readline()
    except (ConnectionError, OSError):
        start_line = b""
    if not start_line.strip():
        return None
    start = start_line.decode("latin-1").split()
    if len(start) < 2:
        return _error(400, "malformed start line")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            return _error(400, "truncated headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        return _error(400, "bad Content-Length")
    length = int(length)
    if length > MAX_BODY_BYTES:
        return _error(413, "message body too large")
    try:
        body = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return _error(400, "truncated body")
    # A status line leads with the version; a request line ends with it.
    if start[0].upper().startswith("HTTP/"):
        version = start[0].upper()
    else:
        version = start[2].upper() if len(start) > 2 else "HTTP/1.0"
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        keep_alive = connection != "close"
    else:
        keep_alive = connection == "keep-alive"
    return start, headers, body, keep_alive


def _serialize(
    start: str,
    payload: Optional[Dict[str, Any]],
    keep_alive: bool,
    *headers: str,
) -> bytes:
    """Render one HTTP/1.1 message, a request or a response after its
    ``start`` line, with ``payload`` as its JSON body (none when
    ``None``) and any extra ``headers``."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    lines = [
        start,
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        *headers,
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
