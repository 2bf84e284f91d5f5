"""Thin HTTP client for the simulation service.

:class:`ServiceClient` talks HTTP with :mod:`http.client` (stdlib).
It keeps **one list of idle keep-alive connections**, as the fleet's
peer transport does: a call takes an idle connection or opens one,
and gives it back after a complete response, so one client instance
is safe to share across threads and every thread's calls re-use
sockets — the daemon's front end holds them open, which removes a TCP
handshake from every request; ``bench_service.py`` measures the
difference.  :meth:`ServiceClient.close` closes every idle connection.

Because a long-lived socket can die between calls (daemon restart,
idle timeout), idempotent calls **retry once** on reset-class errors
(``RemoteDisconnected``, ``BadStatusLine``, ``ConnectionError``...)
with a fresh connection.  Every request the service accepts is safe
to retry: computations are deterministic and content-addressed, so a
duplicate submission is absorbed by the cache or coalesced onto the
in-flight run.  Timeouts deliberately do **not** retry — a stuck
server is not a reset, and retrying would double the wait.

Every call returns the daemon's
:class:`~repro.service.requests.ServiceResponse` decoded from the
wire.  The same request semantics without sockets come from
:class:`~repro.service.fleet.LocalFleet` (``LocalFleet(1)`` is one
daemon).
"""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ServiceError
from repro.service.requests import ServiceResponse


#: Errors meaning "the connection died" — safe to retry once with a
#: fresh socket.  socket.timeout (a subclass of OSError in 3.10+,
#: excluded explicitly) is NOT here on purpose: a slow server must
#: surface as a timeout, not a silent doubled wait.
_RESET_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
    ConnectionError,
    BrokenPipeError,
)


class ServiceClient:
    """HTTP client for a running ``repro serve`` daemon.

    Parameters
    ----------
    host, port, timeout:
        Daemon address and per-call socket timeout.
    tenant:
        Tenant id this client submits as, sent as the
        ``X-Repro-Tenant`` header on every request.  ``None`` (the
        default) submits without one — the daemon attributes those to
        its default tenant.  A per-call ``tenant=`` on :meth:`run`
        overrides it for that request.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 300.0,
        *,
        tenant: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.tenant = tenant
        self._idle: List[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every idle connection, whichever thread opened it."""
        try:
            while True:
                self._idle.pop().close()
        except IndexError:
            pass

    # ------------------------------------------------------------------
    def run(
        self,
        experiment: str,
        *,
        scale: Optional[str] = None,
        seed: Optional[int] = None,
        priority: str = "interactive",
        tenant: Optional[str] = None,
    ) -> ServiceResponse:
        """Submit one simulation request and wait for its reply."""
        body = {
            "experiment": experiment,
            "scale": scale,
            "seed": seed,
            "priority": priority,
        }
        if tenant is not None:
            body["tenant"] = tenant
        return self._call("POST", "/run", body)

    def run_many(
        self, requests: Sequence[Dict[str, Any]], max_workers: int = 8
    ) -> List[ServiceResponse]:
        """Submit many request payloads concurrently (thread-per-call,
        order-preserving), then close the idle connections."""
        try:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                return list(pool.map(lambda kw: self.run(**kw), requests))
        finally:
            self.close()

    def healthz(self) -> ServiceResponse:
        return self._call("GET", "/healthz")

    def metrics(self) -> ServiceResponse:
        return self._call("GET", "/metrics")

    def fleet_metrics(self) -> ServiceResponse:
        """Fleet-aggregated metrics over every replica."""
        return self._call("GET", "/fleet/metrics")

    def wait_until_healthy(
        self, timeout: float = 30.0, interval: float = 0.1
    ) -> ServiceResponse:
        """Poll ``/healthz`` until the daemon answers; raises
        :class:`ServiceError` on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                reply = self.healthz()
                if reply.ok:
                    return reply
            except (ConnectionError, OSError):
                pass
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"service at {self.host}:{self.port} not healthy "
                    f"after {timeout:.0f}s"
                )
            time.sleep(interval)

    # ------------------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> ServiceResponse:
        payload = (
            None if body is None else json.dumps(body).encode("utf-8")
        )
        headers = {"Content-Type": "application/json"} if payload else {}
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        # Retry exactly once, on a fresh connection, after a
        # reset-class error (the socket died between calls, or the
        # daemon restarted mid-request).  Submissions are idempotent —
        # deterministic, content-addressed, cache-absorbed — so the
        # retry is safe.
        for attempt in (0, 1):
            try:
                conn = None if attempt else self._idle.pop()
            except IndexError:
                conn = None
            if conn is None:
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except BaseException as exc:
                conn.close()
                if attempt or not isinstance(exc, _RESET_ERRORS):
                    raise
                continue
            # Only a connection whose response was read whole, and that
            # the daemon keeps open, can carry the next call.
            if response.will_close:
                conn.close()
            else:
                self._idle.append(conn)
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError:
                decoded = {"error": raw.decode("utf-8", "replace")}
            return ServiceResponse(response.status, decoded)
        raise AssertionError("unreachable")  # pragma: no cover
