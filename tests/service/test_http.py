"""Tests for the HTTP front end and its client.

A real ``asyncio`` server is booted on an ephemeral port in front of a
one-member fleet with the thread-pool stub worker behind it, and
driven through :class:`ServiceClient` (plus one raw socket for
wire-level cases).
"""

import asyncio
import http.client
import json
import socket
import sys
import threading

import pytest

from repro.errors import ServiceError
from repro.service import FleetMember, HttpFrontend, ServiceClient
from tests.service.conftest import make_service


class ServedFixture:
    """A one-member fleet + HTTP front end running on a background
    loop."""

    def __init__(self, **service_kwargs):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        self.service = make_service(**service_kwargs)
        self.call(self.service.start())
        self.member = FleetMember(self.service)
        self.call(self.member.start())
        self.frontend = HttpFrontend(self.member, port=0)
        self.call(self.frontend.start())
        self.client = ServiceClient(port=self.frontend.port)

    def call(self, coro, timeout=30.0):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop
        ).result(timeout)

    def close(self):
        self.client.close()
        self.call(self.frontend.stop())
        self.call(self.member.finish_close())
        self.call(self.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()

    def raw(self, payload: bytes) -> bytes:
        """Send raw bytes, return the full response."""
        with socket.create_connection(
            ("127.0.0.1", self.frontend.port), timeout=10.0
        ) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)


@pytest.fixture
def served():
    fixture = ServedFixture()
    yield fixture
    fixture.close()


class TestEndpoints:
    def test_healthz(self, served):
        reply = served.client.healthz()
        assert reply.ok
        assert reply.payload["status"] == "ok"
        assert reply.payload["workers"] == 2
        assert reply.payload["bulk_cap"] == pytest.approx(0.9)
        assert reply.payload["version"]
        assert reply.payload["uptime_s"] >= 0.0

    def test_run_and_cache(self, served):
        first = served.client.run("table1", seed=11)
        again = served.client.run("table1", seed=11)
        assert first.ok and again.ok
        assert first.result == "rendered table1 seed=11"
        assert not first.cached
        assert again.cached
        metrics = served.client.metrics()
        assert metrics.payload["counters"]["computes"] == 1
        assert metrics.payload["counters"]["cache_hits"] == 1

    def test_bulk_priority_accepted(self, served):
        reply = served.client.run("table1", seed=12, priority="bulk")
        assert reply.ok
        assert reply.payload["priority"] == "bulk"
        metrics = served.client.metrics()
        assert metrics.payload["counters"]["bulk_requests"] == 1

    def test_metrics_shape(self, served):
        served.client.run("table1", seed=13)
        snap = served.client.metrics().payload
        assert "counters" in snap and "latency" in snap
        assert snap["store"]["entries"] == 1
        assert snap["latency"]["interactive"]["count"] == 1

    def test_validation_errors(self, served):
        assert served.client.run("nope").status == 400
        assert served.client.run(
            "table1", scale="galactic"
        ).status == 400

    def test_draining_run_rejected(self, served):
        served.call(served.service.drain())
        reply = served.client.run("table1", seed=14)
        assert reply.status == 503
        assert served.client.healthz().payload["status"] == "draining"


class TestWireLevel:
    def test_unknown_path_404(self, served):
        raw = served.raw(b"GET /nope HTTP/1.1\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 404")

    def test_method_not_allowed(self, served):
        raw = served.raw(b"POST /healthz HTTP/1.1\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 405")
        raw = served.raw(b"GET /run HTTP/1.1\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 405")

    def test_malformed_request_line(self, served):
        raw = served.raw(b"garbage\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")

    def test_bad_json_body(self, served):
        body = b"{not json"
        raw = served.raw(
            b"POST /run HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        assert raw.startswith(b"HTTP/1.1 400")

    def test_unknown_request_field(self, served):
        body = json.dumps(
            {"experiment": "table1", "prioritty": "bulk"}
        ).encode()
        raw = served.raw(
            b"POST /run HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"prioritty" in raw

    def test_bad_content_length(self, served):
        raw = served.raw(
            b"POST /run HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 400")

    def test_negative_content_length(self, served):
        """A length that is not a string of decimal digits is a 400,
        not a crash of the connection handler."""
        raw = served.raw(
            b"POST /run HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 400")

    def test_oversized_body_rejected(self, served):
        raw = served.raw(
            b"POST /run HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 413")

    def test_truncated_body(self, served):
        raw = served.raw(
            b"POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
        )
        assert raw.startswith(b"HTTP/1.1 400")

    def test_http11_keeps_alive_and_declares_it(self, served):
        raw = served.raw(b"GET /healthz HTTP/1.1\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"Content-Type: application/json" in head
        assert b"Connection: keep-alive" in head
        assert json.loads(body)["status"] == "ok"

    def test_connection_close_honored(self, served):
        raw = served.raw(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        head, _, _ = raw.partition(b"\r\n\r\n")
        assert b"Connection: close" in head

    def test_http10_closes_by_default(self, served):
        raw = served.raw(b"GET /healthz HTTP/1.0\r\n\r\n")
        head, _, _ = raw.partition(b"\r\n\r\n")
        assert b"Connection: close" in head

    def test_two_requests_one_connection(self, served):
        """Keep-alive actually reuses the socket: two requests go in
        one connection and both answers come back on it."""
        with socket.create_connection(
            ("127.0.0.1", served.frontend.port), timeout=10.0
        ) as sock:
            message = b"GET /healthz HTTP/1.1\r\n\r\n"
            sock.sendall(message)
            first = _read_one_response(sock)
            sock.sendall(message)
            second = _read_one_response(sock)
        assert first.startswith(b"HTTP/1.1 200")
        assert second.startswith(b"HTTP/1.1 200")


class TestBackpressureHeaders:
    def test_retry_after_header_present(self):
        import time

        fixture = ServedFixture(workers=1, bulk_cap=1.0, max_queue=1)
        try:
            def slow(name, scale, store_path, check):
                time.sleep(0.6)
                return "slow"

            fixture.service._worker_fn = slow
            # Occupy the single worker, fill the one-slot queue, then
            # the next bulk arrival must bounce with Retry-After.
            results = []

            def bulk(seed):
                results.append(
                    fixture.client.run(
                        "table1", seed=seed, priority="bulk"
                    )
                )

            threads = []
            for seed in (1, 2):
                thread = threading.Thread(target=bulk, args=(seed,))
                thread.start()
                threads.append(thread)
                time.sleep(0.15)
            rejected = fixture.client.run(
                "table1", seed=3, priority="bulk"
            )
            for thread in threads:
                thread.join(timeout=10.0)
            assert rejected.status == 429
            assert rejected.retry_after >= 1.0
            assert sorted(r.status for r in results) == [200, 200]
        finally:
            fixture.close()


class TestClientKeepAlive:
    def test_persistent_connection_reused(self, served):
        """Sequential calls ride one socket: after the first call the
        client holds one idle connection, and the daemon sees exactly
        one accepted connection for all three."""
        for seed in (61, 62, 63):
            assert served.client.run("table1", seed=seed).ok
        assert len(served.client._idle) == 1
        assert len(served.frontend._connections) == 1
        served.client.close()
        assert served.client._idle == []

    def test_retry_once_after_daemon_restart(self, served):
        """Regression: a persistent connection severed by a daemon
        restart must not surface as an error — the client retries
        once on the reset and the resubmission is absorbed by the
        content-addressed cache."""
        first = served.client.run("table1", seed=71)
        assert first.ok and not first.cached
        # Restart the front end on the same port: every persistent
        # connection (including the client's) is closed.
        port = served.frontend.port
        served.call(served.frontend.stop())
        served.frontend = HttpFrontend(served.member, port=port)
        served.call(served.frontend.start())
        again = served.client.run("table1", seed=71)
        assert again.ok
        assert again.cached  # same computation, served from store

    def test_timeout_is_not_retried(self, served):
        """A slow server surfaces as a timeout, not a doubled wait."""
        import time

        gate = threading.Event()

        def stalled(name, scale, store_path, check):
            gate.wait(5.0)
            return "late"

        served.service._worker_fn = stalled
        client = ServiceClient(port=served.frontend.port, timeout=0.5)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            client.run("table1", seed=72)
        elapsed = time.monotonic() - start
        gate.set()
        assert elapsed < 2.0  # one timeout's worth, not two


class TestClientSurface:
    def test_run_many_preserves_order(self, served):
        payloads = [
            {"experiment": "table1", "seed": i} for i in (21, 22, 23)
        ]
        replies = served.client.run_many(payloads, max_workers=3)
        assert [r.payload["seed"] for r in replies] == [21, 22, 23]

    def test_run_many_closes_pool_connections(self, served, monkeypatch):
        # The pool threads' calls leave keep-alive connections idle;
        # the threads end with the call, so their sockets must be
        # closed by then rather than left for the garbage collector.
        opened = []

        class Recording(http.client.HTTPConnection):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(http.client, "HTTPConnection", Recording)
        payloads = [
            {"experiment": "table1", "seed": i} for i in (31, 32, 33)
        ]
        replies = served.client.run_many(payloads, max_workers=3)
        assert [r.status for r in replies] == [200, 200, 200]
        assert opened
        assert [conn.sock for conn in opened] == [None] * len(opened)

    def test_shared_client_keeps_every_connection(self, monkeypatch):
        """Threads sharing one client, switching as often as the
        interpreter allows, lose no connection: once the calls end,
        every connection the client opened is idle or closed, and
        close() reaches all of them."""
        opened = []

        class Instant:
            """A connection answering 200 at once, so the threads
            contend for the client instead of waiting on sockets (it
            is its own response)."""

            status, will_close, closed = 200, False, False

            def __init__(self, *args, **kwargs):
                opened.append(self)

            def request(self, *args, **kwargs):
                pass

            def getresponse(self):
                return self

            def read(self):
                return b"{}"

            def close(self):
                self.closed = True

        monkeypatch.setattr(http.client, "HTTPConnection", Instant)
        client = ServiceClient()
        statuses = []

        def hammer():
            for _ in range(4000):
                statuses.append(client.healthz().status)

        threads = [threading.Thread(target=hammer) for _ in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == [200] * 64000
        idle = {id(conn) for conn in client._idle}
        assert len(idle) == len(client._idle)
        assert all(id(conn) in idle or conn.closed for conn in opened)
        client.close()
        assert all(conn.closed for conn in opened)

    def test_wait_until_healthy_times_out_fast(self):
        client = ServiceClient(port=1, timeout=0.2)
        with pytest.raises(ServiceError, match="not healthy"):
            client.wait_until_healthy(timeout=0.3, interval=0.05)


def _read_one_response(sock: socket.socket) -> bytes:
    """Read exactly one HTTP response off a keep-alive socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return head + b"\r\n\r\n" + rest

