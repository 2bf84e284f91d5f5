"""The ``serve`` workload's client: one process, two keep-alive
connections to a real ``repro serve`` daemon.

* Connection 1 carries the open-loop interactive stream.  A sender
  thread writes each request when it is due, whether or not earlier
  replies have arrived (HTTP/1.1 pipelining), and a receiver thread
  reads the replies, which the daemon answers in order.  Latency is
  counted from each request's due time, so a stall that delays later
  requests is charged to them.
* Connection 2 carries the closed-loop bulk sweep: the next request
  leaves only when the previous reply is in.

All times are ``time.monotonic()`` readings, the clock the daemon's
spans are taken with (see ``layers.SpanRecorder``).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class Exchange:
    """One request and, once it arrives, its reply."""

    body: Dict[str, Any]
    due: float
    sent: Optional[float] = None
    received: Optional[float] = None
    #: Start of the daemon's work on it: the later of its send and the
    #: previous reply on the same connection.
    began: Optional[float] = None
    reply: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None


class Connection:
    """One persistent HTTP/1.1 connection speaking the daemon's JSON."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.host = host

    def send(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> None:
        data = json.dumps(body).encode("utf-8") if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        )
        self.sock.sendall(head.encode("latin-1") + data)

    def receive(self) -> Tuple[int, Dict[str, Any]]:
        status_line = self.rfile.readline()
        if not status_line:
            raise ConnectionError("daemon closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = self.rfile.read(length) if length else b""
        return status, json.loads(body) if body else {}

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            self.sock.close()


def get_json(host: str, port: int, path: str,
             timeout: float = 5.0) -> Tuple[int, Dict[str, Any]]:
    """One GET on a fresh connection."""
    conn = Connection(host, port, timeout)
    try:
        conn.send("GET", path)
        return conn.receive()
    finally:
        conn.close()


def _record(exchange: Exchange, status: int, payload: Dict[str, Any]):
    exchange.received = time.monotonic()
    exchange.reply = dict(payload)
    exchange.reply["http_status"] = status


def open_loop(conn: Connection, exchanges: List[Exchange],
              reply_timeout: float) -> threading.Thread:
    """Start sending ``exchanges`` at their due times on ``conn``;
    returns the receiver thread, which ends once every reply is in (or
    the connection fails)."""

    def sender() -> None:
        for ex in exchanges:
            delay = ex.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            ex.sent = time.monotonic()
            try:
                conn.send("POST", "/run", ex.body)
            except OSError as exc:
                ex.error = f"send failed: {exc}"
                return

    def receiver() -> None:
        conn.sock.settimeout(reply_timeout)
        previous = None
        for ex in exchanges:
            while ex.sent is None and ex.error is None:
                time.sleep(0.001)
            if ex.error is not None:
                return
            try:
                status, payload = conn.receive()
            except (OSError, ValueError) as exc:
                ex.error = f"receive failed: {exc}"
                return
            _record(ex, status, payload)
            ex.began = max(ex.sent, previous) if previous else ex.sent
            previous = ex.received

    send_thread = threading.Thread(target=sender, daemon=True)
    recv_thread = threading.Thread(target=receiver, daemon=True)
    send_thread.start()
    recv_thread.start()
    return recv_thread


def closed_loop(conn: Connection, bodies: List[Dict[str, Any]],
                until: float, reply_timeout: float,
                out: List[Exchange]) -> threading.Thread:
    """Send ``bodies`` one at a time until ``until``; each exchange is
    appended to ``out`` as it is sent."""

    def loop() -> None:
        conn.sock.settimeout(reply_timeout)
        for body in bodies:
            now = time.monotonic()
            if now >= until:
                return
            ex = Exchange(body=body, due=now, sent=now, began=now)
            out.append(ex)
            try:
                conn.send("POST", "/run", body)
                status, payload = conn.receive()
            except (OSError, ValueError) as exc:
                ex.error = f"bulk exchange failed: {exc}"
                return
            _record(ex, status, payload)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return thread
