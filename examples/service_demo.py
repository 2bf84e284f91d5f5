#!/usr/bin/env python
"""Simulation-as-a-service demo: boot the daemon, mix request classes.

This example (also CI's service smoke test) exercises the full serving
path end to end:

1. start ``repro serve`` as a real subprocess on a free port;
2. wait for ``/healthz`` to come up;
3. drive ~50 mixed interactive/bulk requests through
   :class:`~repro.service.ServiceClient` — mostly repeated
   configurations, so the run store and request coalescing absorb most
   of the load;
4. read ``/metrics`` and show how few simulations actually ran;
5. stop the daemon with SIGTERM and verify it drains cleanly.

Run:  PYTHONPATH=src python examples/service_demo.py
"""

import os
import signal
import socket
import subprocess
import sys

from repro.service import ServiceClient

N_REQUESTS = 50
UNIQUE_SEEDS = 10


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main() -> None:
    port = free_port()
    client = ServiceClient(port=port)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--scale", "quick", "--port", str(port), "--workers", "2"],
        env=dict(os.environ),
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        client.wait_until_healthy(timeout=60.0)
        health = client.healthz().payload
        print(
            f"daemon up on port {port}: repro {health['version']}, "
            f"{health['workers']} workers, "
            f"bulk cap {health['bulk_cap']}"
        )

        # 50 requests over 10 unique configurations, every third one
        # bulk-class: the store and coalescer should collapse this to
        # ~10 actual simulation runs.
        payloads = [
            {
                "experiment": "table1",
                "seed": i % UNIQUE_SEEDS,
                "priority": "bulk" if i % 3 == 0 else "interactive",
            }
            for i in range(N_REQUESTS)
        ]
        replies = client.run_many(payloads, max_workers=8)
        statuses = sorted({r.status for r in replies})
        ok = sum(r.ok for r in replies)
        cached = sum(bool(r.cached) for r in replies)
        print(
            f"{ok}/{N_REQUESTS} requests succeeded "
            f"(statuses seen: {statuses}; {cached} served from cache)"
        )
        assert ok == N_REQUESTS, f"failures: {statuses}"

        counters = client.metrics().payload["counters"]
        print(
            f"simulations actually run: {counters['computes']} "
            f"(cache hits {counters['cache_hits']}, "
            f"coalesced {counters['coalesced_hits']})"
        )
        assert counters["computes"] <= UNIQUE_SEEDS
        assert (
            counters["computes"]
            + counters["cache_hits"]
            + counters["coalesced_hits"]
        ) == N_REQUESTS
    finally:
        client.close()
        server.send_signal(signal.SIGTERM)
        _, stderr = server.communicate(timeout=60.0)

    print(f"daemon exited with code {server.returncode}")
    assert server.returncode == 0, stderr
    assert "drained cleanly" in stderr, stderr
    print("clean SIGTERM drain verified")


if __name__ == "__main__":
    main()
