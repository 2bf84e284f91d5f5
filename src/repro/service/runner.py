"""Process-level entry point for ``repro serve``.

Owns everything that belongs to the *daemon process* rather than the
service object: the event loop, signal wiring and the shutdown order.
On SIGTERM/SIGINT the service first stops accepting (``/run`` answers
503, ``/healthz`` reports ``draining``), lets everything accepted —
running work and queued bulk — complete, then closes the listener and
shuts the pool down.  A clean drain exits 0, which is what the CI
smoke job asserts.  With ``--journal``, accepted bulk requests that
an *unclean* death (crash, SIGKILL) left unfinished are replayed on
the next boot — the startup banner reports how many.

Every daemon is a fleet replica (see :mod:`repro.service.fleet`): a
bare boot is a single-member fleet — every request goes to its own
service, as on the pre-fleet daemon — and the coordinator other
daemons can join.  With ``--join HOST:PORT`` the boot registers with
the coordinator at that address, adopts its assigned replica id, and
starts serving its share of the consistent-hash ring.  The fleet
shutdown order extends the solo one: stop stealing/granting first,
settle stolen entries in both directions, then drain the local
service as before.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Optional, Tuple

from repro.errors import ServiceError
from repro.service.daemon import ServiceConfig, SimulationService
from repro.service.fleet import FleetConfig, FleetMember
from repro.service.http import HttpFrontend


def run_service(
    config: ServiceConfig,
    host: str = "127.0.0.1",
    port: int = 8765,
    join: Optional[Tuple[str, int]] = None,
) -> int:
    """Boot the daemon and block until a termination signal has been
    handled and the service has drained.  Returns the exit code.

    ``join=(host, port)`` makes this daemon register with the fleet
    coordinator at that address instead of coordinating itself.
    """
    return asyncio.run(_serve(config, host, port, join))


async def _serve(
    config: ServiceConfig,
    host: str,
    port: int,
    join: Optional[Tuple[str, int]] = None,
) -> int:
    service = SimulationService(config)
    await service.start()
    if service.journal is not None:
        print(
            f"repro serve: journal {config.journal_path} "
            f"({service.replayed} accepted request(s) replayed, "
            f"{service.journal.torn_records} torn record(s) dropped)",
            file=sys.stderr,
            flush=True,
        )
    member = FleetMember(
        service, FleetConfig(coordinator=join is None)
    )
    await member.start()
    frontend = HttpFrontend(member, host, port)
    await frontend.start()
    member.set_advertise(host, frontend.port)
    if join is not None:
        try:
            reply = await member.join(join[0], join[1])
        except (ServiceError, OSError) as exc:
            print(
                f"repro serve: failed to join fleet at "
                f"{join[0]}:{join[1]}: {exc}",
                file=sys.stderr,
                flush=True,
            )
            await frontend.stop()
            await member.finish_close()
            await service.stop()
            return 1
        print(
            f"repro serve: joined fleet as {reply['id']} "
            f"({len(reply['members'])} replica(s), coordinator "
            f"{join[0]}:{join[1]})",
            file=sys.stderr,
            flush=True,
        )

    loop = asyncio.get_running_loop()
    shutdown = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, shutdown.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            signal.signal(signum, lambda *_: shutdown.set())

    extras = ""
    if config.tenant_quota is not None:
        quota = config.tenant_quota
        extras += (
            f", tenant_quota={quota.max_inflight}"
            f":{quota.max_backlog_share}"
        )
    if config.autoscale_min is not None:
        extras += (
            f", autoscale={config.autoscale_min}"
            f":{config.autoscale_max}"
        )
    print(
        f"repro serve: listening on http://{host}:{frontend.port} "
        f"(workers={config.workers}, bulk_cap={config.bulk_cap}, "
        f"scale={config.effective_scale().name}, "
        f"replica={member.replica_id}{extras})",
        file=sys.stderr,
        flush=True,
    )
    await shutdown.wait()
    print("repro serve: draining...", file=sys.stderr, flush=True)
    # Fleet-aware drain: stop acquiring work (no steals in either
    # direction), settle stolen entries, then run the solo drain —
    # refuse new work but keep /healthz `/metrics` observable while
    # accepted work completes; only then close the listener.
    member.begin_close()
    await member.wait_idle()
    await service.drain()
    await frontend.stop()
    await member.finish_close()
    await service.stop()
    counters = service.metrics.counters
    print(
        f"repro serve: drained cleanly ({counters.requests} requests, "
        f"{counters.computes} computes, {counters.cache_hits} cache "
        f"hits, {counters.coalesced_hits} coalesced)",
        file=sys.stderr,
        flush=True,
    )
    return 0
