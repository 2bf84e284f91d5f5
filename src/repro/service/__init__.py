"""Simulation-as-a-service: the paper's admission policy, serving.

The repo's experiments have so far been one-shot CLI runs.  This
package is the long-lived serving layer on top of the same registry,
store and executor machinery: a stdlib-only asyncio daemon (``repro
serve``) that runs :class:`~repro.service.requests.SimRequest`\\ s on a
worker pool under the paper's two-class policy — interactive natives
dispatch immediately, bulk interstitials are admitted only into
utilization gaps below a cap — with content-addressed response
caching, in-flight request coalescing, bounded-queue backpressure and
graceful drain.  The :mod:`~repro.service.resilience` layer makes the
daemon self-healing: accepted bulk work is WAL-journaled and replayed
after a crash, crashed/hung workers are replaced with their requests
retried or dead-lettered, and corrupt store entries are quarantined
and recomputed.  The :mod:`~repro.service.fleet` layer scales the
daemon out: N replicas self-assemble over ``repro serve --join``,
route requests by content address across a deterministic
consistent-hash :class:`~repro.service.ring.HashRing`, answer repeats
from each other's caches, and work-steal queued bulk sweeps from
loaded peers.  See ``DESIGN.md`` §11 for the architecture, §12 for
the failure semantics and §14 for the fleet.
"""

from repro.service.client import ServiceClient
from repro.service.daemon import ServiceConfig, SimulationService
from repro.service.fleet import FleetConfig, FleetMember, LocalFleet
from repro.service.http import HttpFrontend, HttpPeerTransport
from repro.service.metrics import LatencyStats, ServiceMetrics, percentile
from repro.service.requests import (
    BULK,
    DEFAULT_TENANT,
    INTERACTIVE,
    PRIORITIES,
    ServiceResponse,
    SimRequest,
)
from repro.service.resilience import (
    DEFAULT_SERVICE_RETRY,
    BulkJournal,
    WorkerSupervisor,
)
from repro.service.ring import DEFAULT_VNODES, HashRing
from repro.service.runner import run_service
from repro.service.tenancy import (
    DEFAULT_TENANT_HALF_LIFE_S,
    DEFAULT_WAIT_NORM_S,
    TenantAdmission,
    TenantFairQueue,
    TenantQuota,
    WorkerAutoscaler,
)

__all__ = [
    "DEFAULT_VNODES",
    "FleetConfig",
    "FleetMember",
    "HashRing",
    "HttpPeerTransport",
    "LocalFleet",
    "BULK",
    "DEFAULT_TENANT",
    "INTERACTIVE",
    "PRIORITIES",
    "SimRequest",
    "ServiceResponse",
    "ServiceConfig",
    "SimulationService",
    "ServiceMetrics",
    "LatencyStats",
    "percentile",
    "HttpFrontend",
    "ServiceClient",
    "BulkJournal",
    "WorkerSupervisor",
    "DEFAULT_SERVICE_RETRY",
    "DEFAULT_TENANT_HALF_LIFE_S",
    "DEFAULT_WAIT_NORM_S",
    "TenantAdmission",
    "TenantFairQueue",
    "TenantQuota",
    "WorkerAutoscaler",
    "run_service",
]
