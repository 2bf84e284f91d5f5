"""Request/response types for the simulation service.

A :class:`SimRequest` names an experiment from the registry, an
optional scale preset and seed override, and a priority class.  The
two classes map directly onto the paper's two workload classes:
``interactive`` requests are the natives (dispatched to the worker
pool immediately), ``bulk`` requests are the interstitials (held back
and admitted only into pool-utilization gaps below the cap).

The *content address* of a request deliberately excludes the priority
class: an interactive and a bulk request for the same configuration
describe the same deterministic computation, so they share one cache
entry and coalesce onto one in-flight run.

Requests also carry a *tenant id* (multi-tenant admission, see
:mod:`repro.service.tenancy`).  Like priority, the tenant is a pure
admission attribute: it is excluded from the content address, so two
tenants asking for the same configuration share one cache entry and
one in-flight computation — only *scheduling* differs per tenant.
Requests that name no tenant belong to :data:`DEFAULT_TENANT`, which
keeps every pre-tenancy client working unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ServiceError
from repro.experiments.config import SCALES, ExperimentScale
from repro.store import content_key

#: Priority classes, in "natives first" order.
INTERACTIVE = "interactive"
BULK = "bulk"
PRIORITIES = (INTERACTIVE, BULK)

#: Tenant id assigned to requests that name none (pre-tenancy clients).
DEFAULT_TENANT = "default"

#: Upper bound on tenant-id length; ids are opaque client strings and
#: end up in journal records, counters, and metrics keys.
MAX_TENANT_LEN = 64


@dataclass
class ServiceResponse:
    """One service-layer response: an HTTP-shaped status code plus a
    JSON-ready payload.  The HTTP front end serializes it verbatim,
    :class:`~repro.service.client.ServiceClient` decodes it back, and
    the in-process path returns it directly."""

    status: int
    payload: Dict[str, Any]

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def result(self) -> Optional[str]:
        """The rendered table text (``None`` unless ok)."""
        return self.payload.get("result") if self.ok else None

    @property
    def cached(self) -> bool:
        return bool(self.payload.get("cached"))

    @property
    def coalesced(self) -> bool:
        return bool(self.payload.get("coalesced"))

    @property
    def retry_after(self) -> Optional[float]:
        """Backpressure hint (seconds), set on 429 rejections."""
        return self.payload.get("retry_after_s")

    @property
    def error(self) -> Optional[str]:
        return self.payload.get("error")


@dataclass(frozen=True)
class SimRequest:
    """One simulation request.

    Parameters
    ----------
    experiment:
        Registry experiment name (see ``repro list``).
    scale:
        Scale preset name; ``None`` uses the service's default.
    seed:
        Root-seed override applied on top of the preset (forces a
        distinct content address, hence a distinct run).
    priority:
        ``"interactive"`` or ``"bulk"``.
    tenant:
        Tenant id for fair-share admission; ``None`` means
        :data:`DEFAULT_TENANT`.  Never part of the content address.
    """

    experiment: str
    scale: Optional[str] = None
    seed: Optional[int] = None
    priority: str = INTERACTIVE
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.experiment, str) or not self.experiment:
            raise ServiceError("'experiment' must be a non-empty string")
        if self.scale is not None and not isinstance(self.scale, str):
            raise ServiceError("'scale' must be a preset name or null")
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, int)
        ):
            raise ServiceError("'seed' must be an integer or null")
        if self.priority not in PRIORITIES:
            raise ServiceError(
                f"'priority' must be one of {PRIORITIES}, "
                f"got {self.priority!r}"
            )
        if self.tenant is not None:
            if not isinstance(self.tenant, str) or not self.tenant:
                raise ServiceError("'tenant' must be a non-empty string or null")
            if len(self.tenant) > MAX_TENANT_LEN:
                raise ServiceError(
                    f"'tenant' must be at most {MAX_TENANT_LEN} characters"
                )

    @property
    def effective_tenant(self) -> str:
        """The tenant this request is charged to."""
        return self.tenant if self.tenant is not None else DEFAULT_TENANT

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SimRequest":
        """Build a request from a decoded JSON body, rejecting unknown
        fields (catching client typos like ``"prioritty"``); a null
        field takes its default."""
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ServiceError(f"unknown request fields: {unknown}")
        if payload.get("experiment") is None:
            raise ServiceError("request needs an 'experiment' field")
        return cls(**{k: v for k, v in payload.items() if v is not None})

    # ------------------------------------------------------------------
    def resolve_scale(self, default: ExperimentScale) -> ExperimentScale:
        """The effective scale: named preset (or ``default``) with the
        seed override applied."""
        if self.scale is None:
            scale = default
        elif self.scale in SCALES:
            scale = SCALES[self.scale]
        else:
            raise ServiceError(
                f"unknown scale {self.scale!r}; one of {sorted(SCALES)}"
            )
        if self.seed is not None:
            scale = replace(scale, seed=self.seed)
        return scale

    def run_payload(self, scale: ExperimentScale) -> Dict[str, Any]:
        """Content-address payload for this request at its effective
        scale (priority excluded — see the module docstring)."""
        return {
            "kind": "service-run",
            "experiment": self.experiment,
            "scale": dict(asdict(scale)),
        }

    def run_key(self, default: ExperimentScale) -> str:
        """Content address of the request's computation."""
        return content_key(self.run_payload(self.resolve_scale(default)))


def typed_fields(record: Any, **types: type) -> Optional[Tuple[Any, ...]]:
    """The values of ``record``'s fields named in ``types``, in that
    order — or ``None`` unless ``record`` is a dict holding each of
    them with its type (a ``bool`` is no ``int``).  The one shape check
    for what fleet peers send."""
    if not isinstance(record, dict):
        return None
    values = tuple(record.get(name) for name in types)
    for value, kind in zip(values, types.values()):
        if not isinstance(value, kind) or (
            kind is int and isinstance(value, bool)
        ):
            return None
    return values
