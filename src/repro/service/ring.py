"""Deterministic consistent-hash ring for the serving fleet.

The fleet shards its content-addressed cache by routing every request
key (already a SHA-256 hex digest — see :func:`repro.store.content_key`)
to one *owner* replica.  :class:`HashRing` implements the classic
consistent-hashing construction: each replica id is expanded into
:data:`DEFAULT_VNODES` virtual points (``sha256("<replica>#<i>")``
truncated to 64 bits), all points are kept sorted, and a key is owned
by the first point clockwise from the key's own hash.

Two properties matter to the fleet and are pinned by tests:

* **Determinism** — positions derive only from replica-id strings and
  SHA-256, never from process identity, insertion order, or
  ``PYTHONHASHSEED``; every process that knows the member list computes
  byte-identical ownership, so replicas route without consulting each
  other.
* **Stability** — adding a replica moves only the keys the new replica
  now owns (≈ K/N of them), so peer caches stay mostly warm as the
  fleet grows.  Membership is append-only (the fleet has no leave
  protocol), so the ring has no removal.

The ring is a pure data structure: membership changes are the fleet
layer's job (see :mod:`repro.service.fleet`).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Virtual points per replica.  64 keeps the max/mean ownership skew
#: under ~2x for small fleets while membership changes stay cheap
#: (N * 64 insertions).
DEFAULT_VNODES = 64


def _point(label: str) -> int:
    """Ring position of ``label``: the first 8 bytes of its SHA-256,
    big-endian.  64 bits keeps collisions vanishingly unlikely while
    staying exactly representable everywhere."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring mapping content keys to replica ids.

    Parameters
    ----------
    replicas:
        Initial replica ids (any iterable of unique strings).
    """

    def __init__(self, replicas: Iterable[str] = ()) -> None:
        #: Sorted (point, replica_id) pairs.  The replica id is part of
        #: the sort key only to break (astronomically unlikely) point
        #: ties deterministically; lookups bisect on the point alone.
        self._points: List[Tuple[int, str]] = []
        self._hashes: List[int] = []
        self._replicas: set = set()
        for replica in replicas:
            self.add(replica)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._replicas)

    def __contains__(self, replica: str) -> bool:
        return replica in self._replicas

    @property
    def replicas(self) -> List[str]:
        """Member ids, sorted (stable regardless of join order)."""
        return sorted(self._replicas)

    # ------------------------------------------------------------------
    def add(self, replica: str) -> None:
        """Insert ``replica``'s virtual points (idempotent)."""
        if not replica or not isinstance(replica, str):
            raise ConfigurationError(
                f"replica id must be a non-empty string: {replica!r}"
            )
        if replica in self._replicas:
            return
        self._replicas.add(replica)
        for i in range(DEFAULT_VNODES):
            insort(self._points, (_point(f"{replica}#{i}"), replica))
        self._hashes = [p for p, _ in self._points]

    # ------------------------------------------------------------------
    def owner(self, key: str) -> Optional[str]:
        """The replica owning ``key`` (None on an empty ring)."""
        if not self._points:
            return None
        idx = bisect_right(self._hashes, _point(key))
        if idx == len(self._points):
            idx = 0  # wrap around the top of the ring
        return self._points[idx][1]

    # ------------------------------------------------------------------
    def assignment_digest(self, keys: Iterable[str]) -> str:
        """SHA-256 over ``key->owner`` lines for ``keys`` (sorted) — a
        compact fingerprint of the routing table that tests compare
        across processes and releases."""
        lines = "".join(
            f"{key} {self.owner(key)}\n" for key in sorted(keys)
        )
        return hashlib.sha256(lines.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HashRing({len(self._replicas)} replicas x "
            f"{DEFAULT_VNODES} vnodes)"
        )
