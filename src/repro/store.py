"""Content-addressed store for simulation runs.

Every simulation in this repo is a deterministic function of its full
configuration — machine, trace parameters, scheduler, interstitial
controller, fault model and experiment scale.  :class:`RunStore`
therefore memoizes run products under the SHA-256 digest of a
canonical JSON rendering of that configuration instead of ad-hoc name
tuples: two call sites that describe the same run always share one
entry, and two runs that differ in *any* configuration field (down to
a fault seed) can never collide.

The store has two layers:

* an in-process dictionary (always on), which is what makes replaying
  the ~25 paper experiments tractable — they endlessly reuse the same
  three machine baselines and continual logs; and
* an optional on-disk layer (``path=...``): each entry is pickled to
  ``<digest>.pkl`` with an atomic rename, so cooperating processes —
  the ``repro report --jobs N`` workers, or parallel bench sessions
  pointed at one ``REPRO_STORE_DIR`` — reuse each other's runs instead
  of recomputing them.

Disk entries are integrity-checked: each file carries the SHA-256
digest of its pickled payload, verified on every read.  A corrupt or
truncated entry (bit rot, a torn write surviving a crash, a partial
copy) is *quarantined* — moved into a ``corrupt/`` subdirectory and
counted — instead of crashing the reader or silently serving garbage;
the lookup then reports a miss and determinism makes recomputation
safe.  A file without the digest header fails the check like any
other, so no pickle is loaded unverified.

Disk-backed stores additionally coordinate *computation* across
processes: on a miss, ``get_or_compute`` takes a per-key ownership
lease (an ``O_EXCL`` lock file) before running ``compute``, and
processes that lose the race wait for the owner's entry instead of
recomputing it — the cache-stampede fix the serving daemon relies on
when many clients request the same uncached configuration at once.  A
lease whose owner died is considered stale after ``lease_timeout``
seconds and is broken by the next contender (a ``lease_breaks``
counter records each takeover), so the guard degrades to the old
compute-everywhere behavior rather than deadlocking.  The timeout is
configurable per store (``lease_timeout=...``) or process-wide via the
``REPRO_LEASE_TIMEOUT`` environment variable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, TypeVar, Union

from repro.errors import ConfigurationError
from repro.obs import StoreCounters

T = TypeVar("T")

#: Header magic for integrity-checked (v2) disk entries.
_ENTRY_MAGIC = b"repro-store-v2\n"

#: Default stale-lease timeout when neither the constructor nor the
#: ``REPRO_LEASE_TIMEOUT`` environment variable specifies one.
DEFAULT_LEASE_TIMEOUT = 60.0


def default_lease_timeout() -> float:
    """The process-wide stale-lease timeout: ``REPRO_LEASE_TIMEOUT``
    seconds if set (must parse to a positive, finite float), else
    :data:`DEFAULT_LEASE_TIMEOUT`."""
    raw = os.environ.get("REPRO_LEASE_TIMEOUT")
    if raw is None or not raw.strip():
        return DEFAULT_LEASE_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_LEASE_TIMEOUT must be a number of seconds: {raw!r}"
        ) from None
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigurationError(
            f"REPRO_LEASE_TIMEOUT must be positive and finite: {raw!r}"
        )
    return value


def canonical_payload(value: Any) -> Any:
    """Reduce a key payload to canonically-ordered JSON primitives.

    Mappings are sorted by (string) key, sequences become lists, and
    floats are tagged with their ``repr`` so ``1.0`` and ``1`` hash
    differently and no precision is lost.  Anything else is rejected:
    run keys must be built from plain configuration values, never from
    live objects whose identity could leak into the address.
    """
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(
                    f"payload keys must be strings, got {key!r}"
                )
            out[key] = canonical_payload(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [canonical_payload(v) for v in value]
    if isinstance(value, float):
        return f"float:{value!r}"
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(
        f"run-key payloads must be JSON-like primitives, got "
        f"{type(value).__name__}: {value!r}"
    )


def content_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonicalized ``payload``."""
    text = json.dumps(
        canonical_payload(payload), separators=(",", ":"), sort_keys=True
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class RunStore:
    """Content-addressed memoization of run products.

    Parameters
    ----------
    path:
        Optional directory for the shared on-disk layer.  Created if
        missing.  ``None`` keeps the store purely in-memory.
    lease_timeout:
        Seconds after which another process's in-flight computation
        lease is presumed dead and may be broken (disk layer only).
        ``None`` falls back to the ``REPRO_LEASE_TIMEOUT`` environment
        variable, then :data:`DEFAULT_LEASE_TIMEOUT`.
    poll_interval:
        Seconds between polls while waiting on another process's
        lease (disk layer only).
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        lease_timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ) -> None:
        self._memory: Dict[str, Any] = {}
        self._path: Optional[Path] = None
        if path is not None:
            self._path = Path(path)
            self._path.mkdir(parents=True, exist_ok=True)
        if lease_timeout is None:
            lease_timeout = default_lease_timeout()
        self._lease_timeout = float(lease_timeout)
        self._poll_interval = float(poll_interval)
        #: Diagnostic counters: cache behavior (hits/disk_hits/misses),
        #: cross-process coordination (lease_waits/lease_breaks) and
        #: entry integrity (integrity_failures/quarantined).
        self.counters = StoreCounters()

    # ------------------------------------------------------------------
    # Read-only views of the hit/miss counters
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self.counters.hits

    @property
    def disk_hits(self) -> int:
        return self.counters.disk_hits

    @property
    def misses(self) -> int:
        return self.counters.misses

    # ------------------------------------------------------------------
    @property
    def path(self) -> Optional[Path]:
        """Directory of the on-disk layer (None when memory-only)."""
        return self._path

    def key(self, payload: Mapping[str, Any]) -> str:
        """Content address for a configuration payload."""
        return content_key(payload)

    def __len__(self) -> int:
        return len(self._memory)

    def values(self) -> List[Any]:
        """Snapshot of the in-memory layer's stored products (insertion
        order).  Used by the observability layer to aggregate per-run
        counters across everything a context computed or loaded."""
        return list(self._memory.values())

    def __contains__(self, key: str) -> bool:
        return key in self._memory or self._disk_file(key) is not None

    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key`` in memory, then on disk; ``default`` on miss."""
        if key in self._memory:
            return self._memory[key]
        value = self._read_disk(key)
        if value is not _MISS:
            self._memory[key] = value
            return value
        return default

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` in memory and (if enabled) disk."""
        self._memory[key] = value
        self._write_disk(key, value)

    # ------------------------------------------------------------------
    # Fleet peer surface (see repro.service.fleet)
    # ------------------------------------------------------------------
    def peer_get(self, key: str) -> Any:
        """Serve a fleet peer's cache lookup for ``key``.

        Same memory-then-disk resolution as :meth:`get` but returns the
        :data:`PEER_MISS` sentinel (not a default) on a miss, so peers
        can cache ``None`` values faithfully, and counts the lookup in
        ``counters.peer_gets`` — the replica-side ledger of how much
        traffic the consistent-hash ring steered here.
        """
        self.counters.peer_gets += 1
        return self.get(key, PEER_MISS)

    def peer_put(self, key: str, value: Any) -> None:
        """Accept an entry replicated from the fleet replica that
        computed ``key`` without owning it.  First write wins: the
        computation is deterministic, so an existing entry is already
        byte-identical and re-writing it would only churn the disk."""
        self.counters.peer_puts += 1
        if key not in self._memory and self._disk_file(key) is None:
            self.put(key, value)

    # ------------------------------------------------------------------
    def get_or_compute(
        self, payload: Mapping[str, Any], compute: Callable[[], T]
    ) -> T:
        """The main entry point: memoized ``compute()`` keyed by the
        content address of ``payload``.

        With a disk layer, concurrent callers (threads or processes)
        missing on the same key elect a single owner through a lease
        file; the rest wait for the owner's entry instead of
        recomputing (see the module docstring).
        """
        key = content_key(payload)
        if key in self._memory:
            self.counters.hits += 1
            return self._memory[key]
        value = self._read_disk(key)
        if value is not _MISS:
            self.counters.disk_hits += 1
            self._memory[key] = value
            return value
        if self._path is None:
            return self._compute_and_store(key, compute)
        while True:
            claim = self._acquire_lease(key)
            if claim is not _LEASE_BUSY:
                try:
                    # The previous owner may have finished between our
                    # disk miss and taking over the lease.
                    value = self._read_disk(key)
                    if value is not _MISS:
                        self.counters.disk_hits += 1
                        self._memory[key] = value
                        return value
                    return self._compute_and_store(key, compute)
                finally:
                    self._release_lease(claim)
            self.counters.lease_waits += 1
            value = self._wait_for_entry(key)
            if value is not _MISS:
                self.counters.disk_hits += 1
                self._memory[key] = value
                return value
            # Owner released without producing an entry (its compute
            # raised, or its lease went stale): contend for ownership.

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries are left alone)."""
        self._memory.clear()

    def _compute_and_store(self, key: str, compute: Callable[[], T]) -> T:
        self.counters.misses += 1
        value = compute()
        self.put(key, value)
        return value

    # ------------------------------------------------------------------
    # In-flight ownership leases (disk layer only)
    # ------------------------------------------------------------------
    def _lease_file(self, key: str) -> Path:
        return self._path / f"{key}.lock"

    def _acquire_lease(self, key: str) -> Any:
        """Try to claim ownership of computing ``key``.

        Returns a claim token to pass to :meth:`_release_lease`, or
        :data:`_LEASE_BUSY` when a live owner already holds the lease.
        Lease-file I/O failures disable coordination for this call
        (token ``None``): computing without a guard is always safe,
        just potentially duplicated.
        """
        lease = self._lease_file(key)
        for attempt in (0, 1):
            try:
                fd = os.open(
                    lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
                with os.fdopen(fd, "w") as fh:
                    fh.write(str(os.getpid()))
                return lease
            except FileExistsError:
                if attempt or not self._lease_stale(lease):
                    return _LEASE_BUSY
                # Stale owner: break the lease and retry the claim
                # once (a racing contender may beat us to it).
                try:
                    os.unlink(lease)
                except OSError:
                    return _LEASE_BUSY
                self.counters.lease_breaks += 1
            except OSError:
                return None
        return _LEASE_BUSY  # pragma: no cover - loop always returns

    def _release_lease(self, claim: Any) -> None:
        if claim is None:
            return
        try:
            os.unlink(claim)
        except OSError:
            pass

    def _lease_stale(self, lease: Path) -> bool:
        try:
            age = time.time() - lease.stat().st_mtime
        except OSError:
            # Vanished between the existence check and the stat: the
            # owner just released; not stale, re-contend immediately.
            return False
        return age > self._lease_timeout

    def _wait_for_entry(self, key: str) -> Any:
        """Poll for the lease owner's entry; ``_MISS`` when the owner
        released (or went stale) without producing one."""
        lease = self._lease_file(key)
        deadline = time.monotonic() + self._lease_timeout
        while True:
            value = self._read_disk(key)
            if value is not _MISS:
                return value
            if not lease.exists() or self._lease_stale(lease):
                return self._read_disk(key)
            if time.monotonic() > deadline:
                return _MISS
            time.sleep(self._poll_interval)

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _disk_file(self, key: str) -> Optional[Path]:
        if self._path is None:
            return None
        file = self._path / f"{key}.pkl"
        return file if file.is_file() else None

    def _read_disk(self, key: str) -> Any:
        file = self._disk_file(key)
        if file is None:
            return _MISS
        try:
            data = file.read_bytes()
        except OSError:
            return _MISS
        # "<magic><64-hex digest>\n<pickled payload>".
        header_end = len(_ENTRY_MAGIC) + 65
        digest = data[len(_ENTRY_MAGIC):header_end - 1]
        payload = data[header_end:]
        if (
            not data.startswith(_ENTRY_MAGIC)
            or len(data) < header_end
            or data[header_end - 1:header_end] != b"\n"
            or hashlib.sha256(payload).hexdigest().encode("ascii")
            != digest
        ):
            self._quarantine(file)
            return _MISS
        try:
            return pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any undecodable entry is corrupt
            self._quarantine(file)
            return _MISS

    def _quarantine(self, file: Path) -> None:
        """Move a corrupt/truncated entry into ``corrupt/`` (count it)
        so the reader recomputes instead of crashing — and so the bad
        bytes stick around for a post-mortem instead of being served
        or silently overwritten."""
        self.counters.integrity_failures += 1
        target_dir = self._path / "corrupt"
        try:
            target_dir.mkdir(exist_ok=True)
            os.replace(file, target_dir / file.name)
            self.counters.quarantined += 1
        except OSError:
            # Another reader may have quarantined it first, or the
            # filesystem refused; either way the lookup stays a miss.
            pass

    def _write_disk(self, key: str, value: Any) -> None:
        if self._path is None:
            return
        final = self._path / f"{key}.pkl"
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(payload).hexdigest().encode("ascii")
            fd, tmp = tempfile.mkstemp(
                prefix=f".{key[:12]}-", suffix=".tmp", dir=self._path
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(_ENTRY_MAGIC + digest + b"\n" + payload)
                os.replace(tmp, final)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            # The disk layer is an optimization; never fail a run on it.
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self._path) if self._path else "memory"
        return (
            f"RunStore({where}: {len(self._memory)} entries, "
            f"{self.hits}h/{self.disk_hits}d/{self.misses}m)"
        )


#: Unique disk-miss sentinel (None is a legal stored value).
_MISS = object()

#: Public miss sentinel returned by :meth:`RunStore.peer_get` (None is
#: a legal stored value, so peers need an out-of-band miss marker).
PEER_MISS = object()

#: Lease-claim sentinel: a live owner already holds the lease.
_LEASE_BUSY = object()
