"""Self-healing machinery for the serving daemon.

PR 1 taught the *simulated* cluster to survive node failures; this
module applies the same kill/re-credit discipline to the serving layer
itself, so a single daemon can crash, heal and resume without losing
or corrupting accepted work.  Two pieces:

* :class:`BulkJournal` — a durable, append-only JSONL write-ahead log
  of accepted bulk requests and their terminal states.  An ``accept``
  record is fsynced (group-committed by the daemon) before the request
  is admitted, so a crash or SIGKILL between acceptance and completion
  leaves a replayable record; on restart :meth:`BulkJournal.recover`
  returns every accepted-but-unsettled entry for re-execution.  A torn
  final record (the crash interrupted the write itself) is truncated
  away — it was never acknowledged durable.  Settle records are
  flushed but not fsynced: losing one only costs an idempotent,
  cache-absorbed recompute.  The log self-compacts once enough settled
  pairs accumulate.

* :class:`WorkerSupervisor` — owns the worker pool on behalf of the
  service and wraps every dispatch in deadline, crash-recovery and
  retry semantics: a worker that crashes (``BrokenExecutor``) or hangs
  past the per-request deadline costs the pool one *generation* — the
  supervisor abandons the old executor (best-effort terminating its
  processes) and builds a fresh one — and the victim request is
  re-executed under the existing :class:`~repro.faults.RetryPolicy`
  (exponential backoff, dead-letter after the attempt budget, all
  surfaced in ``/metrics``).  A pool that dies while idle is found by
  the next dispatch, which replaces it and retries.

Both classes are event-loop confined (no locks): the daemon calls them
only from its loop thread, worker computations being the only thing
that leaves it.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import DeadLetterError, ServiceError
from repro.faults import RetryPolicy
from repro.obs import ServiceCounters

#: Service-appropriate retry defaults: the simulation is deterministic
#: and seconds-scale, so short backoffs and a small budget suffice —
#: a request that kills three pools in a row is dead-lettered.
DEFAULT_SERVICE_RETRY = RetryPolicy(
    max_attempts=2, base_delay=0.1, backoff_factor=2.0, max_delay=2.0
)

#: Journal terminal outcomes.
COMPLETED = "completed"
FAILED = "failed"
DEAD_LETTERED = "dead_lettered"
OUTCOMES = (COMPLETED, FAILED, DEAD_LETTERED)

#: A journal rewrites its log, keeping only open entries, once this
#: many settles have accumulated since the last compaction.
COMPACT_EVERY = 512


class BulkJournal:
    """Durable JSONL write-ahead log of accepted bulk requests.

    Record grammar (one JSON object per line, sorted keys)::

        {"experiment": E, "id": N, "key": K, "rec": "accept",
         "scale": S|null, "seed": I|null[, "tenant": T]}
        {"id": N, "outcome": "completed|failed|dead_lettered",
         "rec": "settle"}

    ``id`` is a monotonically increasing per-journal sequence number;
    an entry is *open* while its accept has no settle.  All methods
    must be called from one thread (the daemon's event loop).

    The ``tenant`` field (v2) is omitted when the request named no
    tenant, which makes default-tenant records byte-identical to the
    pre-tenancy (v1) grammar; recovery of a v1 journal simply reads
    the missing field as "default tenant", so attribution survives a
    crash in both directions.  The log self-compacts every
    :data:`COMPACT_EVERY` settles.

    Parameters
    ----------
    path:
        Journal file location (parent directories are created).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[Any] = None
        self._open: Dict[int, Dict[str, Any]] = {}
        self._next_id = 1
        self._settled_since_compact = 0
        self._dirty = False
        #: Undecodable lines seen during recovery (a truncated tail
        #: from a crash mid-append, or interior corruption).
        self.torn_records = 0
        #: fsync batches issued (each may cover many appends).
        self.fsyncs = 0

    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        return len(self._open)

    def open_entries(self) -> List[Dict[str, Any]]:
        """Accepted-but-unsettled records, in acceptance order."""
        return [self._open[i] for i in sorted(self._open)]

    # ------------------------------------------------------------------
    def recover(self) -> List[Dict[str, Any]]:
        """Replay the on-disk log into memory and return the open
        entries.

        A trailing record without a newline, or one that does not
        decode, is a *torn write* — the crash interrupted the append —
        and is truncated off the file (it was never acknowledged as
        durable, so dropping it is correct).  An undecodable line
        *followed by* valid records is interior corruption: it is
        counted and skipped, but later records are kept.
        """
        accepts, _settles, open_entries, torn, keep_bytes = _scan(
            self.path
        )
        self.torn_records += torn
        self._open = {rec["id"]: rec for rec in open_entries}
        self._next_id = max((rec["id"] for rec in accepts), default=0) + 1
        try:
            size = self.path.stat().st_size
        except OSError:
            size = keep_bytes
        if keep_bytes < size:
            # Drop the torn tail so future appends start on a clean
            # line boundary instead of concatenating into the garbage.
            with self.path.open("r+b") as fh:
                fh.truncate(keep_bytes)
        return self.open_entries()

    # ------------------------------------------------------------------
    def record_accept(
        self,
        *,
        key: str,
        experiment: str,
        scale: Optional[str],
        seed: Optional[int],
        tenant: Optional[str] = None,
    ) -> int:
        """Append an ``accept`` record; returns its journal id.

        The record is written and flushed but **not** fsynced — call
        :meth:`sync` (the daemon group-commits one fsync per event-loop
        tick) before treating the acceptance as durable.
        """
        entry_id = self._next_id
        self._next_id += 1
        rec = {
            "rec": "accept",
            "id": entry_id,
            "key": key,
            "experiment": experiment,
            "scale": scale,
            "seed": seed,
        }
        if tenant is not None:
            rec["tenant"] = tenant
        self._append(rec)
        self._open[entry_id] = rec
        return entry_id

    def record_settle(self, entry_id: int, outcome: str) -> None:
        """Append the terminal state for ``entry_id``.

        Idempotent: settling an already-settled (or unknown) id is a
        no-op, which is what guarantees at most one terminal record
        per accept even when a replayed entry races a late completion.
        """
        if outcome not in OUTCOMES:
            raise ServiceError(
                f"outcome must be one of {OUTCOMES}: {outcome!r}"
            )
        if entry_id not in self._open:
            return
        self._append({"rec": "settle", "id": entry_id, "outcome": outcome})
        del self._open[entry_id]
        self._settled_since_compact += 1
        if self._settled_since_compact >= COMPACT_EVERY:
            self.compact()

    def sync(self) -> None:
        """fsync any appends since the last sync (no-op when clean)."""
        if not self._dirty or self._fh is None:
            return
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self._dirty = False

    def compact(self) -> None:
        """Rewrite the log keeping only open accepts (atomic rename,
        fsynced), dropping every settled accept/settle pair."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        fd, tmp = tempfile.mkstemp(
            prefix=".journal-", suffix=".tmp", dir=str(self.path.parent)
        )
        with os.fdopen(fd, "wb") as fh:
            for rec in self.open_entries():
                fh.write(_encode(rec))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self.fsyncs += 1
        self._settled_since_compact = 0
        self._dirty = False

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    def _append(self, rec: Dict[str, Any]) -> None:
        if self._fh is None:
            self._fh = self.path.open("ab")
        self._fh.write(_encode(rec))
        self._fh.flush()
        self._dirty = True

    @staticmethod
    def read(path: Union[str, Path]) -> Tuple[
        List[Dict[str, Any]], List[Dict[str, Any]], int
    ]:
        """Static inspection helper: ``(accepts, settles, torn)`` for
        the journal at ``path`` (tests and the chaos harness)."""
        accepts, settles, _open, torn, _keep = _scan(Path(path))
        return accepts, settles, torn


def _encode(rec: Dict[str, Any]) -> bytes:
    return (
        json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def _scan(path: Path) -> Tuple[
    List[Dict[str, Any]],
    List[Dict[str, Any]],
    List[Dict[str, Any]],
    int,
    int,
]:
    """Parse a journal file tolerantly.

    Returns ``(accepts, settles, open_entries, torn, keep_bytes)``
    where ``keep_bytes`` is the length of the longest prefix ending on
    a newline (the valid portion a recovery may truncate to).
    """
    accepts: List[Dict[str, Any]] = []
    settles: List[Dict[str, Any]] = []
    open_by_id: Dict[int, Dict[str, Any]] = {}
    torn = 0
    try:
        raw = path.read_bytes()
    except OSError:
        return accepts, settles, [], torn, 0
    pos = 0
    keep = 0
    while pos < len(raw):
        nl = raw.find(b"\n", pos)
        if nl == -1:
            torn += 1  # unterminated tail: the append was interrupted
            break
        line = raw[pos:nl]
        pos = nl + 1
        keep = pos
        try:
            rec = json.loads(line)
            kind, entry_id = rec["rec"], int(rec["id"])
        except (ValueError, KeyError, TypeError):
            torn += 1
            continue
        if kind == "accept":
            accepts.append(rec)
            open_by_id[entry_id] = rec
        elif kind == "settle":
            settles.append(rec)
            open_by_id.pop(entry_id, None)
        else:
            torn += 1
    open_entries = [open_by_id[i] for i in sorted(open_by_id)]
    return accepts, settles, open_entries, torn, keep


class WorkerSupervisor:
    """Owns the worker pool; dispatches with deadlines, crash
    replacement and bounded retries.

    State machine per dispatch::

        attempt -> ok ............................ return result
                -> worker exception .............. raise (deterministic
                                                   failure, no retry)
                -> crash / hang / unusable pool .. replace pool
                                                   (generation += 1),
                   retry allowed? ... backoff, re-attempt
                   budget exhausted . raise DeadLetterError

    Only *infrastructure* failures are retried — ``BrokenExecutor``
    (a worker process died), a missed per-request deadline, or a pool
    that refuses submissions.  An exception raised *by* the worker
    function travels straight back to the caller: the computation is
    deterministic, so re-running it would fail identically.

    Parameters
    ----------
    pool_factory:
        ``workers -> executor``; also used to build replacements.
    workers:
        Pool width handed to the factory.
    counters:
        The service's :class:`~repro.obs.ServiceCounters`, incremented
        for retries/dead-letters/replacements/timeouts.
    retry:
        :class:`~repro.faults.RetryPolicy` bounding re-execution.
    request_timeout:
        Per-dispatch deadline in seconds (``None`` disables).
    """

    def __init__(
        self,
        pool_factory: Callable[[int], Any],
        workers: int,
        *,
        counters: Optional[ServiceCounters] = None,
        retry: RetryPolicy = DEFAULT_SERVICE_RETRY,
        request_timeout: Optional[float] = None,
    ) -> None:
        self._pool_factory = pool_factory
        self._workers = workers
        self.counters = counters if counters is not None else ServiceCounters()
        self.retry = retry
        self.request_timeout = request_timeout
        self._pool: Optional[Any] = None
        self._generation = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Pool incarnation number (starts at 0, +1 per replacement)."""
        return self._generation

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pool = self._pool_factory(self._workers)

    async def stop(self) -> None:
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            await self._loop.run_in_executor(None, pool.shutdown, True)

    def resize(self, workers: int) -> None:
        """Swap the pool for one of ``workers`` processes (autoscaler
        entry point).

        Unlike :meth:`_replace`, the old pool is healthy: it is shut
        down *without* cancelling, so in-flight dispatches run to
        completion on the old processes while new dispatches land on
        the resized pool.  Does not count as a ``worker_replacement``
        (nothing failed), but the generation does advance: a dispatch
        still riding the retired pool that breaks must not tear down
        the fresh pool — its ``_replace`` call no-ops on the stale
        generation and the retry simply lands on the new pool.
        """
        self._workers = workers
        if self._pool is None:
            return
        self._generation += 1
        old, self._pool = self._pool, self._pool_factory(workers)
        try:
            old.shutdown(wait=False)
        except Exception:  # noqa: BLE001 - a broken pool may refuse
            pass

    # ------------------------------------------------------------------
    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Execute ``fn(*args)`` on the pool with full supervision."""
        attempts = 0
        while True:
            pool, generation = self._pool, self._generation
            if pool is None:
                raise ServiceError("supervisor is stopped")
            try:
                future = self._loop.run_in_executor(pool, fn, *args)
            except RuntimeError as exc:
                # executor.submit() raises RuntimeError synchronously
                # when the pool (or interpreter) has shut down; a
                # RuntimeError raised *by the worker* surfaces on the
                # await below and propagates unretried like any other
                # worker exception.
                self._replace(generation)
                failure = f"worker pool unusable: {exc}"
            else:
                try:
                    return await asyncio.wait_for(
                        future, self.request_timeout
                    )
                except asyncio.TimeoutError:
                    self.counters.request_timeouts += 1
                    self._replace(generation)
                    failure = (
                        f"request exceeded its {self.request_timeout}s "
                        f"deadline (hung worker replaced)"
                    )
                except BrokenExecutor as exc:
                    self._replace(generation)
                    failure = (
                        f"worker pool broke: {exc or type(exc).__name__}"
                    )
            attempts += 1
            if not self.retry.allows(attempts):
                self.counters.dead_letters += 1
                raise DeadLetterError(
                    f"dead-lettered after {attempts} attempt(s): {failure}"
                )
            self.counters.retries += 1
            await asyncio.sleep(self.retry.delay(attempts))

    # ------------------------------------------------------------------
    def _replace(self, generation: int) -> None:
        """Swap in a fresh pool, once per failed generation (concurrent
        victims of the same broken pool share one replacement)."""
        if self._generation != generation or self._pool is None:
            return
        self._generation += 1
        self.counters.worker_replacements += 1
        old, self._pool = self._pool, self._pool_factory(self._workers)
        # Snapshot the worker processes *before* shutdown():
        # ProcessPoolExecutor.shutdown() sets _processes to None.
        # (Internals; absent on thread pools and fine to skip.)
        procs = list((getattr(old, "_processes", None) or {}).values())
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - a broken pool may refuse
            pass
        # Best effort: reap hung worker processes so they do not
        # accumulate.  SIGKILL, not SIGTERM: fork-started workers
        # inherit the daemon's asyncio signal handler and wakeup fd,
        # so a SIGTERM is swallowed by the worker and re-surfaces in
        # the *parent* loop as a phantom shutdown signal (observed:
        # the daemon drains itself after every pool replacement).
        for proc in procs:
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 - already dead is fine
                pass
