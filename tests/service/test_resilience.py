"""Tests for the resilience layer: the durable bulk journal, the
worker supervisor, and their integration into the daemon (replay,
settles, dead-lettering, drain racing)."""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

from repro.errors import DeadLetterError, ServiceError
from repro.experiments.config import SCALES
from repro.faults import RetryPolicy
from repro.obs import ServiceCounters
from repro.service import (
    BulkJournal,
    FleetConfig,
    FleetMember,
    ServiceConfig,
    SimulationService,
    WorkerSupervisor,
)
from repro.service import resilience
from repro.service.requests import BULK, INTERACTIVE, SimRequest
from repro.service.resilience import COMPLETED, DEAD_LETTERED, FAILED
from repro.store import content_key

from tests.service.conftest import GatedWorker, quick_worker, run_async

#: Tight retry budget so supervisor tests fail fast.
FAST_RETRY = RetryPolicy(
    max_attempts=2, base_delay=0.01, backoff_factor=1.0, max_delay=0.01
)


def _accept(journal, n=1):
    ids = []
    for i in range(n):
        ids.append(
            journal.record_accept(
                key=f"k{i}", experiment="table2", scale="quick", seed=i
            )
        )
    return ids


class TestBulkJournal:
    def test_accept_settle_recover_roundtrip(self, tmp_path):
        path = tmp_path / "wal" / "journal.jsonl"
        journal = BulkJournal(path)
        a, b, c = _accept(journal, 3)
        journal.record_settle(b, COMPLETED)
        journal.sync()
        journal.close()

        fresh = BulkJournal(path)
        entries = fresh.recover()
        assert [rec["id"] for rec in entries] == [a, c]
        assert fresh.open_count == 2
        assert fresh.torn_records == 0
        # New accepts continue the id sequence past the recovered max.
        assert fresh.record_accept(
            key="k9", experiment="table2", scale=None, seed=None
        ) == c + 1
        fresh.close()

    def test_settle_is_idempotent(self, tmp_path):
        journal = BulkJournal(tmp_path / "j.jsonl")
        (entry_id,) = _accept(journal)
        journal.record_settle(entry_id, COMPLETED)
        journal.record_settle(entry_id, FAILED)  # no-op
        journal.record_settle(999, COMPLETED)  # unknown: no-op
        journal.close()
        accepts, settles, torn = BulkJournal.read(tmp_path / "j.jsonl")
        assert len(accepts) == 1
        assert len(settles) == 1
        assert settles[0]["outcome"] == COMPLETED
        assert torn == 0

    def test_rejects_unknown_outcome(self, tmp_path):
        journal = BulkJournal(tmp_path / "j.jsonl")
        (entry_id,) = _accept(journal)
        with pytest.raises(ServiceError):
            journal.record_settle(entry_id, "exploded")
        journal.close()

    def test_torn_final_record_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = BulkJournal(path)
        _accept(journal, 2)
        journal.sync()
        journal.close()
        clean_size = path.stat().st_size
        # A crash mid-append leaves a partial record with no newline.
        with path.open("ab") as fh:
            fh.write(b'{"rec":"accept","id":3,"ke')

        fresh = BulkJournal(path)
        entries = fresh.recover()
        assert [rec["id"] for rec in entries] == [1, 2]
        assert fresh.torn_records == 1
        assert path.stat().st_size == clean_size
        # Appends after recovery start on a clean line boundary.
        new_id = fresh.record_accept(
            key="k9", experiment="table2", scale=None, seed=None
        )
        fresh.close()
        accepts, _settles, torn = BulkJournal.read(path)
        assert torn == 0
        assert [rec["id"] for rec in accepts] == [1, 2, new_id]

    def test_interior_corruption_skipped_not_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = BulkJournal(path)
        _accept(journal, 1)
        journal.close()
        with path.open("ab") as fh:
            fh.write(b"\x00garbage line\n")
        journal = BulkJournal(path)
        _accept(journal, 0)
        with path.open("ab") as fh:
            fh.write(
                b'{"experiment":"table2","id":2,"key":"k2",'
                b'"rec":"accept","scale":null,"seed":null}\n'
            )

        fresh = BulkJournal(path)
        entries = fresh.recover()
        # Records after the corrupt line survive.
        assert [rec["id"] for rec in entries] == [1, 2]
        assert fresh.torn_records == 1

    def test_compaction_drops_settled_pairs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(resilience, "COMPACT_EVERY", 4)
        path = tmp_path / "j.jsonl"
        journal = BulkJournal(path)
        ids = _accept(journal, 6)
        for entry_id in ids[:4]:  # 4th settle triggers compaction
            journal.record_settle(entry_id, COMPLETED)
        journal.close()
        accepts, settles, torn = BulkJournal.read(path)
        assert [rec["id"] for rec in accepts] == ids[4:]
        assert settles == []
        assert torn == 0
        # The compacted log still recovers correctly.
        fresh = BulkJournal(path)
        assert [rec["id"] for rec in fresh.recover()] == ids[4:]

    def test_recover_missing_file_is_empty(self, tmp_path):
        journal = BulkJournal(tmp_path / "nope.jsonl")
        assert journal.recover() == []
        assert journal.torn_records == 0


class CrashNTimes:
    """A fake worker that raises BrokenExecutor for its first ``n``
    calls, then succeeds — the supervisor should retry through it."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        if self.calls <= self.n:
            raise BrokenExecutor("worker process died")
        return "survived"


def make_supervisor(**kwargs):
    counters = ServiceCounters()
    kwargs.setdefault("retry", FAST_RETRY)
    supervisor = WorkerSupervisor(
        lambda n: ThreadPoolExecutor(max_workers=n),
        2,
        counters=counters,
        **kwargs,
    )
    return supervisor, counters


class TestWorkerSupervisor:
    def test_crash_is_retried_to_success(self):
        async def scenario():
            supervisor, counters = make_supervisor()
            await supervisor.start()
            try:
                worker = CrashNTimes(1)
                assert await supervisor.run(worker) == "survived"
            finally:
                await supervisor.stop()
            return supervisor, counters, worker

        supervisor, counters, worker = run_async(scenario())
        assert worker.calls == 2
        assert counters.retries == 1
        assert counters.worker_replacements == 1
        assert counters.dead_letters == 0
        assert supervisor.generation == 1

    def test_dead_letter_after_budget(self):
        async def scenario():
            supervisor, counters = make_supervisor()
            await supervisor.start()
            try:
                with pytest.raises(DeadLetterError):
                    await supervisor.run(CrashNTimes(99))
            finally:
                await supervisor.stop()
            return counters

        counters = run_async(scenario())
        # max_attempts=2 allows two retries: 3 attempts total.
        assert counters.retries == 2
        assert counters.dead_letters == 1
        assert counters.worker_replacements == 3

    def test_worker_exception_not_retried(self):
        def deterministic_failure(*args):
            raise ValueError("bad config")

        async def scenario():
            supervisor, counters = make_supervisor()
            await supervisor.start()
            try:
                with pytest.raises(ValueError):
                    await supervisor.run(deterministic_failure)
            finally:
                await supervisor.stop()
            return supervisor, counters

        supervisor, counters = run_async(scenario())
        assert counters.retries == 0
        assert supervisor.generation == 0

    def test_hung_worker_hits_deadline_and_is_replaced(self):
        hang = threading.Event()

        def hung_then_fast(*args):
            if not hang.is_set():
                hang.set()
                hang.wait(0)  # first call hangs...
                import time

                time.sleep(5.0)
                return "too late"
            return "fast"

        async def scenario():
            supervisor, counters = make_supervisor(request_timeout=0.2)
            await supervisor.start()
            try:
                result = await supervisor.run(hung_then_fast)
            finally:
                await supervisor.stop()
            return result, supervisor, counters

        result, supervisor, counters = run_async(scenario())
        assert result == "fast"
        assert counters.request_timeouts == 1
        assert counters.worker_replacements == 1
        assert supervisor.generation == 1

    def test_shutdown_pool_is_replaced(self):
        async def scenario():
            supervisor, counters = make_supervisor()
            await supervisor.start()
            try:
                # Break the pool behind the supervisor's back.
                supervisor._pool.shutdown(wait=True)
                return await supervisor.run(lambda *a: "ok"), supervisor
            finally:
                await supervisor.stop()

        result, supervisor = run_async(scenario())
        assert result == "ok"
        assert supervisor.generation == 1

    def test_stopped_supervisor_refuses_work(self):
        async def scenario():
            supervisor, _counters = make_supervisor()
            await supervisor.start()
            await supervisor.stop()
            with pytest.raises(ServiceError):
                await supervisor.run(lambda *a: "x")

        run_async(scenario())

    def test_replace_reaps_processpool_style_workers(self):
        """ProcessPoolExecutor.shutdown() sets ``_processes`` to None;
        the reap in ``_replace`` must snapshot the procs *before*
        shutting down (regression: AttributeError on every replacement
        with the real process pool)."""

        class FakeProc:
            def __init__(self):
                self.killed = False

            def kill(self):
                self.killed = True

        created = []

        class ProcessPoolStyle(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                self._processes = {
                    i: FakeProc() for i in range(max_workers)
                }
                created.extend(self._processes.values())

            def shutdown(self, wait=True, *, cancel_futures=False):
                self._processes = None  # what the real pool does
                super().shutdown(wait, cancel_futures=cancel_futures)

        async def scenario():
            counters = ServiceCounters()
            supervisor = WorkerSupervisor(
                ProcessPoolStyle, 2, counters=counters, retry=FAST_RETRY
            )
            await supervisor.start()
            try:
                worker = CrashNTimes(1)
                assert await supervisor.run(worker) == "survived"
            finally:
                await supervisor.stop()
            return supervisor, counters

        supervisor, counters = run_async(scenario())
        assert supervisor.generation == 1
        assert counters.worker_replacements == 1
        # The first (replaced) pool's workers were reaped; the
        # replacement's were merely shut down.
        assert [proc.killed for proc in created] == (
            [True, True, False, False]
        )

    def test_worker_runtime_error_mentioning_shutdown_propagates(self):
        """A deterministic worker RuntimeError whose message happens
        to contain 'shutdown' must propagate unretried — only a
        submission-time RuntimeError (refused by a shut-down pool)
        counts as an infrastructure failure."""

        def flaky_teardown(*args):
            raise RuntimeError("simulation shutdown hook failed")

        async def scenario():
            supervisor, counters = make_supervisor()
            await supervisor.start()
            try:
                with pytest.raises(RuntimeError, match="shutdown hook"):
                    await supervisor.run(flaky_teardown)
            finally:
                await supervisor.stop()
            return supervisor, counters

        supervisor, counters = run_async(scenario())
        assert counters.retries == 0
        assert counters.worker_replacements == 0
        assert supervisor.generation == 0


def make_resilient_service(tmp_path, worker_fn=None, **overrides):
    config = ServiceConfig(
        workers=overrides.pop("workers", 2),
        scale=SCALES["quick"],
        journal_path=str(tmp_path / "journal.jsonl"),
        retry=overrides.pop("retry", FAST_RETRY),
        **overrides,
    )
    return SimulationService(
        config,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        worker_fn=worker_fn or quick_worker,
    )


class TestDaemonJournalIntegration:
    def test_bulk_requests_are_journaled_and_settled(self, tmp_path):
        async def scenario():
            service = make_resilient_service(tmp_path)
            await service.start()
            response = await service.submit(
                SimRequest(experiment="table2", priority=BULK)
            )
            await service.stop()
            return response

        response = run_async(scenario())
        assert response.status == 200
        accepts, settles, torn = BulkJournal.read(
            tmp_path / "journal.jsonl"
        )
        assert len(accepts) == 1
        assert [rec["outcome"] for rec in settles] == [COMPLETED]
        assert torn == 0

    def test_interactive_requests_not_journaled(self, tmp_path):
        async def scenario():
            service = make_resilient_service(tmp_path)
            await service.start()
            await service.submit(
                SimRequest(experiment="table2", priority=INTERACTIVE)
            )
            await service.stop()

        run_async(scenario())
        accepts, settles, _torn = BulkJournal.read(
            tmp_path / "journal.jsonl"
        )
        assert accepts == [] and settles == []

    def test_open_entries_replayed_on_start(self, tmp_path):
        # Simulate a crash: an accept with no settle left in the WAL.
        journal = BulkJournal(tmp_path / "journal.jsonl")
        journal.record_accept(
            key="stale-key", experiment="table2", scale="quick", seed=None
        )
        journal.sync()
        journal.close()

        calls = []

        def counting_worker(name, scale, store_path, check_invariants):
            calls.append(name)
            return f"rendered {name}"

        async def scenario():
            service = make_resilient_service(
                tmp_path, worker_fn=counting_worker
            )
            await service.start()
            replayed = service.replayed
            await service.drain()  # waits for replay tasks
            snapshot = service.metrics_snapshot()
            await service.stop()
            return replayed, snapshot

        replayed, snapshot = run_async(scenario())
        assert replayed == 1
        assert calls == ["table2"]
        assert snapshot["resilience"]["replayed_on_start"] == 1
        assert snapshot["resilience"]["journal_open"] == 0
        _accepts, settles, _torn = BulkJournal.read(
            tmp_path / "journal.jsonl"
        )
        assert [rec["outcome"] for rec in settles] == [COMPLETED]

    def test_replay_of_invalid_entry_settles_failed(self, tmp_path):
        journal = BulkJournal(tmp_path / "journal.jsonl")
        journal.record_accept(
            key="k", experiment="no-such-experiment", scale=None, seed=None
        )
        journal.sync()
        journal.close()

        async def scenario():
            service = make_resilient_service(tmp_path)
            await service.start()
            await service.stop()

        run_async(scenario())
        _accepts, settles, _torn = BulkJournal.read(
            tmp_path / "journal.jsonl"
        )
        assert [rec["outcome"] for rec in settles] == [FAILED]

    def test_torn_tail_reported_and_dropped_on_start(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = BulkJournal(path)
        journal.record_accept(
            key="k", experiment="table2", scale="quick", seed=None
        )
        journal.sync()
        journal.close()
        with path.open("ab") as fh:
            fh.write(b'{"rec":"accept","id":2')  # torn mid-append

        async def scenario():
            service = make_resilient_service(tmp_path)
            await service.start()
            replayed = service.replayed
            torn = service.journal.torn_records
            await service.stop()
            return replayed, torn

        replayed, torn = run_async(scenario())
        assert replayed == 1  # the durable accept replays
        assert torn == 1  # the torn one is dropped, not resurrected

    def test_dead_letter_surfaces_in_response_and_journal(self, tmp_path):
        def always_crashing(*args):
            raise BrokenExecutor("worker killed")

        async def scenario():
            service = make_resilient_service(
                tmp_path, worker_fn=always_crashing
            )
            await service.start()
            response = await service.submit(
                SimRequest(experiment="table2", priority=BULK)
            )
            snapshot = service.metrics_snapshot()
            await service.stop()
            return response, snapshot

        response, snapshot = run_async(scenario())
        assert response.status == 500
        assert response.payload["dead_lettered"] is True
        assert snapshot["counters"]["dead_letters"] == 1
        assert snapshot["counters"]["retries"] == 2
        _accepts, settles, _torn = BulkJournal.read(
            tmp_path / "journal.jsonl"
        )
        assert [rec["outcome"] for rec in settles] == [DEAD_LETTERED]


class TestDrainRacesInflight:
    def test_drain_waits_for_inflight_interactive(self, gated):
        """A SIGTERM drain that races an in-flight interactive request
        must let it finish (200) while refusing new arrivals (503)."""
        from tests.service.conftest import make_service

        async def scenario():
            service = make_service(worker_fn=gated)
            await service.start()
            inflight = asyncio.ensure_future(
                service.submit(
                    SimRequest(experiment="table2", priority=INTERACTIVE)
                )
            )
            while service._busy == 0:  # dispatched, now blocked in-pool
                await asyncio.sleep(0.01)
            drain = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)
            assert not drain.done()  # drain must wait, not bail
            late = await service.submit(
                SimRequest(experiment="table2", priority=INTERACTIVE)
            )
            gated.release()
            first = await inflight
            await drain
            await service.stop()
            return first, late

        first, late = run_async(scenario())
        assert first.status == 200
        assert late.status == 503
        assert late.payload["status"] == "draining"

    def test_drain_completes_queued_bulk(self, gated):
        from tests.service.conftest import make_service

        async def scenario():
            service = make_service(workers=1, bulk_cap=1.0, worker_fn=gated)
            await service.start()
            first = asyncio.ensure_future(
                service.submit(
                    SimRequest(experiment="table2", priority=BULK)
                )
            )
            second = asyncio.ensure_future(
                service.submit(
                    SimRequest(experiment="table4", priority=BULK)
                )
            )
            while service._busy == 0:
                await asyncio.sleep(0.01)
            drain = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)
            gated.release()
            responses = await asyncio.gather(first, second)
            await drain
            await service.stop()
            return responses

        responses = run_async(scenario())
        assert [r.status for r in responses] == [200, 200]


class TestCoalescingJournalRaces:
    """The journal-accept fsync yields between the inflight check and
    the rest of ``submit`` — these pin the two races that opens."""

    def test_waiter_survives_completion_during_journal_fsync(
        self, tmp_path
    ):
        """The coalesced path must capture the in-flight future before
        the fsync await: the primary may complete (and pop its entry)
        during it (regression: KeyError crash + permanently open
        journal entry)."""

        async def scenario():
            service = make_resilient_service(tmp_path)
            await service.start()
            request = SimRequest(experiment="table2", priority=BULK)
            scale = request.resolve_scale(service._scale)
            key = content_key(request.run_payload(scale))
            future = asyncio.get_running_loop().create_future()
            service._inflight[key] = future
            task = asyncio.ensure_future(service.submit(request))
            await asyncio.sleep(0)  # task is parked on the fsync await
            # The primary finishes while the waiter's accept fsyncs.
            service._inflight.pop(key)
            future.set_result(("ok", "rendered elsewhere"))
            response = await task
            await service.stop()
            return response

        response = run_async(scenario())
        assert response.status == 200
        assert response.payload["coalesced"] is True
        _accepts, settles, _torn = BulkJournal.read(
            tmp_path / "journal.jsonl"
        )
        assert [rec["outcome"] for rec in settles] == [COMPLETED]

    def test_same_tick_submits_compute_once(self, tmp_path):
        """Two bulk submits for the same key in one event-loop tick
        both pass the inflight check before either registers; the
        post-fsync re-check must coalesce the loser instead of
        computing twice."""
        calls = []

        def counting_worker(name, scale, store_path, check_invariants):
            calls.append(name)
            return quick_worker(name, scale, store_path, check_invariants)

        async def scenario():
            service = make_resilient_service(
                tmp_path, worker_fn=counting_worker
            )
            await service.start()
            responses = await asyncio.gather(
                service.submit(
                    SimRequest(experiment="table2", priority=BULK)
                ),
                service.submit(
                    SimRequest(experiment="table2", priority=BULK)
                ),
            )
            snapshot = service.metrics_snapshot()
            await service.stop()
            return responses, snapshot

        responses, snapshot = run_async(scenario())
        assert [r.status for r in responses] == [200, 200]
        assert len(calls) == 1
        assert snapshot["counters"]["computes"] == 1
        assert snapshot["counters"]["coalesced_hits"] == 1
        assert sorted(r.payload["coalesced"] for r in responses) == (
            [False, True]
        )
        _accepts, settles, _torn = BulkJournal.read(
            tmp_path / "journal.jsonl"
        )
        assert [rec["outcome"] for rec in settles] == (
            [COMPLETED, COMPLETED]
        )


async def _until(predicate):
    while not predicate():
        await asyncio.sleep(0.01)


class TestSettleRoutes:
    """Every route a journaled bulk request can finish by writes its
    terminal record exactly once — or, cancelled, none."""

    def test_replayed_duplicates_compute_once(self, tmp_path):
        """Two open accepts for one key at restart: the second follows
        the first's computation, and both settle completed."""
        journal = BulkJournal(tmp_path / "journal.jsonl")
        for _ in range(2):
            journal.record_accept(
                key="k", experiment="table2", scale="quick", seed=None
            )
        journal.sync()
        journal.close()
        calls = []

        def counting_worker(name, scale, store_path, check_invariants):
            calls.append(name)
            return f"rendered {name}"

        async def scenario():
            service = make_resilient_service(
                tmp_path, worker_fn=counting_worker
            )
            await service.start()
            await service.drain()
            await service.stop()

        run_async(scenario())
        assert calls == ["table2"]
        _accepts, settles, _torn = BulkJournal.read(
            tmp_path / "journal.jsonl"
        )
        assert sorted(rec["id"] for rec in settles) == [1, 2]
        assert [rec["outcome"] for rec in settles] == (
            [COMPLETED, COMPLETED]
        )

    def test_cancelled_dispatch_leaves_accept_open(self, tmp_path):
        """A bulk request cancelled while its dispatch runs has no
        terminal state: its accept stays open and the next start
        replays it."""
        gated = GatedWorker()

        async def scenario():
            service = make_resilient_service(tmp_path, worker_fn=gated)
            await service.start()
            task = asyncio.ensure_future(
                service.submit(SimRequest("table2", priority=BULK))
            )
            await _until(lambda: service._busy)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            gated.release()
            await service.stop()

        run_async(scenario())
        path = tmp_path / "journal.jsonl"
        accepts, settles, _torn = BulkJournal.read(path)
        assert len(accepts) == 1 and settles == []
        fresh = BulkJournal(path)
        assert [rec["id"] for rec in fresh.recover()] == (
            [accepts[0]["id"]]
        )

    def _stolen_round(self, tmp_path, status, report):
        """One bulk request queued behind an interactive holder of the
        only worker, granted to a thief that reports ``status`` and
        ``report``: ``(response, journal settles, worker calls)``."""
        gated = GatedWorker()

        async def scenario():
            service = make_resilient_service(
                tmp_path, worker_fn=gated, workers=1, bulk_cap=1.0
            )
            await service.start()
            member = FleetMember(service, FleetConfig(steal_interval=60.0))
            await member.start()
            holder = asyncio.ensure_future(
                service.submit(SimRequest("table1", seed=1))
            )
            await _until(lambda: service._busy)
            waiter = asyncio.ensure_future(
                service.submit(SimRequest("table1", seed=2, priority=BULK))
            )
            await _until(service.bulk_queue_depth)
            (rec,) = await member.steal("r1", 1)
            await member.stolen(rec["entry_id"], status, report)
            gated.release()
            response = await waiter
            await holder
            member.begin_close()
            await member.wait_idle()
            await member.finish_close()
            await service.stop()
            return response

        response = run_async(scenario())
        _accepts, settles, _torn = BulkJournal.read(
            tmp_path / "journal.jsonl"
        )
        return response, settles, gated.calls

    def test_stolen_ok_report_settles_completed(self, tmp_path):
        response, settles, calls = self._stolen_round(
            tmp_path, 200, {"status": "ok", "result": "rendered elsewhere"}
        )
        assert response.ok
        assert response.payload["result"] == "rendered elsewhere"
        assert [rec["outcome"] for rec in settles] == [COMPLETED]
        assert calls == 1  # only the interactive holder ran here

    def test_stolen_refusal_settles_once_after_local_compute(
        self, tmp_path
    ):
        response, settles, calls = self._stolen_round(
            tmp_path, 429, {"status": "rejected", "error": "full"}
        )
        assert response.ok
        assert response.payload["result"] == "rendered table1 seed=2"
        assert [rec["outcome"] for rec in settles] == [COMPLETED]
        assert calls == 2  # the requeued entry computed locally
