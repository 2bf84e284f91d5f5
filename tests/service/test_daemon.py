"""Tests for the service core: admission control, coalescing, caching,
backpressure and drain.

Most tests drive a thread-pool-backed service with stub workers (see
``conftest``) so timing is deterministic; the final test runs the real
``ProcessPoolExecutor`` + registry worker once to pin the end-to-end
acceptance contract (N identical concurrent requests, one simulation).
"""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SCALES
from repro.service import ServiceConfig, SimRequest, SimulationService
from repro.service import daemon
from tests.service.conftest import (
    GatedWorker,
    make_service,
    run_async,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(bulk_cap=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(bulk_cap=1.5)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_queue=0)

    def test_effective_scale_default(self):
        assert ServiceConfig().effective_scale().name in (
            "quick", "default", "paper"
        )
        assert ServiceConfig(
            scale=SCALES["quick"]
        ).effective_scale().name == "quick"


class TestPipeline:
    def test_interactive_roundtrip_and_cache(self):
        async def scenario():
            service = make_service()
            await service.start()
            first = await service.submit(SimRequest("table1", seed=1))
            again = await service.submit(SimRequest("table1", seed=1))
            await service.stop()
            return service, first, again

        service, first, again = run_async(scenario())
        assert first.status == 200
        assert first.payload["result"] == "rendered table1 seed=1"
        assert not first.payload["cached"]
        assert again.payload["cached"]
        assert again.payload["result"] == first.payload["result"]
        counters = service.metrics.counters
        assert counters.computes == 1
        assert counters.cache_hits == 1
        assert counters.admits == 1
        assert service.metrics.latency["interactive"].count == 1

    def test_coalescing_one_compute_for_n_requests(self):
        async def scenario():
            service = make_service()
            await service.start()
            requests = [SimRequest("table1", seed=7) for _ in range(6)]
            responses = await asyncio.gather(
                *[service.submit(r) for r in requests]
            )
            await service.stop()
            return service, responses

        service, responses = run_async(scenario())
        assert [r.status for r in responses] == [200] * 6
        assert len({r.payload["result"] for r in responses}) == 1
        counters = service.metrics.counters
        assert counters.computes == 1
        assert counters.coalesced_hits == 5
        assert sum(r.payload["coalesced"] for r in responses) == 5

    def test_priorities_share_cache_and_inflight(self):
        async def scenario():
            service = make_service()
            await service.start()
            responses = await asyncio.gather(
                service.submit(SimRequest("table1", seed=5)),
                service.submit(
                    SimRequest("table1", seed=5, priority="bulk")
                ),
            )
            await service.stop()
            return service, responses

        service, responses = run_async(scenario())
        assert [r.status for r in responses] == [200, 200]
        assert service.metrics.counters.computes == 1

    def test_unknown_experiment_and_scale_rejected(self):
        async def scenario():
            service = make_service()
            await service.start()
            unknown = await service.submit(SimRequest("nope"))
            badscale = await service.submit(
                SimRequest("table1", scale="galactic")
            )
            await service.stop()
            return unknown, badscale

        unknown, badscale = run_async(scenario())
        assert unknown.status == 400
        assert "unknown experiment" in unknown.payload["error"]
        assert badscale.status == 400
        assert "unknown scale" in badscale.payload["error"]

    def test_worker_failure_fails_request_not_pool(self):
        async def scenario():
            gated = GatedWorker(fail=True)
            service = make_service(worker_fn=gated)
            await service.start()
            gated.release()
            failed = await service.submit(SimRequest("table1", seed=1))
            # Pool must stay serviceable after the failure.
            service._worker_fn = lambda n, s, p, c: "recovered"
            ok = await service.submit(SimRequest("table1", seed=2))
            await service.stop()
            return service, failed, ok

        service, failed, ok = run_async(scenario())
        assert failed.status == 500
        assert "injected worker failure" in failed.payload["error"]
        assert ok.status == 200
        counters = service.metrics.counters
        assert counters.failures == 1
        assert counters.computes == 1

    def test_failure_propagates_to_coalesced_waiters(self):
        async def scenario():
            gated = GatedWorker(fail=True)
            service = make_service(worker_fn=gated)
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit(SimRequest("table1", seed=1))
                )
                for _ in range(3)
            ]
            while not service._inflight:
                await asyncio.sleep(0.01)
            gated.release()
            responses = await asyncio.gather(*tasks)
            await service.stop()
            return service, responses

        service, responses = run_async(scenario())
        assert [r.status for r in responses] == [500] * 3
        counters = service.metrics.counters
        assert counters.failures == 1
        assert counters.coalesced_hits == 2
        # Failures are never cached: nothing to poison later requests.
        assert len(service.store) == 0


class TestAdmission:
    def test_cap_holds_bulk_back_while_pool_busy(self, gated):
        async def scenario():
            service = make_service(workers=2, bulk_cap=0.9,
                                   worker_fn=gated)
            await service.start()
            b1 = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=1, priority="bulk")
                )
            )
            b2 = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=2, priority="bulk")
                )
            )
            await asyncio.sleep(0.05)
            # One bulk admitted ((0+1)/2 <= 0.9); the second would
            # push utilization to 1.0 > 0.9 and must wait in queue.
            busy, depth = service._busy, service.bulk_queue_depth()
            gated.release()
            responses = await asyncio.gather(b1, b2)
            await service.stop()
            return service, busy, depth, responses

        service, busy, depth, responses = run_async(scenario())
        assert busy == 1
        assert depth == 1
        assert [r.status for r in responses] == [200, 200]
        counters = service.metrics.counters
        assert counters.cap_deferrals >= 1
        assert counters.admits == 2

    def test_interactive_dispatches_past_queued_bulk(self, gated):
        async def scenario():
            service = make_service(workers=2, bulk_cap=0.9,
                                   worker_fn=gated)
            await service.start()
            bulk = [
                asyncio.ensure_future(
                    service.submit(
                        SimRequest("table1", seed=i, priority="bulk")
                    )
                )
                for i in (1, 2, 3)
            ]
            await asyncio.sleep(0.05)
            interactive = asyncio.ensure_future(
                service.submit(SimRequest("table1", seed=9))
            )
            await asyncio.sleep(0.05)
            # The interactive went straight into the pool even though
            # bulk work was queued ahead of it.
            busy, depth = service._busy, service.bulk_queue_depth()
            gated.release()
            responses = await asyncio.gather(interactive, *bulk)
            await service.stop()
            return busy, depth, responses

        busy, depth, responses = run_async(scenario())
        assert busy == 2  # 1 admitted bulk + 1 interactive
        assert depth == 2
        assert [r.status for r in responses] == [200] * 4

    def test_disabled_cap_lets_bulk_fill_pool(self, gated):
        async def scenario():
            service = make_service(workers=2, bulk_cap=1.0,
                                   worker_fn=gated)
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit(
                        SimRequest("table1", seed=i, priority="bulk")
                    )
                )
                for i in (1, 2)
            ]
            await asyncio.sleep(0.05)
            busy, depth = service._busy, service.bulk_queue_depth()
            gated.release()
            responses = await asyncio.gather(*tasks)
            await service.stop()
            return busy, depth, responses

        busy, depth, responses = run_async(scenario())
        assert busy == 2
        assert depth == 0
        assert [r.status for r in responses] == [200, 200]

    def test_utilization_reporting(self, gated):
        async def scenario():
            service = make_service(workers=2, worker_fn=gated)
            await service.start()
            task = asyncio.ensure_future(
                service.submit(SimRequest("table1", seed=1))
            )
            await asyncio.sleep(0.05)
            mid = service.utilization()
            gated.release()
            await task
            await service.stop()
            return mid, service.utilization()

        mid, after = run_async(scenario())
        assert mid == pytest.approx(0.5)
        assert after == 0.0


class TestBackpressure:
    def test_full_bulk_queue_rejected_with_retry_after(self, gated):
        async def scenario():
            service = make_service(workers=1, bulk_cap=1.0,
                                   max_queue=1, worker_fn=gated)
            await service.start()
            running = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=1, priority="bulk")
                )
            )
            await asyncio.sleep(0.05)
            queued = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=2, priority="bulk")
                )
            )
            await asyncio.sleep(0.05)
            rejected = await service.submit(
                SimRequest("table1", seed=3, priority="bulk")
            )
            gated.release()
            responses = await asyncio.gather(running, queued)
            await service.stop()
            return service, rejected, responses

        service, rejected, responses = run_async(scenario())
        assert rejected.status == 429
        assert rejected.payload["status"] == "rejected"
        assert rejected.retry_after >= 1.0
        assert rejected.payload["retry_after_s"] == rejected.retry_after
        assert [r.status for r in responses] == [200, 200]
        assert service.metrics.counters.rejections == 1

    def test_interactive_backlog_bounded(self, gated, monkeypatch):
        monkeypatch.setattr(daemon, "MAX_BACKLOG", 0)

        async def scenario():
            service = make_service(workers=1, worker_fn=gated)
            await service.start()
            running = asyncio.ensure_future(
                service.submit(SimRequest("table1", seed=1))
            )
            await asyncio.sleep(0.05)
            rejected = await service.submit(
                SimRequest("table1", seed=2)
            )
            gated.release()
            ok = await running
            await service.stop()
            return service, rejected, ok

        service, rejected, ok = run_async(scenario())
        assert rejected.status == 429
        assert "interactive backlog" in rejected.payload["error"]
        assert ok.status == 200
        assert service.metrics.counters.rejections == 1

    def test_retry_after_scales_with_observed_latency(self):
        service = make_service(workers=2)
        service.metrics.record_latency("bulk", 8.0)
        assert service._retry_after("bulk", 4) == pytest.approx(16.0)
        # No bulk observations: fall back to interactive, then 1s.
        fresh = make_service(workers=2)
        assert fresh._retry_after("bulk", 4) == pytest.approx(2.0)


class TestDrain:
    def test_drain_finishes_queued_work_then_rejects(self, gated):
        async def scenario():
            service = make_service(workers=2, bulk_cap=0.9,
                                   worker_fn=gated)
            await service.start()
            admitted = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=1, priority="bulk")
                )
            )
            queued = asyncio.ensure_future(
                service.submit(
                    SimRequest("table1", seed=2, priority="bulk")
                )
            )
            await asyncio.sleep(0.05)
            drain = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)
            late = await service.submit(SimRequest("table1", seed=3))
            assert not drain.done()
            gated.release()
            responses = await asyncio.gather(admitted, queued)
            await drain
            await service.stop()
            return service, late, responses

        service, late, responses = run_async(scenario())
        assert late.status == 503
        assert late.payload["status"] == "draining"
        # Work accepted before the drain still completed.
        assert [r.status for r in responses] == [200, 200]
        assert service.metrics.counters.drain_rejections == 1
        assert service.draining

    def test_healthz_reflects_drain(self):
        async def scenario():
            service = make_service()
            await service.start()
            before = service.healthz()
            await service.drain()
            after = service.healthz()
            await service.stop()
            return before, after

        before, after = run_async(scenario())
        assert before["status"] == "ok"
        assert after["status"] == "draining"
        assert before["workers"] == 2
        assert isinstance(before["version"], str) and before["version"]


class TestMetricsSnapshot:
    def test_snapshot_includes_store_and_queue_state(self):
        async def scenario():
            service = make_service()
            await service.start()
            await service.submit(SimRequest("table1", seed=1))
            await service.submit(SimRequest("table1", seed=1))
            snap = service.metrics_snapshot()
            await service.stop()
            return snap

        snap = run_async(scenario())
        assert snap["counters"]["computes"] == 1
        assert snap["counters"]["cache_hits"] == 1
        assert snap["store"]["entries"] == 1
        assert snap["bulk_queue_depth"] == 0
        assert snap["inflight"] == 0
        assert snap["latency"]["interactive"]["count"] == 1


class TestRealPool:
    def test_n_identical_requests_one_simulation(self, tmp_path):
        """Acceptance: N identical concurrent requests to an uncached
        config run exactly one underlying simulation (real registry
        worker, real process pool), verified by the obs counters."""

        async def scenario():
            config = ServiceConfig(
                workers=2,
                scale=SCALES["quick"],
                store_path=str(tmp_path / "store"),
            )
            service = SimulationService(config)
            await service.start()
            requests = [
                SimRequest("table1", seed=4242) for _ in range(5)
            ]
            responses = await asyncio.gather(
                *[service.submit(r) for r in requests]
            )
            cached = await service.submit(
                SimRequest("table1", seed=4242)
            )
            await service.stop()
            return service, responses, cached

        service, responses, cached = run_async(scenario())
        assert [r.status for r in responses] == [200] * 5
        texts = {r.payload["result"] for r in responses}
        assert len(texts) == 1
        assert "Table 1" in texts.pop()
        counters = service.metrics.counters
        assert counters.computes == 1
        assert counters.coalesced_hits == 4
        assert counters.cache_hits == 1
        assert cached.payload["cached"]
        # Exactly one response product was stored for this key.
        assert len(service.store) == 1
