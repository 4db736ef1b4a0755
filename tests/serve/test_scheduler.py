"""Scheduler policies: backpressure, coalescing, per-region FIFO, drain.

A fake service with a controllable delay stands in for real generation so
every policy is observable deterministically.
"""

import asyncio
import threading
import time

import pytest

from repro.errors import QueueFullError
from repro.obs import Metrics
from repro.serve import GenRequest, Scheduler, ServeResult


class FakeService:
    """Duck-typed GenerationService: records calls, sleeps on demand."""

    part = "XCV50"
    full_size = 69744
    base_key = "base"

    def __init__(self, delay: float = 0.0):
        self.metrics = Metrics()
        self.delay = delay
        self.calls: list[tuple[str, float]] = []
        self._lock = threading.Lock()

    def partial_key(self, request):
        return (self.base_key, request.region or "-", request.digest())

    def generate(self, request):
        with self._lock:
            self.calls.append((request.name, time.monotonic()))
        if self.delay:
            time.sleep(self.delay)
        if request.name == "explode":
            return ServeResult(request, None, 0.0, "generated",
                               error="synthetic failure")
        return ServeResult(request, f"data:{request.name}".encode(), 0.0,
                           "generated")

    def stats(self):
        return {"calls": len(self.calls)}


def req(name: str, region: str | None = None) -> GenRequest:
    return GenRequest(name=name, xdl=f"xdl of {name}", region=region)


class TestCoalescing:
    def test_identical_requests_single_flight(self):
        service = FakeService(delay=0.05)

        async def main():
            sched = Scheduler(service, max_queue=8, workers=4)
            results = await asyncio.gather(*[
                sched.submit(req("same")) for _ in range(5)
            ])
            await sched.aclose()
            return results

        results = asyncio.run(main())
        assert len(service.calls) == 1
        assert all(r.data == b"data:same" for r in results)
        assert service.metrics.counter("serve.accepted") == 1
        assert service.metrics.counter("serve.coalesced") == 4
        # the leader was served; the 4 waiters got its bytes, marked, with
        # the bytes' provenance kept
        assert [r.coalesced for r in results] == [False] + [True] * 4
        assert all(r.source == "generated" for r in results)

    def test_distinct_requests_not_coalesced(self):
        service = FakeService()

        async def main():
            sched = Scheduler(service, max_queue=8, workers=4)
            await asyncio.gather(sched.submit(req("a")), sched.submit(req("b")))
            await sched.aclose()

        asyncio.run(main())
        assert len(service.calls) == 2
        assert service.metrics.counter("serve.coalesced") == 0

    def test_sequential_identical_requests_both_run(self):
        """Coalescing is for *in-flight* requests only; a finished request
        must not satisfy a later one (that's the disk cache's job)."""
        service = FakeService()

        async def main():
            sched = Scheduler(service, max_queue=8, workers=2)
            await sched.submit(req("same"))
            await sched.submit(req("same"))
            await sched.aclose()

        asyncio.run(main())
        assert len(service.calls) == 2


class TestBackpressure:
    def test_queue_full_rejects_with_reason(self):
        service = FakeService(delay=0.2)

        async def main():
            sched = Scheduler(service, max_queue=2, workers=1)
            t1 = asyncio.ensure_future(sched.submit(req("a")))
            t2 = asyncio.ensure_future(sched.submit(req("b")))
            await asyncio.sleep(0.05)  # let both enqueue
            with pytest.raises(QueueFullError) as exc:
                await sched.submit(req("c"))
            assert "queue full" in str(exc.value)
            await asyncio.gather(t1, t2)
            await sched.aclose()

        asyncio.run(main())
        assert service.metrics.counter("serve.rejected") == 1
        assert service.metrics.counter("serve.accepted") == 2
        # depth gauge saw the high-water mark and returned to zero
        g = service.metrics.snapshot()["gauges"]["serve.queue_depth"]
        assert g["max"] == 2 and g["last"] == 0

    def test_coalesced_request_is_not_rejected_when_full(self):
        """A duplicate of an in-flight request costs no queue slot, so it
        must be admitted even at capacity."""
        service = FakeService(delay=0.2)

        async def main():
            sched = Scheduler(service, max_queue=1, workers=1)
            t1 = asyncio.ensure_future(sched.submit(req("a")))
            await asyncio.sleep(0.05)
            dup = await sched.submit(req("a"))   # coalesces, no rejection
            await t1
            await sched.aclose()
            return dup

        dup = asyncio.run(main())
        assert dup.data == b"data:a"
        assert service.metrics.counter("serve.rejected") == 0
        assert service.metrics.counter("serve.coalesced") == 1


class TestRegionOrdering:
    def test_same_region_fifo_other_regions_interleave(self):
        service = FakeService(delay=0.1)

        async def main():
            sched = Scheduler(service, max_queue=8, workers=4)
            await asyncio.gather(
                sched.submit(req("r1-first", region="A")),
                sched.submit(req("r1-second", region="A")),
                sched.submit(req("r2-only", region="B")),
            )
            await sched.aclose()

        asyncio.run(main())
        starts = {name: t for name, t in service.calls}
        assert starts["r1-first"] < starts["r1-second"], \
            "same-region requests must start in submission order"
        # the other region did not wait for region A's queue
        assert starts["r2-only"] < starts["r1-second"]

    def test_region_order_survives_failures(self):
        service = FakeService()

        async def main():
            sched = Scheduler(service, max_queue=8, workers=2)
            first, second = await asyncio.gather(
                sched.submit(req("explode", region="A")),
                sched.submit(req("after", region="A")),
            )
            await sched.aclose()
            return first, second

        first, second = asyncio.run(main())
        assert not first.ok and first.error == "synthetic failure"
        assert second.ok and second.data == b"data:after"
        assert [n for n, _ in service.calls] == ["explode", "after"]


class TestDrain:
    def test_drain_finishes_accepted_rejects_new(self):
        service = FakeService(delay=0.1)

        async def main():
            sched = Scheduler(service, max_queue=8, workers=2)
            inflight = asyncio.ensure_future(sched.submit(req("a")))
            await asyncio.sleep(0.02)
            drained = await sched.drain()
            assert drained == 1
            with pytest.raises(QueueFullError) as exc:
                await sched.submit(req("late"))
            assert "draining" in str(exc.value)
            result = await inflight
            await sched.aclose()
            return result

        result = asyncio.run(main())
        assert result.ok and result.data == b"data:a"
        assert len(service.calls) == 1
        assert service.metrics.counter("serve.rejected") == 1

    def test_drain_idempotent_when_idle(self):
        async def main():
            sched = Scheduler(FakeService(), max_queue=8, workers=2)
            assert await sched.drain() == 0
            assert await sched.drain() == 0
            await sched.aclose()

        asyncio.run(main())

    def test_wait_timer_recorded(self):
        service = FakeService(delay=0.05)

        async def main():
            sched = Scheduler(service, max_queue=8, workers=1)
            await asyncio.gather(sched.submit(req("a")), sched.submit(req("b")))
            await sched.aclose()

        asyncio.run(main())
        timers = service.metrics.snapshot()["timers"]
        assert timers["serve.wait"]["count"] == 2

    def test_bad_max_queue_rejected(self):
        with pytest.raises(QueueFullError):
            Scheduler(FakeService(), max_queue=0)
