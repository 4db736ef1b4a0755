"""Async scheduler: bounded queueing, per-region ordering, coalescing.

The scheduler turns the synchronous :class:`GenerationService` into a
multi-client front: requests arrive on the event loop, generations run on
a worker thread pool, and three policies shape the traffic:

* **Backpressure** — at most ``max_queue`` requests may be pending; a
  request beyond that is rejected immediately with a
  :class:`~repro.errors.QueueFullError` naming the reason, instead of
  growing an unbounded backlog.
* **Per-region ordering** — requests targeting the same region execute
  in submission order (chained futures), so a client swapping a region
  twice observes its own order; independent regions run concurrently up
  to ``workers``.
* **Request coalescing** — while a request is in flight, an identical
  request (same cache key: base fingerprint + region + module digest)
  does not enqueue a second generation; it awaits the same future and
  gets the leader's result marked ``coalesced``.  This
  extends :class:`~repro.batch.cache.FrameCache` single-flight semantics
  from "one clear per region" to "one generation per identical request"
  across clients.

Shutdown is graceful: :meth:`Scheduler.drain` stops intake (new submits
are rejected) and waits for every in-flight request to finish, so no
accepted request is ever dropped.

Metrics (``serve.*`` on the service's registry): ``serve.queue_depth``
gauge, ``serve.wait`` / ``serve.generate`` timers, ``serve.accepted`` /
``serve.rejected`` / ``serve.coalesced`` counters.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor

from ..errors import QueueFullError
from ..exec import default_workers
from .service import GenerationService, GenRequest, ServeResult


class Scheduler:
    """Bounded, region-ordered, coalescing front of a generation service.

    All methods must be called from one running event loop (the server's);
    the blocking generation work happens on the internal thread pool.
    ``workers=None`` sizes that pool from the service's execution backend
    when it owns a pool of known size (``backend.planned_workers()`` — so
    a warm pool gets exactly one shepherd thread per pool worker), falling
    back to :func:`repro.exec.default_workers` (``JPG_WORKERS``, then CPU
    count) — the same policy the batch engine uses.  When the service
    runs the warm backend, these threads only shepherd requests
    into the worker pool; the event loop itself stays single-threaded
    either way.
    """

    def __init__(
        self,
        service: GenerationService,
        *,
        max_queue: int = 32,
        workers: int | None = None,
    ):
        if max_queue < 1:
            raise QueueFullError(f"max_queue must be >= 1, got {max_queue}")
        if workers is None:
            workers = service.engine.backend.planned_workers() or default_workers()
        self.service = service
        self.metrics = service.metrics
        self.max_queue = max_queue
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="jpg-serve"
        )
        self._sem = asyncio.Semaphore(workers)
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._region_tail: dict[str, asyncio.Future] = {}
        self._tasks: set[asyncio.Task] = set()
        self._pending = 0
        self._draining = False

    # -- intake ---------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests accepted but not yet completed."""
        return self._pending

    @property
    def draining(self) -> bool:
        """True once shutdown began (new submits are rejected)."""
        return self._draining

    async def submit(self, request: GenRequest) -> ServeResult:
        """Schedule one request and await its result.

        Raises :class:`QueueFullError` when the queue is full or the
        scheduler is draining; generation *failures* come back on the
        result's ``error`` field like everywhere else.
        """
        if self._draining:
            self.metrics.count("serve.rejected")
            raise QueueFullError("service is draining (shutdown in progress)")
        key = self.service.partial_key(request)
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.count("serve.coalesced")
            # shield: one impatient client cancelling must not cancel the
            # generation other clients are waiting on
            return dataclasses.replace(await asyncio.shield(existing), coalesced=True)
        if self._pending >= self.max_queue:
            self.metrics.count("serve.rejected")
            raise QueueFullError(
                f"queue full: {self._pending} request(s) pending "
                f"(max {self.max_queue})"
            )
        self.metrics.count("serve.accepted")
        self._pending += 1
        self.metrics.gauge("serve.queue_depth", self._pending)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        region = request.region or "-"
        ahead = self._region_tail.get(region)
        self._region_tail[region] = future
        task = loop.create_task(self._run(request, key, region, ahead, future))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await asyncio.shield(future)

    async def _run(
        self,
        request: GenRequest,
        key: tuple,
        region: str,
        ahead: asyncio.Future | None,
        future: asyncio.Future,
    ) -> None:
        submitted = time.perf_counter()
        try:
            if ahead is not None:
                # per-region FIFO: wait for the previous request targeting
                # this region, whatever became of it
                await asyncio.wait([ahead])
            async with self._sem:
                self.metrics.record(
                    "serve.wait", time.perf_counter() - submitted, name=request.name
                )
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(
                    self._pool, self.service.generate, request
                )
            future.set_result(result)
        except BaseException as exc:  # pragma: no cover - defensive
            if not future.done():
                future.set_exception(exc)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
        finally:
            self._pending -= 1
            self.metrics.gauge("serve.queue_depth", self._pending)
            if self._inflight.get(key) is future:
                del self._inflight[key]
            if self._region_tail.get(region) is future:
                del self._region_tail[region]

    # -- shutdown -------------------------------------------------------------

    async def drain(self) -> int:
        """Stop intake and wait for every in-flight request; returns the
        number of requests that were still pending when draining began."""
        self._draining = True
        pending = self._pending
        while self._tasks:
            await asyncio.wait(set(self._tasks))
        return pending

    async def aclose(self) -> None:
        """Drain, then release the worker pool."""
        await self.drain()
        self._pool.shutdown(wait=True)
