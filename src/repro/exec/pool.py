"""The warm worker pool: persistent forked workers over one base.

The first backend benchmark (BENCH_5, in git history) measured the
honest problem with a per-batch process pool: on small batches the fork
cost of a fresh ``ProcessPoolExecutor`` dominates and parallelism is a
net loss.  The warm pool closes that gap by making every per-batch cost
a per-*pool* cost:

* workers are forked **once** and reused across batches and across serve
  requests;
* the base frames travel **once**, in each worker's ``Process``
  arguments (free under ``fork``, one pickle per worker under
  ``spawn``);
* each task and its reply are one message each way over the worker's
  control pipe.

:class:`WarmPool` is the ``backend="warm"``
:class:`~repro.exec.backend.Backend`, so it plugs into ``BatchJpg`` and
the serve scheduler unchanged.  It owns the whole lifecycle: spawn,
recycle-on-crash (a dead worker is respawned in place and the task
retried exactly once before :class:`~repro.errors.ExecError`), and
shutdown.

Observability: the pool reports ``exec.pool.*`` metrics through the
bound engine's registry — gauge ``workers_alive``, counters ``tasks``,
``recycles`` and ``retries`` (see docs/API.md's metrics catalog).
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import ExecError
from .backend import Backend, default_workers

if TYPE_CHECKING:
    from ..batch.engine import BatchItem, BatchItemResult, BatchJpg

#: How long (seconds) a clean shutdown waits for a worker before killing it.
_JOIN_TIMEOUT = 5.0


@dataclass
class _Seat:
    """One worker slot: the live process plus the parent end of its pipe.

    The seat index is stable for the pool's lifetime while the process
    occupying it may be recycled.
    """

    idx: int
    process: Any
    conn: Any


class WarmPool(Backend):
    """``backend="warm"`` — a persistent pool of forked workers over one base.

    Construct once, bind lazily to the first engine that runs on it, and
    keep it hot: ``BatchJpg`` batches and serve-scheduler requests both
    dispatch through :meth:`run_task`, and nothing is torn down between
    them.  Thread-safe — concurrent callers each check out an idle seat
    from an internal queue, so at most one task is in flight per worker.
    One lock guards the seats, the lifecycle and every counter.

    ``workers`` defaults to the :func:`~repro.exec.backend.
    default_workers` policy (``JPG_WORKERS`` wins, then CPU count capped
    at 8).  ``close()`` shuts the pool down (call it from
    ``engine.close()`` as usual).
    """

    name = "warm"

    def __init__(self, workers: int | None = None):
        self.workers = workers
        self._seats: list[_Seat] = []
        self._idle: queue.Queue[int] = queue.Queue()
        self._lock = threading.Lock()
        self._engine: BatchJpg | None = None
        self._initargs: tuple | None = None
        self._ctx = None
        self._closed = False
        # lifetime counters, surfaced as exec.pool.* metrics
        self.tasks = 0
        self.recycles = 0
        self.retries = 0
        # frame-cache lookups as the workers reported them
        self._hits = 0
        self._misses = 0
        # counter totals already pushed into the engine's registry, so
        # repeated runs report deltas rather than running totals
        self._reported: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------------

    def planned_workers(self) -> int:
        """How many workers this pool runs (or will run once bound); sizes
        the serve scheduler's shepherd threads."""
        if self._seats:
            return len(self._seats)
        return self.workers or default_workers()

    def bind(self, engine: "BatchJpg", workers: int | None = None) -> None:
        """Spawn the workers over ``engine``'s base.

        Idempotent for the same engine; binding a second engine raises
        (one pool serves one base).  Called lazily by :meth:`run` and
        :meth:`run_one` on first use.
        """
        with self._lock:
            if self._engine is not None:
                if engine is not self._engine:
                    raise ExecError(
                        "warm pool is already bound to another engine; "
                        "use one WarmPool per base"
                    )
                return
            if self._closed:
                raise ExecError("warm pool is closed")
            # fork is far cheaper where it exists (no re-import, parsed
            # device models and the base array inherited); fall back to
            # the platform default
            method = ("fork" if "fork" in
                      multiprocessing.get_all_start_methods() else None)
            self._ctx = multiprocessing.get_context(method)
            n = workers or self.workers or default_workers()
            self._engine = engine
            self._initargs = (
                engine.part,
                engine.base_frames.data,
                engine.base_design,
                engine.full_size,
            )
            try:
                for idx in range(n):
                    self._seats.append(self._spawn(idx))
                    self._idle.put(idx)
            except BaseException:
                self._shutdown_locked()
                raise
            engine.metrics.gauge("exec.pool.workers_alive", n)

    def _spawn(self, idx: int) -> _Seat:
        """Start the worker for seat ``idx`` (caller holds the lock)."""
        from .worker import warm_worker_main

        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=warm_worker_main,
            args=(child_conn,) + self._initargs,
            daemon=True,
            name=f"jpg-warm-{idx}",
        )
        process.start()
        child_conn.close()
        return _Seat(idx, process, parent_conn)

    def _recycle(self, idx: int) -> None:
        """Replace a dead worker in seat ``idx`` with a fresh fork."""
        with self._lock:
            if self._closed:
                raise ExecError("warm pool is closed")
            seat = self._seats[idx]
            seat.conn.close()
            if seat.process.is_alive():  # pragma: no cover - pipe died first
                seat.process.terminate()
            seat.process.join(_JOIN_TIMEOUT)
            self._seats[idx] = self._spawn(idx)
            self.recycles += 1

    def close(self) -> None:
        """Stop every worker.  Waits for clean exits, escalates to
        ``terminate`` after a timeout.  Idempotent."""
        with self._lock:
            self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        if self._closed and not self._seats:
            return
        for seat in self._seats:
            try:
                seat.conn.send(("stop", None))
            except (OSError, BrokenPipeError):
                pass
        for seat in self._seats:
            seat.process.join(_JOIN_TIMEOUT)
            if seat.process.is_alive():  # pragma: no cover - wedged worker
                seat.process.terminate()
                seat.process.join(_JOIN_TIMEOUT)
            seat.conn.close()
        self._seats = []
        self._idle = queue.Queue()
        self._engine = None
        self._initargs = None
        self._closed = True

    # -- dispatch -------------------------------------------------------------

    def run(self, engine, items, workers=None):
        """Shepherd the manifest into the pool — one feeder thread per
        worker — and ingest replies in manifest order."""
        if not items:
            return []
        self.bind(engine, workers)
        engine.metrics.count("exec.tasks", len(items))
        n = min(self.planned_workers(), len(items))
        with engine.metrics.stage("exec.pool_map", backend=self.name,
                                  items=len(items), workers=n):
            with ThreadPoolExecutor(max_workers=n,
                                    thread_name_prefix="warm-shepherd") as shepherds:
                raw = list(shepherds.map(self.run_task, items))
        results = [self._ingest(engine, r) for r in raw]
        self._gauge(engine)
        return results

    def run_one(self, engine, item):
        """Generate a single item on the hot pool (the serving path)."""
        self.bind(engine, None)
        engine.metrics.count("exec.tasks")
        result = self._ingest(engine, self.run_task(item))
        self._gauge(engine)
        return result

    def run_task(self, item: "BatchItem") -> tuple["BatchItemResult", dict]:
        """Dispatch one item to an idle worker; its (result, metrics
        snapshot) reply.

        Checks a seat out of the idle queue (blocking if every worker is
        busy), sends the task and waits for the reply on the same pipe.
        A worker that is dead when the task arrives, or dies mid-task, is
        recycled in place and the item retried exactly once; a second
        death raises :class:`ExecError` — a batch never silently loses
        items.
        """
        if self._engine is None:
            raise ExecError("warm pool used before bind()")
        idx = self._idle.get()
        try:
            for attempt in (0, 1):
                seat = self._seats[idx]
                try:
                    seat.conn.send(("task", item))
                    kind, payload = seat.conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    self._recycle(idx)
                    if attempt == 0:
                        with self._lock:
                            self.retries += 1
                        continue
                    raise ExecError(
                        f"warm pool lost a worker twice on {item.name!r}; "
                        f"giving up after one recycle-and-retry"
                    ) from None
                with self._lock:
                    self.tasks += 1
                if kind == "err":
                    raise ExecError(
                        f"warm-pool worker failed on {item.name!r}:\n{payload}"
                    )
                return payload
        finally:
            self._idle.put(idx)

    def _ingest(self, engine, reply):
        """Fold one worker reply into the parent: merge its metrics
        snapshot and count its frame-cache lookups."""
        result, snapshot = reply
        counters = snapshot.get("counters", {})
        engine.metrics.merge(snapshot)
        with self._lock:
            self._hits += counters.get("framecache.hit", 0)
            self._misses += counters.get("framecache.miss", 0)
        return result

    def _gauge(self, engine) -> None:
        """Refresh the pool's ``exec.pool.*`` gauges and counters after a
        run (counters are deltas since the previous refresh)."""
        with self._lock:
            alive = sum(1 for s in self._seats if s.process.is_alive())
            engine.metrics.gauge("exec.pool.workers_alive", alive)
            for name, total in (("exec.pool.tasks", self.tasks),
                                ("exec.pool.recycles", self.recycles),
                                ("exec.pool.retries", self.retries)):
                prev = self._reported.get(name, 0)
                if total > prev:
                    engine.metrics.count(name, total - prev)
                    self._reported[name] = total

    def cache_stats(self, engine):
        """Hits/misses as the pool's workers saw them."""
        from ..batch.cache import CacheStats

        with self._lock:
            return CacheStats(self._hits, self._misses)
