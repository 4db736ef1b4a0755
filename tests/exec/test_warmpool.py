"""Warm-pool lifecycle: spawn/reuse, crash recycling, a read-only base,
leak checks.

The pool's correctness story has three legs, and each gets direct
coverage here:

* **reuse** — workers are forked once and survive across batches (stable
  pids), which is the entire point of the warm backend;
* **fault handling** — a worker that dies mid-task, or between batches,
  is recycled in place and the task retried exactly once; a second death
  raises :class:`ExecError` and never hands back a report missing items;
* **hygiene** — every worker sees the base read-only, and ``close()``
  leaves no orphan worker processes, whatever happened before it.

Byte-identity of warm-pool output against the sequential path lives in
the differential suite (``tests/integration/test_differential.py``),
which parametrizes its conformance matrix over every backend name.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.batch import BatchJpg
from repro.batch.engine import items_from_project
from repro.errors import ExecError
from repro.exec import WarmPool

pytestmark = pytest.mark.warmpool


def _alive(pool: WarmPool) -> dict[int, int]:
    """Seat index -> pid for every live worker of the pool."""
    return {s.idx: s.process.pid for s in pool._seats if s.process.is_alive()}


def _wait_dead(pids, timeout: float = 5.0) -> bool:
    """True once none of ``pids`` is a live process (zombies count as dead)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            try:  # a reaped-by-mp zombie still answers kill(pid, 0)
                with open(f"/proc/{pid}/stat") as fh:
                    if fh.read().split(") ", 1)[1][0] == "Z":
                        continue
            except OSError:
                continue
            alive.append(pid)
        if not alive:
            return True
        time.sleep(0.05)
    return False


@pytest.fixture
def warm_engine(demo_project):
    """A BatchJpg on a 2-worker warm pool, closed (and orphan-checked)
    after the test."""
    pool = WarmPool(workers=2)
    engine = BatchJpg("XCV50", demo_project.base_bitfile, backend=pool)
    yield engine, pool
    pids = list(_alive(pool).values())
    engine.close()
    assert _wait_dead(pids), f"orphaned warm workers: {pids}"


class TestPoolLifecycle:
    def test_workers_survive_across_batches(self, demo_project, warm_engine):
        """The tentpole property: the second batch reuses the first batch's
        forked workers — same pids, no respawn."""
        engine, pool = warm_engine
        items = items_from_project(demo_project)
        report1 = engine.run(items)
        assert report1.ok
        pids1 = _alive(pool)
        assert len(pids1) == 2
        report2 = engine.run(items)
        assert report2.ok
        assert _alive(pool) == pids1, "batch #2 must reuse batch #1's workers"
        assert pool.recycles == 0
        assert pool.tasks == 2 * len(items)
        for a, b in zip(report1.results, report2.results):
            assert a.result.data == b.result.data

    def test_crash_once_recycles_and_retries(self, demo_project, warm_engine,
                                             monkeypatch, tmp_path):
        """One worker dies mid-task: the seat is recycled, the item retried
        on the fresh fork, and the batch still completes in full."""
        engine, pool = warm_engine
        flag = tmp_path / "crash-once"
        flag.touch()
        monkeypatch.setenv("JPG_EXEC_CRASH_ONCE", f"{flag}:r2/left")
        report = engine.run(items_from_project(demo_project))
        assert report.ok and len(report.results) == 4
        assert not flag.exists(), "the crash flag must be consumed"
        assert pool.recycles == 1
        assert pool.retries == 1
        assert len(_alive(pool)) == 2

    def test_persistent_crash_gives_up_after_one_retry(self, demo_project,
                                                       warm_engine, monkeypatch):
        """A fault that survives the recycle (every worker touching the item
        dies) must abort loudly, and the pool must stay usable once the
        fault is gone."""
        engine, pool = warm_engine
        items = items_from_project(demo_project)
        monkeypatch.setenv("JPG_EXEC_CRASH", "r2/left")
        with pytest.raises(ExecError, match="lost a worker twice"):
            engine.run(items)
        assert pool.retries >= 1 and pool.recycles >= 2
        monkeypatch.delenv("JPG_EXEC_CRASH")
        report = engine.run(items)
        assert report.ok and len(report.results) == 4

    def test_close_leaves_no_orphans_or_shm(self, demo_project):
        """Drain-on-shutdown hygiene: after close(), every worker pid is
        gone.  (The pool no longer creates shared-memory segments, so
        there is nothing under /dev/shm to leak.)"""
        pool = WarmPool(workers=2)
        engine = BatchJpg("XCV50", demo_project.base_bitfile, backend=pool)
        report = engine.run(items_from_project(demo_project)[:2])
        assert report.ok
        pids = list(_alive(pool).values())
        assert len(pids) == 2
        engine.close()
        assert _wait_dead(pids), f"orphaned warm workers: {pids}"
        engine.close()  # idempotent

    def test_ensure_respawns_externally_killed_worker(self, demo_project,
                                                      warm_engine):
        """A worker killed while idle between batches (OOM killer) is
        recycled when the next task reaches its seat, without surfacing
        as a failed item."""
        engine, pool = warm_engine
        items = items_from_project(demo_project)
        assert engine.run(items).ok
        victim = pool._seats[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(5.0)
        report = engine.run(items)
        assert report.ok and len(report.results) == len(items)
        assert pool.recycles == 1
        assert len(_alive(pool)) == 2

    def test_rebinding_to_another_engine_raises(self, demo_project):
        pool = WarmPool(workers=1)
        a = BatchJpg("XCV50", demo_project.base_bitfile, backend=pool)
        b = BatchJpg("XCV50", demo_project.base_bitfile, backend=pool)
        items = items_from_project(demo_project)[:1]
        try:
            assert a.run(items).ok
            with pytest.raises(ExecError, match="already bound"):
                b.run(items)
        finally:
            a.close()

    def test_run_task_before_bind_raises(self):
        pool = WarmPool(workers=1)
        with pytest.raises(ExecError, match="before bind"):
            pool.run_task(None)

    def test_use_after_close_raises(self, demo_project):
        pool = WarmPool(workers=1)
        engine = BatchJpg("XCV50", demo_project.base_bitfile, backend=pool)
        assert engine.run(items_from_project(demo_project)[:1]).ok
        engine.close()
        with pytest.raises(ExecError, match="closed"):
            pool.bind(engine)


class TestBackendIntegration:
    def test_planned_workers_sizes_the_scheduler(self, demo_project):
        """The serve scheduler asks the backend for its pool size; a warm
        backend answers its fixed worker count (one shepherd per worker)."""
        assert WarmPool(workers=3).planned_workers() == 3
        from repro.exec import SerialBackend

        assert SerialBackend().planned_workers() is None

    def test_pool_metrics_reported_as_deltas(self, demo_project, warm_engine):
        """exec.pool.* counters report per-run deltas, not running totals."""
        engine, pool = warm_engine
        items = items_from_project(demo_project)
        assert engine.run(items).ok
        snap1 = engine.metrics.snapshot()["counters"]
        assert snap1["exec.pool.tasks"] == len(items)
        assert engine.run(items).ok
        snap2 = engine.metrics.snapshot()["counters"]
        assert snap2["exec.pool.tasks"] == 2 * len(items)
        gauges = engine.metrics.snapshot()["gauges"]
        assert gauges["exec.pool.workers_alive"]["last"] == 2

    def test_concurrent_callers_lose_no_counts(self, demo_project):
        """More callers than workers, more workers than cores, and a tiny
        switch interval: every task is counted once in the pool and in
        the exec.pool.tasks deltas."""
        pool = WarmPool(workers=3)
        engine = BatchJpg("XCV50", demo_project.base_bitfile, backend=pool)
        items = items_from_project(demo_project)
        callers, per_caller = 6, 12
        errors = []

        def caller(offset):
            try:
                for i in range(per_caller):
                    assert engine.run_one(items[(offset + i) % len(items)]).ok
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        assert not errors, errors
        assert pool.tasks == callers * per_caller
        counters = engine.metrics.snapshot()["counters"]
        assert counters["exec.pool.tasks"] == callers * per_caller


def _write_to_base(engine, item):
    """Stands in for a task that (wrongly) edits the shared base."""
    engine.base_frames.data[0, 0] = 1


class TestReadOnlyBase:
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patched task reaches workers by fork")
    def test_worker_write_to_base_raises(self, demo_project, monkeypatch):
        """Every worker sees the base read-only: a task that writes to it
        fails loudly instead of corrupting every later task."""
        from repro.exec import worker

        monkeypatch.setattr(worker, "_run_item", _write_to_base)
        engine = BatchJpg("XCV50", demo_project.base_bitfile,
                          backend=WarmPool(workers=1))
        try:
            with pytest.raises(ExecError, match="read-only"):
                engine.run(items_from_project(demo_project)[:1])
        finally:
            engine.close()
        # the parent's own base stays writable (only workers are guarded)
        assert engine.base_frames.data.flags.writeable
