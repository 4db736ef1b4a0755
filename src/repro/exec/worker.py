"""What runs inside a warm-pool worker process.

One worker = one long-lived :class:`~repro.batch.engine.BatchJpg` built
once over the parent's base frames and reused for every task the worker
receives.  The base arrives as ``(part, frames.data)`` in the
``Process`` arguments — under ``fork`` nothing is copied, under ``spawn``
the array pickles once per worker — and is marked read-only before the
engine sees it, so a stray write raises instead of corrupting every
later task.  Each worker keeps its own in-memory
:class:`~repro.batch.cache.FrameCache`: it pays one clear per region it
sees, which is what the paper's clear-and-replay costs anyway.

:func:`warm_worker_main` serves a request/reply loop over its control
pipe; each task generates one item and sends home

* the :class:`~repro.batch.engine.BatchItemResult` itself (the partial's
  bytes are the product; they are already small), and
* a metrics snapshot of this task's counters/timers, merged into the
  parent registry so one report covers the whole pool (the
  ``framecache.hit``/``framecache.miss`` counters in it are how the
  parent accounts for its workers' caches).

The entry point is module-level so it pickles by reference under the
``spawn`` start method.  ``JPG_EXEC_CRASH=<item name>`` (or ``*``) makes
a worker die mid-task with ``os._exit`` — the hook the crash tests use to
prove a worker that keeps dying fails the batch loudly.
``JPG_EXEC_CRASH_ONCE=<flag-file>[:<item name>]`` crashes only while the
flag file exists and deletes it first, so exactly one worker dies — the
hook the warm pool's recycle-and-retry tests use.
"""

from __future__ import annotations

import os
import traceback
from typing import TYPE_CHECKING

import numpy as np

from ..bitstream.frames import FrameMemory
from ..devices import get_device
from ..obs import Metrics
from .backend import mark_worker_process

if TYPE_CHECKING:
    from ..batch.engine import BatchItem, BatchItemResult, BatchJpg
    from ..flow.ncd import NcdDesign


def _maybe_crash(item: "BatchItem") -> None:
    """Honor the crash-injection hooks (test-only; see module docstring).

    ``JPG_EXEC_CRASH`` kills every worker that touches the named item;
    ``JPG_EXEC_CRASH_ONCE=<flag-file>[:<name>]`` kills at most one worker —
    the flag file is consumed (unlinked) before dying, so a retry on a
    recycled worker succeeds.
    """
    crash = os.environ.get("JPG_EXEC_CRASH")
    if crash and crash in ("*", item.name):
        os._exit(17)  # simulate a dying worker (OOM kill, segfault)
    once = os.environ.get("JPG_EXEC_CRASH_ONCE")
    if once:
        flag, _, name = once.partition(":")
        if (not name or name in ("*", item.name)) and os.path.exists(flag):
            try:
                os.unlink(flag)
            except OSError:  # pragma: no cover - lost the unlink race
                return
            os._exit(17)


def _run_item(engine: "BatchJpg", item: "BatchItem") -> tuple["BatchItemResult", dict]:
    """Generate one item on this worker's engine; (result, metrics snapshot)."""
    _maybe_crash(item)
    # fresh per-task registry: a worker runs tasks one at a time, so
    # rebinding the engine's registry cleanly scopes the snapshot
    metrics = Metrics(keep_events=False)
    engine.metrics = metrics
    with metrics.stage("exec.task", item=item.name, pid=os.getpid()):
        result = engine.generate_one(item)
    return result, metrics.snapshot()


def warm_worker_main(
    conn,
    part: str,
    data: np.ndarray,
    base_design: "NcdDesign | None",
    full_size: int,
) -> None:
    """Entry point of one warm-pool worker process.

    Builds the worker's serial engine over the read-only base, then serves
    a message loop on ``conn`` until told to stop:

    * ``("task", item)`` — run the item and answer ``("ok", (result,
      snapshot))``.  Unexpected in-worker exceptions answer ``("err",
      traceback_text)`` — the worker survives, the parent raises.
    * ``("stop", None)`` — clean shutdown.

    A worker that dies mid-task simply drops the pipe; the parent sees
    ``EOFError`` and recycles the seat.
    """
    from ..batch.engine import BatchJpg

    mark_worker_process()
    data.setflags(write=False)
    engine = BatchJpg(
        part,
        FrameMemory(get_device(part), data),  # full_size set: no reparse/clone
        base_design,
        backend="serial",                     # a worker never nests a pool
        full_size=full_size,
    )
    try:
        while True:
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):  # parent died or closed our pipe
                break
            if kind == "stop":
                break
            try:
                reply = _run_item(engine, payload)
            except Exception:
                conn.send(("err", traceback.format_exc()))
                continue
            conn.send(("ok", reply))
    finally:
        conn.close()
