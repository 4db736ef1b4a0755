"""Span recording for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead
:func:`install_layer_wrappers` replaces each layer's public functions,
at the module attribute where the *caller* resolves the name, with a
wrapper that records a span around the original call.  A span is
``(id, parent, trace, name, t0, t1, attrs)``: the parent is the span
open on the same thread when the call began, and the trace id is
inherited from it, so every span of one batch item, edit step or
request shares its root's id.

Coroutine functions (``Scheduler.submit``) run interleaved on one event
loop, so their spans are roots of their own.  The wrapper numbers each
request it sees, and the ``GenerationService.generate`` span run for the
same request object on a worker thread records that number, which is how
:func:`serve_partition` pairs them.

Spans stay in memory and are written out once, when the process ends
(:meth:`Tracer.dump`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

# (module, owner attribute or "", function name, span name).  A wrapper is
# installed at every place a caller looks the function up: a class
# attribute serves every instance, a module global only the callers that
# resolve it through that module.
LAYER_WRAPPERS = [
    # xdl
    ("repro.xdl.parser", "", "parse_xdl_cached", "xdl.parse_cached"),
    ("repro.xdl.parser", "", "parse_xdl", "xdl.parse"),
    ("repro.xdl.writer", "", "write_xdl", "xdl.write"),
    ("repro.core.project", "", "write_xdl", "xdl.write"),
    # core
    ("repro.core.jpg", "Jpg", "make_partial", "core.make_partial"),
    # jbits
    ("repro.jbits.api", "JBits", "merge_frames", "jbits.merge_frames"),
    ("repro.jbits.api", "JBits", "write_partial", "jbits.write_partial"),
    # bitstream
    ("repro.core.jpg", "", "generate_frames", "bitstream.generate_frames"),
    ("repro.jbits.api", "", "partial_stream", "bitstream.partial_stream"),
    ("repro.bitstream.crc", "ConfigCrc", "update_words", "bitstream.crc"),
    # batch
    ("repro.batch.engine", "BatchJpg", "__init__", "batch.base_load"),
    ("repro.batch.engine", "BatchJpg", "generate_one", "batch.item"),
    ("repro.batch.cache", "FrameCache", "cleared", "batch.frame_cache"),
    # serve (client side)
    ("repro.serve.protocol", "ServeClient", "submit", "serve.client_submit"),
    ("repro.serve.protocol", "", "decode_partial", "serve.client_decode"),
    # serve (server side)
    ("repro.serve.scheduler", "Scheduler", "submit", "serve.scheduler"),
    ("repro.serve.service", "GenerationService", "generate", "serve.service"),
    ("repro.serve.diskcache", "DiskCache", "load_partial", "serve.diskcache.load"),
    ("repro.serve.diskcache", "DiskCache", "store_partial", "serve.diskcache.store"),
    # netlist
    ("repro.workloads.generators", "", "build_module_netlist", "netlist.build"),
    ("repro.workloads.designs", "", "build_module_netlist", "netlist.build"),
    # flow, as repro.flow.driver resolves its phases
    ("repro.flow.driver", "", "run_flow", "flow.run"),
    ("repro.core.project", "", "run_flow", "flow.run"),
    ("repro.flow.driver", "", "techmap", "flow.techmap"),
    ("repro.flow.driver", "", "pack", "flow.pack"),
    ("repro.flow.driver", "", "place", "flow.place"),
    ("repro.flow.driver", "", "route", "flow.route"),
    ("repro.flow.driver", "", "analyze", "flow.timing"),
]

#: Spans recorded inside the ``jpg serve`` node rather than the benchmark.
SERVER_SPANS = ("serve.scheduler", "serve.service", "serve.diskcache.load",
                "serve.diskcache.store")


def _attrs_of(tracer, span_name, args, kwargs, result, before):
    """Counts taken at the layer boundary, from the call's own arguments
    and result (never from a second measurement)."""
    if span_name == "bitstream.crc":
        return {"words": len(args[2]) if len(args) > 2 else len(kwargs["words"])}
    if span_name == "flow.place":
        return {"attempted": result.moves_attempted, "accepted": result.moves_accepted}
    if span_name == "flow.route":
        return {"popped": result.nodes_popped, "nets": result.nets,
                "reused": result.nets_reused}
    if span_name == "serve.diskcache.load":
        return {"hit": result is not None}
    if span_name == "batch.frame_cache":
        return {"hit": args[0].stats.misses == before}
    if span_name == "serve.service":
        return {"seq": tracer.live.get(id(args[1])), "source": result.source}
    return None


def _before(span_name, args):
    if span_name == "batch.frame_cache":
        return args[0].stats.misses
    return None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []
        #: id(request) -> scheduler sequence number, while the request is
        #: in ``Scheduler.submit`` (which keeps the object, and so its id, alive)
        self.live: dict[int, int] = {}
        self._seq = itertools.count(1)
        #: calls per wrapper location (the self-check that none stays silent)
        self.calls: Counter[str] = Counter()
        self.enabled = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the correctness checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, *, root: bool = False) -> list:
        """Open a span on this thread (a root one with ``root=True``)."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if (stack and not root) else None
        span = [sid, parent[0] if parent else None,
                parent[2] if parent else sid, name, time.perf_counter(), None, None]
        if not root:
            stack.append(span)
        return span

    def end(self, span: list, attrs: dict | None = None) -> None:
        span[5] = time.perf_counter()
        span[6] = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, module: str, owner: str, attr: str, span_name: str) -> None:
        """Replace ``module[.owner].attr`` with a span-recording wrapper."""
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner)
        orig = getattr(target, attr)
        tracer = self
        location = f"{module}:{owner + '.' if owner else ''}{attr}"

        if inspect.iscoroutinefunction(orig):
            # Scheduler.submit(self, request): number the request so the
            # service span run for it on a worker thread can name it
            @functools.wraps(orig)
            async def wrapper(*args, **kwargs):
                tracer.calls[location] += 1
                request = args[1]
                seq = next(tracer._seq)
                tracer.live[id(request)] = seq
                span = tracer.begin(span_name, root=True)
                attrs = {"seq": seq, "name": request.name}
                try:
                    return await orig(*args, **kwargs)
                except BaseException:
                    attrs["error"] = True
                    raise
                finally:
                    tracer.end(span, attrs)
                    tracer.live.pop(id(request), None)
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return orig(*args, **kwargs)
                tracer.calls[location] += 1
                before = _before(span_name, args)
                span = tracer.begin(span_name)
                attrs = None
                try:
                    result = orig(*args, **kwargs)
                    attrs = _attrs_of(tracer, span_name, args, kwargs, result, before)
                    return result
                finally:
                    tracer.end(span, attrs)

        setattr(target, attr, wrapper)
        self._installed.append((target, attr, orig))
        self.wrapped.append(location)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for target, attr, orig in reversed(self._installed):
            setattr(target, attr, orig)
        self._installed.clear()

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def install_layer_wrappers(tracer: Tracer, names=None) -> None:
    """Install every :data:`LAYER_WRAPPERS` entry (or those whose span
    name is in ``names``)."""
    for module, owner, attr, span_name in LAYER_WRAPPERS:
        if names is None or span_name in names:
            tracer.wrap(module, owner, attr, span_name)


def load_spans(path: str) -> list[list]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


# -- analysis ---------------------------------------------------------------


def duration(span: list) -> float:
    return span[5] - span[4]


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    Children of one span run on the span's own thread, nested inside it
    and one after another, so their durations simply add up."""
    child_sum: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_sum[span[1]] += duration(span)
    return {span[0]: duration(span) - child_sum[span[0]] for span in spans}


def by_trace(spans: list[list]) -> dict[int, list[list]]:
    """Trace id -> every span recorded under it."""
    out: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        out[span[2]].append(span)
    return out


def serve_partition(client: list[dict], server: list[list]) -> list[dict]:
    """Split each served request's round trip into wire, queue and service.

    ``client`` lists the benchmark's submits in the order they were sent
    (``name``, ``rtt``); ``server`` holds the node's spans.  Submits reach
    ``Scheduler.submit`` in the order they were sent, because the phases
    never overlap and each one uses a single connection, so the k-th
    scheduler span belongs to the k-th submit; the request names must
    agree, or the partition is refused.  A coalesced request has no
    service span of its own: all of its server time is queue time.
    """
    sched = sorted((s for s in server if s[3] == "serve.scheduler"), key=lambda s: s[6]["seq"])
    service = {s[6]["seq"]: s for s in server
               if s[3] == "serve.service" and s[6] and s[6]["seq"] is not None}
    if len(sched) != len(client):
        raise ValueError(f"{len(client)} submits sent but {len(sched)} "
                         "scheduler spans recorded")
    out = []
    for sent, span in zip(client, sched):
        if span[6]["name"] != sent["name"]:
            raise ValueError(f"submit order mismatch: sent {sent['name']!r}, "
                             f"scheduled {span[6]['name']!r}")
        scheduler = duration(span)
        svc = service.get(span[6]["seq"])
        service_s = duration(svc) if svc is not None else 0.0
        out.append({
            **sent,
            "scheduler": scheduler,
            "service": service_s,
            "queue": scheduler - service_s,
            "wire": sent["rtt"] - scheduler,
        })
    return out
