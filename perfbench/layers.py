"""Per-layer metrics of a traced run, computed from its spans.

Times are per batch item, per request or per call, in milliseconds, the
median unless the name ends in ``.p99`` (only where a run has well over a
thousand samples).  Counts are per call: ``flow.route_nodes_popped`` is
the mean over ``route`` calls, ``bitstream.crc_words`` the median over
batch items.  Ratios are useful outcomes over attempts.  Nested layers
report their total time, so ``jbits.emit_ms`` contains
``bitstream.assemble_ms``, which contains ``bitstream.crc_ms``;
``core.select_self_ms`` is the self time of ``Jpg.make_partial`` (verify
and frame selection).  ``generation.coverage`` is, per batch item, the
self time of every layer span below ``BatchJpg.generate_one`` over the
item's wall time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import SERVER_SPANS, by_trace, duration, self_times, serve_partition


def _p(values: list[float], q: int) -> float:
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(values) -> list[float]:
    return [1e3 * v for v in values]


def _ratio(hits: float, total: float) -> float:
    if total == 0:
        raise ValueError("ratio over no attempts")
    return hits / total


def layer_metrics(spans: list[list], server: list[list], sent: list[dict],
                  stats: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric, plus the traced-run self-check failures."""
    problems: list[str] = []
    named: dict[str, list[list]] = defaultdict(list)
    for span in spans:
        named[span[3]].append(span)
    on_server: dict[str, list[list]] = defaultdict(list)
    for span in server:
        on_server[span[3]].append(span)
    selfs = self_times(spans)
    ids = {span[0]: span for span in spans}
    m: dict[str, float] = {}

    # xdl
    cached = named["xdl.parse_cached"]
    misses = [s for s in named["xdl.parse"]
              if s[1] is not None and ids[s[1]][3] == "xdl.parse_cached"]
    m["xdl.parse_ms"] = _p(_ms(duration(s) for s in named["xdl.parse"]), 50)
    m["xdl.parse_hit_ratio"] = 1.0 - _ratio(len(misses), len(cached))
    m["xdl.write_ms"] = _p(_ms(duration(s) for s in named["xdl.write"]), 50)

    # batch items and the generation layers below them
    traces = by_trace(spans)
    per_item = defaultdict(list)
    for root in named["batch.item"]:
        if root[1] is not None:
            continue
        below = [s for s in traces[root[2]] if s is not root]
        total = defaultdict(float)
        for s in below:
            total[s[3]] += duration(s)
        wall = duration(root)
        per_item["item"].append(wall)
        per_item["replay"].append(total["bitstream.generate_frames"]
                                  + total["jbits.merge_frames"])
        per_item["select"].append(sum(selfs[s[0]] for s in below
                                      if s[3] == "core.make_partial"))
        per_item["emit"].append(total["jbits.write_partial"])
        per_item["assemble"].append(total["bitstream.partial_stream"])
        per_item["crc"].append(total["bitstream.crc"])
        per_item["crc_words"].append(sum(s[6]["words"] for s in below
                                         if s[3] == "bitstream.crc"))
        per_item["coverage"].append(sum(selfs[s[0]] for s in below) / wall)
    m["batch.item_ms"] = _p(_ms(per_item["item"]), 50)
    m["batch.item_ms.p99"] = _p(_ms(per_item["item"]), 99)
    m["bitstream.replay_ms"] = _p(_ms(per_item["replay"]), 50)
    m["core.select_self_ms"] = _p(_ms(per_item["select"]), 50)
    m["jbits.emit_ms"] = _p(_ms(per_item["emit"]), 50)
    m["bitstream.assemble_ms"] = _p(_ms(per_item["assemble"]), 50)
    m["bitstream.crc_ms"] = _p(_ms(per_item["crc"]), 50)
    m["bitstream.crc_words"] = _p(per_item["crc_words"], 50)
    m["generation.coverage"] = _p(per_item["coverage"], 50)
    fc = named["batch.frame_cache"]
    m["batch.frame_cache_ms"] = _p(_ms(duration(s) for s in fc), 50)
    m["batch.frame_cache_hit_ratio"] = _ratio(sum(s[6]["hit"] for s in fc), len(fc))
    m["batch.base_load_ms"] = _p(_ms(duration(s) for s in named["batch.base_load"]), 50)

    # serve: the client's round trip split by the node's spans
    try:
        split = serve_partition(sent, server)
    except ValueError as exc:
        problems.append(f"serve partition: {exc}")
        split = []
    load = [r for r in split if r["kind"] == "load"]
    for r in load:
        if r["wire"] < 0 or r["queue"] < 0:
            problems.append(f"serve partition: negative part for {r['name']}")
            break
    if load:
        for key, name in (("rtt", "serve.client_rtt_ms"), ("wire", "serve.wire_ms"),
                          ("scheduler", "serve.scheduler_ms"),
                          ("queue", "serve.queue_wait_ms")):
            values = _ms(r[key] for r in load)
            m[name] = _p(values, 50)
            m[name + ".p99"] = _p(values, 99)
    m["serve.client_decode_ms"] = _p(_ms(duration(s) for s in named["serve.client_decode"]), 50)
    service = on_server["serve.service"]
    m["serve.service_hit_ms"] = _p(_ms(duration(s) for s in service
                                       if s[6] and s[6]["source"] == "disk"), 50)
    m["serve.service_miss_ms"] = _p(_ms(duration(s) for s in service
                                        if s[6] and s[6]["source"] == "generated"), 50)
    loads = on_server["serve.diskcache.load"]
    m["serve.diskcache.load_ms"] = _p(_ms(duration(s) for s in loads), 50)
    m["serve.diskcache.hit_ratio"] = _ratio(sum(s[6]["hit"] for s in loads), len(loads))
    m["serve.diskcache.store_ms"] = _p(
        _ms(duration(s) for s in on_server["serve.diskcache.store"]), 50)
    counters = stats.get("counters", {})
    m["serve.rejected"] = float(counters.get("serve.rejected", 0))
    m["serve.coalesced"] = float(counters.get("serve.coalesced", 0))

    # netlist and flow
    m["netlist.build_ms"] = _p(_ms(duration(s) for s in named["netlist.build"]), 50)
    phases = ("techmap", "pack", "place", "route", "timing")
    for phase in phases:
        m[f"flow.{phase}_ms"] = _p(_ms(duration(s) for s in named[f"flow.{phase}"]), 50)
    places, routes = named["flow.place"], named["flow.route"]
    m["flow.place_accept_ratio"] = _ratio(sum(s[6]["accepted"] for s in places),
                                          sum(s[6]["attempted"] for s in places))
    m["flow.route_nodes_popped"] = statistics.mean(s[6]["popped"] for s in routes)
    m["flow.route_reuse_ratio"] = _ratio(sum(s[6]["reused"] for s in routes),
                                         sum(s[6]["nets"] for s in routes))
    m["flow.coverage"] = _ratio(
        sum(duration(s) for p in phases for s in named[f"flow.{p}"]),
        sum(duration(s) for s in named["flow.run"]))

    # traffic validity
    m["loadgen.lag_p99_ms"] = _p(_ms(r["lag"] for r in sent if r["kind"] == "load"), 99)

    for name in SERVER_SPANS:
        if not on_server[name]:
            problems.append(f"server wrapper {name} never fired")
    return m, problems
