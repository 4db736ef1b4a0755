#!/usr/bin/env python
"""Backend performance gate: cold and warm timings on every backend.

Four workload axes, selectable with ``--workload``:

* ``small`` — the paper's §4.1 Figure-4 manifest (10 partials against one
  XCV100-class base).  Pool spin-up dominates here; the gate only checks
  that pooled backends stay within ``--tolerance`` of serial.
* ``xcv1000`` — 12 slab regions x 9 module variants = 108 partials on an
  XCV1000 (:func:`repro.workloads.scale_plan`).  This is where
  parallelism has room to pay, and where the warm pool must *win*.
* ``flow`` — the place/route phase axis: run the full flow on the
  Figure-4 and XCV1000 base designs (:func:`repro.workloads.flow_cases`)
  with both cost engines — ``array`` (production) and ``scalar`` (the
  reference oracle in ``tests/flow/scalar_ref.py``) — and record per-phase
  wall clock.  Every repeat's placement and routing must be identical
  across repeats *and* across engines (seeded determinism — checked
  unconditionally, like byte identity).
* ``cluster`` — the serve/cluster axis (:mod:`repro.cluster.loadgen`):
  replay a zipf-skewed synthetic stream against a spawned single node
  and a 3-node fleet (clients route by consistent hash through
  :class:`~repro.cluster.peers.FleetClient`), cold and warm passes each, recording throughput, p50/p95/p99 latency, and
  per-tier hit ratios — plus an unconditional byte-identity check of
  served bytes against direct generation.

Batch backends are timed at two temperatures:

* **cold** — a fresh engine per repeat: what a one-shot ``jpg batch
  --backend X`` costs, pool start-up (forking the workers over the base)
  included;
* **warm** — one engine, a priming run, then best-of-``--repeats`` on the
  same engine: the steady state a resident ``jpg serve`` pool reaches.

Results land in ``BENCH_10.json``; every workload entry names the device
spec it ran on (``part``/``spec``), so numbers from different declarative
families are never compared blind::

    {
      "cpu_count": 8,
      "enforced": true,
      "workloads": [
        {"workload": "fig4-XCV100-10-partials", "items": 10,
         "part": "XCV100", "spec": "XCV100",
         "results": [
           {"backend": "serial", "cold_s": 0.91, "warm_s": 0.30, ...},
           ...
         ]},
        {"workload": "flow-scale-XCV1000", "items": 216, "flow": true,
         "part": "XCV1000", "spec": "XCV1000",
         "results": [
           {"engine": "scalar", "place_s": 0.78, "route_s": 0.75, ...},
           {"engine": "array", "place_s": 0.62, "route_s": 0.59, ...}
         ]},
        ...
      ]
    }

**Gate policy.**  Byte-identity across every backend and temperature, and
site/PIP identity across flow engines and repeats, are always checked
(speed means nothing if the results differ).  The timing gate enforces
only with ``cpu_count() >= 4`` (or ``--enforce``); starved runners
and ``--no-enforce`` report timing only (``"enforced": false``), while
an identity failure still exits 1:

* small: the pooled warm backend within ``--tolerance`` of serial, cold
  and warm;
* xcv1000: the warm backend's warm time must beat serial's warm time
  outright — the reason the warm pool exists;
* flow: the array engine's place+route time must be <= 1.00x the scalar
  engine's on the scale design — the reason the array engine exists;
* cluster: the 3-node fleet's warm throughput must beat the single
  node's warm throughput outright, and no replayed request may be lost
  — the reason the cluster exists.

Usage::

    PYTHONPATH=src python tools/perf_gate.py
        [--workload small|xcv1000|flow|cluster|all]
        [--out BENCH_10.json] [--repeats 3] [--tolerance 1.25]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, _ROOT)  # the scalar flow oracle lives under tests/

from repro.batch import BatchJpg, items_from_project  # noqa: E402
from repro.devices import get_device  # noqa: E402
from repro.exec import BACKEND_NAMES  # noqa: E402
from repro.flow import run_flow  # noqa: E402
from repro.workloads import figure4_plan, flow_cases, make_project, scale_plan  # noqa: E402
from tests.flow.scalar_ref import scalar_engines  # noqa: E402

ENFORCE_MIN_CPUS = 4

WORKLOAD_NAMES = ("small", "xcv1000", "flow", "cluster")


def build_workload(name: str, args: argparse.Namespace):
    """(label, project) for one workload axis."""
    if name == "small":
        project = make_project(
            "fig4", args.part, figure4_plan(args.part), seed=args.seed
        )
        return f"fig4-{args.part}-10-partials", project
    plans = scale_plan("XCV1000", regions=12, variants=9)
    project = make_project("scale", "XCV1000", plans, seed=args.seed)
    n = sum(len(p.variants) for p in plans)
    return f"scale-XCV1000-{n}-partials", project


def _run(engine, items) -> tuple[float, dict, int]:
    """One timed engine.run: (seconds, partial bytes by name, frame count)."""
    t0 = time.perf_counter()
    report = engine.run(items)
    elapsed = time.perf_counter() - t0
    if not report.ok:
        raise SystemExit(
            f"perf gate: {engine.backend.name} backend failed: "
            f"{[f.error for f in report.failures]}"
        )
    partials = {k: v.data for k, v in report.partials().items()}
    frames = sum(len(r.result.frames) for r in report.results)
    return elapsed, partials, frames


def time_backend(project, backend: str, *, repeats: int) -> dict:
    """Cold and warm best-of-``repeats`` wall-clock for one backend.

    Cold builds a fresh engine per repeat, so every run pays its own pool
    start-up and base-bitstream init.  Warm keeps one engine, primes it
    with an untimed run, then times ``repeats`` more — pool hot, caches
    seeded: the resident-service steady state.
    """
    items = items_from_project(project)

    def fresh_engine():
        return BatchJpg(
            project.part,
            project.base_bitfile,
            base_design=project.base_flow.design,
            backend=backend,
        )

    cold = None
    partials = None
    frames = 0
    for _ in range(repeats):
        engine = fresh_engine()
        try:
            elapsed, partials, frames = _run(engine, items)
        finally:
            engine.close()
        cold = elapsed if cold is None else min(cold, elapsed)

    warm = None
    engine = fresh_engine()
    try:
        _run(engine, items)                      # priming run, untimed
        for _ in range(repeats):
            elapsed, warm_partials, _ = _run(engine, items)
            warm = elapsed if warm is None else min(warm, elapsed)
    finally:
        engine.close()

    return {
        "backend": backend,
        "cold_s": round(cold, 4),
        "warm_s": round(warm, 4),
        "frames": frames,
        "frames_per_s": round(frames / warm, 1),
        # stripped before writing; used for the byte-identity check
        "partials": {"cold": partials, "warm": warm_partials},
    }


def flow_signature(design) -> tuple:
    """Everything seeded flow determinism promises: sites and routing."""
    return (
        tuple(sorted((n, c.site) for n, c in design.slices.items())),
        tuple(sorted((n, str(c.site)) for n, c in design.iobs.items())),
        tuple(
            sorted(
                (net.name, tuple(sorted(net.pips)))
                for net in design.nets.values()
            )
        ),
    )


def time_flow_engine(case, engine: str, *, repeats: int, seed: int):
    """Best-of-``repeats`` per-phase times for one flow engine.

    Returns ``(row, signature, items)``; ``row`` is None if two repeats
    disagreed (seeded determinism broken — an unconditional failure).
    """
    label, part, netlist, constraints = case
    best = None
    sig = None
    items = 0
    for _ in range(repeats):
        if engine == "scalar":
            with scalar_engines():
                res = run_flow(netlist, part, constraints, seed=seed)
        else:
            res = run_flow(netlist, part, constraints, seed=seed)
        this_sig = flow_signature(res.design)
        if sig is None:
            sig = this_sig
            items = len(res.design.slices) + len(res.design.iobs)
        elif this_sig != sig:
            print(
                f"perf gate: FAIL — flow-{label}: {engine} engine is not "
                f"deterministic across repeats with a fixed seed"
            )
            return None, None, 0
        t = res.phase_seconds
        row = {
            "engine": engine,
            "place_s": round(t["place"], 4),
            "route_s": round(t["route"], 4),
            "pnr_s": round(t["place"] + t["route"], 4),
            "total_s": round(res.total_seconds, 4),
        }
        if best is None or row["pnr_s"] < best["pnr_s"]:
            best = row
    return best, sig, items


def run_flow_axis(args) -> tuple[list[dict] | None, list[str]]:
    """Time every flow case on both engines; (entries, gate problems).

    Entries is None when a hard check failed: an engine placed/routed
    differently across repeats, or the two engines disagreed (they must
    be result-identical for a given seed).
    """
    entries = []
    problems = []
    for case in flow_cases():
        label = f"flow-{case[0]}"
        print(f"perf gate: {label}")
        rows, sigs = [], {}
        items = 0
        for engine in ("scalar", "array"):
            row, sig, n = time_flow_engine(
                case, engine, repeats=args.repeats, seed=args.seed
            )
            if row is None:
                return None, []
            rows.append(row)
            sigs[engine] = sig
            items = n
            print(f"  {engine:<8} place {row['place_s']:>8.3f} s   "
                  f"route {row['route_s']:>8.3f} s   "
                  f"p+r {row['pnr_s']:>8.3f} s")
        if sigs["scalar"] != sigs["array"]:
            print(
                f"perf gate: FAIL — {label}: array engine's placement/routing "
                f"diverges from scalar (they must be result-identical)"
            )
            return None, []
        by_engine = {r["engine"]: r for r in rows}
        if case[0].startswith("scale"):
            ratio = by_engine["array"]["pnr_s"] / by_engine["scalar"]["pnr_s"]
            if ratio > 1.0:
                problems.append(
                    f"{label}: array engine place+route is {ratio:.2f}x scalar "
                    f"(it must be <= 1.00x)"
                )
        entries.append(
            {"workload": label, "items": items, "flow": True,
             "part": case[1], "spec": get_device(case[1]).spec.name,
             "results": rows}
        )
    return entries, problems


def run_cluster_axis(args) -> tuple[dict | None, list[str]]:
    """Run the serve/cluster axis; (entry, gate problems).

    Entry is None when a hard check failed: served bytes diverged from
    direct generation, or the replay lost requests (both unconditional,
    like byte identity on the batch axes).  The timing problem — the
    fleet's warm throughput not beating the single node's — is enforced
    only on machines with enough cores to give the fleet a chance.
    """
    from repro.cluster.loadgen import run_harness  # noqa: E402

    harness = run_harness(
        workload="demo",
        keys=args.cluster_keys,
        requests=args.cluster_requests,
        concurrency=args.cluster_concurrency,
        nodes=args.cluster_nodes,
        seed=args.seed,
        single_node=True,
        progress=lambda msg: print(f"  {msg}"),
    )
    verify = harness["verify"]
    if not verify.get("ok"):
        print(
            f"perf gate: FAIL — cluster: served bytes diverge from direct "
            f"generation ({verify}); speed means nothing if the bytes differ"
        )
        return None, []
    lost = sum(e["errors"] for e in harness["results"])
    if lost:
        print(f"perf gate: FAIL — cluster: {lost} request(s) lost in replay "
              f"(zero-loss is unconditional)")
        return None, []
    by_target = {e["target"]: e for e in harness["results"]}
    problems = []
    single = by_target.get("single-warm")
    clustered = by_target.get(f"cluster{args.cluster_nodes}-warm")
    if single and clustered and clustered["rps"] <= single["rps"]:
        ratio = clustered["rps"] / single["rps"]
        problems.append(
            f"cluster: {args.cluster_nodes}-node warm throughput is "
            f"{ratio:.2f}x single-node ({clustered['rps']:.0f} vs "
            f"{single['rps']:.0f} rps; it must be > 1.00x)"
        )
    entry = {
        "workload": f"cluster-demo-{args.cluster_nodes}n",
        "items": harness["keys"],
        "cluster": True,
        "part": harness["part"],
        "spec": get_device(harness["part"]).spec.name,
        "nodes": harness["nodes"],
        "requests": harness["requests"],
        "concurrency": harness["concurrency"],
        "skew": harness["skew"],
        "results": harness["results"],
        "verify": verify,
    }
    return entry, problems


def check_identity(workload: str, results: list[dict]) -> bool:
    """Every backend and temperature must emit serial's exact bytes."""
    reference = results[0]["partials"]["cold"]
    for row in results:
        for temp in ("cold", "warm"):
            if row["partials"][temp] != reference:
                print(
                    f"perf gate: FAIL — {workload}: {row['backend']}/{temp} "
                    f"output diverges from serial (speed means nothing if "
                    f"the bytes differ)"
                )
                return False
    return True


def gate_violations(name: str, results: list[dict], tolerance: float) -> list[str]:
    """Timing-policy violations for one workload (empty = pass)."""
    by_name = {row["backend"]: row for row in results}
    serial = by_name["serial"]
    problems = []
    if name == "small":
        for temp in ("cold_s", "warm_s"):
            ratio = by_name["warm"][temp] / serial[temp]
            if ratio > tolerance:
                problems.append(
                    f"small: warm {temp[:-2]} is {ratio:.2f}x serial "
                    f"(tolerance {tolerance:.2f}x)"
                )
    else:
        if by_name["warm"]["warm_s"] > serial["warm_s"]:
            ratio = by_name["warm"]["warm_s"] / serial["warm_s"]
            problems.append(
                f"xcv1000: warm backend does not beat serial warm "
                f"({ratio:.2f}x; it must be <= 1.00x)"
            )
    return problems


def run_gate(args: argparse.Namespace) -> int:
    cpus = os.cpu_count() or 1
    enforced = args.enforce or (args.enforce is None and cpus >= ENFORCE_MIN_CPUS)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    verdict = 0
    workloads = []
    for name in names:
        if name == "flow":
            print(f"perf gate: flow engines on {cpus} cpu(s), "
                  f"{'enforcing' if enforced else 'report-only'}")
            entries, problems = run_flow_axis(args)
            if entries is None:
                return 1
            for line in problems:
                if enforced:
                    print(f"perf gate: FAIL — {line}")
                    verdict = 1
                else:
                    print(f"perf gate: note — {line}; "
                          f"not enforced on {cpus} cpu(s)")
            workloads.extend(entries)
            continue
        if name == "cluster":
            print(f"perf gate: cluster fleet on {cpus} cpu(s), "
                  f"{'enforcing' if enforced else 'report-only'}")
            entry, problems = run_cluster_axis(args)
            if entry is None:
                return 1
            for row in entry["results"]:
                hit = row["hit_disk"] + row["hit_peer"]
                print(f"  {row['target']:<14} {row['rps']:>8.1f} rps   "
                      f"p50 {row['p50_ms']:>7.2f} ms   "
                      f"p95 {row['p95_ms']:>7.2f} ms   "
                      f"cache hit {hit:>4.0%}")
            for line in problems:
                if enforced:
                    print(f"perf gate: FAIL — {line}")
                    verdict = 1
                else:
                    print(f"perf gate: note — {line}; "
                          f"not enforced on {cpus} cpu(s)")
            workloads.append(entry)
            continue
        label, project = build_workload(name, args)
        items = len(items_from_project(project))
        print(f"perf gate: {label} on {cpus} cpu(s), "
              f"{'enforcing' if enforced else 'report-only'}")
        results = [
            time_backend(project, backend, repeats=args.repeats)
            for backend in BACKEND_NAMES
        ]
        if not check_identity(label, results):
            return 1
        for row in results:
            del row["partials"]
            print(f"  {row['backend']:<8} cold {row['cold_s']:>8.3f} s   "
                  f"warm {row['warm_s']:>8.3f} s  "
                  f"{row['frames_per_s']:>10.1f} frames/s")
        for line in gate_violations(name, results, args.tolerance):
            if enforced:
                print(f"perf gate: FAIL — {line}")
                verdict = 1
            else:
                print(f"perf gate: note — {line}; not enforced on {cpus} cpu(s)")
        workloads.append({
            "workload": label, "items": items,
            "part": project.part, "spec": get_device(project.part).spec.name,
            "results": results,
        })

    report = {
        "cpu_count": cpus,
        "enforced": enforced,
        "tolerance": args.tolerance,
        "repeats": args.repeats,
        "workloads": workloads,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"perf gate: wrote {args.out}")
    return verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all",
                        help="which workload axis to run (default: %(default)s)")
    parser.add_argument("--out", default="BENCH_10.json",
                        help="report path (default: %(default)s)")
    parser.add_argument("--part", default="XCV100",
                        help="device for the small workload")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per backend and temperature; best-of wins")
    parser.add_argument("--tolerance", type=float, default=1.25,
                        help="max pooled/serial wall-clock ratio on the "
                             "small workload")
    parser.add_argument("--cluster-keys", type=int, default=16,
                        help="distinct keys in the cluster replay stream")
    parser.add_argument("--cluster-requests", type=int, default=300,
                        help="requests per cluster replay pass")
    parser.add_argument("--cluster-concurrency", type=int, default=4,
                        help="concurrent replay clients on the cluster axis")
    parser.add_argument("--cluster-nodes", type=int, default=3,
                        help="worker nodes in the spawned fleet")
    enforce = parser.add_mutually_exclusive_group()
    enforce.add_argument("--enforce", dest="enforce", action="store_true",
                         default=None, help="enforce regardless of CPU count")
    enforce.add_argument("--no-enforce", dest="enforce", action="store_false",
                         help="report timing only (identity failures "
                              "still exit 1)")
    return run_gate(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
