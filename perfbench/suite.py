"""The benchmark's workloads: set-up, measurement rounds, correctness.

Every workload measures the same three things against its own module
library, so that every end-to-end metric is measured on every workload:

* **batch** -- ``BatchJpg(backend="serial")`` over the library: cold
  passes (a fresh engine after ``clear_parse_cache()``) and warm passes
  (one long-lived engine);
* **serve** -- open-loop, zipf-skewed submits of warm keys to one
  ``jpg serve --tcp`` node at two fixed rates (``low``, ``high``) and a
  short ladder of higher rates for goodput;
* **edit** -- one designer in a closed loop: a seeded, interface-preserving
  edit of one region's module under a fresh name, guided ``run_flow``,
  ``write_xdl`` and a submit that misses the node's disk cache.

The host these numbers come from is a shared virtual machine whose speed
swings by up to 2x for seconds to minutes at a time, while its
uninterrupted speed holds steady.  So a run is a series of *rounds* that
spread each kind of work over the whole run, and the time metrics are
taken from the uninterrupted moments where the work repeats exactly: the
fastest run of each batch item, the calmest stretches of serve traffic,
and the best pass of each ladder rate.  A change that slows the program
slows those too.  Edits never repeat, so their metrics are plain
percentiles over the run.

Outputs are checked against direct, cache-less generation
(``Jpg.make_partial`` on ``parse_xdl`` output, no frame cache); any
mismatch is a failed operation.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import loadgen
from node import Node
from repro.batch.engine import BatchJpg, items_from_project
from repro.core.jpg import Jpg
from repro.flow import driver
from repro.jbits.api import JBits
from repro.serve import ServeClient, protocol
from repro.ucf.parser import UcfFile, parse_ucf, write_ucf
from repro.workloads import ModuleSpec, figure4_plan, generators, make_project, scale_plan
from repro.xdl import writer
from repro.xdl.parser import clear_parse_cache, parse_xdl

#: Flow seed of the library and of every edit: the benchmark seed varies
#: the traffic and the edits, not the placement of one fixed design.
FLOW_SEED = 0

#: A serve window passes when its p99, from due to decoded, is at most this.
LATENCY_LIMIT_S = 0.050

#: Zipf exponent of key popularity.
SKEW = 1.1


@dataclass(frozen=True)
class Workload:
    """Fixed parameters of one workload (recorded in README.md)."""

    part: str
    plan: str                     # "scale" (XCV1000 12x9) or "fig4" (XCV100)
    keys: int                     # salted serve keys over the library
    low_rps: float
    high_rps: float
    setup_reps: int               # set-ups per run; setup_s is their median
    edits_per_round: int
    rounds: int = 8               # at least; more while --seconds lasts
    batch_seconds: float = 0.1    # cold, then warm passes, each at least this long per round
    window: int = 1000            # requests per serve window
    ladder: tuple[float, ...] = ()  # goodput rates above ``high``
    quality_edits: int = 12       # distinct edits, repeated in turn
    sample_keys: int = 6          # served keys re-generated directly per run


WORKLOADS = {
    "batch-scale": Workload("XCV1000", "scale", keys=216, low_rps=200, high_rps=300,
                            ladder=(450, 600),
                            setup_reps=2, edits_per_round=8, rounds=6),
    "serve-hot": Workload("XCV100", "fig4", keys=300, low_rps=300, high_rps=600,
                          ladder=(900, 1200),
                          setup_reps=3, edits_per_round=30, rounds=10),
}

#: Smoke mode: same code, tiny sizes (the benchmark's own tests).
SMOKE = {
    "batch-scale": Workload("XCV1000", "scale-smoke", keys=8, low_rps=20, high_rps=40,
                            setup_reps=2, edits_per_round=2, rounds=2, batch_seconds=0.0,
                            window=20, ladder=(60,), quality_edits=2, sample_keys=2),
    "serve-hot": Workload("XCV100", "fig4", keys=12, low_rps=20, high_rps=40,
                          setup_reps=2, edits_per_round=4, rounds=2, batch_seconds=0.0,
                          window=20, ladder=(60,), quality_edits=2, sample_keys=2),
}


def _plans(plan: str):
    if plan == "scale":
        return scale_plan("XCV1000", regions=12, variants=9)
    if plan == "scale-smoke":
        return scale_plan("XCV1000", regions=2, variants=2)
    return figure4_plan("XCV100")


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _calmest(windows: list[list[float]], size: int) -> list[float]:
    """The latencies of the four calmest stretches of ``size`` consecutive
    requests (lowest p99) among ``windows``: one window's worth, taken from
    the moments the shared host left the node and the benchmark alone."""
    stretches = [w[i:i + size] for w in windows for i in range(0, len(w) - size + 1, size)]
    stretches.sort(key=lambda s: _quantile(s, 99))
    return [x for s in stretches[:4] for x in s]


class Failures:
    """Failed operations of one run, with the first few reasons."""

    def __init__(self) -> None:
        self.count = 0
        self.reasons: list[str] = []

    def add(self, reason: str) -> None:
        self.count += 1
        if len(self.reasons) < 8:
            self.reasons.append(reason)


@dataclass
class Env:
    """One set-up: the library, its running node and the serve keys."""

    wl: Workload
    project: object
    node: Node
    keys: list[dict]
    failures: Failures
    base_frames: object = None
    full_size: int = 0
    #: every submit this process sent to the node, in order (for the
    #: traced run's wire/queue/service split)
    sent: list[dict] = field(default_factory=list)
    key_sha: dict = field(default_factory=dict)
    #: context the correctness checks run in (the traced run pauses spans)
    quiet: Callable = contextlib.nullcontext

    def direct(self, xdl: str, region, ucf: str) -> bytes:
        """Direct, cache-less generation: a fresh ``Jpg`` on the base
        frames, no frame cache, XDL parsed by ``parse_xdl``."""
        with self.quiet():
            jpg = Jpg(self.wl.part, self.base_frames,
                      base_design=self.project.base_flow.design, full_size=self.full_size)
            return jpg.make_partial(parse_xdl(xdl), region=region, ucf=parse_ucf(ucf)).data


def set_up(wl: Workload, root: str, workdir: str, trace: bool, failures: Failures) -> Env:
    """Build the library (guided flows), start its node, warm every key."""
    os.makedirs(workdir, exist_ok=True)
    project = make_project("bench", wl.part, _plans(wl.plan), seed=FLOW_SEED)
    base, ncd = os.path.join(workdir, "base.bit"), os.path.join(workdir, "base.ncd")
    project.base_bitfile.save(base)
    project.base_flow.design.save(ncd)
    node = Node(root, os.path.join(workdir, "node"), wl.part, base, ncd,
                workers=os.cpu_count() or 1, max_queue=4 * wl.window, trace=trace)
    versions = [(r, v, mv) for (r, v), mv in sorted(project.versions.items()) if v != "base"]
    keys = []
    for i in range(wl.keys):
        region, version, mv = versions[i % len(versions)]
        keys.append({"name": f"{region}/{version}#k{i}", "xdl": mv.xdl, "ucf": mv.ucf,
                     "region": project.regions[region].to_ucf()})
    env = Env(wl, project, node, keys, failures)
    try:
        with ServeClient(node.address, timeout=120.0) as client:
            for i, key in enumerate(keys):
                t0 = time.perf_counter()
                resp = client.submit(key["name"], key["xdl"], ucf=key["ucf"],
                                     region=key["region"])
                env.sent.append({"name": key["name"], "rtt": time.perf_counter() - t0,
                                 "kind": "warm"})
                if not resp.get("ok"):
                    failures.add(f"warm {key['name']}: {resp.get('error')}")
                    continue
                env.key_sha[i] = hashlib.sha256(protocol.decode_partial(resp)).hexdigest()
    except BaseException:
        node.kill()
        raise
    return env


# -- batch ----------------------------------------------------------------------


class Batch:
    """Cold and warm batch passes; every partial of every pass is compared
    with direct generation.

    The host is shared, so a pass rarely runs uninterrupted.  Its
    uninterrupted time is estimated from the fastest run of each item
    across the passes (items repeat exactly from pass to pass), plus, for
    a cold pass, the fastest engine construction."""

    def __init__(self, env: Env):
        self.env = env
        self.items = items_from_project(env.project)
        self.expected = [env.direct(it.module, it.region, it.ucf) for it in self.items]
        self.warm_engine = self._engine()
        self.warm: list[list[float]] = []
        self.cold: list[list[float]] = []
        self.construct: list[float] = []
        self.attempted = 0
        self._run(self.warm_engine)                     # fill its caches

    def _engine(self) -> BatchJpg:
        p = self.env.project
        return BatchJpg(self.env.wl.part, p.base_bitfile, p.base_flow.design,
                        backend="serial")

    def _run(self, engine: BatchJpg) -> list[float]:
        report = engine.run(self.items)
        self.attempted += len(self.items)
        for res, want in zip(report.results, self.expected):
            if not res.ok:
                self.env.failures.add(f"batch {res.item.name}: {res.error}")
            elif res.result.data != want:
                self.env.failures.add(f"batch {res.item.name}: bytes differ from direct "
                                      "generation")
        return [res.seconds for res in report.results]

    def round(self, seconds: float) -> None:
        """Cold passes, then warm passes, each kind at least once and for at
        least ``seconds``.  A cold pass leaves the parse cache as a warm
        pass would."""
        end = time.perf_counter() + seconds
        while not self.cold or time.perf_counter() < end:
            clear_parse_cache()
            t0 = time.perf_counter()
            engine = self._engine()
            self.construct.append(time.perf_counter() - t0)
            self.cold.append(self._run(engine))
            if time.perf_counter() >= end:
                break
        end = time.perf_counter() + seconds
        while True:
            self.warm.append(self._run(self.warm_engine))
            if time.perf_counter() >= end:
                break

    def metrics(self) -> dict:
        def fastest(passes: list[list[float]]) -> float:
            return sum(min(times) for times in zip(*passes))

        return {"batch_partials_per_s": len(self.items) / fastest(self.warm),
                "batch_cold_s": min(self.construct) + fastest(self.cold)}


# -- serve ----------------------------------------------------------------------


class Serve:
    """Open-loop windows against the node, and the goodput ladder."""

    def __init__(self, env: Env, rng: np.random.Generator):
        self.env = env
        self.rng = rng
        self.bodies = [loadgen.submit_body(k) for k in env.keys]
        self.windows: dict[str, list[dict]] = {"low": [], "high": []}
        #: rate -> the best throughput achieved by one of its windows that
        #: met the latency limit without a backlog
        self.passed: dict[float, float] = {}
        self.attempted = 0

    def window(self, rate: float, n: int) -> dict:
        """One window of ``n`` requests arriving at ``rate`` per second."""
        env, wl = self.env, self.env.wl
        keys = loadgen.zipf_keys(len(env.keys), n, self.rng, SKEW)
        due = loadgen.fixed_rate_schedule(rate, n)
        records, backlog = loadgen.run_open_loop(env.node.address, self.bodies, keys, due,
                                                 max_outstanding=wl.window)
        self.attempted += len(records)
        lat, last_done = [], 0.0
        for rec in records:
            env.sent.append({"name": env.keys[rec["key"]]["name"], "kind": "load",
                             "rtt": rec.get("recv", rec["sent"]) - rec["sent"],
                             "lag": rec["sent"] - rec["due"]})
            if not rec["ok"]:
                env.failures.add(f"serve {env.keys[rec['key']]['name']}: "
                                 f"{rec.get('code', 'no reply')}")
                lat.append(float("inf"))
                continue
            lat.append(rec["done"] - rec["due"])
            last_done = max(last_done, rec["done"])
            seen = env.key_sha.setdefault(rec["key"], rec["sha"])
            if seen != rec["sha"]:
                env.failures.add(f"serve {env.keys[rec['key']]['name']}: sha differs "
                                 "between replies")
        # the node kept up when the replies finished about when the
        # arrivals did; a growing backlog stretches them out
        kept_up = (len(records) == n and not backlog
                   and last_done - records[0]["due"] <= (due[-1] - due[0]) / 0.9)
        p99 = _quantile(lat, 99)
        return {"rate": rate, "latency": lat,
                "achieved": len(records) / (last_done - records[0]["due"] + 1 / rate),
                "ok": kept_up and p99 <= LATENCY_LIMIT_S}

    def round(self, label: str) -> None:
        """A window at the ``label`` rate, then the ladder rates above
        ``high`` that have not passed yet, in rising order, up to the first
        that fails."""
        wl = self.env.wl
        rate = wl.low_rps if label == "low" else wl.high_rps
        w = self.window(rate, wl.window)
        self.windows[label].append(w)
        self._passed(w)
        if wl.high_rps not in self.passed:
            return
        for rate in wl.ladder:
            if rate not in self.passed and not self._passed(self.window(rate, wl.window // 2)):
                break

    def _passed(self, w: dict) -> bool:
        if w["ok"]:
            self.passed[w["rate"]] = max(self.passed.get(w["rate"], 0.0), w["achieved"])
        return w["ok"]

    def metrics(self) -> dict:
        out = {}
        for label, ws in self.windows.items():
            calm = _calmest([w["latency"] for w in ws], self.env.wl.window // 4)
            out[f"serve_p50_ms.{label}"] = 1e3 * _quantile(calm, 50)
            out[f"serve_p99_ms.{label}"] = 1e3 * _quantile(calm, 99)
        out["serve_goodput_rps"] = self.passed[max(self.passed)] if self.passed else 0.0
        return out

    def check(self) -> None:
        """A seeded sample of served keys must match direct generation."""
        env = self.env
        picked = self.rng.choice(sorted(env.key_sha), replace=False,
                                 size=min(env.wl.sample_keys, len(env.key_sha)))
        for i in picked.tolist():
            key = env.keys[i]
            region = env.project.regions[key["name"].split("/")[0]]
            want = hashlib.sha256(env.direct(key["xdl"], region, key["ucf"])).hexdigest()
            if env.key_sha[i] != want:
                env.failures.add(f"serve {key['name']}: bytes differ from direct generation")


# -- edit -----------------------------------------------------------------------


def _edit_spec(base: ModuleSpec, rng: np.random.Generator) -> ModuleSpec:
    """A random interface-preserving variant of ``base``'s kind."""
    if base.kind == "counter":
        return ModuleSpec("counter", base.width, f"step{int(rng.integers(1, 16))}")
    if base.kind == "lfsr":
        taps = sorted(generators.LfsrGen.TAPS)
        return ModuleSpec("lfsr", base.width, taps[int(rng.integers(len(taps)))])
    pattern = format(int(rng.integers(1 << base.width)), f"0{base.width}b")
    return ModuleSpec("matcher", base.width, pattern)


class Edit:
    """Closed-loop edit -> flow -> XDL -> submit -> bytes, one designer.

    The designer works through a fixed list of ``quality_edits`` edits,
    regions taking turns, and starts over when it is done; every step
    names the module afresh, so every submit misses the node's disk
    cache.  Repeating an edit repeats its work exactly, so its fastest run
    is its uninterrupted time."""

    def __init__(self, env: Env):
        self.env = env
        plans = {p.name: p for p in _plans(env.wl.plan)}
        regions = sorted(plans)
        rng = np.random.default_rng(0)
        self.edits = [(regions[i % len(regions)], _edit_spec(
            plans[regions[i % len(regions)]].base_spec, rng))
            for i in range(env.wl.quality_edits)]
        self.done: list[dict] = []
        self.client = ServeClient(env.node.address, timeout=120.0)

    def step(self) -> None:
        env, n = self.env, len(self.done)
        which = n % len(self.edits)
        region, spec = self.edits[which]
        name = f"{region}_edit{which}_{n}"
        cons = env.project.constraints(only_region=region)
        t0 = time.perf_counter()
        netlist = generators.build_module_netlist(name, region, spec)
        flow = driver.run_flow(netlist, env.wl.part, cons,
                               guide=env.project.base_flow.design, seed=FLOW_SEED)
        xdl = writer.write_xdl(flow.design)
        ucf = write_ucf(UcfFile(cons))
        t1 = time.perf_counter()
        resp = self.client.submit(name, xdl, ucf=ucf,
                                  region=env.project.regions[region].to_ucf())
        env.sent.append({"name": name, "rtt": time.perf_counter() - t1, "kind": "edit"})
        data = protocol.decode_partial(resp) if resp.get("ok") else None
        seconds = time.perf_counter() - t0
        if data is None:
            env.failures.add(f"edit {name}: {resp.get('error')}")
        elif resp.get("source") != "generated":
            env.failures.add(f"edit {name}: served from {resp.get('source')}, not generated")
        self.done.append({"which": which, "region": region, "xdl": xdl, "ucf": ucf,
                          "data": data, "seconds": seconds, "fmax": flow.timing.fmax_mhz})

    def round(self) -> None:
        for _ in range(self.env.wl.edits_per_round):
            self.step()

    def metrics(self) -> dict:
        fastest: dict[int, float] = {}
        for e in self.done:
            fastest[e["which"]] = min(fastest.get(e["which"], e["seconds"]), e["seconds"])
        first = self.done[:len(self.edits)]
        return {"edit_p50_ms": 1e3 * statistics.median(fastest.values()),
                "edit_p95_ms": 1e3 * _quantile([e["seconds"] for e in self.done], 95),
                "edit_partial_kb": statistics.mean(
                    len(e["data"]) / 1024 for e in first if e["data"] is not None),
                "edit_fmax_mhz": statistics.mean(e["fmax"] for e in first)}

    def check(self) -> None:
        """Every reply must equal direct generation of the edit's XDL."""
        self.client.close()
        for e in self.done:
            if e["data"] is not None and e["data"] != self.env.direct(
                    e["xdl"], self.env.project.regions[e["region"]], e["ucf"]):
                self.env.failures.add(f"edit in {e['region']}: bytes differ from direct "
                                      "generation")


# -- one pass -------------------------------------------------------------------


def run_pass(wl: Workload, *, seed: int, seconds: float, root: str, workdir: str,
             trace: bool, setup_reps: int, rounds: int,
             quiet: Callable = contextlib.nullcontext) -> dict:
    """Set up ``setup_reps`` times (keeping the last), then measure for at
    least ``rounds`` rounds and ``seconds``.  Returns metrics, counts,
    failures, the set-up and the node's final ``stats``."""
    failures = Failures()
    setups = []
    env = None
    for rep in range(setup_reps):
        t0 = time.perf_counter()
        env = set_up(wl, root, os.path.join(workdir, f"setup{rep}"), trace, failures)
        setups.append(time.perf_counter() - t0)
        if rep < setup_reps - 1:
            env.node.stop()
    assert env is not None
    try:
        env.quiet = quiet
        jb = JBits(wl.part)
        jb.read(env.project.base_bitfile)
        env.base_frames, env.full_size = jb.frames, len(jb.write())
        rng = np.random.default_rng(seed)
        batch, serve, edit = Batch(env), Serve(env, rng), Edit(env)
        # the library stays alive for the whole run: keep the collector
        # from walking it again in every measured pass
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        done = 0
        while done < rounds or time.perf_counter() - start < seconds:
            serve.round("low" if done % 2 == 0 else "high")
            batch.round(wl.batch_seconds)
            edit.round()
            done += 1
        metrics = {**batch.metrics(), **serve.metrics(), **edit.metrics()}
        serve.check()
        edit.check()
        node_rss = env.node.peak_rss_mb()
        with ServeClient(env.node.address) as client:
            stats = client.stats()["stats"]
    finally:
        gc.unfreeze()
        env.node.stop()
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = own_rss + node_rss
    return {"metrics": metrics, "failures": failures, "env": env, "stats": stats,
            "attempted": batch.attempted + serve.attempted + len(edit.done)}
