"""BATCH — sequential vs. batched generation of the Figure-4 manifest.

The paper's §4.1 scenario needs 10 partial bitstreams against one base.
Driving ``Jpg.make_partial`` once per module re-parses the base bitstream,
re-measures the complete stream, and re-clears each region every time;
the batch engine (:mod:`repro.batch`) does each of those once and shares
cleared-region frames through a content-keyed cache.

Claims measured here:
* batched output is **byte-identical** to 10 sequential runs — and
  identical across every execution backend (serial, warm);
* the frame cache hits for every repeated region footprint
  (7 hits / 3 misses over the 3x(3,3,4) manifest);
* batching wins wall-clock over sequential generation;
* the warm pool's wall clock against serial on 108 XCV1000 partials,
  cold and warm (print-only: the runners this records on have 1-2
  vCPUs, too few for a speed assertion to mean anything).

``pytest benchmarks/bench_batch.py --benchmark-only`` times both flows.
"""

import time

import pytest

from repro.batch import BatchJpg, FrameCache, items_from_project
from repro.core import Jpg
from repro.exec import BACKEND_NAMES
from repro.obs import Metrics
from repro.ucf.parser import parse_ucf
from repro.workloads import make_project, scale_plan
from repro.xdl.parser import parse_xdl


def generate_sequential(project):
    """The baseline: one fresh Jpg + make_partial per module version."""
    out = {}
    for (region, version), mv in project.versions.items():
        if version == "base":
            continue
        jpg = Jpg(project.part, project.base_bitfile, base_design=project.base_flow.design)
        out[f"{region}/{version}"] = jpg.make_partial(
            parse_xdl(mv.xdl),
            region=project.regions[region],
            ucf=parse_ucf(mv.ucf),
        )
    return out


def generate_batched(project, *, max_workers=None, backend="serial"):
    engine = BatchJpg(
        project.part,
        project.base_bitfile,
        base_design=project.base_flow.design,
        cache=FrameCache(),
        metrics=Metrics(keep_events=False),
        max_workers=max_workers,
        backend=backend,
    )
    try:
        report = engine.run(items_from_project(project))
    finally:
        engine.close()
    assert report.ok, [r.error for r in report.failures]
    return report


@pytest.fixture(scope="module")
def scale_project():
    """12 slab regions x 9 variants on an XCV1000: 108 partials."""
    plans = scale_plan("XCV1000", regions=12, variants=9)
    return make_project("scale", "XCV1000", plans, seed=5)


class TestEquivalence:
    def test_batch_matches_sequential_bytes(self, fig4_project):
        """Every batched partial must be byte-identical to its sequential
        twin — caching and concurrency change cost, never content."""
        sequential = generate_sequential(fig4_project)
        report = generate_batched(fig4_project)
        batched = report.partials()
        assert set(batched) == set(sequential)
        for name, partial in batched.items():
            assert partial.data == sequential[name].data, name
            assert partial.frames == sequential[name].frames, name

    def test_cache_hits_on_repeated_regions(self, fig4_project):
        """3 regions x (3,3,4) versions: one clear per region is computed,
        the other 7 generations reuse it."""
        report = generate_batched(fig4_project)
        stats = report.cache_stats
        assert stats.misses == 3
        assert stats.hits == 7
        assert stats.hit_rate > 0.5
        assert report.plan.expected_cache_hits == stats.hits

    def test_batch_deterministic_across_worker_counts(self, fig4_project):
        one = generate_batched(fig4_project, max_workers=1, backend="warm").partials()
        many = generate_batched(fig4_project, max_workers=2, backend="warm").partials()
        assert {k: v.data for k, v in one.items()} == {k: v.data for k, v in many.items()}

    def test_backends_byte_identical(self, fig4_project):
        """The backend axis never changes the bytes: serial and warm runs
        of the manifest emit the same partials."""
        outputs = {
            backend: {
                k: v.data
                for k, v in generate_batched(
                    fig4_project, backend=backend
                ).partials().items()
            }
            for backend in BACKEND_NAMES
        }
        for backend in BACKEND_NAMES:
            assert outputs[backend] == outputs["serial"], backend


class TestWallClock:
    def test_batch_beats_sequential(self, fig4_project):
        """Record the wall-clock win (shared base parse + full-stream
        measurement + cached clears; workers only add on top)."""
        t0 = time.perf_counter()
        sequential = generate_sequential(fig4_project)
        t_seq = time.perf_counter() - t0

        t0 = time.perf_counter()
        report = generate_batched(fig4_project)
        t_batch = time.perf_counter() - t0

        print(f"\nsequential: {t_seq:.3f} s for {len(sequential)} partials")
        print(f"batched:    {t_batch:.3f} s ({t_seq / t_batch:.1f}x) — "
              f"{report.cache_stats.hits} cache hits")
        print(report.table())
        assert t_batch < t_seq

    def test_warm_pool_vs_serial_at_scale(self, scale_project):
        """Record serial vs warm on 108 XCV1000 partials: one cold run on
        a fresh engine (pool start-up included) and the best of three
        runs on a primed engine.  Reports, never asserts, speed."""
        items = items_from_project(scale_project)

        def engine(backend):
            return BatchJpg(scale_project.part, scale_project.base_bitfile,
                            base_design=scale_project.base_flow.design,
                            backend=backend)

        def timed_run(eng):
            t0 = time.perf_counter()
            report = eng.run(items)
            elapsed = time.perf_counter() - t0
            assert report.ok, [r.error for r in report.failures]
            return elapsed, {k: v.data for k, v in report.partials().items()}

        # fill the process-wide XDL parse cache first: forked pool workers
        # inherit it, so whichever backend ran first would pay it alone
        eng = engine("serial")
        try:
            timed_run(eng)
        finally:
            eng.close()
        partials = {}
        print(f"\n{len(items)} XCV1000 partials, default worker count")
        for backend in BACKEND_NAMES:
            eng = engine(backend)
            try:
                cold, partials[backend] = timed_run(eng)
            finally:
                eng.close()
            eng = engine(backend)
            try:
                timed_run(eng)                         # priming run
                warm = min(timed_run(eng)[0] for _ in range(3))
            finally:
                eng.close()
            print(f"{backend:<8} cold {cold:.3f} s   warm {warm:.3f} s")
        assert partials["warm"] == partials["serial"]

    def test_sequential_generation(self, benchmark, fig4_project):
        results = benchmark.pedantic(
            lambda: generate_sequential(fig4_project), rounds=3, iterations=1
        )
        assert len(results) == 10

    def test_batch_generation(self, benchmark, fig4_project):
        report = benchmark.pedantic(
            lambda: generate_batched(fig4_project), rounds=3, iterations=1
        )
        assert len(report.partials()) == 10
