"""Frame cache tests: content keying, hit/miss, invalidation, single-flight."""

import threading

import pytest

from repro.batch import FrameCache, fingerprint
from repro.bitstream.frames import FrameMemory
from repro.core import Jpg
from repro.devices import get_device
from repro.flow.floorplan import RegionRect
from repro.obs import Metrics, use_metrics


@pytest.fixture()
def device():
    return get_device("XCV50")


@pytest.fixture()
def region():
    return RegionRect(0, 2, 15, 11)


class TestFingerprint:
    def test_equal_content_equal_key(self, device):
        a, b = FrameMemory(device), FrameMemory(device)
        assert fingerprint(a) == fingerprint(b)

    def test_content_change_changes_key(self, device):
        a = FrameMemory(device)
        key = fingerprint(a)
        a.set_bit(0, 0, 1)
        assert fingerprint(a) != key

    def test_device_qualifies_key(self):
        a = FrameMemory(get_device("XCV50"))
        b = FrameMemory(get_device("XCV100"))
        assert fingerprint(a) != fingerprint(b)


class TestHitMiss:
    def test_miss_then_hit(self, device, region):
        cache = FrameCache()
        cleared = FrameMemory(device)
        calls = []

        def factory():
            calls.append(1)
            return cleared, frozenset({1, 2})

        out1 = cache.cleared("base", region, factory)
        out2 = cache.cleared("base", region, factory)
        assert out1 == out2 == (cleared, frozenset({1, 2}))
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_distinct_regions_distinct_entries(self, device, region):
        cache = FrameCache()
        other = RegionRect(0, 12, 15, 21)
        cache.cleared("base", region, lambda: (FrameMemory(device), frozenset()))
        cache.cleared("base", other, lambda: (FrameMemory(device), frozenset()))
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert len(cache) == 2

    def test_metrics_counters_emitted(self, device, region):
        cache = FrameCache()
        m = Metrics()
        with use_metrics(m):
            cache.cleared("base", region, lambda: (FrameMemory(device), frozenset()))
            cache.cleared("base", region, lambda: (FrameMemory(device), frozenset()))
        assert m.counter("framecache.miss") == 1
        assert m.counter("framecache.hit") == 1

    def test_single_flight_under_concurrency(self, device, region):
        cache = FrameCache()
        calls = []
        gate = threading.Barrier(4)

        def worker():
            def factory():
                calls.append(1)
                return FrameMemory(device), frozenset()

            gate.wait()
            cache.cleared("base", region, factory)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 3


class TestInvalidation:
    def test_base_change_is_a_miss(self, device, region):
        """Content keying: a different base digest never matches."""
        cache = FrameCache()
        cache.cleared("base-v1", region, lambda: (FrameMemory(device), frozenset()))
        cache.cleared("base-v2", region, lambda: (FrameMemory(device), frozenset()))
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_invalidate_all(self, device, region):
        cache = FrameCache()
        cache.cleared("base", region, lambda: (FrameMemory(device), frozenset()))
        assert cache.invalidate() == 1
        cache.cleared("base", region, lambda: (FrameMemory(device), frozenset()))
        assert cache.stats.misses == 2

    def test_invalidate_one_base(self, device, region):
        cache = FrameCache()
        cache.cleared("a", region, lambda: (FrameMemory(device), frozenset()))
        cache.cleared("b", region, lambda: (FrameMemory(device), frozenset()))
        assert cache.invalidate("a") == 1
        assert len(cache) == 1
        # b survives: next lookup hits
        cache.cleared("b", region, lambda: (FrameMemory(device), frozenset()))
        assert cache.stats.hits == 1


class TestJpgIntegration:
    """The cache hook on Jpg.make_partial: identical output, shared clears."""

    def test_cached_output_byte_identical(self, demo_project):
        mv = demo_project.versions[("r1", "down")]
        plain = Jpg(demo_project.part, demo_project.base_bitfile).make_partial(
            mv.design, region=demo_project.regions["r1"]
        )
        cache = FrameCache()
        cached = Jpg(
            demo_project.part, demo_project.base_bitfile, frame_cache=cache
        ).make_partial(mv.design, region=demo_project.regions["r1"])
        assert cached.data == plain.data
        assert cached.frames == plain.frames
        assert cache.stats.misses == 1

    def test_second_generation_hits(self, demo_project):
        cache = FrameCache()
        region = demo_project.regions["r1"]
        for version in ["up", "down"]:
            mv = demo_project.versions[("r1", version)]
            jpg = Jpg(demo_project.part, demo_project.base_bitfile, frame_cache=cache)
            jpg.make_partial(mv.design, region=region)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_changed_base_invalidates(self, demo_project):
        """After the configuration state changes, the old cleared-region
        entry must not be reused (content key differs)."""
        cache = FrameCache()
        region = demo_project.regions["r1"]
        down = demo_project.versions[("r1", "down")]
        up = demo_project.versions[("r1", "up")]

        jpg = Jpg(demo_project.part, demo_project.base_bitfile, frame_cache=cache)
        jpg.make_partial(down.design, region=region)
        # the same instance's configuration now includes 'down'; generating
        # against it is a different base content -> miss, not a stale hit
        jpg.make_partial(up.design, region=region)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0


class _KeyRecordingCache(FrameCache):
    """A frame cache that remembers the base key of every lookup."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def cleared(self, base_key, region, factory):
        self.keys.append(base_key)
        return super().cleared(base_key, region, factory)


class TestBaseKey:
    """A caller-supplied base key stands for the untouched base only."""

    def test_reused_jpg_keys_second_clear_on_current_content(self, demo_project):
        region = demo_project.regions["r1"]
        down = demo_project.versions[("r1", "down")].design
        up = demo_project.versions[("r1", "up")].design
        plain = Jpg(demo_project.part, demo_project.base_bitfile)
        base_key = fingerprint(plain.frames)
        cache = _KeyRecordingCache()
        jpg = Jpg(demo_project.part, demo_project.base_bitfile,
                  frame_cache=cache, base_key=base_key)

        first = jpg.make_partial(down, region=region)
        after_down = fingerprint(jpg.frames)
        second = jpg.make_partial(up, region=region)

        assert cache.keys == [base_key, after_down]
        assert after_down != base_key
        # byte-identical to a cache-less Jpg walked through the same states
        assert first.data == plain.make_partial(down, region=region).data
        assert second.data == plain.make_partial(up, region=region).data
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_engine_fingerprints_its_base_once(self, demo_project, monkeypatch):
        from repro.batch import BatchJpg, items_from_project
        from repro.batch import cache as cache_mod

        calls = []
        real = cache_mod.fingerprint

        def counting(frames):
            calls.append(1)
            return real(frames)

        monkeypatch.setattr(cache_mod, "fingerprint", counting)
        engine = BatchJpg(demo_project.part, demo_project.base_bitfile,
                          backend="serial")
        assert engine.base_key == real(engine.base_frames)
        report = engine.run(items_from_project(demo_project))
        assert report.ok and len(report.results) == 4
        assert len(calls) == 1, "every item reuses the engine's base key"
