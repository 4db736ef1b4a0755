"""DiskCache: persistence, eviction, cross-process convergence, and
survival of an unclean death (kill -9).
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.flow.floorplan import RegionRect
from repro.serve import DiskCache, region_tag

KEY = "a" * 64
DIGEST = "d" * 64
REGION = RegionRect(0, 2, 15, 11)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestRegionTag:
    def test_tag_shapes(self):
        assert region_tag(REGION) == "0_2_15_11"
        assert region_tag(None) == "none"


class TestPartialsAndEviction:
    def test_absent_partial_is_miss(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        assert disk.load_partial(KEY, REGION, DIGEST) is None
        assert disk.stats.misses == 1

    def test_tmp_litter_is_ignored(self, tmp_path):
        disk = DiskCache(str(tmp_path), max_bytes=10_000_000)
        litter = os.path.join(str(tmp_path), "partials", "torn.tmp")
        with open(litter, "wb") as f:
            f.write(b"x" * 100)
        disk.store_partial(KEY, REGION, DIGEST, b"payload")
        assert disk.load_partial(KEY, REGION, DIGEST) == b"payload"
        assert disk.size_bytes() == len(b"payload")

    def test_old_cleared_directory_is_not_counted(self, tmp_path):
        """A ``cleared/`` directory left by an older version is ignored:
        its files neither count against the byte cap nor get evicted."""
        old = tmp_path / "cleared"
        old.mkdir()
        (old / "stale.npz").write_bytes(b"x" * 5000)
        disk = DiskCache(str(tmp_path), max_bytes=3500)
        disk.store_partial(KEY, None, DIGEST, bytes(1000))
        assert disk.size_bytes() == 1000
        assert disk.stats.evictions == 0
        assert disk.load_partial(KEY, None, DIGEST) == bytes(1000)

    def test_partial_roundtrip_region_none(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        disk.store_partial(KEY, None, DIGEST, b"\x00\x01\x02")
        assert disk.load_partial(KEY, None, DIGEST) == b"\x00\x01\x02"

    def test_lru_eviction_prefers_cold_entries(self, tmp_path):
        disk = DiskCache(str(tmp_path), max_bytes=3500)
        digests = [str(i) * 64 for i in range(3)]
        for i, digest in enumerate(digests):
            disk.store_partial(KEY, None, digest, bytes(1000))
            os.utime(disk.partial_path(KEY, None, digest),
                     (i + 1, i + 1))  # deterministic recency order
        # touch entry 0 so entry 1 is now the coldest
        assert disk.load_partial(KEY, None, digests[0]) is not None
        disk.store_partial(KEY, None, "f" * 64, bytes(1000))
        assert disk.stats.evictions >= 1
        assert disk.size_bytes() <= 3500
        assert disk.load_partial(KEY, None, digests[1]) is None  # evicted
        assert disk.load_partial(KEY, None, "f" * 64) is not None
        assert disk.load_partial(KEY, None, digests[0]) is not None  # kept

    def test_max_bytes_must_be_positive(self, tmp_path):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            DiskCache(str(tmp_path), max_bytes=0)


WORKER_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
from repro.serve import DiskCache

root, marker = sys.argv[1], sys.argv[2]
disk = DiskCache(root)
key, digest = "k" * 64, "g" * 64
data = disk.load_partial(key, None, digest)
if data is None:
    with open(marker, "a") as f:
        f.write("generate\\n")
    time.sleep(0.4)   # a slow generation: the sibling must not wait on it
    data = b"partial-" + b"x" * 1000
    disk.store_partial(key, None, digest, data)
print("done", len(data))
"""


class TestCrossProcess:
    @pytest.mark.serve
    def test_two_processes_converge_without_blocking(self, tmp_path):
        """Two processes race one partial key.  No lock is held while a
        partial generates, so both may generate (1 or 2 generations,
        never more), and the atomic stores leave exactly one entry both
        agree on."""
        script = tmp_path / "worker.py"
        script.write_text(WORKER_SCRIPT.format(src=os.path.abspath(SRC)))
        marker = str(tmp_path / "generations.log")
        root = str(tmp_path / "cache")
        procs = [
            subprocess.Popen([sys.executable, str(script), root, marker],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err.decode()
            assert out.decode().split() == ["done", "1008"]
        with open(marker) as f:
            generations = f.read().splitlines()
        assert 1 <= len(generations) <= 2, (
            f"expected 1-2 cross-process generations, got {len(generations)}"
        )
        disk = DiskCache(root)
        assert disk.load_partial("k" * 64, None, "g" * 64) == b"partial-" + b"x" * 1000
        assert os.listdir(os.path.join(root, "partials")) == [
            os.path.basename(disk.partial_path("k" * 64, None, "g" * 64))
        ]

    @pytest.mark.serve
    def test_cache_survives_kill_minus_nine(self, tmp_path):
        """A process is SIGKILLed after populating the cache; a new process
        (here: a new DiskCache) finds every completed entry intact."""
        script = tmp_path / "populate.py"
        script.write_text(f"""
import sys, time
sys.path.insert(0, {os.path.abspath(SRC)!r})
from repro.serve import DiskCache

disk = DiskCache(sys.argv[1])
disk.store_partial("b" * 64, None, "m" * 64, b"partial-bytes")
print("READY", flush=True)
time.sleep(300)   # spin until killed
""")
        root = str(tmp_path / "cache")
        proc = subprocess.Popen([sys.executable, str(script), root],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            assert b"READY" in line, proc.stderr.read().decode()
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == -signal.SIGKILL

        disk = DiskCache(root)
        assert disk.load_partial("b" * 64, None, "m" * 64) == b"partial-bytes"


class TestTagHelpers:
    def test_tag_and_rect_paths_agree(self, tmp_path):
        """The wire-facing *_tag helpers address exactly the same entries
        as the RegionRect-facing ones (the peer-fill contract)."""
        disk = DiskCache(str(tmp_path))
        tag = region_tag(REGION)
        assert disk.partial_path_tag(KEY, tag, DIGEST) == \
            disk.partial_path(KEY, REGION, DIGEST)
        disk.store_partial_tag(KEY, tag, DIGEST, b"via-tag")
        assert disk.load_partial(KEY, REGION, DIGEST) == b"via-tag"
        assert disk.load_partial_tag(KEY, tag, DIGEST) == b"via-tag"

    def test_tag_none_matches_region_none(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        disk.store_partial(KEY, None, DIGEST, b"regionless")
        assert disk.load_partial_tag(KEY, "none", DIGEST) == b"regionless"


PEERFILL_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
from repro.serve import DiskCache

root, mode, payload_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(payload_path, "rb") as f:
    payload = f.read()
disk = DiskCache(root, max_bytes=int(sys.argv[4]))
key, tag, digest = "c" * 64, "0_2_15_11", "e" * 64
deadline = time.monotonic() + 5.0
# both processes hammer the same key concurrently until the deadline:
# one plays the generate path (store via rect-less tag store), the other
# the peer-fill path (fetch, store on hit) -- like a node racing a peer
while time.monotonic() < deadline:
    if mode == "generate":
        disk.store_partial_tag(key, tag, digest, payload)
    else:
        got = disk.load_partial_tag(key, tag, digest)
        if got is not None:
            assert got == payload, "peer read torn or divergent bytes"
            disk.store_partial_tag(key, tag, digest, got)
            break
    time.sleep(0.01)
print("done", flush=True)
"""


class TestConcurrentPeerFill:
    @pytest.mark.serve
    @pytest.mark.cluster
    def test_fetch_vs_generate_converge_byte_identically(self, tmp_path):
        """Two processes fill one key concurrently — one generating, one
        peer-filling (fetch then store) — and must converge on a single
        byte-identical entry, with the LRU byte cap still honored."""
        payload = bytes(range(256)) * 8          # 2 KiB, recognizable
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(payload)
        script = tmp_path / "filler.py"
        script.write_text(PEERFILL_SCRIPT.format(src=os.path.abspath(SRC)))
        root = str(tmp_path / "cache")
        cap = 100_000
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), root, mode,
                 str(payload_path), str(cap)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for mode in ("generate", "peerfill")
        ]
        for p in procs:
            out, err = p.communicate(timeout=60)
            assert p.returncode == 0, err.decode()
            assert out.decode().startswith("done")
        disk = DiskCache(root, max_bytes=cap)
        assert disk.load_partial_tag("c" * 64, "0_2_15_11", "e" * 64) == payload
        assert disk.size_bytes() <= cap

    @pytest.mark.serve
    @pytest.mark.cluster
    def test_peer_fill_respects_lru_cap(self, tmp_path):
        """Peer-filled entries are ordinary cache citizens: filling past
        the byte cap evicts cold entries instead of growing unbounded."""
        disk = DiskCache(str(tmp_path), max_bytes=3500)
        for i in range(4):
            digest = str(i) * 64
            disk.store_partial_tag(KEY, "none", digest, bytes(1000))
            os.utime(disk.partial_path_tag(KEY, "none", digest), (i + 1, i + 1))
        assert disk.size_bytes() <= 3500
        assert disk.stats.evictions >= 1
        assert disk.load_partial_tag(KEY, "none", "0" * 64) is None  # coldest
        assert disk.load_partial_tag(KEY, "none", "3" * 64) is not None
