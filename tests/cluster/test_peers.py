"""Membership views and the two-tier peer-fill path (FleetClient.fetch).

The wire-level tests run a real ``JpgServer`` over TCP with a fake
service; the integration tests wire two *real* generation services
together so a disk miss on one is served from the other's cache.
"""

import asyncio
import functools
import json
import os
import sys
import threading
import time

import pytest

from repro.cluster import FleetClient, HashRing, Membership
from repro.serve import GenerationService, GenRequest, JpgServer

from ..serve.test_scheduler import FakeService

pytestmark = [pytest.mark.cluster, pytest.mark.serve]


class TestMembership:
    def test_static_mapping(self):
        m = Membership({"n0": "127.0.0.1:1", "n1": "127.0.0.1:2"})
        assert m.nodes() == {"n0": "127.0.0.1:1", "n1": "127.0.0.1:2"}
        assert m.address("n1") == "127.0.0.1:2"
        assert m.address("ghost") is None

    def test_file_backed_reload_on_mtime_change(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"nodes": {"n0": "127.0.0.1:1"}}))
        m = Membership(path=str(path))
        assert m.nodes() == {"n0": "127.0.0.1:1"}
        path.write_text(json.dumps({"nodes": {"n0": "127.0.0.1:1",
                                              "n1": "127.0.0.1:2"}}))
        os.utime(path, (time.time() + 5, time.time() + 5))
        assert m.nodes() == {"n0": "127.0.0.1:1", "n1": "127.0.0.1:2"}

    def test_malformed_file_keeps_last_good_view(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"nodes": {"n0": "a:1"}}))
        m = Membership(path=str(path))
        assert m.nodes() == {"n0": "a:1"}
        path.write_text("{ torn json")
        os.utime(path, (time.time() + 5, time.time() + 5))
        assert m.nodes() == {"n0": "a:1"}          # half-written edit ignored

    def test_missing_file_is_empty_not_fatal(self, tmp_path):
        m = Membership(path=str(tmp_path / "absent.json"))
        assert m.nodes() == {}


class FetchPeer(FakeService):
    """Fake worker whose cache holds one peer-fillable entry."""

    def fetch_partial(self, base_key, tag, digest):
        if digest == "hit" * 21 + "h":
            return b"peer-bytes"
        return None


class FullPeer(FakeService):
    """Fake worker whose cache holds every key (bytes name the digest)."""

    def fetch_partial(self, base_key, tag, digest):
        return f"bytes:{digest}".encode()


def _start_tcp(service):
    srv = JpgServer(service, max_queue=8, workers=2)
    thread = threading.Thread(
        target=lambda: asyncio.run(srv.serve_tcp("127.0.0.1", 0)), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10
    while srv.tcp_address is None:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return srv, thread, f"{srv.tcp_address[0]}:{srv.tcp_address[1]}"


def _stop_tcp(thread, address):
    from repro.serve import ServeClient

    with ServeClient(address) as c:
        c.shutdown()
    thread.join(timeout=10)


@pytest.fixture()
def peer_node():
    srv, thread, address = _start_tcp(FetchPeer())
    yield address
    _stop_tcp(thread, address)


HIT = "hit" * 21 + "h"


class TestPeerFiller:
    """Peer fill: ``FleetClient.fetch`` as a node's ``peer_fetch``."""

    def test_fetches_from_owning_peer(self, peer_node):
        m = Membership({"self": "127.0.0.1:1", "peer": peer_node})
        with FleetClient(m) as client:
            assert client.fetch("base", "t", HIT, skip="self") == b"peer-bytes"
            assert client.fetch("base", "t", "m" * 64, skip="self") is None

    def test_single_node_fleet_skips_probing(self):
        client = FleetClient(Membership({"self": "a:1"}))
        assert client.fetch("base", "t", HIT, skip="self") is None

    def test_dead_peer_degrades_to_miss(self):
        m = Membership({"self": "127.0.0.1:1", "peer": "127.0.0.1:1"})
        with FleetClient(m, timeout=0.5) as client:
            assert client.fetch("base", "t", HIT, skip="self") is None

    def test_probes_the_owner_and_one_successor(self):
        """A 4-node fleet with two dead members: the live peer answers
        when it is among the first two owners after the caller, and is
        never probed when it comes third."""
        srv, thread, address = _start_tcp(FullPeer())
        m = Membership({"self": "127.0.0.1:1", "d1": "127.0.0.1:1",
                        "d2": "127.0.0.1:1", "peer": address})
        ring = HashRing(m.nodes())

        def rank(digest):
            return [n for n in ring.owners(digest) if n != "self"].index("peer")

        digests = [f"d{i}" for i in range(64)]
        near = next(d for d in digests if rank(d) == 1)
        far = next(d for d in digests if rank(d) == 2)
        try:
            with FleetClient(m, timeout=0.5) as client:
                assert client.fetch("b", "t", near, skip="self") == f"bytes:{near}".encode()
                assert client.fetch("b", "t", far, skip="self") is None
        finally:
            _stop_tcp(thread, address)

    def test_concurrent_fetches_share_one_connection_safely(self):
        """The scheduler's worker threads share one connection per peer:
        every caller must get its own digest's bytes, and no reply may be
        lost to another thread (a lost reply is a miss, which a real
        node would answer by regenerating)."""
        srv, thread, address = _start_tcp(FullPeer())
        m = Membership({"self": "127.0.0.1:1", "peer": address})
        results: dict[int, list] = {}

        def caller(t):
            results[t] = [
                (digest, client.fetch("base", "t", digest, skip="self"))
                for digest in (f"{t}-{i}" for i in range(100))
            ]

        client = FleetClient(m, timeout=5.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch threads mid-request often
        try:
            threads = [threading.Thread(target=caller, args=(t,), daemon=True)
                       for t in range(8)]
            start = time.monotonic()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=max(0.0, start + 10 - time.monotonic()))
            elapsed = time.monotonic() - start
            assert not any(t.is_alive() for t in threads), "a caller hung"
        finally:
            sys.setswitchinterval(interval)
            client.close()
            _stop_tcp(thread, address)
        pairs = [pair for rows in results.values() for pair in rows]
        assert len(pairs) == 800
        assert [d for d, data in pairs if data is None] == []
        assert all(data == f"bytes:{d}".encode() for d, data in pairs)
        assert elapsed < 2.0


class TestServicePeerFill:
    """Two real services: B disk-misses, peer-fills from A, serves, and
    warms its own tier-1 so the next request is a plain disk hit."""

    @pytest.fixture()
    def request_r1(self, demo_project):
        mv = demo_project.versions[("r1", "down")]
        return GenRequest(name="r1/down", xdl=mv.xdl, ucf=mv.ucf,
                          region=demo_project.regions["r1"].to_ucf())

    def test_miss_peer_disk_progression(self, demo_project, request_r1, tmp_path):
        node_a = GenerationService(
            "XCV50", demo_project.base_bitfile,
            demo_project.base_flow.design,
            cache_dir=str(tmp_path / "a"), backend="serial",
        )
        first = node_a.generate(request_r1)       # A generates and caches
        assert first.ok and first.source == "generated"
        srv, thread, address = _start_tcp(node_a)

        membership = Membership({"a": address, "b": "127.0.0.1:1"})
        peers = FleetClient(membership)
        node_b = GenerationService(
            "XCV50", demo_project.base_bitfile,
            demo_project.base_flow.design,
            cache_dir=str(tmp_path / "b"), backend="serial",
            peer_fetch=functools.partial(peers.fetch, skip="b"),
        )
        try:
            served = node_b.generate(request_r1)
            assert served.ok and served.source == "peer"
            assert served.data == first.data       # byte-identical transfer
            again = node_b.generate(request_r1)
            assert again.source == "disk"          # tier 1 warmed by the fill
            assert again.data == first.data
            stats = node_b.stats()
            assert stats["counters"]["serve.served_from_peer"] == 1
            assert "serve.peer_fill" in stats["latency"]
        finally:
            peers.close()
            node_b.close()
            _stop_tcp(thread, address)

    def test_fetch_partial_never_generates(self, demo_project, request_r1):
        service = GenerationService(
            "XCV50", demo_project.base_bitfile,
            demo_project.base_flow.design, backend="serial",
        )
        try:
            # no disk cache configured: fetch is a miss, never a generate
            assert service.fetch_partial(service.base_key, "t", "d") is None
            assert service.metrics.counter("serve.fetch_miss") == 1
            assert service.metrics.counter("serve.generated") == 0
        finally:
            service.close()

    def test_fetch_partial_rejects_foreign_base(self, demo_project, tmp_path):
        service = GenerationService(
            "XCV50", demo_project.base_bitfile,
            demo_project.base_flow.design,
            cache_dir=str(tmp_path), backend="serial",
        )
        try:
            assert service.fetch_partial("not-my-base", "t", "d") is None
        finally:
            service.close()
