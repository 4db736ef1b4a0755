"""Client-side routing: consistent placement and failover in FleetClient.

Workers are real ``JpgServer`` instances over TCP with the fake service
(fast, deterministic); the client reads membership from a fleet file,
exactly how a spawned fleet's nodes and the load harness see it.
"""

import asyncio
import json
import os
import threading
import time

import pytest

from repro.cluster import FleetClient, Membership
from repro.serve import JpgServer, ServeClient, decode_partial

from ..serve.test_scheduler import FakeService

pytestmark = [pytest.mark.cluster, pytest.mark.serve]


class Worker:
    """One fake worker node over TCP, stoppable abruptly (for failover)."""

    def __init__(self):
        self.service = FakeService()
        self.server = JpgServer(self.service, max_queue=32, workers=2)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.server.serve_tcp("127.0.0.1", 0)),
            daemon=True,
        )
        self.thread.start()
        deadline = time.monotonic() + 10
        while self.server.tcp_address is None:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        host, port = self.server.tcp_address
        self.address = f"{host}:{port}"

    def stop(self):
        if not self.thread.is_alive():
            return
        try:
            with ServeClient(self.address, timeout=10) as c:
                c.shutdown()
        except Exception:
            pass
        self.thread.join(timeout=10)


def write_fleet_file(path, workers):
    """Publish membership; the bumped mtime makes readers reload."""
    path.write_text(json.dumps(
        {"nodes": {n: w.address for n, w in workers.items()}}
    ))
    os.utime(path, (time.time() + 5, time.time() + 5))


@pytest.fixture()
def fleet(tmp_path):
    workers = {f"n{i}": Worker() for i in range(3)}
    fleet_file = tmp_path / "fleet.json"
    write_fleet_file(fleet_file, workers)
    client = FleetClient(Membership(path=str(fleet_file)), timeout=10)
    yield {"workers": workers, "client": client, "fleet_file": fleet_file}
    client.close()
    for w in workers.values():
        w.stop()


class TestRouting:
    def test_submit_roundtrip_through_router(self, fleet):
        resp = fleet["client"].submit("mod", "xdl text")
        assert resp["ok"]
        assert decode_partial(resp) == b"data:mod"
        assert resp["node"] in fleet["workers"]

    def test_same_key_always_same_node(self, fleet):
        nodes = {fleet["client"].submit("m", "fixed xdl")["node"]
                 for _ in range(8)}
        assert len(nodes) == 1
        # a second client computes the same placement independently
        with FleetClient(Membership(path=str(fleet["fleet_file"]))) as other:
            assert other.submit("m", "fixed xdl")["node"] in nodes

    def test_distinct_keys_spread_across_nodes(self, fleet):
        nodes = {fleet["client"].submit(f"m{i}", f"xdl {i}")["node"]
                 for i in range(40)}
        assert len(nodes) >= 2                    # the fleet actually shards

    def test_routing_matches_worker_call_counts(self, fleet):
        for i in range(20):
            assert fleet["client"].submit(f"m{i}", f"xdl {i}")["ok"]
        calls = sum(len(w.service.calls) for w in fleet["workers"].values())
        assert calls == 20                        # no duplicates, no drops


class TestFailover:
    def test_killed_node_loses_zero_requests(self, fleet):
        """Requests owned by a dead node move on to the next owner: the
        client sees every response, none errored."""
        client = fleet["client"]
        owners = {f"k{i}": client.submit(f"k{i}", f"xdl {i}")["node"]
                  for i in range(12)}
        victim = next(iter(owners.values()))
        fleet["workers"][victim].stop()            # abrupt: no drain
        for name in owners:
            resp = client.submit(name, f"xdl {name[1:]}")
            assert resp["ok"], resp
            assert resp["node"] != victim

    def test_all_nodes_down_is_an_error_envelope(self):
        workers = {f"n{i}": Worker() for i in range(2)}
        nodes = {n: w.address for n, w in workers.items()}
        with FleetClient(Membership(nodes), timeout=10) as client:
            assert client.submit("m", "x")["ok"]   # a live connection first
            for w in workers.values():
                w.stop()
            resp = client.submit("m", "x")
        assert not resp["ok"] and resp["code"] == "no-nodes"

    def test_recovered_node_rejoins(self, fleet):
        client = fleet["client"]
        key = next(f"k{i}" for i in range(100)
                   if client.submit(f"k{i}", "x")["node"] == "n0")
        fleet["workers"]["n0"].stop()
        assert client.submit(key, "x")["node"] != "n0"
        # bring a replacement up on a fresh port under the same name and
        # rewrite the fleet file: the very next request goes back to it
        replacement = Worker()
        fleet["workers"]["n0"] = replacement
        write_fleet_file(fleet["fleet_file"], fleet["workers"])
        resp = client.submit(key, "x")
        assert resp["ok"] and resp["node"] == "n0"
        assert [name for name, _ in replacement.service.calls] == [key]
