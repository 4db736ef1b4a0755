"""Fleet membership and the fleet client: routing and peer fill.

**Membership** is a ``name -> address`` map.  :class:`Membership` serves
it from a literal dict or from a JSON *fleet file*::

    {"nodes": {"n0": "127.0.0.1:4101", "n1": "127.0.0.1:4102"}}

The file form is how a spawned fleet bootstraps (each worker binds an
ephemeral port before the full membership is known — the spawner writes
the fleet file once every port is published) and how operators re-shard a
running fleet: the file is re-read on mtime change, so edits take effect
on the next request without restarts.

**The fleet client** is the only cluster client.  :class:`FleetClient`
keeps one connection per node and walks a key's preference list
(:meth:`~repro.cluster.ring.HashRing.owners` over the current
membership).  The key is :meth:`~repro.serve.service.GenRequest.digest`,
which already covers the region, so every party computes the same
placement with no coordination.  It serves two callers:

* *routing* — :meth:`FleetClient.submit` sends a request to its owner
  and, when that node is unreachable, to the next owner down the list.
  Generation is content-addressed and single-flighted on each node, so
  the retry is safe.  A dead node costs the requests that hit it one
  extra hop; the next request tries it again, so a restarted node
  rejoins with no extra code;
* *peer fill* — tier 2 of the cluster cache.  Tier 1 is each node's own
  :class:`~repro.serve.diskcache.DiskCache`; on a tier-1 miss the node
  asks the key's owner (and one successor, where the key most likely
  lived before a re-shard) for its cached bytes before generating.
  This is what lets any node answer any key: a request sent to the
  wrong node is filled from the owner's cache, not regenerated.  Every
  failure mode (peer down, timeout, miss) degrades to ``None``, which
  the service answers by generating locally: peer fill can only ever
  *save* work.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Mapping

from ..errors import ServiceUnavailableError, UsageError
from ..obs import current_metrics
from ..serve.protocol import ServeClient
from ..serve.service import GenRequest
from .ring import HashRing

#: Peers one fill probes: the key's owner plus one ring successor.
PEER_PROBES = 2


class Membership:
    """A live ``name -> address`` view of the fleet.

    Static (a literal mapping) or file-backed (re-read when the fleet
    file's mtime changes).  Unreadable or malformed files keep the last
    good view, so a half-written edit never empties the fleet.
    """

    def __init__(self, nodes: Mapping[str, str] | None = None, *,
                 path: str | None = None):
        self._static = dict(nodes) if nodes is not None else None
        self._path = path
        self._cached: dict[str, str] = dict(self._static or {})
        self._mtime: float | None = None
        self._lock = threading.Lock()

    def nodes(self) -> dict[str, str]:
        """The current membership map (a copy; safe to mutate)."""
        if self._path is None:
            return dict(self._cached)
        with self._lock:
            try:
                mtime = os.stat(self._path).st_mtime
            except OSError:
                return dict(self._cached)
            if mtime != self._mtime:
                try:
                    with open(self._path, encoding="utf-8") as f:
                        loaded = json.load(f)
                    parsed = {str(k): str(v)
                              for k, v in dict(loaded.get("nodes", {})).items()}
                except (OSError, ValueError, AttributeError):
                    return dict(self._cached)
                self._cached = parsed
                self._mtime = mtime
            return dict(self._cached)

    def address(self, name: str) -> str | None:
        """The dial address of ``name``, or None when unknown."""
        return self.nodes().get(name)


def _ring_key(msg: dict) -> str:
    """The ring key of a ``submit`` message: its request digest.  A
    malformed message still routes (the node answers bad-request)."""
    try:
        return GenRequest.from_wire(msg).digest()
    except UsageError:
        return ""


class FleetClient:
    """Client-side routing and peer fill over one fleet.

    Placement is rebuilt from the *current* membership on every call;
    connections are cached per node and dropped on any error.
    Thread-safe: the scheduler calls :meth:`fetch` from its worker
    threads, and each connection serializes its own requests.
    """

    def __init__(self, membership: Membership, *, timeout: float = 300.0):
        self.membership = membership
        self.timeout = timeout
        self._ring = HashRing()
        self._clients: dict[str, tuple[str, ServeClient]] = {}
        self._lock = threading.Lock()

    def _owners(self, key: str) -> list[tuple[str, str]]:
        """The key's preference list as ``(name, address)`` pairs."""
        nodes = self.membership.nodes()
        with self._lock:
            self._ring.replace(nodes)
            names = self._ring.owners(key)
        return [(name, nodes[name]) for name in names]

    def _client(self, name: str, address: str) -> ServeClient:
        with self._lock:
            cached = self._clients.get(name)
            if cached is not None and cached[0] == address:
                return cached[1]
            client = ServeClient(address, timeout=self.timeout)
            self._clients[name] = (address, client)
        if cached is not None:
            cached[1].close()          # the node moved to a new address
        return client

    def _drop(self, name: str) -> None:
        with self._lock:
            cached = self._clients.pop(name, None)
        if cached is not None:
            cached[1].close()

    def close(self) -> None:
        """Close every cached node connection (idempotent)."""
        with self._lock:
            clients, self._clients = self._clients, {}
        for _, client in clients.values():
            client.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, msg: dict) -> dict:
        """Send one ``submit`` message to the owner of its key, moving
        down the preference list past unreachable nodes.

        The response carries ``node``, the name of the node that
        answered; when no node answers it is the ``no-nodes`` error
        envelope."""
        for name, address in self._owners(_ring_key(msg)):
            try:
                resp = self._client(name, address).request(msg)
            except ServiceUnavailableError:
                self._drop(name)
                continue
            resp["node"] = name
            return resp
        return {"id": msg.get("id"), "ok": False, "code": "no-nodes",
                "error": "no worker node is reachable for this request"}

    def submit(
        self,
        name: str,
        xdl: str,
        *,
        ucf: str | None = None,
        region: str | None = None,
        granularity: str = "column",
    ) -> dict:
        """Submit one generation request (see
        :meth:`~repro.serve.protocol.ServeClient.submit`)."""
        return self.request({
            "op": "submit", "name": name, "xdl": xdl, "ucf": ucf,
            "region": region, "granularity": granularity,
        })

    def fetch(self, base_key: str, region_tag: str, digest: str, *,
              skip: str | None = None) -> bytes | None:
        """Tier-2 lookup: a peer's cached bytes for a key, or None.

        Probes the first :data:`PEER_PROBES` owners of ``digest`` other
        than ``skip`` (the asking node) with the wire ``fetch`` op; every
        failure is a miss."""
        metrics = current_metrics()
        peers = [p for p in self._owners(digest) if p[0] != skip]
        for name, address in peers[:PEER_PROBES]:
            metrics.count("cluster.peer_probes")
            try:
                data = self._client(name, address).fetch(base_key, region_tag, digest)
            except Exception:
                # peer down or protocol failure: drop the connection and
                # let the next probe (or local generation) take over
                self._drop(name)
                metrics.count("cluster.peer_fetch_errors")
                continue
            if data is not None:
                metrics.count("cluster.peer_fetch_hits")
                return data
        return None
