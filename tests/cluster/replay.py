"""Synthetic replay against a fleet: the cluster suites' load generator.

Expand a project's module versions into a key space of salted request
names (each key gets its own digest, so its own cache entry and ring
position, while the XDL stays one of the project's real versions), draw
a zipf-skewed stream over those keys, and replay it from ``concurrency``
client threads, each routing through its own
:class:`~repro.cluster.peers.FleetClient`.

Every response is hashed: all responses for one key must match
(cross-node, cross-tier byte identity), and :func:`verify_keys`
re-generates a sample of keys directly (no cache, no peers) and compares,
so a fast fleet can never pass with wrong bytes.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import FleetClient, Membership
from repro.obs import ReservoirHistogram
from repro.serve import GenerationService, GenRequest, decode_partial


@dataclass(frozen=True)
class KeySpec:
    """One synthetic request key: a module version under a salted name."""

    name: str
    xdl: str
    ucf: str
    region: str

    def submit_args(self) -> dict:
        """The wire ``submit`` fields for this key."""
        return {"name": self.name, "xdl": self.xdl, "ucf": self.ucf,
                "region": self.region}

    def request(self) -> GenRequest:
        """The equivalent in-process request (for direct verification)."""
        return GenRequest(name=self.name, xdl=self.xdl, ucf=self.ucf,
                          region=self.region)


def salted_keys(project, n: int) -> list[KeySpec]:
    """``n`` keys cycling over the project's non-base versions, each named
    ``<region>/<version>#k<i>``."""
    templates = [
        (region, version, mv)
        for (region, version), mv in sorted(project.versions.items())
        if version != "base"
    ]
    keys = []
    for i in range(n):
        region, version, mv = templates[i % len(templates)]
        keys.append(KeySpec(
            name=f"{region}/{version}#k{i}", xdl=mv.xdl, ucf=mv.ucf,
            region=project.regions[region].to_ucf(),
        ))
    return keys


def zipf_sequence(n_keys: int, n_requests: int, *, skew: float = 1.1,
                  seed: int = 0) -> np.ndarray:
    """A zipf-skewed stream of key indices (rank-``i`` popularity
    ``i^-skew``), deterministically seeded."""
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    pmf = ranks ** -float(skew)
    pmf /= pmf.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(n_keys, size=n_requests, p=pmf)


@dataclass
class ReplayStats:
    """One replay pass, merged across client threads."""

    target: str
    requests: int = 0
    ok: int = 0
    errors: int = 0
    seconds: float = 0.0
    sources: dict = field(default_factory=dict)
    #: source -> replies coalesced onto an identical in-flight request
    #: (also counted in ``sources``: their bytes have that provenance)
    coalesced: dict = field(default_factory=dict)
    histogram: ReservoirHistogram = field(
        default_factory=lambda: ReservoirHistogram(capacity=4096)
    )
    #: sha256 per key index, from the first response; later responses
    #: must match (cross-node, cross-tier byte identity).
    key_sha: dict = field(default_factory=dict)
    mismatches: int = 0
    error_samples: list = field(default_factory=list)

    @property
    def rps(self) -> float:
        """Completed requests per second of wall clock."""
        return self.requests / self.seconds if self.seconds > 0 else 0.0


def replay(
    nodes: Mapping[str, str],
    keys: list[KeySpec],
    sequence,
    *,
    target: str = "node",
    concurrency: int = 4,
    timeout: float = 300.0,
    on_progress=None,
) -> ReplayStats:
    """Replay ``sequence`` (key indices) against the fleet ``nodes``
    (``name -> address``).

    ``concurrency`` threads each own a :class:`FleetClient` and take a
    stride of the sequence, so the fleet sees concurrent independent
    clients.  ``on_progress(done)`` (optional) is called after every
    completed request; the chaos tests use it to kill a node mid-replay.
    Failed submits are counted, never raised: a lossless run reports
    ``errors == 0``.
    """
    stats = ReplayStats(target=target)
    lock = threading.Lock()
    done = [0]

    def worker(offset: int) -> None:
        local_hist = ReservoirHistogram(capacity=4096, seed=offset + 1)
        local_sources: dict[str, int] = {}
        local_coalesced: dict[str, int] = {}
        local_ok = 0
        local_err = 0
        client = FleetClient(Membership(nodes), timeout=timeout)
        try:
            for idx in sequence[offset::concurrency]:
                key = keys[int(idx)]
                t0 = time.perf_counter()
                try:
                    resp = client.request({"op": "submit", **key.submit_args()})
                except Exception as exc:
                    resp = {"ok": False, "error": f"transport: {exc}"}
                local_hist.record(time.perf_counter() - t0)
                if resp.get("ok"):
                    local_ok += 1
                    source = str(resp.get("source", "?"))
                    local_sources[source] = local_sources.get(source, 0) + 1
                    if resp.get("coalesced"):
                        local_coalesced[source] = local_coalesced.get(source, 0) + 1
                    sha = hashlib.sha256(decode_partial(resp)).hexdigest()
                    with lock:
                        if stats.key_sha.setdefault(int(idx), sha) != sha:
                            stats.mismatches += 1
                else:
                    local_err += 1
                    with lock:
                        if len(stats.error_samples) < 5:
                            stats.error_samples.append(
                                str(resp.get("error", "unknown"))
                            )
                with lock:
                    done[0] += 1
                    current = done[0]
                if on_progress is not None:
                    on_progress(current)
        finally:
            client.close()
        with lock:
            stats.ok += local_ok
            stats.errors += local_err
            for source, n in local_sources.items():
                stats.sources[source] = stats.sources.get(source, 0) + n
            for source, n in local_coalesced.items():
                stats.coalesced[source] = stats.coalesced.get(source, 0) + n
            stats.histogram.absorb(
                local_hist.count, local_hist.samples(),
                total=local_hist.total, min_value=local_hist.min,
                max_value=local_hist.max,
            )

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(concurrency)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stats.seconds = time.perf_counter() - start
    stats.requests = stats.ok + stats.errors
    return stats


def verify_keys(project, keys: list[KeySpec], stats: ReplayStats, *,
                sample: int = 8) -> dict:
    """Re-generate a sample of served keys directly (fresh service, no
    disk cache, no peers) and compare hashes with what the fleet served."""
    indices = sorted(stats.key_sha)[:sample]
    service = GenerationService(
        project.part, project.base_bitfile, project.base_flow.design,
        backend="serial",
    )
    mismatched: list[str] = []
    try:
        for idx in indices:
            result = service.generate(keys[idx].request())
            if not result.ok or result.data is None:
                mismatched.append(f"{keys[idx].name}: {result.error}")
            elif hashlib.sha256(result.data).hexdigest() != stats.key_sha[idx]:
                mismatched.append(keys[idx].name)
    finally:
        service.close()
    return {
        "sampled": len(indices),
        "identical": len(indices) - len(mismatched),
        "mismatched": mismatched,
        "cross_response_mismatches": stats.mismatches,
        "ok": not mismatched and stats.mismatches == 0,
    }
