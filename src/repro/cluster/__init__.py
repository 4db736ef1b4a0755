"""The distributed generation cluster.

One ``jpg serve`` node already makes repeated work free (persistent
disk cache, coalescing scheduler, pooled backends).  This package scales
that *horizontally* while keeping every byte identical.  There is no
front-end process: clients route.

* :mod:`repro.cluster.ring` — consistent hashing: each request digest
  owns exactly one node, so the fleet is a sharded content-addressed
  store and N nodes means N disjoint caches, not N copies of one.
* :mod:`repro.cluster.peers` — :class:`FleetClient`, the one client for
  both jobs that walk a key's preference list: routing a submit to its
  owner (moving on to the next owner when a node is unreachable) and
  peer fill, tier 2 of the cache — on a local disk miss a node asks the
  key's owner for its cached bytes (wire ``fetch`` op, strictly
  cache-to-cache) before generating.  Because of peer fill any node
  answers any key, so ``jpg submit --socket <node>`` needs no router.
* :mod:`repro.cluster.fleet` — spawn a local loopback fleet of real
  worker processes (ephemeral ports, two-phase fleet-file bootstrap).

See ``docs/ARCHITECTURE.md`` ("The cluster") for the full design.
"""

from .fleet import LocalFleet
from .peers import FleetClient, Membership
from .ring import HashRing

__all__ = [
    "FleetClient",
    "HashRing",
    "LocalFleet",
    "Membership",
]
