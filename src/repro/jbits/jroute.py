"""JRoute-style run-time routing over a configured bitstream.

Keller's JRoute (FPL 1999) gave JBits users an API to route nets at run
time, directly in the bitstream, respecting whatever routing the current
configuration already uses.  :class:`JRoute` is that capability here:

* decode the occupied routing resources from the loaded frames,
* A*-search the device's routing graph (:meth:`Device.successors`, the
  memoized graph the P&R router also walks) for a path from a source wire
  to each sink wire, avoiding wires that already carry signals,
* turn the winning PIPs on through the owning :class:`JBits` instance —
  so dirty-frame tracking keeps working and the edit ships as a normal
  partial bitstream.

Wires are addressed with the package's ``R<row>C<col>.<wire>`` notation
(1-based, e.g. ``R3C23.S0_X`` or ``R1C1.IO_IN0``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..devices import wires as W
from ..devices.wires import WIRE_DELAY_NS, WIRE_KIND, WireKind
from ..errors import RoutingError
from .api import JBits


@dataclass
class RouteResult:
    """One routed connection."""

    source: str
    sinks: list[str]
    pips: list[tuple[int, int, int]] = field(default_factory=list)
    delay_ns: dict[str, float] = field(default_factory=dict)

    @property
    def hops(self) -> int:
        return len(self.pips)


def parse_wire(device, spec: str) -> int:
    """``R3C23.S0_X`` -> routing node id."""
    try:
        tile, wire = spec.split(".", 1)
        if not tile.startswith("R"):
            raise ValueError
        r_txt, c_txt = tile[1:].split("C", 1)
        r, c = int(r_txt) - 1, int(c_txt) - 1
    except ValueError:
        raise RoutingError(f"bad wire spec {spec!r} (expected R<r>C<c>.<wire>)") from None
    device.geometry.check_tile(r, c)
    return device.node_id(r, c, W.wire_index(wire))


class JRoute:
    """Incremental router bound to a JBits instance."""

    def __init__(self, jbits: JBits):
        self.jbits = jbits
        self.device = jbits.device
        self._occupied: dict[int, tuple[int, int, int]] = {}
        self._scan()

    # -- occupancy ------------------------------------------------------------

    def _scan(self) -> None:
        """Decode which wires already have drivers (and by which PIP)."""
        fm = self.jbits.frames
        if fm is None:
            raise RoutingError("JBits instance has no bitstream loaded")
        dev = self.device
        from ..devices.resources import PIP_MINOR_BASE
        import numpy as np

        self._occupied.clear()
        for c in range(dev.cols):
            colbits = fm.column_bits(c)
            if not colbits[PIP_MINOR_BASE:].any():
                continue
            for r in range(dev.rows):
                tile = fm.tile_bits(r, c, colbits)
                plane = tile[PIP_MINOR_BASE:, :].ravel()[: W.NUM_PIPS]
                for p in np.flatnonzero(plane):
                    pip = W.PIP_TABLE[int(p)]
                    dst = dev.node_id(r, c, pip.dst)
                    self._occupied[dst] = (r, c, int(p))

    def occupied(self, spec_or_node: str | int) -> bool:
        """Does this wire already carry a signal?"""
        node = (
            parse_wire(self.device, spec_or_node)
            if isinstance(spec_or_node, str)
            else spec_or_node
        )
        return node in self._occupied

    # -- routing ------------------------------------------------------------------

    def route(
        self,
        source: str,
        sinks: list[str] | str,
        *,
        max_nodes: int = 200_000,
    ) -> RouteResult:
        """Route from ``source`` to each sink, avoiding used wires.

        Sinks are claimed one at a time; later sinks may branch from the
        already-built tree.  Raises :class:`RoutingError` (leaving the
        bitstream untouched) when no path exists.
        """
        dev = self.device
        if isinstance(sinks, str):
            sinks = [sinks]
        if not sinks:
            raise RoutingError("route() needs at least one sink")
        src_node = parse_wire(dev, source)
        sink_nodes = {s: parse_wire(dev, s) for s in sinks}
        for s, node in sink_nodes.items():
            if node in self._occupied:
                raise RoutingError(f"sink {s} already carries a signal")

        tree: set[int] = {src_node}
        prev: dict[int, tuple[int, tuple[int, int, int]]] = {}
        new_pips: list[tuple[int, int, int]] = []
        delays: dict[str, float] = {}

        for sink_name, sink_node in sink_nodes.items():
            tr, tc, _ = dev.node_of(sink_node)

            def h(node: int) -> float:
                r, c, _ = dev.node_of(node)
                return (abs(r - tr) + abs(c - tc)) * 0.2

            dist: dict[int, float] = {n: 0.0 for n in tree}
            came: dict[int, tuple[int, tuple[int, int, int]]] = {}
            heap = [(h(n), 0.0, n) for n in tree]
            heapq.heapify(heap)
            found = None
            popped = 0
            while heap:
                f, g, node = heapq.heappop(heap)
                popped += 1
                if popped > max_nodes:
                    break
                if g > dist.get(node, float("inf")):
                    continue
                if node == sink_node:
                    found = node
                    break
                for nxt, pip_ref, _ in dev.successors(node):
                    if nxt in self._occupied and nxt not in tree:
                        continue  # wire in use by the existing configuration
                    kind = WIRE_KIND[dev.node_of(nxt)[2]]
                    if kind in (WireKind.PIN_IN, WireKind.PIN_CLK, WireKind.IO_OUT) \
                            and nxt != sink_node:
                        continue  # don't route *through* someone's pin
                    ng = g + WIRE_DELAY_NS[kind] + 0.05
                    if ng < dist.get(nxt, float("inf")):
                        dist[nxt] = ng
                        came[nxt] = (node, pip_ref)
                        heapq.heappush(heap, (ng + h(nxt), ng, nxt))
            if found is None:
                raise RoutingError(
                    f"no free path from {source} to {sink_name} "
                    f"(explored {popped} nodes)"
                )
            # back-trace into the tree
            node = found
            path_delay = dist[found]
            while node not in tree:
                pnode, pip_ref = came[node]
                prev[node] = (pnode, pip_ref)
                new_pips.append(pip_ref)
                tree.add(node)
                node = pnode
            delays[sink_name] = path_delay

        # commit: flip the PIPs through JBits (dirty tracking included)
        for r, c, p in new_pips:
            self.jbits.set_pip(r, c, p, 1)
        for node, (_, pip_ref) in prev.items():
            self._occupied[node] = pip_ref
        return RouteResult(source, list(sinks), sorted(set(new_pips)), delays)

    # -- unrouting ---------------------------------------------------------------------

    def unroute(self, source: str) -> int:
        """Remove the routing tree growing out of ``source``.

        Follows active PIPs forward from the source wire, turning them off
        (and freeing their destinations).  Returns the number of PIPs
        removed.
        """
        dev = self.device
        start = parse_wire(dev, source)
        removed = 0
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt, (pr, pc, pidx), _ in dev.successors(node):
                if self._occupied.get(nxt) == (pr, pc, pidx) and self.jbits.get_pip(pr, pc, pidx):
                    self.jbits.set_pip(pr, pc, pidx, 0)
                    del self._occupied[nxt]
                    removed += 1
                    frontier.append(nxt)
        return removed
