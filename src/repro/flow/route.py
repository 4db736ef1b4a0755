"""PathFinder negotiated-congestion routing.

Each signal net is routed as a tree over the device's routing graph with
A* searches (Manhattan lower bound); all nets are ripped up and re-routed
for several iterations while the present-usage penalty and per-node history
cost grow, until no routing node is shared — the classic PathFinder
algorithm (Ebeling/McMurchie), which is also what commercial P&R of the
paper's era implemented.

LUT input pins are routed as *equivalence classes*: a net aiming at a
G-LUT input may land on any free ``G1..G4`` pin; the winning pin is
recorded and bitgen permutes the truth table accordingly (``pin_map``).

Clock nets do not use the general graph: they ride the dedicated global
clock lines, activating one ``GCLKg -> Sx_CLK`` PIP per sink slice.

The routing graph belongs to the shared :class:`~repro.devices.Device`:
its memoized successor tuples (next node, PIP ref, pin-gating flag) serve
every search of every flow on the part.  Per flow, present usage and
history are zero-filled numpy arrays over node ids, and ``cost`` is a
python list of each node's full cost (``base * (1 + pres_fac*occ) *
(1 + history)``) patched as occupancy changes, so A* reads one element per
neighbor.  Iteration-boundary sweeps visit only the nodes the flow's
trees occupy, so a flow costs what its module costs.

A dict-congestion reference implementation lives in
``tests/flow/scalar_ref.py`` as a subclass overriding
:meth:`Router._pathfinder`.  Its cost arithmetic is ordered identically,
and the RNG is only consumed by the per-iteration net ordering shuffle,
so **the same seed produces the same routing on either implementation**
— asserted PIP-for-PIP by ``tests/flow/test_vectorized.py``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from ..devices import Device, get_device
from ..devices import wires as W
from ..devices.wires import NUM_WIRES, WIRE_DELAY_NS, WIRE_KIND, WireKind
from ..errors import RoutingError
from ..obs import current_metrics
from ..utils import make_rng
from .ncd import NcdDesign, PhysNet, SinkRef

#: Additive cost of entering any node (keeps hop counts down).
_HOP_COST = 0.05
#: Admissible per-tile lower bound for A* (cheapest way to cross a tile).
_ASTAR_PER_TILE = 0.20
#: Per-wire-index base cost (an idle node's cost is ``_BASE_W[w]``).
_BASE_W = [_HOP_COST + WIRE_DELAY_NS[WIRE_KIND[w]] for w in range(NUM_WIRES)]


@dataclass
class RoutingStats:
    nets: int = 0
    routed: int = 0
    iterations: int = 0
    overused_final: int = 0
    total_pips: int = 0
    seconds: float = 0.0
    searches: int = 0
    nodes_popped: int = 0
    rip_ups: int = 0       # established trees torn down for re-route
    nets_reused: int = 0   # guided routing: nets adopted from the guide


@dataclass
class _NetTask:
    net: PhysNet
    source: int                                  # node id
    sinks: list[tuple[SinkRef, tuple[int, ...]]]  # (sink, candidate node ids)
    tree_nodes: list[int] = field(default_factory=list)
    node_prev: dict[int, tuple[int, tuple[int, int, int]]] = field(default_factory=dict)
    sink_paths: dict[int, list[int]] = field(default_factory=dict)  # sink idx -> node path
    tree_arr: np.ndarray | None = None   # tree_nodes as an index vector


class Router:
    """One routing run over a placed :class:`NcdDesign`."""

    def __init__(
        self,
        design: NcdDesign,
        *,
        seed: int | None = None,
        max_iterations: int = 30,
        pres_fac_first: float = 0.6,
        pres_fac_mult: float = 1.8,
        hist_fac: float = 0.4,
        guide: NcdDesign | None = None,
    ):
        if not design.placed():
            raise RoutingError("design is not fully placed")
        self.design = design
        self.device: Device = get_device(design.part)
        self.rng = make_rng(seed)
        self.max_iterations = max_iterations
        self.pres_fac_first = pres_fac_first
        self.pres_fac_mult = pres_fac_mult
        self.hist_fac = hist_fac
        self.guide = guide
        self.stats = RoutingStats()
        self._locked_nodes: set[int] = set()

    # -- public -----------------------------------------------------------------

    def run(self) -> RoutingStats:
        t0 = time.perf_counter()
        clock_nets = [n for n in self.design.nets.values() if n.is_clock]
        signal_nets = [n for n in self.design.nets.values() if not n.is_clock]
        for net in clock_nets:
            self._route_clock(net)
        if self.guide is not None:
            signal_nets = [n for n in signal_nets if not self._adopt_from_guide(n)]
        tasks = [self._make_task(net) for net in signal_nets]
        self.stats.nets = len(clock_nets) + len(tasks) + self.stats.nets_reused
        self.stats.routed = len(clock_nets) + self.stats.nets_reused
        if tasks:
            self._pathfinder(tasks)
        self._commit_pin_maps()  # covers adopted (guide) nets as well
        self.stats.total_pips = sum(len(n.pips) for n in self.design.nets.values())
        self.stats.seconds = time.perf_counter() - t0
        m = current_metrics()
        m.count("flow.route.searches", self.stats.searches)
        m.count("flow.route.astar_pops", self.stats.nodes_popped)
        m.count("flow.route.rip_ups", self.stats.rip_ups)
        m.count("flow.route.iterations", self.stats.iterations)
        m.count("flow.route.nets_reused", self.stats.nets_reused)
        return self.stats

    # -- terminals ----------------------------------------------------------------

    def _slice_wire(self, comp_name: str, wire: str) -> int:
        comp = self.design.slices[comp_name]
        r, c, s = comp.site
        return self.device.node_id(r, c, W.wire_index(f"S{s}_{wire}"))

    def _iob_wire(self, comp_name: str, prefix: str) -> int:
        iob = self.design.iobs[comp_name]
        g = self.device.geometry
        r, c = g.iob_tile(iob.site)
        return self.device.node_id(r, c, W.wire_index(f"{prefix}{g.io_wire_index(iob.site)}"))

    def _source_node(self, net: PhysNet) -> int:
        src = net.source
        if src.pin == "PAD_IN":
            return self._iob_wire(src.comp, "IO_IN")
        if src.pin in ("X", "Y", "XQ", "YQ"):
            return self._slice_wire(src.comp, src.pin)
        raise RoutingError(f"net {net.name}: unroutable source pin {src.pin}")

    def _sink_candidates(self, net: PhysNet, sink: SinkRef) -> tuple[int, ...]:
        ref = sink.ref
        if ref.pin == "PAD_OUT":
            return (self._iob_wire(ref.comp, "IO_OUT"),)
        if ref.pin in ("F", "G"):
            return tuple(
                self._slice_wire(ref.comp, f"{ref.pin}{k}") for k in range(1, 5)
            )
        if ref.pin in ("BX", "BY", "CE", "SR"):
            return (self._slice_wire(ref.comp, ref.pin),)
        if ref.pin == "CLK":
            raise RoutingError(
                f"net {net.name}: clock pin sink on a non-clock net "
                f"({ref.comp}) — derived clocks are unsupported"
            )
        raise RoutingError(f"net {net.name}: unroutable sink pin {ref.pin}")

    def _make_task(self, net: PhysNet) -> _NetTask:
        source = self._source_node(net)
        sinks = [(s, self._sink_candidates(net, s)) for s in net.sinks]
        # farthest-first ordering helps tree quality
        sr, sc, _ = self.device.node_of(source)

        def dist(entry):
            r, c, _ = self.device.node_of(entry[1][0])
            return -(abs(r - sr) + abs(c - sc))

        sinks.sort(key=dist)
        return _NetTask(net, source, sinks)

    # -- guided routing ------------------------------------------------------------------

    def _same_placement(self, comp_name: str) -> bool:
        """Is this component placed identically in the design and guide?"""
        assert self.guide is not None
        if comp_name in self.design.slices:
            g = self.guide.slices.get(comp_name)
            return g is not None and g.site == self.design.slices[comp_name].site
        if comp_name in self.design.iobs:
            g = self.guide.iobs.get(comp_name)
            return g is not None and g.site == self.design.iobs[comp_name].site
        return False

    def _adopt_from_guide(self, net: PhysNet) -> bool:
        """Reuse the guide's routing for a net whose terminals are
        unchanged (the paper's guide-file / incremental-design support)."""
        assert self.guide is not None
        g = self.guide.nets.get(net.name)
        if g is None or not g.routed or g.is_clock or not g.pips:
            return False
        src, gsrc = net.source, g.source
        if (src.comp, src.pin) != (gsrc.comp, gsrc.pin):
            return False
        if len(net.sinks) != len(g.sinks):
            return False
        gsinks = {
            (s.ref.comp, s.ref.pin, s.ref.logical_index): s for s in g.sinks
        }
        matched = []
        for s in net.sinks:
            gs = gsinks.get((s.ref.comp, s.ref.pin, s.ref.logical_index))
            if gs is None or gs.phys_pin is None:
                return False
            matched.append((s, gs))
        comps = {src.comp} | {s.ref.comp for s in net.sinks}
        if not all(self._same_placement(c) for c in comps):
            return False
        # nodes this route occupies
        dev = self.device
        nodes = {self._source_node(net)}
        for r, c, p in g.pips:
            pip = W.PIP_TABLE[p]
            if not dev.pip_valid(r, c, pip):
                return False
            nodes.add(dev.node_id(r, c, pip.dst))
        if nodes & self._locked_nodes:
            return False  # clashes with an already-adopted route
        net.pips = list(g.pips)
        for s, gs in matched:
            s.phys_pin = gs.phys_pin
            s.delay_ns = gs.delay_ns
        net.routed = True
        self._locked_nodes |= nodes
        self.stats.nets_reused += 1
        return True

    # -- clock routing ------------------------------------------------------------------

    def _route_clock(self, net: PhysNet) -> None:
        gbuf = self.design.gclks.get(net.source.comp)
        if gbuf is None or gbuf.index is None:
            raise RoutingError(f"clock net {net.name}: no global buffer assigned")
        g = gbuf.index
        pips: list[tuple[int, int, int]] = []
        for sink in net.sinks:
            if sink.ref.pin != "CLK":
                raise RoutingError(
                    f"clock net {net.name} drives non-clock pin "
                    f"{sink.ref.comp}.{sink.ref.pin}; route it as a signal instead"
                )
            comp = self.design.slices[sink.ref.comp]
            r, c, s = comp.site
            pip = W.pip_by_wires(f"GCLK{g}", f"S{s}_CLK")
            pips.append((r, c, pip.index))
            sink.phys_pin = f"S{s}_CLK"
            sink.delay_ns = WIRE_DELAY_NS[WireKind.GCLK] + WIRE_DELAY_NS[WireKind.PIN_CLK]
        net.pips = pips
        net.routed = True

    # -- graph expansion ------------------------------------------------------------------

    def _neighbors(self, node: int):
        """Yield (next node, pip ref (r, c, index)) for all outgoing PIPs."""
        return self.device.fanout(node)

    # -- PathFinder ------------------------------------------------------------------------

    def _sink_heuristic(self, candidates: tuple[int, ...]):
        """Admissible A* lower bound for one sink's candidate set.

        Distance is measured to the *nearest* candidate tile; with one
        tile (the common case — a slice's ``F1..F4`` pins share it) that
        reduces to the plain Manhattan bound.
        """
        node_of = self.device.node_of
        tiles = sorted({node_of(c)[:2] for c in candidates})
        if len(tiles) == 1:
            ((tr, tc),) = tiles

            def h(node: int) -> float:
                r, c, _ = node_of(node)
                return (abs(r - tr) + abs(c - tc)) * _ASTAR_PER_TILE

        else:

            def h(node: int) -> float:
                r, c, _ = node_of(node)
                return min(
                    abs(r - tr) + abs(c - tc) for tr, tc in tiles
                ) * _ASTAR_PER_TILE

        return h

    def _unroutable(self, over: list[int]) -> RoutingError:
        self.stats.overused_final = len(over)
        names = ", ".join(self.device.node_str(n) for n in over[:8])
        ellipsis = "..." if len(over) > 8 else ""
        return RoutingError(
            f"unroutable after {self.stats.iterations} iterations: "
            f"{len(over)} overused nodes ({names}{ellipsis})"
        )

    def _pathfinder(self, tasks: list[_NetTask]) -> None:
        """PathFinder over flat array congestion state (module docstring).

        An iteration boundary visits only the sorted ids of nodes some tree
        occupies.  An idle node's cost does not involve ``pres_fac``, and
        its history last changed while it was occupied, so its cached cost
        is never stale."""
        num_nodes = self.device.num_nodes
        present = np.zeros(num_nodes, np.int64)
        history = np.zeros(num_nodes, np.float64)
        cost = _BASE_W * (num_nodes // NUM_WIRES)
        pres_fac = self.pres_fac_first
        over = np.empty(0, np.int64)

        order = list(range(len(tasks)))
        for iteration in range(1, self.max_iterations + 1):
            self.stats.iterations = iteration
            self.rng.shuffle(order)
            for ti in order:
                task = tasks[ti]
                if iteration > 1 and not (
                    task.tree_arr is not None
                    and bool((present[task.tree_arr] > 1).any())
                ):
                    continue
                self._rip_up(task, cost, present, pres_fac, history)
                self._route_net(task, cost, present, pres_fac, history)
            occupied = np.unique(np.concatenate([t.tree_arr for t in tasks]))
            over = occupied[present[occupied] > 1]
            if over.size == 0:
                break
            history[over] += self.hist_fac * (present[over] - 1)
            pres_fac *= self.pres_fac_mult
            # pres_fac changed: every occupied node's cached cost is stale
            base_w = _BASE_W
            for i, occ, hist in zip(
                occupied.tolist(), present[occupied].tolist(), history[occupied].tolist()
            ):
                cost[i] = base_w[i % NUM_WIRES] * (1.0 + pres_fac * occ) * (1.0 + hist)

        over = over.tolist()
        self.stats.overused_final = len(over)
        if over:
            raise self._unroutable(over)
        for task in tasks:
            self._commit(task)
            self.stats.routed += 1

    def _rip_up(
        self,
        task: _NetTask,
        cost: list[float],
        present: np.ndarray,
        pres_fac: float,
        history: np.ndarray,
    ) -> None:
        if task.tree_nodes:
            self.stats.rip_ups += 1
            base_w = _BASE_W
            for n in task.tree_nodes:
                occ = int(present[n]) - 1
                present[n] = occ
                cost[n] = (
                    base_w[n % NUM_WIRES]
                    * (1.0 + pres_fac * occ)
                    * (1.0 + float(history[n]))
                )
        task.tree_nodes = []
        task.node_prev = {}
        task.sink_paths = {}
        task.tree_arr = None

    def _route_net(
        self,
        task: _NetTask,
        cost: list[float],
        present: np.ndarray,
        pres_fac: float,
        history: np.ndarray,
    ) -> None:
        """Route one net as a tree of A* searches, one per sink, seeded
        from the tree built so far.  The per-neighbor cost is one ``cost``
        list read and the expansion walks the device's memoized successors;
        every node the tree claims has its occupancy and cost patched."""
        adj = self.device.successor_memo
        successors = self.device.successors
        locked = self._locked_nodes
        base_w = _BASE_W
        heappush, heappop = heapq.heappush, heapq.heappop
        inf = float("inf")
        tree: list[int] = [task.source]
        tree_set: set[int] = {task.source}
        prev: dict[int, tuple[int, tuple[int, int, int]] | None] = {task.source: None}

        used_pins: set[int] = set()
        pops = 0
        for sink_idx, (sink, candidates) in enumerate(task.sinks):
            cand_set = set(candidates) - used_pins
            if not cand_set:
                raise RoutingError(
                    f"net {task.net.name}: no free pin candidate left for "
                    f"{sink.ref.comp}.{sink.ref.pin}"
                )
            h = self._sink_heuristic(candidates)
            dist: dict[int, float] = {}
            dist_get = dist.get
            came: dict[int, tuple[int, tuple[int, int, int]]] = {}
            heap: list[tuple[float, float, int]] = []
            for n in tree:
                dist[n] = 0.0
                heappush(heap, (h(n), 0.0, n))
            self.stats.searches += 1
            found = None
            while heap:
                f, g, node = heappop(heap)
                pops += 1
                if g > dist_get(node, inf):
                    continue
                if node in cand_set:
                    found = node
                    break
                nbrs = adj.get(node)
                if nbrs is None:
                    nbrs = successors(node)
                for nxt, pip_ref, gated in nbrs:
                    if nxt in locked:
                        continue  # wire owned by a guide-adopted route
                    if gated and nxt not in cand_set:
                        continue  # never route *through* someone's input pin
                    ng = g + cost[nxt]
                    if ng < dist_get(nxt, inf):
                        dist[nxt] = ng
                        came[nxt] = (node, pip_ref)
                        heappush(heap, (ng + h(nxt), ng, nxt))
            if found is None:
                self.stats.nodes_popped += pops
                raise RoutingError(
                    f"net {task.net.name}: no path to sink "
                    f"{sink.ref.comp}.{sink.ref.pin} "
                    f"(candidates {[self.device.node_str(c) for c in candidates]})"
                )
            if sink.ref.pin in ("F", "G"):
                used_pins.add(found)
            # walk back, add path to tree
            path: list[int] = [found]
            node = found
            while node not in tree_set:
                pnode, pip_ref = came[node]
                prev[node] = (pnode, pip_ref)
                path.append(pnode)
                node = pnode
            path.reverse()
            for n in path:
                if n not in tree_set:
                    tree_set.add(n)
                    tree.append(n)
                    occ = int(present[n]) + 1
                    present[n] = occ
                    cost[n] = (
                        base_w[n % NUM_WIRES]
                        * (1.0 + pres_fac * occ)
                        * (1.0 + float(history[n]))
                    )
            task.sink_paths[sink_idx] = self._full_path(prev, found)
        self.stats.nodes_popped += pops
        # the source node also occupies its wire
        src = task.source
        occ = int(present[src]) + 1
        present[src] = occ
        cost[src] = (
            base_w[src % NUM_WIRES]
            * (1.0 + pres_fac * occ)
            * (1.0 + float(history[src]))
        )
        task.tree_nodes = tree
        task.tree_arr = np.asarray(tree, np.int64)
        task.node_prev = {n: p for n, p in prev.items() if p is not None}

    def _full_path(self, prev, node: int) -> list[int]:
        path = [node]
        while prev.get(node) is not None:
            node = prev[node][0]
            path.append(node)
        path.reverse()
        return path

    # -- commit --------------------------------------------------------------------------------

    def _commit(self, task: _NetTask) -> None:
        net = task.net
        net.pips = sorted({pip for _, pip in task.node_prev.values()})
        for sink_idx, (sink, _) in enumerate(task.sinks):
            path = task.sink_paths[sink_idx]
            end = path[-1]
            _, _, w = self.device.node_of(end)
            sink.phys_pin = W.WIRES[w]
            sink.delay_ns = sum(
                WIRE_DELAY_NS[WIRE_KIND[self.device.node_of(n)[2]]] for n in path[1:]
            )
        net.routed = True

    def _commit_pin_maps(self) -> None:
        """Record the physical pin chosen for every LUT logical input."""
        for net in self.design.nets.values():
            for sink in net.sinks:
                ref = sink.ref
                if ref.pin not in ("F", "G") or sink.phys_pin is None:
                    continue
                comp = self.design.slices[ref.comp]
                bel = comp.bels[ref.pin]
                if bel.pin_map is None:
                    bel.pin_map = [-1] * bel.lut_width
                # phys_pin looks like "S0_F3" -> physical index 2
                phys_idx = int(sink.phys_pin[-1]) - 1
                bel.pin_map[ref.logical_index] = phys_idx
        for comp in self.design.slices.values():
            for bel in comp.bels.values():
                if bel.pin_map is not None and -1 in bel.pin_map:
                    raise RoutingError(
                        f"{comp.name}.{bel.letter}: incomplete pin map {bel.pin_map}"
                    )


def route(design: NcdDesign, *, seed: int | None = None, **kwargs) -> RoutingStats:
    """Route ``design`` in place; see :class:`Router`."""
    return Router(design, seed=seed, **kwargs).run()
