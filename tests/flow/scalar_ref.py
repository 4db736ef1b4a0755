"""Scalar reference placer and router: the oracle for the array engines.

The production :class:`~repro.flow.place.Placer` and
:class:`~repro.flow.route.Router` keep their cost state in flat arrays.
The classes here override only the cost hooks (``_total_cost`` and
``_try_move`` for placement, ``_pathfinder`` for routing) with the
straightforward per-net / dict implementations the array code was derived
from.  Both consume the seeded RNG in exactly the same order and compute
bit-identical costs, so a given seed must produce the same sites and the
same PIPs — ``tests/flow/test_vectorized.py`` asserts that, on small
designs and on both :func:`~repro.workloads.flow_cases` designs, and
``benchmarks/bench_pnr_time.py`` times the array engine against this
baseline.

:func:`scalar_engines` swaps the flow driver's ``place``/``route`` for the
reference versions, so the real :func:`~repro.flow.driver.run_flow` can be
run end to end on either implementation.
"""

from __future__ import annotations

import contextlib
import heapq

from repro.devices.wires import WIRE_DELAY_NS, WIRE_KIND, WireKind
from repro.errors import RoutingError
from repro.flow import driver
from repro.flow.place import Placer, PlacementStats, _CompState
from repro.flow.route import _HOP_COST, Router, RoutingStats, _NetTask


class ScalarPlacer(Placer):
    """:class:`Placer` with per-net python cost loops over ``net_terms``."""

    def _build_arrays(self) -> None:
        """The scalar engine keeps no array mirror of the placement."""

    def _net_cost(self, net_name: str) -> float:
        rows, cols = [], []
        for t in self.net_terms[net_name]:
            r, c = self._tile_of(self.comps[t])
            rows.append(r)
            cols.append(c)
        return (max(rows) - min(rows)) + (max(cols) - min(cols))

    def _total_cost(self) -> float:
        self.net_cost = {n: self._net_cost(n) for n in self.net_terms}
        return sum(self.net_cost.values())

    def _try_move(self, movable: list[_CompState], temperature: float, dry: bool = False):
        """Propose one move; returns the accepted delta or None."""
        proposal = self._propose(movable)
        if proposal is None:
            return None
        state, target, other = proposal

        affected = set(state.nets) | (set(other.nets) if other else set())
        before = sum(self.net_cost[n] for n in affected)
        old_site = state.site
        self._relocate(state, target, other, old_site)
        # one evaluation per affected net: the same values decide the move
        # and, on acceptance, refresh the cost cache
        after_costs = {n: self._net_cost(n) for n in affected}
        after = sum(after_costs.values())
        delta = after - before

        accept = self._accept(delta, temperature)
        if accept and not dry:
            self.net_cost.update(after_costs)
            return delta
        # revert
        self._relocate(state, old_site, other, target)
        return delta if dry and accept else None


class ScalarRouter(Router):
    """:class:`Router` with dict congestion maps and a per-visit cost closure."""

    def __init__(self, design, **kwargs):
        super().__init__(design, **kwargs)
        self._base_cost = {
            kind: _HOP_COST + WIRE_DELAY_NS[kind] for kind in WireKind
        }

    def _pathfinder(self, tasks: list[_NetTask]) -> None:
        present: dict[int, int] = {}
        history: dict[int, float] = {}
        pres_fac = self.pres_fac_first

        def node_cost(node: int) -> float:
            _, _, w = self.device.node_of(node)
            base = self._base_cost[WIRE_KIND[w]]
            occ = present.get(node, 0)
            penalty = 1.0 + pres_fac * occ
            return base * penalty * (1.0 + history.get(node, 0.0))

        order = list(range(len(tasks)))
        for iteration in range(1, self.max_iterations + 1):
            self.stats.iterations = iteration
            self.rng.shuffle(order)
            for ti in order:
                task = tasks[ti]
                if iteration > 1 and not self._is_congested(task, present):
                    continue
                self._scalar_rip_up(task, present)
                self._scalar_route_net(task, node_cost, present)
            over = [n for n, occ in present.items() if occ > 1]
            if not over:
                break
            for n in over:
                history[n] = history.get(n, 0.0) + self.hist_fac * (present[n] - 1)
            pres_fac *= self.pres_fac_mult

        over = [n for n, occ in present.items() if occ > 1]
        self.stats.overused_final = len(over)
        if over:
            raise self._unroutable(over)
        for task in tasks:
            self._commit(task)
            self.stats.routed += 1

    def _is_congested(self, task: _NetTask, present: dict[int, int]) -> bool:
        return any(present.get(n, 0) > 1 for n in task.tree_nodes)

    def _scalar_rip_up(self, task: _NetTask, present: dict[int, int]) -> None:
        if task.tree_nodes:
            self.stats.rip_ups += 1
        for n in task.tree_nodes:
            occ = present.get(n, 0) - 1
            if occ > 0:
                present[n] = occ
            else:
                present.pop(n, None)
        task.tree_nodes = []
        task.node_prev = {}
        task.sink_paths = {}

    def _scalar_route_net(self, task: _NetTask, node_cost, present: dict[int, int]) -> None:
        dev = self.device
        tree: list[int] = [task.source]
        tree_set: set[int] = {task.source}
        prev: dict[int, tuple[int, tuple[int, int, int]] | None] = {task.source: None}

        used_pins: set[int] = set()
        for sink_idx, (sink, candidates) in enumerate(task.sinks):
            cand_set = set(candidates) - used_pins
            if not cand_set:
                raise RoutingError(
                    f"net {task.net.name}: no free pin candidate left for "
                    f"{sink.ref.comp}.{sink.ref.pin}"
                )
            h = self._sink_heuristic(candidates)
            dist: dict[int, float] = {}
            came: dict[int, tuple[int, tuple[int, int, int]]] = {}
            heap: list[tuple[float, float, int]] = []
            for n in tree:
                dist[n] = 0.0
                heapq.heappush(heap, (h(n), 0.0, n))
            self.stats.searches += 1
            found = None
            while heap:
                f, g, node = heapq.heappop(heap)
                self.stats.nodes_popped += 1
                if g > dist.get(node, float("inf")):
                    continue
                if node in cand_set:
                    found = node
                    break
                for nxt, pip_ref in self._neighbors(node):
                    if nxt in self._locked_nodes:
                        continue  # wire owned by a guide-adopted route
                    kind = WIRE_KIND[dev.node_of(nxt)[2]]
                    if kind in (WireKind.PIN_IN, WireKind.IO_OUT) and nxt not in cand_set:
                        continue  # never route *through* someone's input pin
                    ng = g + node_cost(nxt)
                    if ng < dist.get(nxt, float("inf")):
                        dist[nxt] = ng
                        came[nxt] = (node, pip_ref)
                        heapq.heappush(heap, (ng + h(nxt), ng, nxt))
            if found is None:
                raise RoutingError(
                    f"net {task.net.name}: no path to sink "
                    f"{sink.ref.comp}.{sink.ref.pin} "
                    f"(candidates {[dev.node_str(c) for c in candidates]})"
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
                    present[n] = present.get(n, 0) + 1
            task.sink_paths[sink_idx] = self._full_path(prev, found)
        # the source node also occupies its wire
        present[task.source] = present.get(task.source, 0) + 1
        task.tree_nodes = tree
        task.node_prev = {n: p for n, p in prev.items() if p is not None}


def place(design, constraints=None, **kwargs) -> PlacementStats:
    """:func:`repro.flow.place.place` on the scalar reference placer."""
    return ScalarPlacer(design, constraints, **kwargs).run()


def route(design, **kwargs) -> RoutingStats:
    """:func:`repro.flow.route.route` on the scalar reference router."""
    return ScalarRouter(design, **kwargs).run()


@contextlib.contextmanager
def scalar_engines():
    """Run :func:`repro.flow.driver.run_flow` on the reference placer and
    router for the duration of the block."""
    saved = driver.place, driver.route
    driver.place, driver.route = place, route
    try:
        yield
    finally:
        driver.place, driver.route = saved
