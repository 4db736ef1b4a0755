"""Array-engine equivalence with the scalar reference, plus hot-loop
bug regressions.

The production placer and router are only trustworthy if a given seed
produces the *same* placement and routing as the scalar reference in
:mod:`tests.flow.scalar_ref` — HPWL costs are integers, congestion costs
are ordered identically, and both consume the RNG in the same order, so
equality here is exact, not approximate.
"""

import math

import pytest

from repro.devices import wires as W
from repro.flow import run_flow
from repro.flow.floorplan import AreaGroup, Constraints, RegionRect
from repro.flow.pack import pack
from repro.flow.place import place
from repro.flow.route import Router, route
from repro.flow.techmap import techmap
from repro.obs import Metrics, use_metrics
from repro.workloads import flow_cases
from tests.conftest import build_counter_netlist
from tests.flow import scalar_ref
from tests.flow.scalar_ref import ScalarPlacer, scalar_engines

#: (place, route) of the scalar reference, then of the production engine.
ENGINES = ((scalar_ref.place, scalar_ref.route), (place, route))


def packed_design(width=4):
    nl, _ = build_counter_netlist(width)
    techmap(nl)
    design, _ = pack(nl, "XCV50")
    return design


def placement_of(design):
    sites = {n: c.site for n, c in design.slices.items()}
    sites.update({n: str(c.site) for n, c in design.iobs.items()})
    return sites


def routing_of(design):
    return (
        {n.name: sorted(n.pips) for n in design.nets.values()},
        {
            (n.name, i): (s.phys_pin, round(s.delay_ns, 9))
            for n in design.nets.values()
            for i, s in enumerate(n.sinks)
        },
    )


class TestPlacementEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("width", [4, 8])
    def test_same_seed_same_placement(self, seed, width):
        designs, costs = [], []
        for place_fn, _ in ENGINES:
            design = packed_design(width)
            stats = place_fn(design, seed=seed)
            designs.append(placement_of(design))
            costs.append((stats.initial_cost, stats.final_cost))
        assert designs[0] == designs[1]
        assert costs[0] == costs[1]

    def test_constrained_placement_identical(self):
        cons = Constraints(
            groups=[AreaGroup("AG", ["u1/*"], RegionRect(0, 2, 15, 7))]
        )
        placements = []
        for place_fn, _ in ENGINES:
            design = packed_design(8)
            place_fn(design, cons, seed=3)
            placements.append(placement_of(design))
        assert placements[0] == placements[1]
        region = RegionRect(0, 2, 15, 7)
        for name, site in placements[0].items():
            if name.startswith("u1/"):
                assert region.contains(site[0], site[1])

    def test_same_engine_reproducible(self):
        a, b = packed_design(), packed_design()
        place(a, seed=9)
        place(b, seed=9)
        assert placement_of(a) == placement_of(b)


class TestRoutingEquivalence:
    @pytest.mark.parametrize("seed", [1, 4, 42])
    def test_same_seed_same_routing(self, seed):
        routings, stats = [], []
        for _, route_fn in ENGINES:
            design = packed_design(8)
            place(design, seed=seed)
            st = route_fn(design, seed=seed)
            routings.append(routing_of(design))
            stats.append(st)
        assert routings[0] == routings[1]
        assert stats[0].nodes_popped == stats[1].nodes_popped
        assert stats[0].iterations == stats[1].iterations
        assert stats[0].rip_ups == stats[1].rip_ups

    def test_rip_up_stat_counts_reroutes(self):
        design = packed_design(8)
        place(design, seed=1)
        st = route(design, seed=1)
        # width-8 at this seed needs multiple PathFinder iterations, so
        # some established trees must have been torn down and re-routed
        assert st.iterations > 1
        assert st.rip_ups > 0


class TestFlowEquivalence:
    def test_scalar_engines_swaps_and_restores_the_driver(self):
        from repro.flow import driver

        with scalar_engines():
            assert driver.place is scalar_ref.place
            assert driver.route is scalar_ref.route
        assert driver.place is place
        assert driver.route is route

    def test_full_flow_identical_across_engines(self):
        nl, _ = build_counter_netlist(6)
        with scalar_engines():
            scalar = run_flow(nl, "XCV50", seed=2)
        results = [scalar, run_flow(nl, "XCV50", seed=2)]
        assert placement_of(results[0].design) == placement_of(results[1].design)
        assert routing_of(results[0].design) == routing_of(results[1].design)
        assert results[0].timing.fmax_mhz == results[1].timing.fmax_mhz

    def test_figure4_base_identical_across_engines(self):
        """The counter designs have no two-terminal nets, so only a
        larger design exercises the placer's two-term HPWL shortcut."""
        _, part, nl, cons = flow_cases()[0]
        with scalar_engines():
            scalar = run_flow(nl, part, cons, seed=5)
        array = run_flow(nl, part, cons, seed=5)
        assert any(
            len(n.sinks) == 1 for n in array.design.nets.values() if not n.is_clock
        )
        assert placement_of(scalar.design) == placement_of(array.design)
        assert routing_of(scalar.design) == routing_of(array.design)

    def test_scale_base_identical_across_engines(self):
        """The XCV1000 flow case: 12 constrained regions on the largest
        catalog part."""
        _, part, nl, cons = flow_cases()[1]
        with scalar_engines():
            scalar = run_flow(nl, part, cons, seed=5)
        array = run_flow(nl, part, cons, seed=5)
        assert placement_of(scalar.design) == placement_of(array.design)
        assert routing_of(scalar.design) == routing_of(array.design)

    @pytest.mark.parametrize("case", [0, 1], ids=["fig4-XCV100", "scale-XCV1000"])
    def test_array_engine_repeats_with_fixed_seed(self, case):
        _, part, nl, cons = flow_cases()[case]
        first, second = (run_flow(nl, part, cons, seed=5) for _ in range(2))
        assert placement_of(first.design) == placement_of(second.design)
        assert routing_of(first.design) == routing_of(second.design)

    def test_guide_adoption_unaffected_by_engine(self):
        nl, _ = build_counter_netlist(6)
        base = run_flow(nl, "XCV50", seed=2)
        with scalar_engines():
            scalar = run_flow(nl, "XCV50", guide=base.design, seed=2)
        reused = []
        for res in (scalar, run_flow(nl, "XCV50", guide=base.design, seed=2)):
            reused.append(res.route_stats.nets_reused)
            assert res.design.routed()
        assert reused[0] == reused[1]
        assert reused[0] > 0


class TestTryMoveSingleEvaluation:
    def test_accepted_move_evaluates_each_net_once(self, monkeypatch):
        """Regression: ``_try_move`` used to recompute every affected
        net's cost a second time after accepting a move."""
        design = packed_design(8)
        placer = ScalarPlacer(design, seed=3)
        placer._assign_gclks()
        placer._build_state()
        placer._initial_placement()
        placer._total_cost()
        movable = [s for s in placer.comps.values() if not s.fixed]

        calls = []
        real_net_cost = ScalarPlacer._net_cost
        monkeypatch.setattr(
            ScalarPlacer, "_net_cost",
            lambda self, net: calls.append(net) or real_net_cost(self, net),
        )
        proposals = []
        real_propose = ScalarPlacer._propose
        monkeypatch.setattr(
            ScalarPlacer, "_propose",
            lambda self, m: proposals.append(real_propose(self, m)) or proposals[-1],
        )

        accepted = 0
        for _ in range(200):
            calls.clear()
            delta = placer._try_move(movable, temperature=math.inf)
            if delta is None or proposals[-1] is None:
                continue
            accepted += 1
            state, _, other = proposals[-1]
            affected = set(state.nets) | (set(other.nets) if other else set())
            assert len(calls) == len(affected)
        assert accepted > 0


class TestSinkHeuristic:
    def test_multi_tile_candidates_use_nearest(self):
        """Regression: the A* heuristic assumed all sink candidates share
        a tile; with candidates in different tiles it must lower-bound
        against the *nearest* one to stay admissible."""
        design = packed_design()
        place(design, seed=1)
        router = Router(design, seed=1)
        dev = router.device
        w = W.wire_index("S0_F1")   # tile-local wire (no canonicalization)
        near = dev.node_id(0, 1, w)
        far = dev.node_id(10, 10, w)
        h = router._sink_heuristic((far, near))
        # a node one tile from `near` must be bounded by that distance,
        # not by its distance to the first-listed candidate
        probe = dev.node_id(0, 0, w)
        assert h(probe) == pytest.approx(1 * 0.20)
        assert h(near) == 0.0

    def test_single_tile_unchanged(self):
        design = packed_design()
        place(design, seed=1)
        router = Router(design, seed=1)
        dev = router.device
        w = W.wire_index("S0_F1")
        cands = tuple(
            dev.node_id(3, 4, W.wire_index(f"S0_F{k}")) for k in range(1, 5)
        )
        h = router._sink_heuristic(cands)
        assert h(dev.node_id(3, 9, w)) == pytest.approx(5 * 0.20)


class TestUnroutableMessage:
    def _router(self):
        design = packed_design()
        place(design, seed=1)
        return Router(design, seed=1)

    def test_short_list_not_elided(self):
        router = self._router()
        err = router._unroutable(list(range(3)))
        assert "3 overused nodes" in str(err)
        assert "..." not in str(err)

    def test_long_list_elided(self):
        router = self._router()
        err = router._unroutable(list(range(12)))
        assert "12 overused nodes" in str(err)
        assert str(err).rstrip(")").endswith("...")
        # only the first 8 are spelled out
        assert str(err).count("R1C1.") <= 8


class TestFlowMetrics:
    def test_flow_counters_and_stage_timers(self):
        nl, _ = build_counter_netlist()
        metrics = Metrics()
        with use_metrics(metrics):
            run_flow(nl, "XCV50", seed=1)
        assert metrics.counter("flow.place.moves_attempted") > 0
        assert metrics.counter("flow.place.moves_accepted") > 0
        assert metrics.counter("flow.place.temperatures") > 0
        assert metrics.counter("flow.route.searches") > 0
        assert metrics.counter("flow.route.astar_pops") > 0
        for stage in ("flow.techmap", "flow.pack", "flow.place",
                      "flow.route", "flow.timing"):
            assert stage in metrics.timers, stage
