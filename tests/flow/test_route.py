"""Router tests: completion, legality, pin maps, clock handling."""

import pytest

from repro.devices import get_device
from repro.devices import wires as W
from repro.errors import RoutingError
from repro.flow.pack import pack
from repro.flow.place import place
from repro.flow.route import route
from repro.flow.techmap import techmap
from repro.netlist import NetlistBuilder
from tests.conftest import build_counter_netlist
from tests.flow.test_vectorized import packed_design, routing_of


def routed_design(width=4, seed=1):
    nl, _ = build_counter_netlist(width)
    techmap(nl)
    design, _ = pack(nl, "XCV50")
    place(design, seed=seed)
    stats = route(design, seed=seed)
    return design, stats


class TestCompletion:
    def test_all_nets_routed(self, counter_flow):
        assert counter_flow.design.routed()
        assert counter_flow.route_stats.overused_final == 0

    def test_requires_placement(self):
        nl, _ = build_counter_netlist()
        techmap(nl)
        design, _ = pack(nl, "XCV50")
        with pytest.raises(RoutingError, match="placed"):
            route(design)

    def test_all_sinks_resolved(self, counter_flow):
        for net in counter_flow.design.nets.values():
            for sink in net.sinks:
                assert sink.phys_pin is not None
                assert sink.delay_ns > 0


class TestLegality:
    def test_no_wire_shared_between_nets(self, counter_flow):
        """Two nets may never drive the same routing wire."""
        design = counter_flow.design
        dev = get_device(design.part)
        dst_owner: dict[tuple, str] = {}
        for net in design.nets.values():
            if net.is_clock:
                continue
            for r, c, p in net.pips:
                pip = W.PIP_TABLE[p]
                key = dev.canonical_wire(r, c, pip.dst)
                assert dst_owner.setdefault(key, net.name) == net.name, key
        # and within one net, each wire has exactly one driving PIP
        for net in design.nets.values():
            dsts = [
                dev.canonical_wire(r, c, W.PIP_TABLE[p].dst)
                for r, c, p in net.pips
            ]
            assert len(dsts) == len(set(dsts)), net.name

    def test_pips_valid_on_device(self, counter_flow):
        design = counter_flow.design
        dev = get_device(design.part)
        for net in design.nets.values():
            for r, c, p in net.pips:
                assert dev.pip_valid(r, c, W.PIP_TABLE[p])

    def test_tree_connectivity(self, counter_flow):
        """Every sink must be reachable from the source via active PIPs."""
        design = counter_flow.design
        dev = get_device(design.part)
        for net in design.nets.values():
            if net.is_clock:
                continue
            edges: dict[int, int] = {}
            for r, c, p in net.pips:
                pip = W.PIP_TABLE[p]
                dr, dc, w = pip.src
                src = dev.node_id(r + dr, c + dc, w) if 0 <= r + dr < dev.rows and 0 <= c + dc < dev.cols else dev.node_id(r, c, w)
                dst = dev.node_id(r, c, pip.dst)
                edges[dst] = src
            # resolve source node
            comp = design.slices.get(net.source.comp)
            if comp is not None:
                rr, cc, s = comp.site
                src_node = dev.node_id(rr, cc, W.wire_index(f"S{s}_{net.source.pin}"))
            else:
                iob = design.iobs[net.source.comp]
                rr, cc = dev.geometry.iob_tile(iob.site)
                iw = dev.geometry.io_wire_index(iob.site)
                src_node = dev.node_id(rr, cc, W.wire_index(f"IO_IN{iw}"))
            for sink in net.sinks:
                comp = design.slices.get(sink.ref.comp)
                if comp is not None:
                    rr, cc, s = comp.site
                    node = dev.node_id(rr, cc, W.wire_index(sink.phys_pin))
                else:
                    iob = design.iobs[sink.ref.comp]
                    rr, cc = dev.geometry.iob_tile(iob.site)
                    iw = dev.geometry.io_wire_index(iob.site)
                    node = dev.node_id(rr, cc, W.wire_index(f"IO_OUT{iw}"))
                hops = 0
                while node != src_node:
                    assert node in edges, (
                        f"{net.name}: sink {sink.ref.comp}.{sink.ref.pin} "
                        f"disconnected at {dev.node_str(node)}"
                    )
                    node = edges[node]
                    hops += 1
                    assert hops < 10000


class TestPinMaps:
    def test_pin_maps_complete_and_injective(self, counter_flow):
        for comp in counter_flow.design.slices.values():
            for bel in comp.bels.values():
                if bel.lut_cell is None or bel.pin_map is None:
                    continue
                assert len(bel.pin_map) == bel.lut_width
                assert len(set(bel.pin_map)) == bel.lut_width
                assert all(0 <= p < 4 for p in bel.pin_map)

    def test_phys_pin_matches_pin_map(self, counter_flow):
        design = counter_flow.design
        for net in design.nets.values():
            for sink in net.sinks:
                if sink.ref.pin in ("F", "G"):
                    bel = design.slices[sink.ref.comp].bels[sink.ref.pin]
                    phys_idx = int(sink.phys_pin[-1]) - 1
                    assert bel.pin_map[sink.ref.logical_index] == phys_idx


class TestClocks:
    def test_clock_routed_on_gclk(self, counter_flow):
        design = counter_flow.design
        clock = next(n for n in design.nets.values() if n.is_clock)
        assert clock.routed
        g = next(iter(design.gclks.values())).index
        for r, c, p in clock.pips:
            pip = W.PIP_TABLE[p]
            assert pip.src_name == f"GCLK{g}"
            assert pip.dst_name.endswith("_CLK")

    def test_one_pip_per_clocked_slice(self, counter_flow):
        design = counter_flow.design
        clock = next(n for n in design.nets.values() if n.is_clock)
        assert len(clock.pips) == len(clock.sinks)


class TestStress:
    def test_denser_design_routes(self):
        design, stats = routed_design(width=10, seed=4)
        assert design.routed()
        assert stats.overused_final == 0

    def test_stats_populated(self):
        _, stats = routed_design()
        assert stats.nets > 0
        assert stats.routed == stats.nets
        assert stats.total_pips > 0
        assert stats.searches > 0


def placed_design(width, seed):
    design = packed_design(width)
    place(design, seed=seed)
    return design


class TestSharedRoutingGraph:
    """The successor memo lives on the shared Device: every flow reads
    it, so a warm, a cleared and an overflowing memo must route alike."""

    def test_warm_memo_routes_like_cleared(self):
        memo = get_device("XCV50").successor_memo
        route(placed_design(6, 7), seed=7)  # an unrelated flow warms the memo
        warm_design = placed_design(8, 1)
        warm = route(warm_design, seed=1)
        memo.clear()
        cold_design = placed_design(8, 1)
        cold = route(cold_design, seed=1)
        assert memo  # the cold run refilled it
        assert routing_of(warm_design) == routing_of(cold_design)
        assert warm.nodes_popped == cold.nodes_popped
        assert warm.iterations == cold.iterations

    def test_memo_overflow_stays_bounded(self, monkeypatch):
        from repro.devices import device as device_mod

        memo = get_device("XCV50").successor_memo
        memo.clear()
        reference = placed_design(8, 1)
        route(reference, seed=1)
        assert len(memo) > 64
        monkeypatch.setattr(device_mod, "SUCCESSOR_MEMO_MAX", 64)
        memo.clear()
        overflowed = placed_design(8, 1)
        route(overflowed, seed=1)
        assert 0 < len(memo) <= 64
        later = placed_design(8, 1)
        route(later, seed=1)
        assert len(memo) <= 64
        assert routing_of(overflowed) == routing_of(reference)
        assert routing_of(later) == routing_of(reference)

    def test_unroutable_lists_overused_nodes_in_id_order(self):
        """Out of iterations: the touched-node sweep reports the same
        overuse a sweep over every node would, in ascending id order."""
        dev = get_device("XCV50")
        design = placed_design(8, 1)
        with pytest.raises(RoutingError, match="unroutable after 1 iterations") as err:
            route(design, seed=1, max_iterations=1)
        names = str(err.value).split("(", 1)[1].rstrip(".)").split(", ")
        ids = []
        for name in names:
            tile, wire = name.split(".")
            r, c = tile[1:].split("C")
            ids.append(dev.node_id(int(r) - 1, int(c) - 1, W.wire_index(wire)))
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
