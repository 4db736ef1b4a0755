"""Device facade tests: bit locations, node ids, PIP validity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices import Device, get_device
from repro.devices import wires as W
from repro.devices.geometry import IobSite, Side
from repro.devices.resources import SLICE, BitCoord, pip_coord
from repro.errors import DeviceError


@pytest.fixture(scope="module")
def dev():
    return get_device("XCV50")


class TestIdentity:
    def test_cached(self):
        assert get_device("XCV50") is get_device("xcv50")

    def test_equality_by_part(self, dev):
        assert dev == Device("XCV50")
        assert dev != get_device("XCV100")
        assert hash(dev) == hash(Device("XCV50"))


class TestBitLocations:
    def test_clb_bit_location_layout(self, dev):
        g = dev.geometry
        frame, bit = dev.clb_bit_location(0, 0, BitCoord(0, 0))
        assert frame == g.frame_base(1)
        assert bit == g.row_bit_offset(0)

    def test_distinct_tiles_distinct_locations(self, dev):
        locs = {
            dev.clb_bit_location(r, c, BitCoord(5, 7))
            for r in range(dev.rows) for c in range(0, dev.cols, 3)
        }
        assert len(locs) == dev.rows * len(range(0, dev.cols, 3))

    def test_same_column_same_frame(self, dev):
        f1, b1 = dev.clb_bit_location(0, 3, BitCoord(9, 0))
        f2, b2 = dev.clb_bit_location(9, 3, BitCoord(9, 0))
        assert f1 == f2  # frames span the whole column
        assert b1 != b2

    def test_field_locations_within_frame(self, dev):
        for coord in SLICE[1].G.coords:
            frame, bit = dev.clb_bit_location(7, 11, coord)
            assert 0 <= bit < dev.geometry.frame_bits

    def test_pip_location(self, dev):
        frame, bit = dev.pip_bit_location(2, 2, 0)
        f2, b2 = dev.clb_bit_location(2, 2, pip_coord(0))
        assert (frame, bit) == (f2, b2)

    def test_out_of_range_tile(self, dev):
        with pytest.raises(DeviceError):
            dev.clb_bit_location(16, 0, BitCoord(0, 0))

    def test_iob_locations_side_dependent(self, dev):
        g = dev.geometry
        fl, _ = dev.iob_bit_location(IobSite(Side.LEFT, 2, 0), 0)
        fr, _ = dev.iob_bit_location(IobSite(Side.RIGHT, 2, 0), 0)
        ft, bt = dev.iob_bit_location(IobSite(Side.TOP, 4, 1), 1)
        assert fl == g.frame_base(g.major_of_iob(Side.LEFT))
        assert fr == g.frame_base(g.major_of_iob(Side.RIGHT))
        assert ft == g.frame_base(g.major_of_clb_col(4))
        assert bt < 18  # top region

    def test_iob_locations_unique(self, dev):
        locs = set()
        for site in dev.geometry.iob_sites:
            for which in (0, 1):
                loc = dev.iob_bit_location(site, which)
                assert loc not in locs
                locs.add(loc)

    def test_gclk_locations(self, dev):
        frames = {dev.gclk_bit_location(g)[0] for g in range(4)}
        assert len(frames) == 4
        with pytest.raises(DeviceError):
            dev.gclk_bit_location(4)


class TestNodeSpace:
    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=23),
        st.integers(min_value=0, max_value=W.NUM_WIRES - 1),
    )
    def test_property_node_roundtrip(self, r, c, w):
        dev = get_device("XCV50")
        node = dev.node_id(r, c, w)
        rr, cc, ww = dev.node_of(node)
        assert (rr, cc, ww) == dev.canonical_wire(r, c, w)

    def test_long_lines_canonicalized(self, dev):
        lh = W.wire_index("LH2")
        assert dev.node_id(5, 0, lh) == dev.node_id(5, 13, lh)
        lv = W.wire_index("LV1")
        assert dev.node_id(0, 9, lv) == dev.node_id(12, 9, lv)

    def test_gclk_canonicalized(self, dev):
        g = W.wire_index("GCLK0")
        assert dev.node_id(3, 3, g) == dev.node_id(0, 0, g)

    def test_regular_wires_distinct(self, dev):
        se = W.wire_index("SE0")
        assert dev.node_id(1, 1, se) != dev.node_id(1, 2, se)

    def test_node_str(self, dev):
        node = dev.node_id(2, 22, W.wire_index("SE2"))
        assert dev.node_str(node) == "R3C23.SE2"


class TestPipValidity:
    def test_interior_tile_all_neighbour_pips_valid(self, dev):
        valid = dev.tile_pips(8, 12)
        assert len(valid) == W.NUM_PIPS

    def test_corner_tile_clips(self, dev):
        corner = dev.tile_pips(0, 0)
        assert len(corner) < W.NUM_PIPS
        # arriving singles from west/north cannot exist at (0,0)
        for p in corner:
            dr, dc, w = p.src
            sr, sc = 0 + dr, 0 + dc
            kind = W.WIRE_KIND[w]
            if kind not in (W.WireKind.LONG_H, W.WireKind.LONG_V, W.WireKind.GCLK):
                assert 0 <= sr < dev.rows and 0 <= sc < dev.cols

    def test_spanning_sources_always_valid(self, dev):
        lh_taps = [
            p for p in W.PIP_TABLE if W.WIRE_KIND[p.src[2]] is W.WireKind.LONG_H
        ]
        for p in lh_taps:
            assert dev.pip_valid(0, 0, p)


class TestRoutingGraph:
    def test_successors_memoize_the_fanout(self, dev):
        node = dev.node_id(4, 5, W.wire_index("S0_X"))
        dev.successor_memo.pop(node, None)
        entries = dev.successors(node)
        assert [(n, p) for n, p, _ in entries] == list(dev.fanout(node))
        assert dev.successors(node) is entries
        gated = {n for n, _, g in entries if g}
        assert gated == {n for n, _, _ in entries
                         if W.WIRE_KIND[n % W.NUM_WIRES] in
                         (W.WireKind.PIN_IN, W.WireKind.IO_OUT)}

    def test_long_line_spans_the_row(self, dev):
        long_h = next(i for i, k in enumerate(W.WIRE_KIND) if k is W.WireKind.LONG_H)
        cols = {p[1] for _, p, _ in dev.successors(dev.node_id(2, 0, long_h))}
        assert cols == set(range(dev.cols))

    def test_clock_lines_have_no_general_successors(self, dev):
        gclk = next(i for i, k in enumerate(W.WIRE_KIND) if k is W.WireKind.GCLK)
        assert dev.successors(dev.node_id(0, 0, gclk)) == ()
