"""The :class:`Device` facade: one object describing a whole part.

A ``Device`` combines the part catalog entry, the configuration-frame
geometry, the CLB resource space, and the routing fabric, and provides the
coordinate translations everything else uses:

* tile resource bit -> (linear frame index, bit offset within frame),
* routing-node encoding for the router (tile, wire) <-> integer id,
* canonicalization of chip-spanning wires (long lines, global clocks),
* the routing graph: each node's outgoing PIPs, memoized per device so
  every flow, the oracle router and JRoute walk one shared graph.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import DeviceError
from . import resources, wires
from .family import PartInfo, part_info
from .geometry import Geometry, IobSite, Side
from .resources import BitCoord, pip_coord
from .wires import NUM_WIRES, WIRE_KIND, WireKind

#: Nodes whose successors one device memoizes; filling the memo past this
#: clears it, bounding it (about 40 MB on XCV1000) however many flows
#: route.  The XCV1000 benchmark's 121 flows visit 10,800 nodes.
SUCCESSOR_MEMO_MAX = 1 << 14

#: Wire kinds a search may only enter when they are the sink being aimed
#: for (never route *through* someone's input pin).
_GATED_KINDS = frozenset((WireKind.PIN_IN, WireKind.IO_OUT))


class Device:
    """A Virtex-class part: geometry + resources + routing fabric."""

    def __init__(self, part: str | PartInfo):
        self.part: PartInfo = part if isinstance(part, PartInfo) else part_info(part)
        self.geometry = Geometry(self.part)
        self.rows = self.geometry.rows
        self.cols = self.geometry.cols
        #: :meth:`successors` memo; hot loops may ``get`` from it directly
        self.successor_memo: dict[int, tuple] = {}

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.part.name

    @property
    def spec(self) -> PartInfo:
        """The declarative geometry spec this device was built from."""
        return self.part

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Device) and other.part.name == self.part.name

    def __hash__(self) -> int:
        return hash(self.part.name)

    # -- frame-bit locations ---------------------------------------------------

    def clb_bit_location(self, row: int, col: int, coord: BitCoord) -> tuple[int, int]:
        """(linear frame index, bit offset) of a CLB tile configuration bit."""
        g = self.geometry
        g.check_tile(row, col)
        frame = g.frame_base(g.major_of_clb_col(col)) + coord.minor
        return frame, g.row_bit_offset(row) + coord.rowbit

    def pip_bit_location(self, row: int, col: int, pip_index: int) -> tuple[int, int]:
        """(frame, bit) of routing PIP ``pip_index`` of a tile."""
        return self.clb_bit_location(row, col, pip_coord(pip_index))

    def iob_bit_location(self, site: IobSite, which: int) -> tuple[int, int]:
        """(frame, bit) of an IOB enable bit (``which`` is 0=in, 1=out)."""
        g = self.geometry
        off = resources.iob_bit_offset(site.index, which)
        if site.side in (Side.LEFT, Side.RIGHT):
            if not 0 <= site.position < self.rows:
                raise DeviceError(f"IOB {site.name}: row out of range")
            frame = g.frame_base(g.major_of_iob(site.side)) + resources.IOB_MINOR
            return frame, g.row_bit_offset(site.position) + off
        if not 0 <= site.position < self.cols:
            raise DeviceError(f"IOB {site.name}: column out of range")
        frame = g.frame_base(g.major_of_clb_col(site.position)) + resources.IOB_MINOR
        base = g.top_bit_offset if site.side is Side.TOP else g.bottom_bit_offset
        return frame, base + off

    def gclk_bit_location(self, g_index: int) -> tuple[int, int]:
        """(frame, bit) of the global clock buffer enable for ``GCLK{g}``."""
        from .geometry import NUM_GCLK

        if not 0 <= g_index < NUM_GCLK:
            raise DeviceError(f"GCLK index {g_index} out of range 0..{NUM_GCLK - 1}")
        frame = self.geometry.frame_base(0) + g_index  # clock column, minor g
        return frame, resources.GCLK_ENABLE_BIT

    # -- routing-node space -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Size of the (dense, partly unused) routing node id space."""
        return self.rows * self.cols * NUM_WIRES

    def canonical_wire(self, row: int, col: int, wire: int) -> tuple[int, int, int]:
        """Map chip-spanning wires to their canonical owner tile.

        Long horizontal lines are owned by column 0 of their row, vertical
        long lines by row 0 of their column, and global clocks by (0, 0);
        everything else is identity.
        """
        kind = WIRE_KIND[wire]
        if kind is WireKind.LONG_H:
            return row, 0, wire
        if kind is WireKind.LONG_V:
            return 0, col, wire
        if kind is WireKind.GCLK:
            return 0, 0, wire
        return row, col, wire

    def node_id(self, row: int, col: int, wire: int) -> int:
        """Dense integer id of a routing node (canonicalized first)."""
        r, c, w = self.canonical_wire(row, col, wire)
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise DeviceError(f"node ({row},{col},{wires.WIRES[wire]}) outside device")
        return (r * self.cols + c) * NUM_WIRES + w

    def node_of(self, node: int) -> tuple[int, int, int]:
        """Inverse of :meth:`node_id` -> (row, col, wire index)."""
        tile, w = divmod(node, NUM_WIRES)
        r, c = divmod(tile, self.cols)
        return r, c, w

    def node_str(self, node: int) -> str:
        """Human-readable node, e.g. ``R3C23.SE2`` (1-based, XDL style)."""
        r, c, w = self.node_of(node)
        return f"R{r + 1}C{c + 1}.{wires.WIRES[w]}"

    # -- PIP validity -------------------------------------------------------------

    def pip_valid(self, row: int, col: int, pip: wires.PipDef) -> bool:
        """True if the PIP's source wire exists on this device at this tile."""
        dr, dc, _ = pip.src
        sr, sc = row + dr, col + dc
        if not (0 <= sr < self.rows and 0 <= sc < self.cols):
            # chip-spanning sources are valid anywhere along their span
            kind = WIRE_KIND[pip.src[2]]
            return kind in (WireKind.LONG_H, WireKind.LONG_V, WireKind.GCLK)
        return True

    def tile_pips(self, row: int, col: int) -> list[wires.PipDef]:
        """PIPs of the uniform pattern that are valid at a tile."""
        self.geometry.check_tile(row, col)
        return [p for p in wires.PIP_TABLE if self.pip_valid(row, col, p)]

    # -- routing graph ------------------------------------------------------------

    def fanout(self, node: int):
        """Yield (next node, pip ref (r, c, index)) for all outgoing PIPs.

        Long lines fan out along their whole span; global clock lines are
        dedicated and yield nothing.
        """
        r, c, w = self.node_of(node)
        kind = WIRE_KIND[w]
        fanout = wires.pips_by_src().get(w, ())
        if kind is WireKind.GCLK:
            return
        if kind is WireKind.LONG_H or kind is WireKind.LONG_V:
            span = ([(r, col) for col in range(self.cols)] if kind is WireKind.LONG_H
                    else [(row, c) for row in range(self.rows)])
            local = [pip for odr, odc, pip in fanout if odr == 0 and odc == 0]
            for tr, tc in span:
                for pip in local:
                    yield self.node_id(tr, tc, pip.dst), (tr, tc, pip.index)
            return
        for odr, odc, pip in fanout:
            orow, ocol = r + odr, c + odc
            if 0 <= orow < self.rows and 0 <= ocol < self.cols:
                yield self.node_id(orow, ocol, pip.dst), (orow, ocol, pip.index)

    def successors(self, node: int) -> tuple:
        """Memoized :meth:`fanout` of ``node``: ``(next node, pip ref,
        gated)`` entries, where ``gated`` marks a pin wire a search may
        only enter as its own sink."""
        entries = self.successor_memo.get(node)
        if entries is None:
            entries = tuple(
                (nxt, pip_ref, WIRE_KIND[nxt % NUM_WIRES] in _GATED_KINDS)
                for nxt, pip_ref in self.fanout(node)
            )
            if len(self.successor_memo) >= SUCCESSOR_MEMO_MAX:
                self.successor_memo.clear()
            self.successor_memo[node] = entries
        return entries

    # -- convenience -----------------------------------------------------------

    def full_bitstream_bytes_estimate(self) -> int:
        """Approximate size of a complete bitstream in bytes (frame payload
        plus per-column command overhead); the exact number comes from the
        assembler, this is for quick capacity planning."""
        payload = self.geometry.config_payload_words()
        overhead = 64 + 2 * len(self.geometry.columns)  # not-a-frame-count
        return 4 * (payload + overhead)


@lru_cache(maxsize=None)
def _get_device_canonical(canonical_name: str) -> Device:
    return Device(part_info(canonical_name))


def get_device(part_name: str) -> Device:
    """Shared, cached Device instances (immutable apart from the routing
    graph memo, which only caches a pure function of the node)."""
    from .family import normalize_part_name

    return _get_device_canonical(normalize_part_name(part_name))
