"""XDL parser: ASCII implementation text -> :class:`NcdDesign`.

Accepts the subset :mod:`repro.xdl.writer` emits — which is also the shape
the paper's §3.2.2 example uses.  The result is a *physical-form* design
(LUT truth tables over physical pins, identity pin maps); bitgen produces
identical frames for written-then-parsed designs, which is the invariant
the test suite checks.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..devices import parse_iob_site, parse_slice_site
from ..devices.wires import pip_by_wires
from ..errors import XdlParseError
from ..flow.ncd import GclkComp, IobComp, NcdDesign, PhysNet, PinRef, SinkRef
from ..obs import current_metrics

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"[^"]*")
  | (?P<arrow>->)
  | (?P<punct>[,;])
  | (?P<word>[^\s,;"]+)
    """,
    re.VERBOSE,
)


@dataclass
class _Tok:
    kind: str
    text: str
    line: int


def _tokenize(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise XdlParseError(f"cannot tokenize near {text[pos:pos + 20]!r}", line)
        kind = m.lastgroup
        chunk = m.group()
        if kind in ("ws", "comment"):
            line += chunk.count("\n")
        elif kind == "string":
            tokens.append(_Tok("string", chunk[1:-1], line))
            line += chunk.count("\n")
        else:
            tokens.append(_Tok(kind, chunk, line))
        pos = m.end()
    return tokens


class XdlParser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers ----------------------------------------------------------

    def _peek(self) -> _Tok | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect_kind: str | None = None, expect_text: str | None = None) -> _Tok:
        tok = self._peek()
        if tok is None:
            raise XdlParseError("unexpected end of XDL input")
        if expect_kind and tok.kind != expect_kind:
            raise XdlParseError(
                f"expected {expect_kind}, got {tok.kind} {tok.text!r}", tok.line
            )
        if expect_text and tok.text != expect_text:
            raise XdlParseError(f"expected {expect_text!r}, got {tok.text!r}", tok.line)
        self.pos += 1
        return tok

    def _accept(self, text: str) -> bool:
        tok = self._peek()
        if tok is not None and tok.text == text and tok.kind in ("word", "punct", "arrow"):
            self.pos += 1
            return True
        return False

    def _skip_to_semicolon(self) -> None:
        while self._peek() is not None and not self._accept(";"):
            self.pos += 1

    # -- grammar ---------------------------------------------------------------------

    def parse(self) -> NcdDesign:
        design = self._design_stmt()
        while self._peek() is not None:
            tok = self._next("word")
            if tok.text == "inst":
                self._inst_stmt(design)
            elif tok.text == "net":
                self._net_stmt(design)
            else:
                raise XdlParseError(f"unknown statement {tok.text!r}", tok.line)
        self._fixup(design)
        return design

    def _design_stmt(self) -> NcdDesign:
        self._next("word", "design")
        name = self._next("string").text
        part = self._next("word").text
        # optional version word and cfg
        while not self._accept(";"):
            self._next()
        return NcdDesign(name, _canonical_part(part))

    def _inst_stmt(self, design: NcdDesign) -> None:
        name = self._next("string").text
        itype = self._next("string").text
        self._next("punct", ",")
        placed = None
        cfg = ""
        while not self._accept(";"):
            tok = self._next()
            if tok.kind == "word" and tok.text == "placed":
                tile = self._next("word").text  # tile name, informational
                site = self._next("word").text
                placed = (tile, site)
            elif tok.kind == "word" and tok.text == "unplaced":
                placed = None
            elif tok.kind == "word" and tok.text == "cfg":
                cfg = self._next("string").text
            elif tok.kind == "punct" and tok.text == ",":
                continue
            else:
                raise XdlParseError(f"unexpected {tok.text!r} in inst", tok.line)
        if itype == "SLICE":
            self._make_slice(design, name, placed, cfg)
        elif itype == "IOB":
            self._make_iob(design, name, placed, cfg)
        elif itype == "GCLK":
            self._make_gclk(design, name, cfg)
        else:
            raise XdlParseError(f"unknown inst type {itype!r} for {name!r}")

    def _make_slice(self, design: NcdDesign, name: str, placed, cfg: str) -> None:
        from ..flow.ncd import SliceComp
        from ..flow.pack import module_prefix

        comp = SliceComp(name, group=module_prefix(name) or None)
        if placed is not None:
            comp.site = parse_slice_site(placed[1])
        attrs = _parse_cfg(cfg)
        for letter in ("F", "G"):
            bel = comp.bels[letter]
            lut = attrs.get(letter)
            if lut is not None:
                cell, value = lut
                if not value.startswith("#LUT:0x"):
                    raise XdlParseError(f"{name}: bad LUT cfg {value!r}")
                bel.lut_cell = cell
                bel.lut_init = int(value[7:], 16)
                bel.lut_width = 4
                bel.lut_inputs = ["", "", "", ""]
                bel.pin_map = [0, 1, 2, 3]
            which = "FFX" if letter == "F" else "FFY"
            ff = attrs.get(which)
            if ff is not None:
                cell, value = ff
                bel.ff_cell = cell
                init = attrs.get("INITX" if letter == "F" else "INITY")
                bel.ff_init = int(init[1]) if init else 0
                dmux = attrs.get("DXMUX" if letter == "F" else "DYMUX")
                bel.ff_d_from_lut = bool(dmux) and dmux[1] == "0"
                sync = attrs.get("SYNC_ATTR")
                bel.ff_sync = (sync is None) or sync[1] == "SYNC"
        # CE/SR nets are attached when net statements arrive; the cfg only
        # records whether the muxes select the pin
        comp._cfg_ce = attrs.get("CEMUX", ("", "1"))[1] == "CE"  # type: ignore[attr-defined]
        comp._cfg_sr = attrs.get("SRMUX", ("", "0"))[1] == "SR"  # type: ignore[attr-defined]
        design.slices[name] = comp

    def _make_iob(self, design: NcdDesign, name: str, placed, cfg: str) -> None:
        attrs = _parse_cfg(cfg)
        iomux = attrs.get("IOMUX")
        if iomux is None:
            raise XdlParseError(f"IOB {name!r}: missing IOMUX cfg")
        direction = "in" if iomux[1] == "I" else "out"
        port = attrs.get("PORT", ("", name))[1]
        iob = IobComp(name, direction, port, net="")
        if placed is not None:
            iob.site = parse_iob_site(placed[1])
        design.iobs[name] = iob

    def _make_gclk(self, design: NcdDesign, name: str, cfg: str) -> None:
        attrs = _parse_cfg(cfg)
        idx = attrs.get("INDEX")
        port = attrs.get("PORT", ("", name))[1]
        g = GclkComp(name, port, net="")
        if idx is not None:
            g.index = int(idx[1])
        design.gclks[name] = g

    def _net_stmt(self, design: NcdDesign) -> None:
        name = self._next("string").text
        is_clock = False
        if self._accept("clk"):
            is_clock = True
        self._next("punct", ",")
        source: PinRef | None = None
        sinks: list[SinkRef] = []
        pips: list[tuple[int, int, int]] = []
        while not self._accept(";"):
            tok = self._next()
            if tok.kind == "punct" and tok.text == ",":
                continue
            if tok.kind != "word":
                raise XdlParseError(f"unexpected {tok.text!r} in net", tok.line)
            if tok.text == "outpin":
                comp = self._next("string").text
                pin = self._next("word").text
                source = self._out_ref(design, comp, pin, tok.line)
            elif tok.text == "inpin":
                comp = self._next("string").text
                pin = self._next("word").text
                sinks.append(self._in_ref(design, comp, pin, name, tok.line))
            elif tok.text == "pip":
                tile = self._next("word").text
                src = self._next("word").text
                self._next("arrow")
                dst = self._next("word").text
                m = re.match(r"^R(\d+)C(\d+)$", tile)
                if not m:
                    raise XdlParseError(f"bad pip tile {tile!r}", tok.line)
                pip = pip_by_wires(src, dst)
                pips.append((int(m.group(1)) - 1, int(m.group(2)) - 1, pip.index))
            else:
                raise XdlParseError(f"unexpected {tok.text!r} in net", tok.line)
        if source is None:
            raise XdlParseError(f"net {name!r} has no outpin")
        net = PhysNet(name, source, sinks, pips, routed=bool(pips) or not sinks,
                      is_clock=is_clock)
        design.nets[name] = net

    # -- pin reference resolution ----------------------------------------------------------

    def _out_ref(self, design: NcdDesign, comp: str, pin: str, line: int) -> PinRef:
        if comp in design.iobs:
            if pin != "PAD":
                raise XdlParseError(f"IOB outpin must be PAD, got {pin!r}", line)
            return PinRef(comp, "PAD_IN")
        if comp in design.gclks:
            return PinRef(comp, "GCLK")
        if comp in design.slices:
            if pin not in ("X", "Y", "XQ", "YQ"):
                raise XdlParseError(f"bad slice output pin {pin!r}", line)
            return PinRef(comp, pin)
        raise XdlParseError(f"outpin references unknown inst {comp!r}", line)

    def _in_ref(self, design: NcdDesign, comp: str, pin: str, net: str, line: int) -> SinkRef:
        if comp in design.iobs:
            if pin != "PAD":
                raise XdlParseError(f"IOB inpin must be PAD, got {pin!r}", line)
            return SinkRef(PinRef(comp, "PAD_OUT"))
        if comp not in design.slices:
            raise XdlParseError(f"inpin references unknown inst {comp!r}", line)
        scomp = design.slices[comp]
        s = scomp.site[2] if scomp.site else 0
        m = re.match(r"^([FG])([1-4])$", pin)
        if m:
            letter, idx = m.group(1), int(m.group(2)) - 1
            bel = scomp.bels[letter]
            if bel.lut_cell is not None and idx < 4:
                bel.lut_inputs[idx] = net
            return SinkRef(PinRef(comp, letter, idx), phys_pin=f"S{s}_{pin}")
        if pin in ("BX", "BY", "CE", "SR", "CLK"):
            return SinkRef(PinRef(comp, pin), phys_pin=f"S{s}_{pin}")
        raise XdlParseError(f"bad slice input pin {pin!r}", line)

    # -- post-pass --------------------------------------------------------------------------

    def _fixup(self, design: NcdDesign) -> None:
        """Attach net names to components (IOB/GCLK nets, slice clk/ce/sr)."""
        for net in design.nets.values():
            refs = [net.source] + [s.ref for s in net.sinks]
            for ref in refs:
                if ref.comp in design.iobs:
                    design.iobs[ref.comp].net = net.name
                elif ref.comp in design.gclks:
                    design.gclks[ref.comp].net = net.name
                elif ref.comp in design.slices:
                    comp = design.slices[ref.comp]
                    if ref.pin == "CLK":
                        comp.clk_net = net.name
                    elif ref.pin == "CE":
                        comp.ce_net = net.name
                    elif ref.pin == "SR":
                        comp.sr_net = net.name
        for comp in design.slices.values():
            # cfg consistency: CEMUX/SRMUX selected a pin that never arrived
            if getattr(comp, "_cfg_ce", False) and comp.ce_net is None:
                raise XdlParseError(f"{comp.name}: CEMUX::CE but no CE inpin")
            if getattr(comp, "_cfg_sr", False) and comp.sr_net is None:
                raise XdlParseError(f"{comp.name}: SRMUX::SR but no SR inpin")


def _canonical_part(part: str) -> str:
    from ..devices import normalize_part_name

    return normalize_part_name(part)


def _parse_cfg(cfg: str) -> dict[str, tuple[str, str]]:
    """Split a cfg string into {attr: (logical name, value)} entries.

    Entries look like ``ATTR:logical_name:value`` where either of the last
    two fields may be empty (``CKINV::1``) — and LUT entries carry a
    two-part value (``F:u1/c1:#LUT:0x8000``).
    """
    attrs: dict[str, tuple[str, str]] = {}
    for token in cfg.split():
        fields = token.split(":", 2)
        if len(fields) != 3:
            raise XdlParseError(f"bad cfg token {token!r}")
        attrs[fields[0]] = (fields[1], fields[2])
    return attrs


def parse_xdl(text: str) -> NcdDesign:
    """Parse XDL text into a physical-form design database."""
    return XdlParser(text).parse()


#: Byte budget of the parse cache, counted on the XDL text of the entries
#: it keeps.  A parsed module costs six to eight times its text (a 3.3 KB
#: module parses to ~20-25 KB), so this holds ~115 such modules — the
#: 108-module XCV1000 scale library is 345 KiB of text — in ~2.5 MB.
_PARSE_CACHE_BYTES = 384 * 1024
#: key -> (design, text bytes), least recently used first
_parse_cache: OrderedDict[str, tuple[NcdDesign, int]] = OrderedDict()
_parse_cache_bytes = 0
_parse_lock = threading.Lock()


def parse_xdl_cached(text: str) -> NcdDesign:
    """Memoized :func:`parse_xdl`, keyed by a content hash of the text.

    Regenerating the same module (repeated serve requests, a batch item
    retried on a new base, every worker of a pool parsing one manifest)
    pays for one parse.  The returned design is **shared**: callers must
    treat it as read-only, which everything downstream of
    :meth:`repro.core.jpg.Jpg.make_partial` already does.  The cache is
    process-local and thread-safe.  It keeps at most ``_PARSE_CACHE_BYTES``
    of XDL text, evicting least recently used entries first; a text larger
    than the whole budget is parsed and returned but not kept.  Lookups
    count ``xdl.parse_cache.hit`` / ``xdl.parse_cache.miss`` on
    :func:`~repro.obs.current_metrics`.
    """
    global _parse_cache_bytes
    raw = text.encode()
    key = hashlib.sha256(raw).hexdigest()
    metrics = current_metrics()
    with _parse_lock:
        entry = _parse_cache.get(key)
        if entry is not None:
            _parse_cache.move_to_end(key)
    if entry is not None:
        metrics.count("xdl.parse_cache.hit")
        return entry[0]
    metrics.count("xdl.parse_cache.miss")
    design = parse_xdl(text)
    size = len(raw)
    if size > _PARSE_CACHE_BYTES:
        return design
    with _parse_lock:
        if key not in _parse_cache:
            _parse_cache[key] = (design, size)
            _parse_cache_bytes += size
            while _parse_cache_bytes > _PARSE_CACHE_BYTES:
                _parse_cache_bytes -= _parse_cache.popitem(last=False)[1][1]
    return design


def clear_parse_cache() -> None:
    """Drop every memoized design (tests and long-lived services)."""
    global _parse_cache_bytes
    with _parse_lock:
        _parse_cache.clear()
        _parse_cache_bytes = 0


def load_xdl(path: str) -> NcdDesign:
    with open(path) as f:
        return parse_xdl(f.read())
