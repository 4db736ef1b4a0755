"""XDL writer/parser tests."""

import numpy as np
import pytest

from repro.bitstream.bitgen import generate_frames
from repro.errors import XdlParseError
from repro.xdl import parse_xdl, physical_init, save_xdl, write_xdl
from repro.xdl.parser import _parse_cfg


class TestWriter:
    def test_statement_shapes_match_paper(self, counter_flow):
        text = write_xdl(counter_flow.design)
        assert text.startswith('design "counter"')
        assert '"SLICE", placed R' in text
        assert "#LUT:0x" in text
        assert "#FF" in text
        assert "outpin" in text and "inpin" in text
        assert " -> " in text  # pip statements

    def test_placed_sites_in_paper_format(self, counter_flow):
        text = write_xdl(counter_flow.design)
        for comp in counter_flow.design.slices.values():
            r, c, s = comp.site
            assert f"placed R{r+1}C{c+1} CLB_R{r+1}C{c+1}.S{s}" in text

    def test_unplaced_rejected(self, counter_flow):
        import copy

        design = copy.deepcopy(counter_flow.design)
        next(iter(design.slices.values())).site = None
        with pytest.raises(Exception):
            write_xdl(design)

    def test_physical_init_applies_pin_map(self, counter_flow):
        for comp in counter_flow.design.slices.values():
            for bel in comp.bels.values():
                if bel.lut_cell:
                    init = physical_init(bel)
                    assert 0 <= init < 65536

    def test_save(self, counter_flow, tmp_path):
        path = str(tmp_path / "c.xdl")
        save_xdl(counter_flow.design, path)
        with open(path) as f:
            assert f.read() == write_xdl(counter_flow.design)


class TestRoundtrip:
    def test_frames_identical(self, counter_flow, counter_frames):
        parsed = parse_xdl(write_xdl(counter_flow.design))
        f2 = generate_frames(parsed)
        assert np.array_equal(counter_frames.data, f2.data)

    def test_structure_preserved(self, counter_flow):
        parsed = parse_xdl(write_xdl(counter_flow.design))
        design = counter_flow.design
        assert parsed.part == design.part
        assert set(parsed.slices) == set(design.slices)
        assert set(parsed.nets) == set(design.nets)
        for name, net in design.nets.items():
            assert sorted(parsed.nets[name].pips) == sorted(net.pips)

    def test_double_roundtrip_stable(self, counter_flow):
        once = write_xdl(parse_xdl(write_xdl(counter_flow.design)))
        twice = write_xdl(parse_xdl(once))
        assert once == twice

    def test_comp_nets_attached(self, counter_flow):
        parsed = parse_xdl(write_xdl(counter_flow.design))
        clocked = [c for c in parsed.slices.values() if c.clk_net]
        assert clocked
        for iob in parsed.iobs.values():
            assert iob.net


class TestParserErrors:
    def test_not_xdl(self):
        with pytest.raises(XdlParseError):
            parse_xdl("hello world ;")

    def test_unknown_inst_type(self):
        with pytest.raises(XdlParseError, match="inst type"):
            parse_xdl('design "d" v50 ;\ninst "x" "TBUF", placed R1C1 CLB_R1C1.S0, cfg "" ;')

    def test_net_without_outpin(self):
        with pytest.raises(XdlParseError, match="outpin"):
            parse_xdl('design "d" v50 ;\nnet "n", ;')

    def test_net_unknown_inst(self):
        with pytest.raises(XdlParseError, match="unknown inst"):
            parse_xdl('design "d" v50 ;\nnet "n", outpin "ghost" X, ;')

    def test_bad_pip_tile(self):
        text = (
            'design "d" v50 ;\n'
            'inst "a" "SLICE", placed R1C1 CLB_R1C1.S0, cfg "F:a:#LUT:0x0001" ;\n'
            'net "n", outpin "a" X, pip XYZ OUT0 -> SE0, ;'
        )
        with pytest.raises(XdlParseError, match="pip tile"):
            parse_xdl(text)

    def test_bad_slice_pin(self):
        text = (
            'design "d" v50 ;\n'
            'inst "a" "SLICE", placed R1C1 CLB_R1C1.S0, cfg "F:a:#LUT:0x0001" ;\n'
            'net "n", outpin "a" Q7, ;'
        )
        with pytest.raises(XdlParseError, match="output pin"):
            parse_xdl(text)

    def test_truncated(self):
        with pytest.raises(XdlParseError):
            parse_xdl('design "d" v50 ;\ninst "a" "SLICE", placed')

    def test_cemux_without_ce_net(self):
        text = (
            'design "d" v50 ;\n'
            'inst "a" "SLICE", placed R1C1 CLB_R1C1.S0, '
            'cfg "FFX:a:#FF INITX::0 DXMUX::1 CEMUX::CE SRMUX::0 SYNC_ATTR::SYNC" ;\n'
        )
        with pytest.raises(XdlParseError, match="CEMUX"):
            parse_xdl(text)

    def test_bad_cfg_token(self):
        with pytest.raises(XdlParseError, match="cfg token"):
            _parse_cfg("JUالسTBAD")


class TestCfgStrings:
    def test_parse_cfg_triplets(self):
        attrs = _parse_cfg("CKINV::1 F:u1/c1:#LUT:0x8000 FFX:u1/r:#FF")
        assert attrs["CKINV"] == ("", "1")
        assert attrs["F"] == ("u1/c1", "#LUT:0x8000")
        assert attrs["FFX"] == ("u1/r", "#FF")

    def test_comments_ignored(self, counter_flow):
        text = "# a comment line\n" + write_xdl(counter_flow.design)
        parse_xdl(text)


class TestParseCache:
    """parse_xdl_cached: the content-hash memo the batch/serve hot paths use."""

    def test_identical_text_returns_the_shared_design(self, counter_flow):
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        first = parse_xdl_cached(text)
        assert parse_xdl_cached(text) is first
        # the memoized design is a real parse, not a stand-in
        assert first.slices.keys() == parse_xdl(text).slices.keys()

    def test_different_text_parses_fresh(self, counter_flow):
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        a = parse_xdl_cached(text)
        b = parse_xdl_cached("# different content\n" + text)
        assert a is not b

    def test_clear_parse_cache_drops_entries(self, counter_flow):
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        first = parse_xdl_cached(text)
        clear_parse_cache()
        assert parse_xdl_cached(text) is not first

    def test_lru_evicts_past_the_cap(self, counter_flow, monkeypatch):
        """The cap is a byte budget on retained XDL text: filling past it
        evicts the least recently used entry and keeps the rest."""
        from repro.xdl import parser as parser_mod
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        fillers = [f"# filler {i}\n" + text for i in range(3)]
        # room for the original and two fillers, not a third
        budget = len(text.encode()) + 2 * len(fillers[0].encode())
        monkeypatch.setattr(parser_mod, "_PARSE_CACHE_BYTES", budget)
        first = parse_xdl_cached(text)
        designs = [parse_xdl_cached(f) for f in fillers]
        retained = sum(size for _, size in parser_mod._parse_cache.values())
        assert retained == parser_mod._parse_cache_bytes <= budget
        assert len(parser_mod._parse_cache) == 2
        # the original entry was the least recently used -> evicted
        assert parse_xdl_cached(text) is not first
        # the newest filler survived both insertions since
        assert parse_xdl_cached(fillers[2]) is designs[2]
        clear_parse_cache()
        assert parser_mod._parse_cache_bytes == 0

    def test_hit_refreshes_lru_order(self, counter_flow, monkeypatch):
        from repro.xdl import parser as parser_mod
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        texts = [f"# v{i}\n" + write_xdl(counter_flow.design) for i in range(3)]
        monkeypatch.setattr(parser_mod, "_PARSE_CACHE_BYTES",
                            2 * len(texts[0].encode()))
        first = parse_xdl_cached(texts[0])
        parse_xdl_cached(texts[1])
        assert parse_xdl_cached(texts[0]) is first   # now most recent
        parse_xdl_cached(texts[2])                   # evicts texts[1]
        assert parse_xdl_cached(texts[0]) is first
        clear_parse_cache()

    def test_over_budget_text_is_returned_not_retained(self, counter_flow,
                                                       monkeypatch):
        from repro.xdl import parser as parser_mod
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        kept = parse_xdl_cached("# small\n" + text)
        monkeypatch.setattr(parser_mod, "_PARSE_CACHE_BYTES",
                            len(text.encode()) + 16)
        big = "# too large for the budget\n" * 4 + text
        design = parse_xdl_cached(big)
        assert design.slices.keys() == parse_xdl(text).slices.keys()
        assert parse_xdl_cached(big) is not design
        # an over-budget text evicts nothing already kept
        assert parse_xdl_cached("# small\n" + text) is kept
        assert parser_mod._parse_cache_bytes <= parser_mod._PARSE_CACHE_BYTES
        clear_parse_cache()

    def test_hit_and_miss_counters(self, counter_flow):
        from repro.obs import Metrics, use_metrics
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        metrics = Metrics()
        with use_metrics(metrics):
            parse_xdl_cached(text)
            parse_xdl_cached(text)
            parse_xdl_cached(text)
            parse_xdl_cached("# other\n" + text)
        assert metrics.counter("xdl.parse_cache.miss") == 2
        assert metrics.counter("xdl.parse_cache.hit") == 2
        clear_parse_cache()
