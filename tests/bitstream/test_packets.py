"""Packet encoding/decoding and FAR tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitstream.crc import ConfigCrc
from repro.bitstream.packets import (
    CRC_COVERED,
    DUMMY_WORD,
    SYNC_WORD,
    Command,
    Opcode,
    PacketWriter,
    Register,
    decode_header,
    far_decode,
    far_encode,
    nop_word,
    type1_header,
    type2_header,
)
from repro.errors import PacketError


class TestHeaders:
    def test_type1_roundtrip(self):
        word = type1_header(Opcode.WRITE, Register.FDRI, 5)
        hdr = decode_header(word)
        assert (hdr.type, hdr.op, hdr.reg, hdr.count) == (1, Opcode.WRITE, Register.FDRI, 5)

    def test_type2_roundtrip(self):
        word = type2_header(Opcode.WRITE, 123456)
        hdr = decode_header(word)
        assert (hdr.type, hdr.op, hdr.reg, hdr.count) == (2, Opcode.WRITE, None, 123456)

    def test_nop(self):
        hdr = decode_header(nop_word())
        assert hdr.op is Opcode.NOP

    def test_count_limits(self):
        type1_header(Opcode.WRITE, Register.FDRI, (1 << 11) - 1)
        with pytest.raises(PacketError):
            type1_header(Opcode.WRITE, Register.FDRI, 1 << 11)
        type2_header(Opcode.WRITE, (1 << 27) - 1)
        with pytest.raises(PacketError):
            type2_header(Opcode.WRITE, 1 << 27)

    def test_bad_packet_type(self):
        with pytest.raises(PacketError):
            decode_header(0xE0000000)

    def test_bad_register(self):
        word = (0b001 << 29) | (0b10 << 27) | (999 << 13)
        with pytest.raises(PacketError):
            decode_header(word)

    def test_reserved_opcode(self):
        word = (0b001 << 29) | (0b11 << 27)
        with pytest.raises(PacketError):
            decode_header(word)

    @given(
        st.sampled_from(list(Opcode)),
        st.sampled_from(list(Register)),
        st.integers(min_value=0, max_value=2047),
    )
    def test_property_type1_roundtrip(self, op, reg, count):
        hdr = decode_header(type1_header(op, reg, count))
        assert (hdr.op, hdr.reg, hdr.count) == (op, reg, count)


class TestFar:
    def test_roundtrip(self):
        assert far_decode(far_encode(12, 34)) == (12, 34)

    def test_minor_field_width(self):
        assert far_encode(1, 0) == 1 << 9

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=511))
    def test_property_roundtrip(self, major, minor):
        assert far_decode(far_encode(major, minor)) == (major, minor)

    def test_out_of_range(self):
        with pytest.raises(PacketError):
            far_encode(0, 512)
        with pytest.raises(PacketError):
            far_encode(1 << 16, 0)


class TestPacketWriter:
    def test_preamble_words(self):
        w = PacketWriter()
        w.dummy()
        w.sync()
        words = w.to_words()
        assert list(words) == [DUMMY_WORD, SYNC_WORD]

    def test_register_write_encoding(self):
        w = PacketWriter()
        w.write_reg(Register.FLR, 11)
        words = w.to_words()
        hdr = decode_header(int(words[0]))
        assert hdr.reg is Register.FLR and hdr.count == 1
        assert words[1] == 11

    def test_short_fdri_uses_type1(self):
        w = PacketWriter()
        w.command(Command.WCFG)
        w.write_fdri(np.arange(10, dtype=np.uint32))
        words = w.to_words()
        hdr = decode_header(int(words[2]))
        assert hdr.type == 1 and hdr.reg is Register.FDRI and hdr.count == 10

    def test_long_fdri_uses_type2(self):
        w = PacketWriter()
        w.write_fdri(np.zeros(5000, dtype=np.uint32))
        words = w.to_words()
        h1 = decode_header(int(words[0]))
        h2 = decode_header(int(words[1]))
        assert h1.count == 0 and h2.type == 2 and h2.count == 5000
        assert words.size == 2 + 5000

    def test_crc_tracking_resets_on_rcrc(self):
        w = PacketWriter()
        w.write_reg(Register.FLR, 11)
        w.command(Command.RCRC)
        # after RCRC the accumulated CRC only covers the RCRC command write
        w2 = PacketWriter()
        w2.command(Command.RCRC)
        assert w._crc.value == 0 == w2._crc.value

    def test_nop_padding(self):
        w = PacketWriter()
        w.nop(3)
        assert all(decode_header(int(x)).op is Opcode.NOP for x in w.to_words())

    def test_to_bytes_big_endian(self):
        w = PacketWriter()
        w.sync()
        assert w.to_bytes() == bytes.fromhex("aa995566")

    def test_empty_writer(self):
        assert PacketWriter().to_words().size == 0
        assert PacketWriter().to_bytes() == b""


class _ListWriter:
    """The list-built writer the array-segment writer replaced: every word,
    payloads included, appended to one Python list, and the CRC shifted in
    one word at a time.  The oracle for the regression test below."""

    def __init__(self):
        self.words = []
        self.crc = ConfigCrc()

    def raw(self, word):
        self.words.append(word & 0xFFFFFFFF)

    def write_reg(self, reg, *values):
        self.words.append(type1_header(Opcode.WRITE, reg, len(values)))
        for v in values:
            self.words.append(v & 0xFFFFFFFF)
            if reg in CRC_COVERED:
                self.crc.update_word(int(reg), v & 0xFFFFFFFF)

    def command(self, cmd):
        self.write_reg(Register.CMD, int(cmd))
        if cmd is Command.RCRC:
            self.crc.reset()

    def write_fdri(self, payload):
        payload = [int(w) for w in np.asarray(payload, dtype=np.uint32).ravel()]
        if len(payload) <= 2047:
            self.words.append(type1_header(Opcode.WRITE, Register.FDRI, len(payload)))
        else:
            self.words.append(type1_header(Opcode.WRITE, Register.FDRI, 0))
            self.words.append(type2_header(Opcode.WRITE, len(payload)))
        self.words.extend(payload)
        for w in payload:
            self.crc.update_word(int(Register.FDRI), w)

    def write_crc_check(self):
        self.write_reg(Register.CRC, self.crc.value)
        self.crc.reset()


class TestSegmentedWriter:
    """The array-segment writer emits exactly what the list-built one did."""

    @staticmethod
    def _drive(w):
        rng = np.random.default_rng(11)
        w.raw(DUMMY_WORD)
        w.raw(SYNC_WORD)
        w.command(Command.RCRC)
        w.write_reg(Register.IDCODE, 0x0061_0093)
        w.write_reg(Register.FAR, far_encode(3, 0))
        w.command(Command.WCFG)
        w.write_fdri(rng.integers(0, 1 << 32, size=39 * 6, dtype=np.uint64).astype(np.uint32))
        # register write right after a burst, then a type-2 burst
        w.write_reg(Register.FAR, far_encode(9, 2))
        w.write_fdri(rng.integers(0, 1 << 32, size=39 * 80, dtype=np.uint64)
                     .astype(np.uint32).reshape(80, 39))
        w.raw(nop_word())
        w.write_fdri(np.array([0xFFFFFFFF, 0x80000000], dtype=np.uint32))
        w.write_crc_check()
        w.command(Command.LFRM)
        w.raw(DUMMY_WORD)

    def test_words_and_crc_equal_list_built(self):
        new, old = PacketWriter(), _ListWriter()
        self._drive(new)
        self._drive(old)
        words = new.to_words()
        assert words.dtype == np.uint32
        assert words.tolist() == old.words
        # the CRC check word sits right after the CRC register's header
        crc_at = old.words.index(type1_header(Opcode.WRITE, Register.CRC, 1)) + 1
        assert words[crc_at] == old.words[crc_at] != 0
        assert new.to_bytes() == np.asarray(old.words, dtype=">u4").tobytes()

    def test_to_words_is_repeatable(self):
        w = PacketWriter()
        self._drive(w)
        first = w.to_words()
        assert np.array_equal(w.to_words(), first)
        w.raw(DUMMY_WORD)
        assert w.to_words().size == first.size + 1


class TestXcv1000StreamsPinned:
    """full/partial streams on the largest part, pinned to the bytes the
    list-built writer produced for the same frame memory."""

    @pytest.fixture(scope="class")
    def frames(self):
        from repro.bitstream.frames import FrameMemory
        from repro.devices import get_device

        fm = FrameMemory(get_device("XCV1000"))
        n = fm.data.size
        fm.data[...] = ((np.arange(n, dtype=np.uint64) * 2654435761 + 12345)
                        % (1 << 32)).astype(np.uint32).reshape(fm.data.shape)
        return fm

    FRAMES = list(range(40, 400)) + [1000] + list(range(2000, 2100)) + [4905]

    def test_full_stream(self, frames):
        import hashlib

        from repro.bitstream.assembler import full_stream

        assert hashlib.sha256(full_stream(frames)).hexdigest() == (
            "e388e862268bcee8e11b19c8c1e70e55fe4278d999485beac71f85757d06ee94")

    @pytest.mark.parametrize("startup,digest", [
        (False, "e1aa1f4a68bc7c9d46ef2d01a8d45d30531124afc6af318cf41ad12058d61a87"),
        (True, "53540524f0a41e122abb80216de5ad9db9b3cf02a010d9f4c7df36d530e2fcd9"),
    ])
    def test_partial_stream(self, frames, startup, digest):
        import hashlib

        from repro.bitstream.assembler import partial_stream

        data = partial_stream(frames, self.FRAMES, startup=startup)
        assert hashlib.sha256(data).hexdigest() == digest
