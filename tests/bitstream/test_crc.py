"""Configuration CRC tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.crc import _A_HI, _A_LO, _ADDR_CONTRIB, _G0, _G1, _G2, _G3, ConfigCrc, crc_of


class TestBasics:
    def test_reset_state_is_zero(self):
        assert ConfigCrc().value == 0

    def test_update_changes_value(self):
        crc = ConfigCrc()
        crc.update_word(2, 0xDEADBEEF)
        assert crc.value != 0

    def test_deterministic(self):
        a, b = ConfigCrc(), ConfigCrc()
        for w in (0x0, 0xFFFFFFFF, 0x12345678):
            a.update_word(2, w)
            b.update_word(2, w)
        assert a.value == b.value

    def test_reset(self):
        crc = ConfigCrc()
        crc.update_word(1, 42)
        crc.reset()
        assert crc.value == 0

    def test_sixteen_bits(self):
        crc = ConfigCrc()
        for i in range(100):
            crc.update_word(i % 16, 0xA5A5A5A5 ^ i)
            assert 0 <= crc.value < (1 << 16)

    def test_address_matters(self):
        a, b = ConfigCrc(), ConfigCrc()
        a.update_word(1, 0x1234)
        b.update_word(2, 0x1234)
        assert a.value != b.value

    def test_data_order_matters(self):
        a, b = ConfigCrc(), ConfigCrc()
        a.update_word(2, 1)
        a.update_word(2, 2)
        b.update_word(2, 2)
        b.update_word(2, 1)
        assert a.value != b.value


class TestBurst:
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=40),
           st.integers(min_value=0, max_value=15))
    def test_property_burst_equals_words(self, words, addr):
        one = ConfigCrc()
        for w in words:
            one.update_word(addr, w)
        burst = ConfigCrc()
        burst.update_words(addr, words)
        assert one.value == burst.value

    def test_numpy_burst_equals_words(self):
        """The vectorised update_words path over a uint32 array (the FDRI
        hot path inside the interpreter) must match one-word-at-a-time
        updates exactly."""
        rng = np.random.default_rng(1234)
        words = rng.integers(0, 1 << 32, size=257, dtype=np.uint64).astype(np.uint32)
        one = ConfigCrc()
        for w in words:
            one.update_word(2, int(w))
        burst = ConfigCrc()
        burst.update_words(2, words)
        assert one.value == burst.value

    def test_crc_of_helper(self):
        stream = [(4, 7), (1, 0), (2, 0xFFFF0000)]
        acc = ConfigCrc()
        for a, w in stream:
            acc.update_word(a, w)
        assert crc_of(stream) == acc.value


def _crc_bit_by_bit(stream):
    """Spec-level reference: shift every data bit LSB-first, then the four
    address bits, through the reflected CRC-16 register.  Independent of
    every lookup table in the implementation."""
    crc = 0
    for addr, word in stream:
        for i in range(32):
            bit = (word >> i) & 1
            crc = (crc >> 1) ^ (0xA001 if (crc ^ bit) & 1 else 0)
        for i in range(4):
            bit = (addr >> i) & 1
            crc = (crc >> 1) ^ (0xA001 if (crc ^ bit) & 1 else 0)
    return crc


class TestAgainstBitReference:
    """Pin the table/affine implementations to the bit-level definition."""

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=15),
                  st.integers(min_value=0, max_value=0xFFFFFFFF)),
        max_size=24,
    ))
    def test_property_update_word_matches_bit_reference(self, stream):
        assert crc_of(stream) == _crc_bit_by_bit(stream)

    def test_burst_matches_bit_reference(self):
        rng = np.random.default_rng(77)
        words = rng.integers(0, 1 << 32, size=500, dtype=np.uint64).astype(np.uint32)
        burst = ConfigCrc()
        burst.update_words(2, words)
        assert burst.value == _crc_bit_by_bit([(2, int(w)) for w in words])

    def test_burst_from_nonzero_state_matches_reference(self):
        """The affine carry must be exact from any starting state, not just
        from reset."""
        crc = ConfigCrc()
        crc.update_word(4, 7)          # leave a nonzero state behind
        crc.update_words(2, [0xDEADBEEF, 0, 0xFFFFFFFF])
        assert crc.value == _crc_bit_by_bit(
            [(4, 7), (2, 0xDEADBEEF), (2, 0), (2, 0xFFFFFFFF)]
        )


def _carry_loop(state, reg_addr, words):
    """The per-word state carry the log-depth fold replaced: the vectorized
    data contribution, then two table lookups per word.  Kept as an
    oracle for full-device bursts, where the bit reference is too slow."""
    payload = np.asarray(words, dtype=np.uint32)
    contrib = (
        _G0[payload & 0xFF]
        ^ _G1[(payload >> np.uint32(8)) & 0xFF]
        ^ _G2[(payload >> np.uint32(16)) & 0xFF]
        ^ _G3[payload >> np.uint32(24)]
        ^ _ADDR_CONTRIB[reg_addr & 0xF]
    )
    for g in contrib.tolist():
        state = _A_HI[state >> 8] ^ _A_LO[state & 0xFF] ^ g
    return state


def _burst_after_prefix(words, addr=2):
    """update_words over ``words`` from the nonzero state a (4, 7) write
    leaves behind."""
    crc = ConfigCrc()
    crc.update_word(4, 7)
    assert crc.value != 0
    crc.update_words(addr, words)
    return crc.value


class TestLogDepthFold:
    """The burst fold against the bit-level definition: every level count,
    both parities, and power-of-two boundaries."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 255, 256, 257, 4097])
    def test_fold_matches_bit_reference(self, n):
        rng = np.random.default_rng(n)
        words = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
        assert _burst_after_prefix(words) == _crc_bit_by_bit(
            [(4, 7)] + [(2, int(w)) for w in words]
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2048),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=15))
    def test_property_fold_matches_bit_reference(self, n, seed, addr):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
        assert _burst_after_prefix(words, addr) == _crc_bit_by_bit(
            [(4, 7)] + [(addr, int(w)) for w in words]
        )

    def test_list_input_with_high_words(self):
        """Python ints >= 2**31 (beyond int32) take the list path intact."""
        words = [0x80000000, 0xFFFFFFFF, 0xDEADBEEF, 1, 0x7FFFFFFF, 0xC0FFEE00]
        assert _burst_after_prefix(words) == _crc_bit_by_bit(
            [(4, 7)] + [(2, w) for w in words]
        )
        assert _burst_after_prefix(words) == _burst_after_prefix(
            np.array(words, dtype=np.uint32)
        )

    def test_full_device_burst_matches_carry_loop(self):
        """One XCV1000 full-configuration FDRI burst (4906 frames x 39
        words) from a nonzero state."""
        rng = np.random.default_rng(1000)
        words = rng.integers(0, 1 << 32, size=4906 * 39, dtype=np.uint64).astype(np.uint32)
        crc = ConfigCrc()
        crc.value = 0x1234
        crc.update_words(2, words)
        assert crc.value == _carry_loop(0x1234, 2, words)


class TestErrorDetection:
    @given(
        st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=30),
        st.data(),
    )
    def test_property_single_bit_flip_detected(self, words, data):
        """Any single-bit corruption must change the CRC (guaranteed for
        CRC-16 over short bursts)."""
        idx = data.draw(st.integers(min_value=0, max_value=len(words) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=31))
        corrupted = list(words)
        corrupted[idx] ^= 1 << bit
        a, b = ConfigCrc(), ConfigCrc()
        a.update_words(2, words)
        b.update_words(2, corrupted)
        assert a.value != b.value
