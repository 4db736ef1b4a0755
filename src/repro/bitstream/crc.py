"""Configuration CRC, Virtex style.

The configuration logic maintains a 16-bit CRC over every word written to a
CRC-covered register: the 32 data bits are shifted in LSB-first, followed by
the 4-bit register address.  The polynomial is CRC-16 (x^16 + x^15 + x^2 +
1, 0x8005), implemented here in its reflected form (0xA001).

Two table layers keep long FDRI bursts cheap:

* single writes (:meth:`ConfigCrc.update_word`) use the classic byte-wise
  lookup table for the data bits plus a 16-entry table that shifts in the
  whole 4-bit register address at once;
* bursts (:meth:`ConfigCrc.update_words`) exploit that one word+address
  step is *affine over GF(2)* in (state, data, address): the per-word data
  contribution is computed for the entire burst in one vectorized numpy
  pass over four position tables.  The state carry ``s' = A(s) ^ g`` is
  linear too, so the burst folds pairwise — adjacent blocks combine as
  ``A^(2^k)(left) ^ right`` — in ``ceil(log2(N + 1))`` vectorized levels,
  each applying a precomputed power of the carry through two byte tables
  (the idea behind zlib's ``crc32_combine``).  No per-word Python loop
  remains.

Writing the accumulated value to the CRC register makes the device compare
and reset; the RCRC command resets the accumulator.
"""

from __future__ import annotations

import numpy as np

_POLY_REFLECTED = 0xA001


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY_REFLECTED if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()


def _build_nibble_table() -> list[int]:
    """4-bit analogue of the byte table (shifts in one register address)."""
    table = []
    for nibble in range(16):
        crc = nibble
        for _ in range(4):
            crc = (crc >> 1) ^ _POLY_REFLECTED if crc & 1 else crc >> 1
        table.append(crc)
    return table


_ADDR_TABLE = _build_nibble_table()


def _step(crc: int, word: int, addr: int) -> int:
    """One full register write folded into the CRC (reference form)."""
    w = word & 0xFFFFFFFF
    for _ in range(4):
        crc = (crc >> 8) ^ _TABLE[(crc ^ w) & 0xFF]
        w >>= 8
    return (crc >> 4) ^ _ADDR_TABLE[(crc ^ addr) & 0xF]


def _build_burst_tables():
    """Precompute the affine decomposition of one word+address step.

    ``_step(crc, w, a)`` is linear over GF(2) in the bits of ``crc``,
    ``w``, and ``a`` jointly, so it splits as ``A(crc) ^ G(w) ^ C(a)``:

    * ``A`` (the state carry) as two 256-entry tables over the state's
      high/low bytes;
    * ``G`` (the data contribution) as four 256-entry tables, one per
      byte position — evaluated for a whole burst in one numpy pass;
    * ``C`` (the address contribution) as a 16-entry constant table.
    """
    a_lo = [_step(x, 0, 0) for x in range(256)]
    a_hi = [_step(x << 8, 0, 0) for x in range(256)]
    g = [np.array([_step(0, b << (8 * k), 0) for b in range(256)], dtype=np.uint16)
         for k in range(4)]
    addr_c = np.array([_step(0, 0, a) for a in range(16)], dtype=np.uint16)
    return a_lo, a_hi, g, addr_c


_A_LO, _A_HI, (_G0, _G1, _G2, _G3), _ADDR_CONTRIB = _build_burst_tables()

#: Fold levels precomputed: enough for bursts of up to 2**32 - 1 words (a
#: type-2 FDRI count has 27 bits).
_CARRY_LEVELS = 32


def _build_carry_tables() -> list[tuple[np.ndarray, np.ndarray]]:
    """(lo, hi) byte tables of ``A^(2^k)`` for every fold level ``k``.

    ``A^(2^k)(s) == lo[s & 0xFF] ^ hi[s >> 8]``; each level squares the
    previous one by composing its tables with themselves.
    """
    lo = np.array(_A_LO, dtype=np.uint16)
    hi = np.array(_A_HI, dtype=np.uint16)
    tables = [(lo, hi)]
    for _ in range(_CARRY_LEVELS - 1):
        lo, hi = (lo[lo & 0xFF] ^ hi[lo >> 8], lo[hi & 0xFF] ^ hi[hi >> 8])
        tables.append((lo, hi))
    return tables


_CARRY = _build_carry_tables()


def _fold(seq: np.ndarray) -> int:
    """Horner-evaluate ``sum A^(n-1-j)(seq[j])`` over a uint16 sequence.

    Blocks are aligned to the end of the sequence: after level ``k`` every
    element holds a block of ``2^(k+1)`` inputs, except the first, which
    may be shorter — exactly as if the sequence had zeros in front, which
    contribute nothing.
    """
    level = 0
    while seq.size > 1:
        lo, hi = _CARRY[level]
        odd = seq.size & 1
        left = seq[odd::2]
        folded = np.empty(seq.size // 2 + odd, dtype=np.uint16)
        folded[:odd] = seq[:odd]
        np.bitwise_xor(lo[left & 0xFF] ^ hi[left >> 8], seq[odd + 1::2],
                       out=folded[odd:])
        seq = folded
        level += 1
    return int(seq[0])


class ConfigCrc:
    """Accumulating configuration CRC (16-bit)."""

    def __init__(self) -> None:
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def update_word(self, reg_addr: int, word: int) -> None:
        """Shift in one 32-bit register write: data LSB-first, then the
        4-bit register address."""
        crc = self.value
        w = word & 0xFFFFFFFF
        for _ in range(4):
            crc = (crc >> 8) ^ _TABLE[(crc ^ w) & 0xFF]
            w >>= 8
        self.value = (crc >> 4) ^ _ADDR_TABLE[(crc ^ reg_addr) & 0xF]

    def update_words(self, reg_addr: int, words: np.ndarray | list[int]) -> None:
        """Shift in a burst of writes to one register (e.g. an FDRI block)."""
        payload = np.asarray(words)
        if payload.size == 0:
            return
        if payload.dtype != np.uint32:
            payload = payload.astype(np.uint64, copy=False).astype(np.uint32)
        # vectorized data+address contribution of every word in the burst,
        # after the current state (element 0), folded in log2 levels
        seq = np.empty(payload.size + 1, dtype=np.uint16)
        seq[0] = self.value
        np.bitwise_xor(
            _G0[payload & 0xFF]
            ^ _G1[(payload >> np.uint32(8)) & 0xFF]
            ^ _G2[(payload >> np.uint32(16)) & 0xFF]
            ^ _G3[payload >> np.uint32(24)],
            _ADDR_CONTRIB[reg_addr & 0xF],
            out=seq[1:],
        )
        self.value = _fold(seq)


def crc_of(stream: list[tuple[int, int]]) -> int:
    """CRC of a sequence of (register address, word) writes, from reset."""
    acc = ConfigCrc()
    for addr, word in stream:
        acc.update_word(addr, word)
    return acc.value
