"""Deterministic 64-bit generator for reproducible weight searches.

SplitMix64 is used instead of the stdlib Mersenne twister so that the
integer stream is fixed by the seed alone and trivially portable.

Its state is a Weyl sequence: after i outputs it is s0 + i*GAMMA mod 2^64,
and each output is a fixed mix of the state.  So ``skip`` jumps past any
number of outputs in O(1), and ``masked_block`` computes the next ``BLOCK``
outputs at once: the block's states sit in one Python int, one per 128-bit
lane, and each step of the mix acts on every lane in one big-int operation.
A lane holds a 64-bit value, and the only product (by a 64-bit constant)
fits in 128 bits, so no carry crosses into the next lane.  ``next_uint64``
and ``randint`` remain the reference semantics of the stream.
"""

from __future__ import annotations

import functools
import sys

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BLOCK = 1024
_LANE_BYTES = 16
# Native-order bytes put lane 0 first on little-endian hosts and last on
# big-endian ones; each lane's value is its low 64-bit word.
_LOW_WORDS = slice(0, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


@functools.cache
def _lanes() -> tuple[int, int, int]:
    """Per lane: 1, 2^64 - 1, and the Weyl increment of output i + 1 (lane
    i).  Built in linear time on first use, so importing costs nothing."""
    ones = int.from_bytes((1).to_bytes(_LANE_BYTES, "little") * BLOCK, "little")
    steps = int.from_bytes(
        b"".join((i * _GAMMA & _MASK64).to_bytes(_LANE_BYTES, "little")
                 for i in range(1, BLOCK + 1)),
        "little")
    return ones, ones * _MASK64, steps


class SplitMix64:
    """SplitMix64 generator (Steele/Lea/Flood mixing constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def skip(self, k: int) -> None:
        """Advance past the next k outputs, as k calls of ``next_uint64``."""
        self._state = (self._state + k * _GAMMA) & _MASK64

    def masked_block(self, mask: int) -> list[int]:
        """The next ``BLOCK`` outputs, each ANDed with mask; the state stays.

        Equals ``[next_uint64() & mask for _ in range(BLOCK)]`` without
        moving the generator; call ``skip`` for the outputs consumed.
        """
        ones, low64, steps = _lanes()
        z = (self._state * ones + steps) & low64
        z = ((z ^ (z >> 30)) & low64) * _MIX1 & low64
        z = ((z ^ (z >> 27)) & low64) * _MIX2 & low64
        # outputs have 64 bits; a wider mask, repeated per lane, would
        # overlap the next lane and keep the bits the shift moved in
        z = (z ^ (z >> 31)) & (mask & _MASK64) * ones
        words = memoryview(z.to_bytes(BLOCK * _LANE_BYTES, sys.byteorder)).cast("Q")
        return words[_LOW_WORDS].tolist()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        Draws from the smallest covering power-of-two range and rejects
        out-of-range values, so there is no modulo bias.
        """
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        mask = (1 << (span - 1).bit_length()) - 1 if span > 1 else 0
        while True:
            v = self.next_uint64() & mask
            if v < span:
                return lo + v
