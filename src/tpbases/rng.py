"""Deterministic 64-bit generator for reproducible weight searches.

SplitMix64 is used instead of the stdlib Mersenne twister so that the
integer stream is fixed by the seed alone and trivially portable.

Its state is a Weyl sequence: after i outputs it is s0 + i*GAMMA mod 2^64,
and each output is a fixed mix of the state.  So ``skip`` jumps past any
number of outputs in O(1), and ``packed_block`` computes the next ``BLOCK``
outputs at once: the block's states sit in one Python int, one per 128-bit
lane, and each step of the mix acts on every lane in one big-int operation.
A lane holds a 64-bit value, and the only product (by a 64-bit constant)
fits in 128 bits, so no carry crosses into the next lane.  The block's
lane states are kept, and the next block's are the same lanes plus
BLOCK*GAMMA each.  The block comes back as little-endian bytes, 16 per
output: the masked output in bytes 0-7 and ``randint``'s reject flag in
byte 8, so a caller finds the rejected outputs with ``bytes.find`` instead
of a Python loop over the block.  ``next_uint64`` and ``randint`` remain
the reference semantics of the stream.
"""

from __future__ import annotations

import functools

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BLOCK = 1024
LANE_BYTES = 16
FLAG_BYTE = 8  # the reject flag's byte within a lane: 1 rejected, 0 kept
_BLOCK_STEP = BLOCK * _GAMMA & _MASK64


@functools.cache
def _lanes() -> tuple[int, int, int, int, int]:
    """Per lane: 1, 2^64 - 1, 2^64 (the flag bit), the Weyl increment of
    output i + 1 (lane i) and BLOCK*GAMMA mod 2^64.  Built in linear time
    on first use, so importing costs nothing."""
    ones = int.from_bytes((1).to_bytes(LANE_BYTES, "little") * BLOCK, "little")
    steps = int.from_bytes(
        b"".join((i * _GAMMA & _MASK64).to_bytes(LANE_BYTES, "little")
                 for i in range(1, BLOCK + 1)),
        "little")
    return ones, ones * _MASK64, ones << 64, steps, ones * _BLOCK_STEP


class SplitMix64:
    """SplitMix64 generator (Steele/Lea/Flood mixing constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._block_states = None  # (state, the next BLOCK states in lanes)
        self._filter = None  # (mask, span, mask per lane, reject offset per lane)

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def skip(self, k: int) -> None:
        """Advance past the next k outputs, as k calls of ``next_uint64``."""
        self._state = (self._state + k * _GAMMA) & _MASK64

    def _states(self) -> int:
        """The states of the next ``BLOCK`` outputs, one per lane."""
        ones, low64, _, steps, block_step = _lanes()
        last = self._block_states
        if last is not None and (last[0] + _BLOCK_STEP) & _MASK64 == self._state:
            z = (last[1] + block_step) & low64
        else:
            z = (self._state * ones + steps) & low64
        self._block_states = (self._state, z)
        return z

    def packed_block(self, mask: int, span: int) -> bytes:
        """The next ``BLOCK`` outputs, ANDed with mask, as 16-byte
        little-endian lanes; the state stays.

        Lane i holds v = (output i) & mask in bytes 0-7 and, in byte
        ``FLAG_BYTE``, 1 if v >= span (``randint`` would reject it) else 0.
        Call ``skip`` for the outputs consumed.
        """
        ones, low64, flags = _lanes()[:3]
        if self._filter is None or self._filter[:2] != (mask, span):
            # outputs have 64 bits; a wider mask, repeated per lane, would
            # overlap the next lane and keep the bits the shift moved in.
            # v + (2^64 - span) reaches bit 64 exactly when v >= span.
            self._filter = (mask, span, (mask & _MASK64) * ones,
                            max(0, (1 << 64) - span) * ones)
        mask_lanes, offset = self._filter[2:]
        z = self._states()
        z = ((z ^ (z >> 30)) & low64) * _MIX1 & low64
        z = ((z ^ (z >> 27)) & low64) * _MIX2 & low64
        z = (z ^ (z >> 31)) & mask_lanes
        z |= (z + offset) & flags
        return z.to_bytes(BLOCK * LANE_BYTES, "little")

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
