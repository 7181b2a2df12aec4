"""Deterministic 64-bit generator and the weight search that draws from it.

SplitMix64 is used instead of the stdlib Mersenne twister so that the
integer stream is fixed by the seed alone and trivially portable.

Its state is a Weyl sequence: after i outputs it is s0 + i*GAMMA mod 2^64,
and each output is a fixed mix of the state.  So ``skip`` jumps past any
number of outputs in O(1), and ``_blocks`` computes the stream ``BLOCK``
outputs at a time: a block's states sit in one Python int, one per 128-bit
lane, and each step of the mix acts on every lane in one big-int operation.
A lane holds a 64-bit value, and the only product (by a 64-bit constant)
fits in 128 bits, so no carry crosses into the next lane.  The lane states
are built once per search, and the next block's are the same lanes plus
BLOCK*GAMMA each.  A block comes back as little-endian bytes, 16 per
output: the masked output in bytes 0-7 and ``randint``'s reject flag in
byte 8, so ``search_positive_weights`` finds the rejected outputs with
``bytes.find`` instead of a Python loop over the block.  ``next_uint64``
and ``randint`` remain the reference semantics of the stream.

``search_positive_weights`` is the first stage of the weight search and
spends at most ``max_iter`` vectors; when it raises
``SearchExhaustedError``, the experiment grid asks the exact cone solver
(``cone.cone_weights``) instead.  Both stages certify weights with
``cone.convert_bernstein_weights``.  The generator's state after an
exhausted search is that of drawing every one of its vectors, so a later
degree's search goes on from the same point of the stream.
"""

from __future__ import annotations

import functools

from .cone import WeightConversionResult, check_box, convert_bernstein_weights
from .errors import DEFAULT_SEARCH_MAX_ITER, DomainError, SearchExhaustedError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BLOCK = 1024
LANE_BYTES = 16
FLAG_BYTE = 8  # the reject flag's byte within a lane: 1 rejected, 0 kept


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
    return ones, ones * _MASK64, ones << 64, steps, ones * (BLOCK * _GAMMA & _MASK64)


class SplitMix64:
    """SplitMix64 generator (Steele/Lea/Flood mixing constants)."""

    __slots__ = ("_state",)

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


def _blocks(state: int, mask: int, span: int):
    """The outputs of a generator in ``state``, ANDed with mask, ``BLOCK``
    at a time as 16-byte little-endian lanes.

    Lane i holds v = (output i) & mask in bytes 0-7 and, in byte
    ``FLAG_BYTE``, 1 if v >= span (``randint`` would reject it) else 0.
    """
    ones, low64, flags, steps, block_step = _lanes()
    # outputs have 64 bits; a wider mask, repeated per lane, would overlap
    # the next lane and keep the bits the shift moved in.
    # v + (2^64 - span) reaches bit 64 exactly when v >= span.
    mask_lanes = (mask & _MASK64) * ones
    offset = max(0, (1 << 64) - span) * ones
    states = (state * ones + steps) & low64
    while True:
        z = ((states ^ (states >> 30)) & low64) * _MIX1 & low64
        z = ((z ^ (z >> 27)) & low64) * _MIX2 & low64
        z = (z ^ (z >> 31)) & mask_lanes
        z |= (z + offset) & flags
        yield z.to_bytes(BLOCK * LANE_BYTES, "little")
        states = (states + block_step) & low64


def _accepted(block: bytes, pending: bytes) -> tuple[bytes, list[int]]:
    """``pending`` followed by the lanes of ``block`` whose reject flag is
    clear, and the positions of the flagged lanes, ascending."""
    # one find per rejected output; the kept runs between them are copied
    # whole
    flags = block[FLAG_BYTE::LANE_BYTES]
    view = memoryview(block)
    runs, rejects, start = [pending], [], 0
    i = flags.find(1)
    while i >= 0:
        rejects.append(i)
        runs.append(view[start * LANE_BYTES:i * LANE_BYTES])
        start = i + 1
        i = flags.find(1, start)
    runs.append(view[start * LANE_BYTES:])
    return b"".join(runs), rejects


def _monomial_prechecked(lanes: bytes, n: int, count: int, bits: int) -> list[int]:
    """Indices i < count, ascending, of the vectors whose monomial
    coefficients are all positive.

    Vector i is the values of lanes i(n+1), ..., i(n+1) + n of ``lanes``,
    16 little-endian bytes each; every value is below 2^bits, bits <= 64.
    """
    # The monomial coefficients of sum w_j b_j^n are C(n,k) * (k-th forward
    # difference of w at 0), so positivity reduces to positive differences.
    # Column j (entry j of every vector) is packed into one int with a
    # W-byte lane per vector and every lane biased by B = 2^(8W-1).  A
    # difference of order d <= n has absolute value below 2^(bits+d-1), at
    # most 2^(8W-3) as 8W >= bits + n + 2, so the biased lanes stay inside
    # [0, 2^(8W)) and one big-int operation acts on each lane alone.
    k = n + 1
    width = -(-(bits + n + 2) // 8)
    stride = LANE_BYTES * k
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    ones = int.from_bytes((1).to_bytes(width, "little") * count, "little")

    def column(j: int) -> int:
        packed = bytearray(count * width)
        for b in range(-(-bits // 8)):
            start = j * LANE_BYTES + b
            packed[b::width] = lanes[start:count * stride:stride]
        return int.from_bytes(packed, "little") | bias

    # the anti-diagonal Δ^m w_(d-m), m = 0..d: each new column w_d extends
    # it by one order, and its last entry is the leading difference Δ^d w_0
    diagonal = [column(0)]
    alive = bias  # a lane's sign bit: every leading difference so far > 0
    for d in range(1, k):
        t = column(d)
        extended = [t]
        for prev in diagonal:
            t = t - prev + bias
            extended.append(t)
        diagonal = extended
        alive &= t - ones  # the lane's sign bit is set iff Δ^d w_0 >= 1
        if not alive:
            return []
    signs = alive.to_bytes(count * width, "little")[width - 1::width]
    index = []
    i = signs.find(0x80)
    while i >= 0:
        index.append(i)
        i = signs.find(0x80, i + 1)
    return index


def _raw_count(rejects: list[int], m: int) -> int:
    """Number of outputs of a block up to and including its m-th kept one,
    i.e. those ``randint`` consumed to accept m values, given the ascending
    positions of the block's rejected outputs."""
    r = 0  # the rejects before the m-th kept output, which sits at m - 1 + r
    for pos in rejects:
        if pos > m - 1 + r:
            break
        r += 1
    return m + r


def check_search_bounds(lo: int, hi: int, max_iter: int) -> None:
    """Raise unless 1 <= lo <= hi and max_iter >= 1, the weight search's
    range and budget."""
    check_box(lo, hi)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")


def search_positive_weights(
    n: int,
    lo: int,
    hi: int,
    seed: int | None = None,
    max_iter: int = DEFAULT_SEARCH_MAX_ITER,
    rng: SplitMix64 | None = None,
) -> WeightConversionResult:
    """Draw integer weight vectors from [lo, hi]^(n+1) until one converts to
    all-positive weights in all four bases.

    Either a seed or an already-running generator must be supplied; passing
    a generator lets several searches share one deterministic stream.

    The vectors, their order and the generator state afterwards are those
    of drawing each vector with n+1 calls of ``rng.randint(lo, hi)`` and
    stopping after the first vector that converts, or after ``max_iter``
    vectors.  The stream is evaluated a block of outputs at a time, as
    big-int lane arithmetic: ``_blocks`` yields the masked outputs with
    ``randint``'s reject flags, the runs between rejected outputs are
    joined into the accepted values, the vectors' columns are packed into
    one int each, and a pre-check on the leading forward differences of
    every vector at once drops those with a non-positive monomial
    coefficient.  Python steps through the rejected outputs and the
    surviving vectors only, and the survivors reach the exact conversion
    in stream order.
    """
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    check_search_bounds(lo, hi, max_iter)
    if rng is None:
        if seed is None:
            raise DomainError("either seed or rng must be given")
        rng = SplitMix64(seed)

    k = n + 1
    span = hi - lo + 1
    mask = (1 << (span - 1).bit_length()) - 1  # randint's covering range
    bits = min(mask.bit_length(), 64)
    pending = b""  # lanes of accepted values of a vector the block cut off
    remaining = max_iter
    for block in _blocks(rng._state, mask, span):
        vals, rejects = _accepted(block, pending)
        carried = len(pending) // LANE_BYTES
        count = min(len(vals) // (k * LANE_BYTES), remaining)
        # cheap integer pre-check; the exact conversion is the oracle
        for i in _monomial_prechecked(vals, n, count, bits):
            w = [lo + int.from_bytes(vals[j:j + LANE_BYTES], "little")
                 for j in range(i * k * LANE_BYTES, (i + 1) * k * LANE_BYTES,
                                LANE_BYTES)]
            result = convert_bernstein_weights(n, w)
            if result.all_positive:
                rng.skip(_raw_count(rejects, (i + 1) * k - carried))
                return result
        remaining -= count
        if not remaining:
            rng.skip(_raw_count(rejects, count * k - carried))
            raise SearchExhaustedError(max_iter, seed)
        pending = vals[count * k * LANE_BYTES:]
        rng.skip(BLOCK)
