"""Deterministic 64-bit generator and the weight search that draws from it.

SplitMix64 is used instead of the stdlib Mersenne twister so that the
integer stream is fixed by the seed alone and trivially portable.

Its state is a Weyl sequence: after i outputs it is s0 + i*GAMMA mod 2^64,
and each output is a fixed mix of the state.  So ``skip`` jumps past any
number of outputs in O(1), and ``_superblocks`` computes the stream with
big-int lane arithmetic: ``BLOCK`` states sit in one Python int, one per
128-bit lane, and each step of the mix acts on every lane in one big-int
operation.  A lane holds a 64-bit value, and each product (by a constant
of at most 64 bits) fits in 128 bits, so no carry crosses into the next
lane.  ``randint`` keeps only the low ``bits`` bits of an output, so the
second product is taken mod 2^(31 + bits), all that those bits depend on,
when that is narrower than 64 bits.

The search stores each masked output v in G bytes, the smallest of 2, 4,
8 or 16 with 8G > bits, as v + 2^(8G-1) - span: the top bit of the G-byte
lane is then ``randint``'s reject flag (v >= span).  P = 16/G sub-blocks of
``BLOCK`` outputs share one int of 128-bit lanes, lane i holding outputs
iP, ..., iP + P - 1, so a single ``to_bytes`` gives the P*BLOCK outputs of
a superblock in stream order.  Rejected lanes are set to all-ones, and
splitting the bytes at each run of G 0xff bytes drops them in C: an
accepted lane's top byte is below 0x80, so every such run starts on a
lane boundary.  Python steps through no rejected output.  ``next_uint64``
and ``randint`` remain the reference semantics of the stream.

Since the state of superblock j is one multiply-add from the seed's, the
stream splits between two processes (Steele, Lea & Flood, OOPSLA 2014).
The search computes superblock 0 itself; if it asks for a second one,
``os.fork`` exists, the process may run on two CPUs or more and it runs
a single thread, it forks one helper.  The helper computes superblocks 2,
4, 6, ... and writes their raw bytes to a pipe; the caller computes 1, 3,
5, ... and takes the two in stream order.  In any other case the caller
computes every superblock.  The helper does only lane arithmetic and
``os.write`` and leaves by ``os._exit``, so it flushes no inherited buffer
and runs no exit hook.  The caller closes the pipe and reaps the helper
before the search returns or raises; a write to the closed pipe, also
when the caller is killed, ends the helper within one superblock.  If the
pipe ends early, the caller computes the rest of the stream itself.  The
outputs, and so every result and generator state, are those of the
serial stream.

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
import itertools
import operator
import os
import threading

from .cone import (
    WeightConversionResult,
    _cone_rows,
    check_box,
    convert_bernstein_weights,
)
from .errors import DEFAULT_SEARCH_MAX_ITER, DomainError, SearchExhaustedError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BLOCK = 1024
LANE_BYTES = 16


@functools.cache
def _lanes(g: int) -> tuple[int, int, int, int]:
    """Lane constants for g-byte outputs, P = 16/g of them per 128-bit
    lane: 1 and 2^64 - 1 per lane, the Weyl increment (iP + 1)*GAMMA of
    lane i's first output, and 1 per g-byte lane of a superblock.  Built
    arithmetically on first use, so importing costs nothing."""
    ones = int.from_bytes((1).to_bytes(LANE_BYTES, "little") * BLOCK, "little")
    # lane i of ramp holds i: each doubling of the lanes built so far
    # copies them, plus m, into the next m lanes
    ramp, m = 0, 1
    while m < BLOCK:
        ramp |= (ramp + m * (ones >> 128 * (BLOCK - m))) << 128 * m
        m *= 2
    p = LANE_BYTES // g
    low64 = ones * _MASK64
    steps = (p * ramp + ones) * _GAMMA & low64
    sub_ones = int.from_bytes((1).to_bytes(g, "little") * (p * BLOCK), "little")
    return ones, low64, steps, sub_ones


def _lane_bytes(bits: int) -> int:
    """The lane width G in bytes for values of ``bits`` bits and their
    reject flag: the smallest of 2, 4, 8 and 16 with 8G > bits."""
    return next(g for g in (2, 4, 8, 16) if 8 * g > bits)


def _lane_layout(span: int) -> tuple[int, int, int]:
    """For ``randint`` over span values: the bits it keeps of an output
    (at most 64), the lane width G and the shift 2^(8G-1) - span that the
    search adds to each kept value."""
    bits = min((span - 1).bit_length(), 64)
    g = _lane_bytes(bits)
    # a span beyond 2^64 rejects nothing, as one of 2^bits does
    return bits, g, (1 << 8 * g - 1) - min(span, 1 << bits)


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


def _superblocks(state: int, span: int, first: int = 0, stride: int = 1):
    """The outputs of a generator in ``state`` as ``randint`` over span
    values sees them, ``LANE_BYTES // G * BLOCK`` at a time: superblocks
    first, first + stride, first + 2 stride, ... of the stream, every one
    of them by default.

    Yields pairs (raw, kept) of little-endian bytes.  ``raw`` has one
    G-byte lane per output in stream order (G from ``_lane_layout``):
    v + shift for the masked output v when v < span, all-ones when
    ``randint`` rejects it.  ``kept`` is ``raw`` without its all-ones
    lanes, the accepted values in order.
    """
    bits, g, shift = _lane_layout(span)
    ones, low64, steps, sub_ones = _lanes(g)
    p = LANE_BYTES // g
    # randint keeps bits 0..bits-1 of z ^ (z >> 31), which depend on
    # z mod 2^(31 + bits) only; a product by a constant below 2^width
    # stays inside its 128-bit lane
    width = min(31 + bits, 64)
    mix2, low2 = _MIX2 & ((1 << width) - 1), ones * ((1 << width) - 1)
    masked = ones * ((1 << bits) - 1)
    top = 8 * g - 1
    offsets, flags = shift * sub_ones, sub_ones << top
    step = ones * _GAMMA
    # after the P sub-blocks, on to lane i's output of the superblock
    # stride ahead
    jump = ones * (p * (stride * BLOCK - 1) * _GAMMA & _MASK64)
    states = ((state + first * p * BLOCK * _GAMMA & _MASK64) * ones
              + steps) & low64
    gone = b"\xff" * g
    while True:
        packed = 0
        for at in range(0, 8 * LANE_BYTES, 8 * g):  # sub-block p at 8Gp
            z = ((states ^ (states >> 30)) & low64) * _MIX1 & low64
            z = ((z ^ (z >> 27)) & low64) * mix2 & low2
            packed |= ((z ^ (z >> 31)) & masked) << at
            states = (states + step) & low64
        states = (states + jump) & low64
        packed += offsets
        rejected = packed & flags
        packed |= rejected - (rejected >> top)  # the flagged lanes: all-ones
        raw = packed.to_bytes(BLOCK * LANE_BYTES, "little")
        # as bytes.replace(gone, b""), but one scan instead of two
        yield raw, b"".join(raw.split(gone))


def _split_helps() -> bool:
    """Whether a forked helper can compute superblocks beside the caller:
    ``os.fork`` exists, the process may run on two CPUs or more, and it
    runs a single thread (a fork copies only the thread that calls it)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _helper(fd: int, state: int, span: int) -> None:
    """In a forked helper: write the raw bytes of superblocks 2, 4, 6, ...
    to ``fd`` until a write fails, then leave at once, flushing no
    inherited buffer and running no exit handler."""
    try:
        for raw, _ in _superblocks(state, span, 2, 2):
            view = memoryview(raw)
            while view:
                view = view[os.write(fd, view):]
    finally:
        os._exit(0)


def _split_superblocks(state: int, span: int):
    """``_superblocks(state, span)``, from two processes once the second
    superblock is asked for and ``_split_helps()``: a forked helper
    computes superblocks 2, 4, 6, ... and pipes their raw bytes, and the
    caller computes 1, 3, 5, ... and yields both in stream order.

    Closing the generator closes the pipe and reaps the helper, whose next
    write then fails; if the pipe ends early, the caller computes the rest
    of the stream itself.
    """
    serial = _superblocks(state, span)
    yield next(serial)
    if not _split_helps():
        yield from serial
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: go on alone
        os.close(read_fd)
        os.close(write_fd)
        yield from serial
        return
    if not pid:
        os.close(read_fd)
        _helper(write_fd, state, span)
    os.close(write_fd)
    size = BLOCK * LANE_BYTES
    gone = b"\xff" * _lane_layout(span)[1]
    own = _superblocks(state, span, 1, 2)
    try:
        with open(read_fd, "rb") as pipe:
            for index in itertools.count(2, 2):
                yield next(own)
                raw = pipe.read(size)
                if len(raw) < size:  # the helper is gone
                    yield from _superblocks(state, span, index)
                    return
                yield raw, b"".join(raw.split(gone))
    finally:
        os.waitpid(pid, 0)


def _monomial_prechecked(lanes: bytes, n: int, count: int, bits: int) -> list[int]:
    """Indices i < count, ascending, of the vectors whose monomial
    coefficients are all positive.

    Vector i is the values of lanes i(n+1), ..., i(n+1) + n of ``lanes``,
    G little-endian bytes each, G = ``_lane_bytes(bits)``, bits <= 64.
    Every lane lies in [2^(8G-1) - 2^bits, 2^(8G-1)), as the search's
    kept values v + 2^(8G-1) - span do.
    """
    # The monomial coefficients of sum w_j b_j^n are C(n,k) * (k-th forward
    # difference of w at 0), so positivity reduces to positive differences,
    # which a shift common to all values leaves alone.  Read as an integer,
    # the low c = ceil(bits/8) bytes of a lane are the lane itself when
    # c = G, and the lane - 2^(8G-1) + 2^(8c) when c < G; either way all
    # values share the shift and lie in [0, 2^(8c)).  Column j (entry j of
    # every vector) is packed into one int with a W-byte lane per vector,
    # 8W >= bits + n, so W >= c.  A difference of order d >= 1 is biased by
    # B - 1, B = 2^(8W-1): its absolute value is below 2^(bits+d-1) <= B,
    # so the biased lanes stay inside [0, 2^(8W)), one big-int operation
    # acts on each lane alone, and a lane's top bit is set exactly when its
    # difference is >= 1.
    k = n + 1
    g = _lane_bytes(bits)
    width = -(-(bits + n) // 8)
    stride = g * k
    signs = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    bias = int.from_bytes((b"\xff" * (width - 1) + b"\x7f") * count, "little")

    def column(j: int) -> int:
        packed = bytearray(count * width)
        for b in range(-(-bits // 8)):
            start = j * g + b
            packed[b::width] = lanes[start:count * stride:stride]
        return int.from_bytes(packed, "little")

    # the anti-diagonal Δ^m w_(d-m), m = 0..d: each new column w_d extends
    # it by one order, and its last entry is the leading difference Δ^d w_0
    diagonal = [column(0)]
    alive = signs  # a lane's top bit: every leading difference so far >= 1
    for d in range(1, k):
        t = column(d)
        extended = [t]
        for prev in diagonal:
            t = t - prev + bias
            extended.append(t)
        diagonal = extended
        alive &= t
        if not alive:
            return []
    tops = alive.to_bytes(count * width, "little")[width - 1::width]
    index = []
    i = tops.find(0x80)
    while i >= 0:
        index.append(i)
        i = tops.find(0x80, i + 1)
    return index


def _raw_count(raw: bytes, g: int, m: int) -> int:
    """Number of outputs of a superblock up to and including its m-th kept
    one, i.e. those ``randint`` consumed to accept m values, read off the
    top bytes of its g-byte lanes (0xff: rejected)."""
    tops = raw[g - 1::g]
    r = 0  # the rejects before the m-th kept output, which sits at m - 1 + r
    i = tops.find(0xFF)
    while 0 <= i <= m - 1 + r:
        r += 1
        i = tops.find(0xFF, i + 1)
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

    Exactly one of a seed and an already-running generator must be
    supplied; passing a generator lets several searches share one
    deterministic stream.

    The vectors, their order and the generator state afterwards are those
    of drawing each vector with n+1 calls of ``rng.randint(lo, hi)`` and
    stopping after the first vector that converts, or after ``max_iter``
    vectors.  The stream is evaluated a superblock of outputs at a time,
    as big-int lane arithmetic: ``_superblocks`` yields the accepted
    values packed in stream order, the vectors' columns are packed into
    one int each, and a pre-check on the leading forward differences of
    every vector at once drops those with a non-positive monomial
    coefficient.  The survivors, in stream order, are tested against the
    integer rows of the cone (``cone._cone_rows``), and the first that
    passes is certified by the exact conversion.

    The superblocks come from ``_split_superblocks``: past the first, a
    forked helper computes every other one when ``os.fork`` exists, the
    process may run on two CPUs and it runs a single thread.  The search
    closes that generator, which reaps the helper, before it returns or
    raises; the outcome and the generator state are those of the serial
    stream.
    """
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    check_search_bounds(lo, hi, max_iter)
    if (seed is None) == (rng is None):
        raise DomainError("exactly one of seed and rng must be given")
    if rng is None:
        rng = SplitMix64(seed)

    k = n + 1
    span = hi - lo + 1
    bits, g, shift = _lane_layout(span)
    pending = b""  # accepted values of a vector the superblock cut off
    remaining = max_iter
    rows = None  # the cone's integer rows, built at the first survivor
    blocks = _split_superblocks(rng._state, span)
    try:
        for raw, kept in blocks:
            vals = pending + kept
            carried = len(pending) // g
            count = min(len(vals) // (k * g), remaining)
            # the pre-check drops most vectors; the cone's integer rows
            # decide the survivors exactly, and the exact conversion
            # certifies the hit
            for i in _monomial_prechecked(vals, n, count, bits):
                w = [lo - shift + int.from_bytes(vals[j:j + g], "little")
                     for j in range(i * k * g, (i + 1) * k * g, g)]
                if rows is None:
                    rows = _cone_rows(n, lo)
                if all(sum(map(operator.mul, a, w)) >= 1 for a in rows):
                    result = convert_bernstein_weights(n, w)
                    if result.all_positive:
                        rng.skip(_raw_count(raw, g, (i + 1) * k - carried))
                        return result
            remaining -= count
            if not remaining:
                rng.skip(_raw_count(raw, g, count * k - carried))
                raise SearchExhaustedError(max_iter, seed)
            pending = vals[count * k * g:]
            rng.skip(len(raw) // g)
    finally:
        blocks.close()  # reaps the helper, if one was forked
