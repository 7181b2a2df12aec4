"""Polynomial basis families on [0, 1] and their rational (weighted) variants.

Four families are supported: Bernstein, Said-Ball, DP and monomial.  All
evaluation is exact over ``fractions.Fraction``; no floating point enters
any code path in this module.

The DP family has two variants for odd degree.  The published middle-
function formula uses the exponent (n+1)/2 + 1 inside its bracket, which
breaks the partition of unity (for n=3 the functions sum to 1 + x(1-x)).
The default here lowers that exponent to (n+1)/2, which restores the
partition of unity and matches the even-degree pattern; the printed
variant stays available behind ``dp_literal_middle`` for reproducing
published tables that were evidently computed with it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .errors import DomainError, SearchExhaustedError
from .rng import BLOCK, FLAG_BYTE, LANE_BYTES, SplitMix64

DEFAULT_SEARCH_MAX_ITER = 10**6


class BasisFamily(Enum):
    BERNSTEIN = "bernstein"
    SAID_BALL = "said-ball"
    DP = "dp"
    MONOMIAL = "monomial"


class BasisSpec(namedtuple("BasisSpec",
                             "family degree weights dp_literal_middle")):
    """A basis family of a fixed degree, optionally with positive weights.

    With weights w the spec denotes the rational basis
    r_i(x) = w_i u_i(x) / sum_j w_j u_j(x); without weights, the plain
    polynomial family.  ``weights`` is a tuple of ``degree + 1`` Fractions
    or None.
    """

    __slots__ = ()

    def __new__(cls, family: BasisFamily, degree: int,
                weights: tuple[Fraction, ...] | None = None,
                dp_literal_middle: bool = False):
        if degree < 1:
            raise DomainError(f"degree must be >= 1, got {degree}")
        if weights is not None:
            if len(weights) != degree + 1:
                raise DomainError(
                    f"need {degree + 1} weights, got {len(weights)}"
                )
            if any(w <= 0 for w in weights):
                raise DomainError("all weights must be strictly positive")
        return super().__new__(cls, family, degree, weights, dp_literal_middle)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); domain error outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"binomial({n}, {k}) is outside the domain 0 <= k <= n")
    return math.comb(n, k)


def _bernstein(n: int, i: int, x: Fraction) -> Fraction:
    return binomial(n, i) * x**i * (1 - x) ** (n - i)


def _said_ball(n: int, i: int, x: Fraction) -> Fraction:
    h = n // 2
    if i <= (n - 1) // 2:
        return binomial(h + i, i) * x**i * (1 - x) ** (h + 1)
    if n % 2 == 0 and i == n // 2:
        return binomial(n, n // 2) * x ** (n // 2) * (1 - x) ** (n // 2)
    return _said_ball(n, n - i, 1 - x)


def _dp_odd_middle(n: int, x: Fraction, literal: bool) -> Fraction:
    m = (n + 1) // 2
    e = m + 1 if literal else m
    return x * (1 - x) ** m + Fraction(1, 2) * (1 - x**e - (1 - x) ** e)


def _dp(n: int, i: int, x: Fraction, literal: bool) -> Fraction:
    if i == 0:
        return (1 - x) ** n
    if i == n:
        return x**n
    if 1 <= i <= n // 2 - 1:
        return x * (1 - x) ** (n - i)
    if (n + 1) // 2 + 1 <= i <= n - 1:
        return x**i * (1 - x)
    if n % 2 == 0:  # i == n/2
        return 1 - x ** (n // 2 + 1) - (1 - x) ** (n // 2 + 1)
    if i == (n - 1) // 2:
        return _dp_odd_middle(n, x, literal)
    return _dp_odd_middle(n, 1 - x, literal)  # i == (n+1)/2


_PLAIN_EVAL = {
    BasisFamily.BERNSTEIN: lambda n, i, x, lit: _bernstein(n, i, x),
    BasisFamily.SAID_BALL: lambda n, i, x, lit: _said_ball(n, i, x),
    BasisFamily.DP: _dp,
    BasisFamily.MONOMIAL: lambda n, i, x, lit: x**i,
}


def _check_point(x: Fraction) -> Fraction:
    x = Fraction(x)
    if x < 0 or x > 1:
        raise DomainError(f"evaluation point {x} is outside [0, 1]")
    return x


def eval_basis_function(spec: BasisSpec, i: int, x: Fraction) -> Fraction:
    """Exact value of the i-th basis function of ``spec`` at x in [0, 1]."""
    n = spec.degree
    if not 0 <= i <= n:
        raise DomainError(f"index {i} out of range [0, {n}]")
    return eval_basis_row(spec, x)[i]


def eval_basis_row(spec: BasisSpec, x: Fraction) -> list[Fraction]:
    """All basis function values (u_0(x), ..., u_n(x)) at one point."""
    x = _check_point(x)
    plain = _PLAIN_EVAL[spec.family]
    row = [
        plain(spec.degree, i, x, spec.dp_literal_middle)
        for i in range(spec.degree + 1)
    ]
    if spec.weights is None:
        return row
    weighted = [w * v for w, v in zip(spec.weights, row)]
    total = sum(weighted)
    return [v / total for v in weighted]


def standard_nodes(n: int) -> list[Fraction]:
    """The node sequence (i/(n+2)) for i = 1, ..., n+1."""
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    return [Fraction(i, n + 2) for i in range(1, n + 2)]


class WeightConversionResult(namedtuple(
        "WeightConversionResult", "bernstein saidball monomial dp all_positive")):
    """Weight vectors representing one polynomial in four bases.

    sum_j bernstein[j] b_j(x) = sum_j saidball[j] s_j(x)
                              = sum_j monomial[j] x^j
                              = sum_j dp[j] c_j(x)
    hold exactly as polynomial identities; each vector is a tuple of
    Fractions, and ``all_positive`` says whether every entry is > 0.
    """

    __slots__ = ()


def _solve_collocation(spec: BasisSpec, values: list[Fraction]) -> tuple[Fraction, ...]:
    from .linalg import collocation_matrix, solve

    nodes = standard_nodes(spec.degree)
    return tuple(solve(collocation_matrix(spec, nodes), values))


def convert_bernstein_weights(n: int, w) -> WeightConversionResult:
    """Re-express p(x) = sum_j w_j b_j^n(x) in the Said-Ball, monomial and
    DP bases by exact collocation solves at the standard nodes."""
    w = tuple(Fraction(v) for v in w)
    if len(w) != n + 1:
        raise DomainError(f"need {n + 1} weights, got {len(w)}")
    if any(v <= 0 for v in w):
        raise DomainError("all Bernstein weights must be strictly positive")

    bern = BasisSpec(BasisFamily.BERNSTEIN, n)
    values = [
        sum(wj * bj for wj, bj in zip(w, eval_basis_row(bern, t)))
        for t in standard_nodes(n)
    ]
    saidball = _solve_collocation(BasisSpec(BasisFamily.SAID_BALL, n), values)
    monomial = _solve_collocation(BasisSpec(BasisFamily.MONOMIAL, n), values)
    dp = _solve_collocation(BasisSpec(BasisFamily.DP, n), values)
    all_positive = all(v > 0 for vec in (w, saidball, monomial, dp) for v in vec)
    return WeightConversionResult(w, saidball, monomial, dp, all_positive)


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
    if not 1 <= lo <= hi:
        raise DomainError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
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
    big-int lane arithmetic: ``SplitMix64.packed_block`` returns the masked
    outputs with ``randint``'s reject flags, the runs between rejected
    outputs are joined into the accepted values, the vectors' columns are
    packed into one int each, and a pre-check on the leading forward
    differences of every vector at once drops those with a non-positive
    monomial coefficient.  Python steps through the rejected outputs and
    the surviving vectors only, and the survivors reach the exact
    conversion in stream order.
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
    while True:
        vals, rejects = _accepted(rng.packed_block(mask, span), pending)
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
