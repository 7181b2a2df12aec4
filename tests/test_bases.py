import copy
import random
from fractions import Fraction as F

import pytest

from tpbases.bases import (
    BasisFamily,
    BasisSpec,
    binomial,
    eval_basis_function,
    eval_basis_row,
    standard_nodes,
)
from tpbases.cone import convert_bernstein_weights
from tpbases.errors import DomainError, SearchExhaustedError
from tpbases.rng import (
    BLOCK,
    LANE_BYTES,
    SplitMix64,
    _lane_bytes,
    _lane_layout,
    _monomial_prechecked,
    _superblocks,
    search_positive_weights,
)

NORMALIZED_FAMILIES = (BasisFamily.BERNSTEIN, BasisFamily.SAID_BALL, BasisFamily.DP)


def random_points(count, seed=20240901):
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        den = rng.randint(1, 997)
        num = rng.randint(0, den)
        pts.append(F(num, den))
    return pts


# --- binomial ---

def pascal_binomial(n, k):
    # independent oracle: additive Pascal recurrence
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row[k]


def test_binomial_small():
    assert binomial(4, 2) == 6


@pytest.mark.parametrize("n", [0, 1, 7, 30])
def test_binomial_identity_case(n):
    assert binomial(n, 0) == 1


def test_binomial_cross_check():
    assert binomial(52, 26) == pascal_binomial(52, 26)


@pytest.mark.parametrize("n,k", [(3, 4), (-1, 0), (2, -1)])
def test_binomial_domain_errors(n, k):
    with pytest.raises(DomainError):
        binomial(n, k)


# --- single-function evaluation ---

def test_bernstein_value():
    spec = BasisSpec(BasisFamily.BERNSTEIN, 3)
    # 3 * (1/5) * (4/5)^2
    assert eval_basis_function(spec, 1, F(1, 5)) == F(48, 125)


def test_said_ball_endpoint():
    spec = BasisSpec(BasisFamily.SAID_BALL, 3)
    assert eval_basis_function(spec, 0, F(0)) == 1


def test_dp_even_middle():
    spec = BasisSpec(BasisFamily.DP, 4)
    # 1 - x^3 - (1-x)^3 at x = 1/2
    assert eval_basis_function(spec, 2, F(1, 2)) == F(3, 4)


def test_rational_bernstein_value():
    spec = BasisSpec(BasisFamily.BERNSTEIN, 1, weights=(F(1), F(2)))
    assert eval_basis_function(spec, 0, F(1, 2)) == F(1, 3)


def test_eval_domain_errors():
    spec = BasisSpec(BasisFamily.BERNSTEIN, 3)
    with pytest.raises(DomainError):
        eval_basis_function(spec, 4, F(1, 2))
    with pytest.raises(DomainError):
        eval_basis_function(spec, 0, F(3, 2))
    with pytest.raises(DomainError):
        eval_basis_row(spec, F(-1, 10))


# --- rows ---

def test_bernstein_row_at_zero():
    assert eval_basis_row(BasisSpec(BasisFamily.BERNSTEIN, 2), F(0)) == [1, 0, 0]


def test_monomial_row():
    row = eval_basis_row(BasisSpec(BasisFamily.MONOMIAL, 2), F(1, 2))
    assert row == [1, F(1, 2), F(1, 4)]


def test_dp_row_partition_of_unity_odd_degree():
    row = eval_basis_row(BasisSpec(BasisFamily.DP, 5), F(1, 3))
    assert sum(row) == 1


@pytest.mark.parametrize("n", range(3, 26, 2))
def test_dp_literal_middle_breaks_partition_of_unity(n):
    # the printed exponent m + 1 adds x(1-x)(x^(m-1) + (1-x)^(m-1)) to the sum
    spec = BasisSpec(BasisFamily.DP, n, dp_literal_middle=True)
    m = (n + 1) // 2
    for x in [F(1, 3)] + random_points(3, seed=n):
        assert sum(eval_basis_row(spec, x)) == \
            1 + x * (1 - x) * (x ** (m - 1) + (1 - x) ** (m - 1))


@pytest.mark.parametrize("n", range(2, 26, 2))
def test_dp_literal_middle_is_inert_at_even_degree(n):
    literal = BasisSpec(BasisFamily.DP, n, dp_literal_middle=True)
    for x in [F(1, 3)] + random_points(3, seed=n):
        assert eval_basis_row(literal, x) == \
            eval_basis_row(BasisSpec(BasisFamily.DP, n), x)


@pytest.mark.parametrize("family", NORMALIZED_FAMILIES)
@pytest.mark.parametrize("degree", range(1, 26))
def test_partition_of_unity(family, degree):
    spec = BasisSpec(family, degree)
    for x in random_points(100):
        assert sum(eval_basis_row(spec, x)) == 1


@pytest.mark.parametrize("family", list(BasisFamily))
@pytest.mark.parametrize("degree", range(1, 9))
def test_weighted_partition_of_unity(family, degree):
    weights = tuple(F(i + 1, 2) for i in range(degree + 1))
    spec = BasisSpec(family, degree, weights=weights)
    for x in random_points(100, seed=77):
        assert sum(eval_basis_row(spec, x)) == 1


@pytest.mark.parametrize("family", list(BasisFamily))
@pytest.mark.parametrize("degree", range(1, 26))
def test_nonnegativity(family, degree):
    spec = BasisSpec(family, degree)
    for x in random_points(100, seed=5):
        assert all(v >= 0 for v in eval_basis_row(spec, x))


@pytest.mark.parametrize("degree", range(1, 26))
def test_said_ball_symmetry(degree):
    spec = BasisSpec(BasisFamily.SAID_BALL, degree)
    for x in random_points(25, seed=degree):
        # u_i(x) == u_(n-i)(1 - x) for every i at once
        assert eval_basis_row(spec, x) == eval_basis_row(spec, 1 - x)[::-1]


@pytest.mark.parametrize("degree", range(1, 26))
def test_dp_symmetry(degree):
    spec = BasisSpec(BasisFamily.DP, degree)
    for x in random_points(25, seed=100 + degree):
        # u_i(x) == u_(n-i)(1 - x) for every i at once
        assert eval_basis_row(spec, x) == eval_basis_row(spec, 1 - x)[::-1]


@pytest.mark.parametrize("family", NORMALIZED_FAMILIES)
@pytest.mark.parametrize("degree", range(1, 26))
def test_endpoint_cardinality(family, degree):
    spec = BasisSpec(family, degree)
    at0 = eval_basis_row(spec, F(0))
    at1 = eval_basis_row(spec, F(1))
    assert at0 == [1] + [0] * degree
    assert at1 == [0] * degree + [1]


# --- nodes ---

def test_standard_nodes():
    assert standard_nodes(3) == [F(1, 5), F(2, 5), F(3, 5), F(4, 5)]
    assert standard_nodes(4) == [F(i, 6) for i in range(1, 6)]
    assert standard_nodes(1) == [F(1, 3), F(2, 3)]


def test_standard_nodes_domain_error():
    with pytest.raises(DomainError):
        standard_nodes(0)


# --- weight conversion ---

def eval_weighted_sum(family, degree, weights, x):
    spec = BasisSpec(family, degree)
    return sum(w * v for w, v in zip(weights, eval_basis_row(spec, x)))


def assert_conversion_identity(n, result):
    # oracle: the four weighted sums agree at n+2 fresh points, hence as
    # polynomials of degree <= n (the points differ from the solve nodes)
    for k in range(n + 2):
        x = F(k, 2 * n + 7)
        p = eval_weighted_sum(BasisFamily.BERNSTEIN, n, result.bernstein, x)
        assert eval_weighted_sum(BasisFamily.SAID_BALL, n, result.saidball, x) == p
        assert eval_weighted_sum(BasisFamily.MONOMIAL, n, result.monomial, x) == p
        assert eval_weighted_sum(BasisFamily.DP, n, result.dp, x) == p


def test_convert_unit_weights():
    result = convert_bernstein_weights(2, (1, 1, 1))
    assert result.saidball == (1, 1, 1)
    assert result.dp == (1, 1, 1)
    assert result.monomial == (1, 0, 0)
    assert not result.all_positive


def test_convert_degree_one():
    result = convert_bernstein_weights(1, (1, 2))
    assert result.monomial == (1, 1)
    assert result.saidball == (1, 2)
    assert result.dp == (1, 2)
    assert result.all_positive


def test_convert_random_weights_identity():
    rng = random.Random(11)
    w = [rng.randint(1, 1000) for _ in range(4)]
    result = convert_bernstein_weights(3, w)
    assert_conversion_identity(3, result)


def test_convert_round_trip():
    # interpolating the monomial coefficients back in the Bernstein basis
    # recovers the original weights exactly
    from tpbases.linalg import collocation_matrix, solve

    w = (F(3), F(7, 2), F(1), F(9))
    result = convert_bernstein_weights(3, w)
    nodes = standard_nodes(3)
    values = [[eval_weighted_sum(BasisFamily.MONOMIAL, 3, result.monomial, t)]
              for t in nodes]
    back = solve(collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 3), nodes),
                 values)
    assert tuple(row[0] for row in back) == w


def test_convert_rejects_bad_weights():
    with pytest.raises(DomainError):
        convert_bernstein_weights(2, (1, 1))
    with pytest.raises(DomainError):
        convert_bernstein_weights(2, (1, -1, 1))


# --- weight search ---

def test_search_degree_one_exhausts():
    # w = (1, 1) converts to monomial (1, 0), never all-positive
    with pytest.raises(SearchExhaustedError):
        search_positive_weights(1, 1, 1, seed=3, max_iter=50)


def test_search_finds_positive_system():
    result = search_positive_weights(3, 1, 1000, seed=42, max_iter=10**6)
    assert result.all_positive
    assert_conversion_identity(3, result)


def test_search_determinism():
    a = search_positive_weights(3, 1, 1000, seed=42, max_iter=10**6)
    b = search_positive_weights(3, 1, 1000, seed=42, max_iter=10**6)
    assert a == b


def test_search_argument_validation():
    with pytest.raises(DomainError):
        search_positive_weights(3, 5, 2, seed=1)
    with pytest.raises(DomainError):
        search_positive_weights(3, 1, 10, seed=1, max_iter=0)
    with pytest.raises(DomainError):
        search_positive_weights(3, 1, 10)  # neither seed nor rng


def test_search_rejects_both_seed_and_rng():
    # the generator would be drawn from while the seed is what a failure
    # reports; neither may be passed silently
    rng = SplitMix64(77)
    state = rng._state
    with pytest.raises(DomainError, match="exactly one"):
        search_positive_weights(3, 1, 10, seed=5, rng=rng)
    assert rng._state == state  # nothing was drawn


@pytest.mark.parametrize("n", [0, -1, -3])
def test_search_rejects_degree_below_one(n):
    with pytest.raises(DomainError):
        search_positive_weights(n, 1, 10, seed=1)


def _monomial_coeffs_positive(w, n):
    d = w
    for _ in range(n):
        d = [d[i + 1] - d[i] for i in range(len(d) - 1)]
        if d[0] <= 0:
            return False
    return True


def _reference_search(n, lo, hi, max_iter, rng):
    # the per-draw loop the block-evaluated search must reproduce exactly:
    # n+1 randint calls per vector, the monomial pre-check on the forward
    # differences, then the exact conversion
    for _ in range(max_iter):
        w = [rng.randint(lo, hi) for _ in range(n + 1)]
        if not _monomial_coeffs_positive(w, n):
            continue
        result = convert_bernstein_weights(n, w)
        if result.all_positive:
            return result
    raise SearchExhaustedError(max_iter, None)


def _outcome(search, n, lo, hi, max_iter, rng):
    """The search's result (or None when exhausted) and the generator's
    next output, read from a copy so that the stream goes on unchanged."""
    try:
        result = search(n, lo, hi, max_iter=max_iter, rng=rng)
    except SearchExhaustedError:
        result = None
    return result, copy.copy(rng).next_uint64()


def _block_search(n, lo, hi, max_iter, rng):
    return search_positive_weights(n, lo, hi, max_iter=max_iter, rng=rng)


def _packed(vals, bits):
    # the search's lanes for randint over 2^bits values: v + 2^(8G-1) - 2^bits
    g = _lane_bytes(bits)
    return b"".join((v + (1 << 8 * g - 1) - (1 << bits)).to_bytes(g, "little")
                    for v in vals)


def _value_bits(n, room):
    """A bit bound that leaves room for the vectors of the precheck test
    and puts bits + n at a byte boundary ("fit"), one bit past it
    ("past"), or is 64 ("top")."""
    if room == "top":
        return 64
    bits = n + 3
    while (bits + n) % 8 != (room == "past"):
        bits += 1
    return bits


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_monomial_precheck_keeps_exactly_the_positive_vectors(n):
    # the survivors, not just the search's outcome, match the per-vector
    # check, so the exact conversion runs as often as in the reference loop
    for room in ("fit", "past", "top"):
        _check_monomial_precheck(n, _value_bits(n, room))


def _check_monomial_precheck(n, bits):
    k = n + 1
    rng = random.Random(n)
    vals = []
    for _ in range(60):
        # vector from its leading differences: positive below a failing
        # order f (f = k passes), 0 or -1 at f, -1..3 above it; the first
        # entry keeps every value in [0, 2^bits), close to the top
        f = rng.randint(1, k)
        lead = [(1 << bits) - (1 << n + 2) - rng.randint(0, 1 << n)] + [
            rng.randint(1, 3) if m < f else
            rng.randint(-1, 0) if m == f else rng.randint(-1, 3)
            for m in range(1, k)]
        vals += [sum(binomial(j, m) * lead[m] for m in range(j + 1))
                 for j in range(k)]
    for _ in range(20):
        # entries 0 and 2^bits - 1 give differences near the largest ones
        vals += [rng.choice((0, (1 << bits) - 1)) for _ in range(k)]
    vals += [rng.randrange(1 << bits) for _ in range(n)]  # a partial vector
    assert all(0 <= v < 1 << bits for v in vals)
    expected = [i for i in range(80)
                if _monomial_coeffs_positive(vals[i * k:(i + 1) * k], n)]
    assert 0 < len(expected) < 80
    assert _monomial_prechecked(_packed(vals, bits), n, 80, bits) == expected


@pytest.mark.parametrize("seed", [82, 139])
def test_search_matches_reference_loop_on_a_shared_stream(seed):
    ref_rng, rng = SplitMix64(seed), SplitMix64(seed)
    for n in (3, 4, 5):
        expected = _outcome(_reference_search, n, 1, 1000, 10**6, ref_rng)
        assert expected[0] is not None
        assert _outcome(_block_search, n, 1, 1000, 10**6, rng) == expected


def test_search_vector_longer_than_a_block():
    # n + 1 > P*BLOCK, the outputs of one superblock for span 2 (G = 2,
    # P = 8): every vector spans two superblocks, and both exhaust
    args = (LANE_BYTES // _lane_layout(2)[1] * BLOCK + 5, 1, 2, 2)
    expected = _outcome(_reference_search, *args, SplitMix64(11))
    assert expected[0] is None
    assert _outcome(_block_search, *args, SplitMix64(11)) == expected


def test_search_matches_reference_loop_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, max_examples=12,
                         deadline=None)
    @hypothesis.given(n=st.integers(1, 4), lo=st.integers(1, 6),
                      max_iter=st.integers(1, 3000),
                      seed=st.integers(0, 2**64 - 1))
    def check(span, n, lo, max_iter, seed):
        args = (n, lo, lo + span - 1, max_iter)
        expected = _outcome(_reference_search, *args, SplitMix64(seed))
        assert _outcome(_block_search, *args, SplitMix64(seed)) == expected

    # lo == hi, spans of 2^k and of 2^k + 1, and each span on its own so
    # that every edge is met: of the lane widths of 2, 4, 8 and 16 bytes
    # (2^15, 2^15 + 1, 2^31 + 1, 2^63 + 1) and of the narrow second
    # multiply, exact for outputs of at most 33 bits only
    for span in [1, 2, 3, 4, 5, 8, 9, 16, 17, 1000, 2**15, 2**15 + 1,
                 2**16 + 1, 2**31 + 1, 2**32 + 1, 2**33 + 1, 2**34 + 1,
                 2**40 + 3, 2**63 + 1, 2**64, 2**64 + 1]:
        check(span)


# --- generator ---

def test_splitmix64_known_stream():
    # reference outputs of the standard SplitMix64 for seed 0
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_randint_range_and_determinism():
    rng = SplitMix64(99)
    draws = [rng.randint(1, 1000) for _ in range(2000)]
    assert all(1 <= d <= 1000 for d in draws)
    rng2 = SplitMix64(99)
    assert draws == [rng2.randint(1, 1000) for _ in range(2000)]


def test_splitmix64_degenerate_range():
    rng = SplitMix64(1)
    assert rng.randint(7, 7) == 7
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(5, 2)


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
@pytest.mark.parametrize("mask", [0, 1023, 2**64 - 1, 2**130 - 1,
                                  2**20 - 1, 2**40 - 1])
def test_masked_block_equals_masked_draws(seed, mask):
    # spans whose covering mask is ``mask``: a power of two (nothing is
    # rejected) and, but for mask 0, one that rejects about half the
    # outputs; the masks give lanes of 2, 16, 16, 4 and 8 bytes
    for span in [mask + 1] + ([mask // 2 + 2] if mask else []):
        bits, g, shift = _lane_layout(span)
        assert (1 << bits) - 1 == mask & (2**64 - 1)
        rng = SplitMix64(seed)
        rng.next_uint64()
        ref, ints = copy.copy(rng), copy.copy(rng)
        lanes, kept_values = [], []
        superblocks = _superblocks(rng._state, span)
        # the second superblock's lanes are the first's, stepped
        for _ in range(2):
            raw, kept = next(superblocks)
            assert len(raw) == BLOCK * LANE_BYTES
            lanes += [int.from_bytes(raw[i:i + g], "little")
                      for i in range(0, len(raw), g)]
            kept_values += [int.from_bytes(kept[i:i + g], "little") - shift
                            for i in range(0, len(kept), g)]
        draws = [ref.next_uint64() & mask for _ in lanes]
        # every output in stream order: the shifted value with its reject
        # flag, the lane's top bit, clear; a rejected one all-ones
        assert lanes == [v + shift if v < span else (1 << 8 * g) - 1
                         for v in draws]
        assert all(lane >> 8 * g - 1 == (v >= span)
                   for lane, v in zip(lanes, draws))
        # the kept values are those randint accepts, in order
        assert kept_values == [v for v in draws if v < span]
        assert kept_values == [ints.randint(0, span - 1) for _ in kept_values]


@pytest.mark.parametrize("k", [0, 1, 7, BLOCK, 3 * BLOCK + 5])
def test_skip_equals_repeated_draws(k):
    skipped, drawn = SplitMix64(2024), SplitMix64(2024)
    skipped.skip(k)
    for _ in range(k):
        drawn.next_uint64()
    assert [skipped.next_uint64() for _ in range(3)] == [
        drawn.next_uint64() for _ in range(3)]
