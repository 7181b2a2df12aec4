import random
from fractions import Fraction as F

import pytest
from exact_oracle import faddeev_leverrier, mat_mul, transpose
from float_oracle import float_crosscheck

from tpbases.bases import BasisFamily, BasisSpec, standard_nodes
from tpbases.cone import cone_weights
from tpbases.errors import DomainError, SpectralAssumptionError
from tpbases.experiments import BASES
from tpbases.linalg import (
    as_matrix,
    collocation_matrix,
    cond_inf,
    det,
    identity,
    inf_norm,
    inverse,
    kronecker,
    solve,
)
from tpbases.render import render_enclosure
from tpbases import spectral
from tpbases.spectral import (
    CHAR_POLY_MAX_DIM,
    RootEnclosure,
    _gram,
    char_poly,
    count_roots,
    isolate_real_roots,
    kron_min_spectral,
    min_eigenvalue,
    min_singular_value,
    refine_report,
    refine_root,
    spectral_report,
    sturm_chain,
)

TOL30 = F(1, 10**30)


def frs(*values):
    return [F(v) for v in values]


# --- characteristic polynomials ---

def test_char_poly_2x2():
    m = as_matrix([[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]])
    assert char_poly(m) == frs(F(1, 3), F(-4, 3), 1)


def test_char_poly_identity():
    # (x - 1)^3
    assert char_poly(identity(3)) == frs(-1, 3, -3, 1)


def test_char_poly_diagonal():
    m = as_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert char_poly(m) == frs(-6, 11, -6, 1)


def test_char_poly_guard():
    with pytest.raises(DomainError):
        char_poly(identity(CHAR_POLY_MAX_DIM + 1))
    with pytest.raises(DomainError, match="matrix must be square"):
        char_poly(as_matrix([[1, 2, 3], [4, 5, 6]]))
    for scale in (0, -1, 2.5, F(3, 2)):
        with pytest.raises(DomainError, match="scale must be a positive "
                           "integer"):
            char_poly(identity(2), scale)


def _random_rational_matrix(rng, n):
    # mixed denominators clear to a d with several prime factors; the
    # diagonal leans negative, so unlike the collocation matrices' the
    # spectra are not positive and the coefficients' signs do not alternate
    dens = (1, 2, 3, 5, 7, 12)
    return [[F(rng.randint(-9, 3 if i == j else 9), rng.choice(dens))
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", range(12))
def test_char_poly_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    n = 1 + seed % 8
    m = _random_rational_matrix(rng, n)
    oracle = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                            for v in row] for row in m]).charpoly()
    expected = [F(int(c.p), int(c.q)) for c in reversed(oracle.all_coeffs())]
    assert char_poly(as_matrix(m)) == expected


@pytest.mark.parametrize("n, weighted", [
    *(pytest.param(n, False, id=str(n)) for n in range(1, 16)),
    # the rational bases' rows have different denominators, so N = d A
    # has much larger entries than for the plain bases
    *(pytest.param(n, True, id=f"weighted-{n}") for n in range(3, 9)),
])
def test_char_poly_equals_faddeev_leverrier_on_the_collocation_matrices(
        n, weighted):
    conv = cone_weights(n, 1, 1000) if weighted else None
    for _, family, field in BASES:
        spec = BasisSpec(family, n,
                         weights=None if conv is None else getattr(conv, field))
        a = collocation_matrix(spec, standard_nodes(n))
        assert char_poly(a) == faddeev_leverrier(a)
        scale, gram = _gram(a)
        assert char_poly(gram, scale) == \
            faddeev_leverrier(mat_mul(transpose(a), a))


@pytest.mark.parametrize("family", [BasisFamily.BERNSTEIN, BasisFamily.DP])
def test_char_poly_equals_faddeev_leverrier_at_the_guard(family):
    n = CHAR_POLY_MAX_DIM - 1
    a = collocation_matrix(BasisSpec(family, n), standard_nodes(n))
    assert char_poly(a) == faddeev_leverrier(a)
    scale, gram = _gram(a)
    assert char_poly(gram, scale) == faddeev_leverrier(mat_mul(transpose(a), a))


def test_char_poly_matches_faddeev_leverrier_on_random_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        """An n x n integer or rational matrix, n = 1..10: dense, singular
        (one row a multiple of another), with a negative trace, or
        nilpotent (Jordan blocks of eigenvalue 0 under a unit
        lower-triangular similarity)."""
        n = draw(st.integers(1, 10))
        nums = draw(st.lists(st.integers(-40, 40), min_size=n * n,
                             max_size=n * n))
        dens = draw(st.one_of(st.just([1] * n * n),
                              st.lists(st.integers(1, 24), min_size=n * n,
                                       max_size=n * n)))
        m = [[F(nums[i * n + j], dens[i * n + j]) for j in range(n)]
             for i in range(n)]
        kind = draw(st.sampled_from(
            ("dense", "singular", "negative trace", "nilpotent")))
        if kind == "singular":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            c = F(draw(st.integers(-5, 5)), 3) if i != j else 0
            m[i] = [c * v for v in m[j]]
        elif kind == "negative trace":
            for i in range(n):
                m[i][i] = -abs(m[i][i]) - 1
        elif kind == "nilpotent":
            cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
            jordan = [[F(int(j == i + 1 and j not in cuts)) for j in range(n)]
                      for i in range(n)]
            lower = [[F(1) if i == j else F(draw(st.integers(-3, 3)))
                      if j < i else F(0) for j in range(n)] for i in range(n)]
            m = mat_mul(mat_mul(lower, jordan), inverse(lower))
        return kind, m

    @hypothesis.settings(derandomize=True, database=None, max_examples=100,
                         deadline=None)
    @hypothesis.given(matrices(), st.integers(1, 12))
    def check(case, scale):
        kind, m = case
        expected = faddeev_leverrier(m)
        assert char_poly(m) == expected
        assert char_poly(m, scale) == faddeev_leverrier(
            [[v / scale for v in row] for row in m])
        if kind == "nilpotent":
            assert expected == [0] * len(m) + [1]
        if kind == "singular":
            assert expected[0] == 0

    check()


# --- root isolation ---

def test_isolate_two_roots():
    roots = isolate_real_roots(frs(2, -3, 1))  # (x-1)(x-2)
    assert len(roots) == 2
    assert roots[0].low < 1 < roots[0].high
    assert roots[1].low < 2 < roots[1].high
    assert roots[0].high <= roots[1].low


def test_isolate_no_real_roots():
    assert isolate_real_roots(frs(1, 0, 1)) == []


def test_isolate_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        isolate_real_roots([])


def test_isolate_bernstein_char_poly_positive_spectrum():
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 3), standard_nodes(3))
    roots = isolate_real_roots(char_poly(m))
    assert len(roots) == 4
    refined = [refine_root(r, F(1, 10**6)) for r in roots]
    assert all(r.low > 0 for r in refined)
    for r1, r2 in zip(roots, roots[1:]):
        assert r1.high <= r2.low


def test_isolate_handles_dyadic_root_hit():
    # roots 1/2 and 3/4 force exact hits at bisection midpoints
    p = frs(F(3, 8), F(-5, 4), 1)
    roots = isolate_real_roots(p)
    assert len(roots) == 2
    assert roots[0].low < F(1, 2) < roots[0].high
    assert roots[1].low < F(3, 4) < roots[1].high


def test_isolated_dyadic_roots_are_disjointly_enclosed():
    # dyadic roots are hit exactly by bisection midpoints; the exact-hit
    # enclosures must still be disjoint from every other enclosure
    rng = random.Random(11)
    for _ in range(200):
        roots = sorted({F(rng.randint(-16, 16), 2 ** rng.randint(0, 3))
                        for _ in range(rng.randint(1, 6))})
        p = [F(rng.choice((1, -3, F(2, 7))))]
        for r in roots:  # p * (x - r)
            p = [a - r * b for a, b in zip([F(0)] + p, p + [F(0)])]
        encs = isolate_real_roots(p)
        chain = sturm_chain(list(encs[0].polynomial))
        assert len(encs) == len(roots)
        for enc, root in zip(encs, roots):
            assert enc.low < root < enc.high
            assert count_roots(chain, enc.low, enc.high) == 1
        for left, right in zip(encs, encs[1:]):
            assert left.high <= right.low


def test_enclosure_sign_check():
    for p in (frs(2, -3, 1), frs(-2, 0, 1), frs(F(3, 8), F(-5, 4), 1),
              frs(-2, 5, -4, 1)):
        for enc in isolate_real_roots(p):
            at = [sum(c * x**i for i, c in enumerate(enc.polynomial))
                  for x in (enc.low, enc.high)]
            assert at[0] * at[1] <= 0


@pytest.mark.parametrize("p,q,ends", [
    # (x-1)(x-2)(x-3): B = 12, and the midpoint 3 is a root
    (frs(-6, 11, -6, 1), (-6, 11, -6, 1),
     [(0, F(9, 8)), (F(9, 8), F(9, 4)), (F(9, 4), F(15, 4))]),
    # x(x-1): the first midpoint 0 is a root
    (frs(0, -1, 1), (0, -1, 1), [(F(-1, 2), F(1, 2)), (F(1, 2), 2)]),
    # (x-1)^2 (x-2), isolated through (x-1)(x-2)
    (frs(-2, 5, -4, 1), (2, -3, 1), [(0, F(3, 2)), (F(3, 2), F(5, 2))]),
])
def test_isolated_enclosures_are_pinned(p, q, ends):
    assert isolate_real_roots(p) == [RootEnclosure(low, high, q)
                                     for low, high in ends]


def test_isolation_evaluates_the_chain_once_per_point(monkeypatch):
    # (x^2-2)(x^2-3)(3x-1) has no dyadic root, so no midpoint is a root;
    # in (x-1)(x-2)(x-3) the midpoint 3 is, and its exact-hit enclosure
    # reuses the counts at its ends
    points = []
    sign_variations = spectral._sign_variations

    def recorded(chain, x):
        points.append(x)
        return sign_variations(chain, x)

    monkeypatch.setattr(spectral, "_sign_variations", recorded)
    for p, roots in ((frs(-6, 18, 5, -15, -1, 3), 5), (frs(-6, 11, -6, 1), 3)):
        points.clear()
        assert len(isolate_real_roots(p)) == roots
        assert points and len(points) == len(set(points))


def test_count_roots_on_exact_hits():
    chain = sturm_chain(frs(-6, 11, -6, 1))  # roots 1, 2, 3
    assert count_roots(chain, 1, 3) == 2
    assert count_roots(chain, 0, 1) == 1
    assert count_roots(chain, F(3, 2), F(5, 2)) == 1


def test_sturm_chain_is_positive_multiple_of_classical_chain():
    # sparse polynomials make remainder degrees drop by two or more, where
    # a negative leading coefficient raised to an odd power would flip a sign
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        coeffs = [rng.choice((0, 0, 0, -3, -2, -1, 1, 2, 3))
                  for _ in range(rng.randint(3, 9))] + [rng.choice((-2, 1))]
        chain = sturm_chain(coeffs)
        if len(chain[-1]) > 1:  # sympy's chain is that of the squarefree part
            continue
        classical = sympy.sturm(sympy.Poly(list(reversed(coeffs)), x))
        assert len(chain) == len(classical)
        signs = set()
        for ours, theirs in zip(chain, classical):
            theirs = [F(int(c.p), int(c.q)) for c in reversed(theirs.all_coeffs())]
            ratio = ours[-1] / theirs[-1]
            assert ours == [c * ratio for c in theirs]
            signs.add(ratio > 0)
        assert len(signs) == 1  # sympy's chain may differ by one global sign
        checked += 1


def test_count_roots_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    points = st.fractions(min_value=-6, max_value=6, max_denominator=4)

    @hypothesis.settings(derandomize=True, database=None, max_examples=150,
                         deadline=None)
    @hypothesis.given(st.lists(st.integers(-9, 9), min_size=2, max_size=8)
                      .filter(lambda c: c[-1] != 0), points, points)
    def check(coeffs, a, b):
        a, b = min(a, b), max(a, b)
        chain = sturm_chain(coeffs)
        hypothesis.assume(len(chain[-1]) == 1)  # squarefree
        x = sympy.Symbol("x")
        poly = sympy.Poly(list(reversed(coeffs)), x)
        lo = sympy.Rational(a.numerator, a.denominator)
        hi = sympy.Rational(b.numerator, b.denominator)
        # sympy counts distinct roots in the closed interval [a, b]
        expected = poly.count_roots(lo, hi) - (poly.eval(lo) == 0)
        assert count_roots(chain, a, b) == expected

    check()


# --- smallest-root descent ---

def _plain_collocation_matrices(degrees):
    for n in degrees:
        for family in BasisFamily:
            yield collocation_matrix(BasisSpec(family, n), standard_nodes(n))
        yield collocation_matrix(BasisSpec(BasisFamily.DP, n,
                                           dp_literal_middle=True),
                                 standard_nodes(n))


def test_descent_finds_the_smallest_isolated_root(monkeypatch):
    # with Newton switched off, min_eigenvalue falls back to the first
    # enclosure the isolating walk yields and refines it
    monkeypatch.setattr(spectral, "_newton_smallest", lambda *args: None)
    for m in _plain_collocation_matrices(range(1, 12)):
        for a in (m, mat_mul(transpose(m), m)):
            assert min_eigenvalue(a, TOL30) == refine_root(
                isolate_real_roots(char_poly(a))[0], TOL30)


EXACT_HIT_ENDS = {
    # B = 12 and the midpoint 3 is an eigenvalue, so the descent continues
    # left of the hit root
    (1, 2, 3): (1 - F(1, 2**102), 1 + F(7, 2**103)),
    # the first midpoint 0 is the smallest eigenvalue: the descent stops at
    # its exact-hit enclosure
    (0, 1): (-TOL30 / 2, TOL30 / 2),
}


@pytest.mark.parametrize("diagonal", list(EXACT_HIT_ENDS))
def test_descent_through_exact_hits(diagonal):
    m = as_matrix([[v if i == j else 0 for j in range(len(diagonal))]
                   for i, v in enumerate(diagonal)])
    enc = min_eigenvalue(m, TOL30)
    assert (enc.low, enc.high) == EXACT_HIT_ENDS[diagonal]
    assert count_roots(sturm_chain(list(enc.polynomial)), enc.low,
                       enc.high) == 1


@pytest.mark.parametrize("n", [14, 16])
def test_min_eigenvalue_beyond_the_old_guard_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    m = collocation_matrix(BasisSpec(BasisFamily.DP, n), standard_nodes(n))
    oracle = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                            for v in row] for row in m])
    smallest = min(sympy.real_roots(oracle.charpoly(sympy.Symbol("x"))))
    enc = min_eigenvalue(m, TOL30)
    assert enc.width <= TOL30
    assert sympy.Rational(enc.low.numerator, enc.low.denominator) < smallest
    assert smallest < sympy.Rational(enc.high.numerator, enc.high.denominator)


# --- refinement ---

def test_refine_rational_root():
    enc = next(e for e in isolate_real_roots(frs(2, -3, 1)) if e.low < 1 < e.high)
    tight = refine_root(enc, TOL30)
    assert tight.width <= TOL30
    assert tight.low < 1 < tight.high


def test_refine_sqrt2():
    enc = isolate_real_roots(frs(-2, 0, 1))[1]  # positive root
    tight = refine_root(enc, F(1, 10**10))
    assert tight.width <= F(1, 10**10)
    assert tight.low**2 < 2 < tight.high**2
    assert str(float(tight.midpoint)).startswith("1.4142135623")


def test_refine_idempotent_at_tolerance():
    enc = refine_root(isolate_real_roots(frs(-2, 0, 1))[1], F(1, 10**8))
    assert refine_root(enc, F(1, 10**6)) == enc


def test_refine_rejects_bad_tolerance():
    enc = isolate_real_roots(frs(-2, 0, 1))[1]
    with pytest.raises(DomainError):
        refine_root(enc, F(0))
    # a Kronecker enclosure is a product of two and keeps no polynomial
    rep = spectral_report(as_matrix([[2, 1], [1, 3]]))
    with pytest.raises(DomainError, match="without its polynomial"):
        refine_root(kron_min_spectral(rep, rep).lambda_min, F(1, 10**40))


# --- squarefree handling ---

def test_isolate_repeated_root_uses_squarefree_part():
    # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2 is isolated through its squarefree
    # part (x-1)(x-2), which the end of its Sturm chain divides out
    assert isolate_real_roots(frs(-2, 5, -4, 1)) == \
        isolate_real_roots(frs(2, -3, 1))


def test_min_eigenvalue_with_multiplicity(monkeypatch):
    # the chain of the characteristic polynomial also counts the roots of
    # its squarefree part, so one chain is built
    builds = []
    build = spectral.sturm_chain

    def counted(p):
        builds.append(p)
        return build(p)

    monkeypatch.setattr(spectral, "sturm_chain", counted)
    m = as_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    enc = min_eigenvalue(m, TOL30)
    assert enc.low < 1 < enc.high
    assert len(builds) == 1


# --- minimal eigenvalue / singular value ---

def test_min_eigenvalue_2x2():
    m = as_matrix([[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]])
    enc = min_eigenvalue(m, TOL30)
    assert enc.low < F(1, 3) < enc.high
    assert enc.width <= TOL30


def test_min_eigenvalue_identity():
    enc = min_eigenvalue(identity(4), TOL30)
    assert enc.low < 1 < enc.high


def test_min_eigenvalue_rejects_complex_spectrum():
    with pytest.raises(SpectralAssumptionError):
        min_eigenvalue(as_matrix([[0, -1], [1, 0]]), TOL30)


def _random_integer_matrices(count, seed=7):
    # general, symmetric and upper-triangular 3x3 matrices with entries in
    # [-2, 2]; the triangular ones have diagonals in [-1, 1], so most of
    # them have repeated real eigenvalues
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        out.append(m)
        out.append([[m[min(i, j)][max(i, j)] for j in range(3)]
                    for i in range(3)])
        out.append([[m[i][j] if j > i else rng.randint(-1, 1) if j == i else 0
                     for j in range(3)] for i in range(3)])
    return out


@pytest.mark.parametrize("rows", [
    [[2, 1], [1, 2]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    [[3, 1, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, -1]],
    [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
    [[0, 1], [0, 0]],
    [[1, 1], [0, 1]],
    [[0, -1], [1, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]],
    *_random_integer_matrices(10),
    [[0, 0], [0, 1]],
    [[-1, 0], [0, 2]],
    [[1, 0], [0, 2]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 1]],  # a multiple root at 0
    [[0, 0, 0], [0, 1, 0], [0, 0, 2]],  # a simple root at 0
])
def test_min_eigenvalue_matches_sympy_real_roots(rows):
    # every eigenvalue is real exactly when the squarefree part of the
    # characteristic polynomial has as many real roots as its degree;
    # the oracle counts real roots with multiplicity instead.  A real
    # spectrum is positive exactly when its smallest eigenvalue is, which
    # the Sturm count alone decides, a root at 0 included; and a singular
    # matrix has no positive sigma_min^2
    sympy = pytest.importorskip("sympy")
    oracle = sympy.Matrix(rows)
    real = sympy.real_roots(oracle.charpoly(sympy.Symbol("x")))
    if len(real) < len(rows):
        with pytest.raises(SpectralAssumptionError):
            min_eigenvalue(as_matrix(rows), TOL30)
        return
    enc = min_eigenvalue(as_matrix(rows), TOL30)
    low = sympy.Rational(enc.low.numerator, enc.low.denominator)
    high = sympy.Rational(enc.high.numerator, enc.high.denominator)
    assert low < min(real) < high
    positive = spectral._smallest_root(char_poly(as_matrix(rows)), TOL30)[1]
    assert positive == (min(real) > 0)
    if oracle.det() == 0:
        with pytest.raises(SpectralAssumptionError):
            min_singular_value(as_matrix(rows), TOL30)
    else:
        rep = spectral_report(as_matrix(rows), TOL30)
        assert rep.all_eigs_real_positive == (min(real) > 0)
        assert rep.sigma_min_sq.low > 0


@pytest.mark.parametrize("measure", [inf_norm, cond_inf, min_eigenvalue,
                                     min_singular_value, spectral_report],
                         ids=lambda f: f.__name__)
def test_the_empty_matrix_is_outside_every_measure(measure):
    with pytest.raises(DomainError, match="^matrix must have at least one "
                       "row and one column$"):
        measure([])


@pytest.mark.parametrize("measure", [inf_norm, min_singular_value],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("entry", [int, F, float], ids=lambda t: t.__name__)
def test_a_ragged_matrix_is_refused_whatever_its_entries(measure, entry):
    # exact entries once skipped the row-width check that floats get:
    # inf_norm read [[1, 2], [3]] as 3, and min_singular_value as the
    # sigma^2 of the column (1, 3) alone
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], [5]]):
        with pytest.raises(DomainError,
                           match="^rows have inconsistent lengths$"):
            measure([[entry(v) for v in row] for row in rows])


@pytest.mark.parametrize("measure", [
    pytest.param(inverse, id="inverse"),
    pytest.param(lambda a: solve(a, [[1], [F(1, 3)]]), id="solve"),
    pytest.param(det, id="det"),
    pytest.param(cond_inf, id="cond_inf"),
    pytest.param(inf_norm, id="inf_norm"),
    pytest.param(char_poly, id="char_poly"),
    pytest.param(lambda a: char_poly(a, 3), id="char_poly-scaled"),
    pytest.param(min_eigenvalue, id="min_eigenvalue"),
    pytest.param(min_singular_value, id="min_singular_value"),
    pytest.param(spectral_report, id="spectral_report"),
])
def test_every_measure_reads_a_float_as_the_fraction_it_equals(measure):
    # repr tells a Fraction result from a float or an int that compares
    # equal to it
    floats = [[2, 0.5], [0.5, 1.1]]
    fractions = [[F(2), F(1, 2)], [F(1, 2), F(1.1)]]
    assert repr(measure(floats)) == repr(measure(fractions))
    ints = [[2, 1], [1, 1]]
    assert repr(measure(ints)) == repr(measure(as_matrix(ints)))


def test_min_singular_value_permutation():
    enc = min_singular_value(as_matrix([[0, 1], [1, 0]]), TOL30)
    assert enc.low < 1 < enc.high  # sigma^2 enclosure


def test_min_singular_value_diagonal():
    enc = min_singular_value(as_matrix([[2, 0], [0, 3]]), TOL30)
    assert enc.low < 4 < enc.high


def test_sigma_enclosure_consistent_with_gram_eigenvalue():
    m = collocation_matrix(BasisSpec(BasisFamily.SAID_BALL, 3), standard_nodes(3))
    sig_sq = min_singular_value(m, TOL30)
    gram_min = min_eigenvalue(mat_mul(transpose(m), m), TOL30)
    assert sig_sq.low <= gram_min.high and gram_min.low <= sig_sq.high


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("family", list(BasisFamily))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_refined_report_equals_report_at_tighter_tolerance(n, family,
                                                           weighted):
    # bisection is path-independent, so a report tightened in place is the
    # report computed at the tighter tolerance
    weights = tuple(F(i + 2, 3) for i in range(n + 1)) if weighted else None
    m = collocation_matrix(BasisSpec(family, n, weights=weights),
                           standard_nodes(n))
    tighter = TOL30 / 10**10
    assert refine_report(spectral_report(m, TOL30), tighter) == \
        spectral_report(m, tighter)


# --- kronecker lifting ---

def test_kron_min_spectral_products():
    third = RootEnclosure(F(1, 3), F(1, 3) + F(1, 10**20), None)
    rep = None
    from tpbases.spectral import SpectralReport

    rep = SpectralReport(third, third, True)
    lifted = kron_min_spectral(rep, rep)
    assert lifted.lambda_min.low == F(1, 9)
    assert lifted.lambda_min.high == (F(1, 3) + F(1, 10**20)) ** 2


def test_kron_min_spectral_requires_positive_spectra():
    from tpbases.spectral import SpectralReport

    enc = RootEnclosure(F(1, 3), F(1, 2), None)
    bad = SpectralReport(enc, enc, False)
    with pytest.raises(SpectralAssumptionError):
        kron_min_spectral(bad, bad)


BERNSTEIN_3 = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 3),
                                 standard_nodes(3))


@pytest.mark.parametrize("rows, tol", [
    ([[F(1, 2)]], F(10)),    # lambda in (-3/2, 3/2): lambda^2 = 1/4
    (BERNSTEIN_3, F(1, 10)),
    (BERNSTEIN_3, F(10)),
])
def test_kron_lifting_encloses_the_products_at_coarse_tolerances(rows, tol):
    # a coarse enclosure of a certified positive value may reach below 0;
    # the lifted enclosure must still hold the product of the true values,
    # which lie inside the squares of the TOL30 enclosures
    rep = spectral_report(rows, tol)
    lifted = kron_min_spectral(rep, rep)
    tight = spectral_report(rows, TOL30)
    for enc, ref in ((lifted.lambda_min, tight.lambda_min),
                     (lifted.sigma_min_sq, tight.sigma_min_sq)):
        assert enc.low <= ref.low**2 and ref.high**2 <= enc.high


def test_kron_square_equals_interval_square():
    m = collocation_matrix(BasisSpec(BasisFamily.DP, 4), standard_nodes(4))
    rep = spectral_report(m, TOL30)
    lifted = kron_min_spectral(rep, rep)
    assert lifted.lambda_min.low == rep.lambda_min.low**2
    assert lifted.lambda_min.high == rep.lambda_min.high**2


# --- float cross-check ---

def test_float_crosscheck_identity():
    assert float_crosscheck(identity(4)) == (1.0, 1.0)


def test_float_crosscheck_2x2():
    lam, sig = float_crosscheck(as_matrix([[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]]))
    assert abs(lam - 1 / 3) < 1e-12
    assert abs(sig - 1 / 3) < 1e-12


@pytest.mark.parametrize("family,n", [
    (BasisFamily.BERNSTEIN, 3),
    (BasisFamily.SAID_BALL, 4),
    (BasisFamily.DP, 5),
])
def test_enclosures_contain_float_values(family, n):
    m = collocation_matrix(BasisSpec(family, n), standard_nodes(n))
    rep = spectral_report(m, TOL30)
    lifted = kron_min_spectral(rep, rep)
    lam_f, sig_f = float_crosscheck(kronecker(m, m))
    pad = F(1, 10**6)
    assert lifted.lambda_min.low * (1 - pad) <= F(lam_f) <= \
        lifted.lambda_min.high * (1 + pad)
    # sigma_min(m (x) m) = sigma_min(m)^2, the factor's own enclosure
    assert rep.sigma_min_sq.low * (1 - pad) <= F(sig_f) <= \
        rep.sigma_min_sq.high * (1 + pad)


def test_published_bernstein_values():
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 3), standard_nodes(3))
    rep = spectral_report(m, TOL30)
    lifted = kron_min_spectral(rep, rep)
    assert render_enclosure(lifted.lambda_min, 3) == "2.30e-03"
    assert render_enclosure(rep.sigma_min_sq, 3) == "2.19e-03"


# --- Newton paths against the bisection reference ---

def _bisection_min_eigenvalue(a, tol=TOL30):
    # the smallest isolated root refined by bisection, the enclosure the
    # Newton climb must reproduce
    return refine_root(isolate_real_roots(char_poly(a))[0], tol)


def _count_descents(monkeypatch):
    calls = []
    walk = spectral._walk

    def counted(q, *args):
        calls.append(len(q) - 1)
        return walk(q, *args)

    monkeypatch.setattr(spectral, "_walk", counted)
    return calls


def test_min_eigenvalue_equals_the_bisection_reference(monkeypatch):
    # the count certifies every collocation matrix's spectrum positive
    plain = list(_plain_collocation_matrices(range(1, 16)))
    descents = _count_descents(monkeypatch)
    reports = [spectral_report(m) for m in plain]
    assert descents == []  # Newton certified every enclosure
    monkeypatch.undo()
    for m, rep in zip(plain, reports):
        assert rep.all_eigs_real_positive and rep.sigma_min_sq.low > 0
        assert rep.lambda_min == _bisection_min_eigenvalue(m)
        assert rep.sigma_min_sq == \
            _bisection_min_eigenvalue(mat_mul(transpose(m), m))


def _diagonal(*values):
    return [[F(v) if i == j else F(0) for j in range(len(values))]
            for i, v in enumerate(values)]


TINY = F(1, 10**40)


@pytest.mark.parametrize("diagonal,tol", [
    ((-1, 2), TOL30),             # the smallest eigenvalue is <= 0
    ((1, 2, 3), TOL30),           # the descent's midpoint 3 is an eigenvalue
    ((1,), TOL30),                # Newton lands on 1, a grid point
    ((1,), F(10)),                # one cell is wider than (-B, B)
    ((1, 1 + TINY), TOL30),       # two roots < tol apart share a cell
    ((10**6, 1, 1 + TINY), TOL30),  # two roots in one cell: no sign change
    ((10**40, 1, 1 + TINY, 1 + 2 * TINY), TOL30),  # three roots in one cell
    ((F(3, 2), F(3, 2) + TINY, F(3, 2) + 2 * TINY), F(1)),  # the same, reached fast
    ((0, 1, 2), TOL30),           # a simple eigenvalue 0
    ((0, 0, 1), TOL30),           # a multiple eigenvalue 0
])
def test_min_eigenvalue_falls_back_to_the_descent(diagonal, tol, monkeypatch):
    m = _diagonal(*diagonal)
    expected = _bisection_min_eigenvalue(m, tol)
    descents = _count_descents(monkeypatch)
    assert min_eigenvalue(m, tol) == expected
    assert descents == [len(set(diagonal))]
    assert expected.low < min(diagonal) < expected.high


@pytest.mark.parametrize("diagonal", [(1, 1 + TINY), (1, F(1001, 1000)),
                                      (1, F(11, 10), F(12, 10), F(13, 10))])
def test_climb_toward_a_cluster(diagonal, monkeypatch):
    # Newton approaches a cluster of k roots at the linear rate 1 - 1/k, yet
    # within the level count it reaches the smallest root's cell unless a
    # second root shares that cell; then the walk takes over
    m = _diagonal(*diagonal)
    expected = _bisection_min_eigenvalue(m)
    q = list(expected.polynomial)
    levels = spectral._levels(2 * spectral.cauchy_bound(q), TOL30)
    calls = []
    newton_at = spectral._newton_at

    def counted(*args):
        calls.append(args)
        return newton_at(*args)

    monkeypatch.setattr(spectral, "_newton_at", counted)
    descents = _count_descents(monkeypatch)
    assert min_eigenvalue(m) == expected
    if diagonal[1] - diagonal[0] < TOL30:
        assert descents == [len(diagonal)]
        assert len(calls) <= levels
    else:
        assert descents == []


def test_newton_step_is_none_where_the_derivative_vanishes():
    # p(x) = x^2 - 4x + 3 = (x - 1)(x - 3): p'(2) = 0 gives no step, and
    # from 0 the step -p(0)/p'(0) = 3/4 is three grid steps of 1/4
    p = [3, -4, 1]
    assert spectral._newton_at(p, F(2), F(1, 4)) == (-1, None)
    assert spectral._newton_at(p, F(0), F(1, 4)) == (1, 3)


def test_min_eigenvalue_checks_tolerance_after_the_spectrum(monkeypatch):
    with pytest.raises(SpectralAssumptionError):
        min_eigenvalue(as_matrix([[0, -1], [1, 0]]), F(0))

    def walk(*args):
        raise AssertionError("the walk ran before the tolerance check")

    monkeypatch.setattr(spectral, "_walk", walk)
    with pytest.raises(DomainError):
        min_eigenvalue(as_matrix([[2, 1], [1, 2]]), F(0))


def _mixed_rational_matrix(rng, rows, cols):
    return [[F(rng.randint(-30, 30), rng.choice([1, 2, 3, 5, 6, 7, 12, 49]))
             for _ in range(cols)] for _ in range(rows)]


def test_integer_gram_matrix_equals_the_fraction_product():
    rng = random.Random(20)
    shapes = [(n, n) for n in range(1, 9)] + [(3, 5), (5, 2), (1, 4)]
    for rows, cols in shapes * 3:
        a = _mixed_rational_matrix(rng, rows, cols)
        scale, gram = _gram(a)
        assert [[F(v, scale) for v in row] for row in gram] == \
            mat_mul(transpose(a), a)
    for m in _plain_collocation_matrices(range(1, 12)):
        scale, gram = _gram(m)
        assert [[F(v, scale) for v in row] for row in gram] == \
            mat_mul(transpose(m), m)
