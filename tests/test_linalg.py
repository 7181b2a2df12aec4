import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from exact_oracle import abs_matrix, dominates, mat_mul

from tpbases.bases import BasisFamily, BasisSpec, standard_nodes
from tpbases.errors import DomainError, SingularMatrixError
from tpbases.linalg import (
    as_matrix,
    collocation_matrix,
    cond_inf,
    det,
    identity,
    inf_norm,
    inverse,
    is_totally_positive,
    kronecker,
    solve,
)

ALL_FAMILIES = (BasisFamily.BERNSTEIN, BasisFamily.SAID_BALL,
                BasisFamily.DP, BasisFamily.MONOMIAL)


def random_matrix(rng, rows, cols, allow_zero_row=False):
    m = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
         for _ in range(rows)]
    if allow_zero_row and rng.random() < 0.3:
        m[rng.randrange(rows)] = [F(0)] * cols
    return m


def random_nonsingular(rng, n):
    while True:
        m = random_matrix(rng, n, n)
        if det(m) != 0:
            return m


# --- collocation matrices ---

def test_bernstein_collocation_2x2():
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 1), [F(1, 3), F(2, 3)])
    assert m == [[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]]


def test_monomial_collocation_vandermonde():
    m = collocation_matrix(BasisSpec(BasisFamily.MONOMIAL, 2), [F(0), F(1, 2), F(1)])
    assert m == [[1, 0, 0], [1, F(1, 2), F(1, 4)], [1, 1, 1]]


def test_collocation_rectangular_allowed():
    nodes = [F(i, 10) for i in range(1, 7)]
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 2), nodes)
    assert len(m) == 6 and len(m[0]) == 3


def test_collocation_rejects_unsorted_nodes():
    with pytest.raises(DomainError):
        collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 1), [F(2, 3), F(1, 3)])


@pytest.mark.parametrize("family", (BasisFamily.BERNSTEIN, BasisFamily.SAID_BALL,
                                    BasisFamily.DP))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_normalized_collocation_rows_sum_to_one(family, n):
    m = collocation_matrix(BasisSpec(family, n), standard_nodes(n))
    assert all(sum(row) == 1 for row in m)


# --- kronecker ---

def test_kronecker_identity():
    assert kronecker(identity(2), identity(2)) == identity(4)


def test_kronecker_blocks():
    a = as_matrix([[1, 2], [3, 4]])
    b = as_matrix([[0, 1], [1, 0]])
    k = kronecker(a, b)
    assert k == as_matrix([
        [0, 1, 0, 2],
        [1, 0, 2, 0],
        [0, 3, 0, 4],
        [3, 0, 4, 0],
    ])


def test_kronecker_of_collocations_is_tensor_collocation():
    # (A (x) A)[(i1,i2),(j1,j2)] = u_j1(x_i1) * u_j2(x_i2)
    spec = BasisSpec(BasisFamily.BERNSTEIN, 3)
    nodes = standard_nodes(3)
    a = collocation_matrix(spec, nodes)
    k = kronecker(a, a)
    for i1 in range(4):
        for i2 in range(4):
            for j1 in range(4):
                for j2 in range(4):
                    assert k[4 * i1 + i2][4 * j1 + j2] == a[i1][j1] * a[i2][j2]


# --- norms, inverses, conditioning ---

def test_inf_norm():
    assert inf_norm(as_matrix([[1, -2], [3, 4]])) == 7


def test_inf_norm_row_stochastic():
    m = collocation_matrix(BasisSpec(BasisFamily.DP, 4), standard_nodes(4))
    assert inf_norm(m) == 1


def test_inf_norm_multiplicative_example():
    a = as_matrix([[1, -2], [3, 4]])
    b = as_matrix([[0, 2], [2, 0]])
    assert inf_norm(kronecker(a, b)) == inf_norm(a) * inf_norm(b) == 14


def test_inverse_2x2():
    m = as_matrix([[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]])
    assert inverse(m) == as_matrix([[2, -1], [-1, 2]])


def test_inverse_identity():
    assert inverse(identity(5)) == identity(5)


def test_inverse_singular_reports_step():
    with pytest.raises(SingularMatrixError) as exc:
        inverse(as_matrix([[1, 2], [2, 4]]))
    assert exc.value.step == 1


def test_cond_inf_examples():
    assert cond_inf(identity(4)) == 1
    assert cond_inf(as_matrix([[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]])) == 3


def test_cond_inf_equals_the_norms_of_the_matrix_and_its_inverse():
    # zero leading entries force row swaps in the elimination, and mixed
    # denominators give every row its own scale
    rng = random.Random(12)
    swaps = [as_matrix([[0, 1], [1, 0]]),
             as_matrix([[0, F(2, 3), 1], [F(-1, 5), 0, 2], [3, F(1, 7), 0]])]
    for n in range(2, 7):
        m = random_nonsingular(rng, n)
        m[0][0] = F(0)
        if det(m):
            swaps += [m, m[::-1]]
        swaps.append(random_nonsingular(rng, n))
    for m in swaps:
        assert cond_inf(m) == inf_norm(m) * inf_norm(inverse(m))


def test_cond_inf_rejects_singular_input():
    with pytest.raises(SingularMatrixError) as exc:
        cond_inf(as_matrix([[1, 2, 3], [2, 4, 6], [0, 1, F(1, 2)]]))
    assert exc.value.step == 2  # after the row swap at step 1
    with pytest.raises(SingularMatrixError):
        cond_inf(as_matrix([[0, 0], [0, 0]]))


# the dominance oracle that tests/test_experiments.py checks verdicts with

def test_abs_matrix():
    assert abs_matrix(as_matrix([[-1, 2], [3, -4]])) == as_matrix([[1, 2], [3, 4]])
    m = as_matrix([[1, 2], [0, 4]])
    assert abs_matrix(m) == m


def test_dominates():
    assert dominates(as_matrix([[2, 2], [2, 2]]), as_matrix([[1, -2], [0, 2]]))
    assert not dominates(as_matrix([[1, 0], [0, 1]]), as_matrix([[2, 0], [0, 0]]))
    with pytest.raises(DomainError):
        dominates(identity(2), identity(3))


def test_dominates_reflexive_on_nonnegative():
    rng = random.Random(4)
    m = abs_matrix(random_matrix(rng, 4, 4))
    assert dominates(m, m)


@pytest.mark.parametrize("rows", ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]]))
def test_det_requires_square(rows):
    with pytest.raises(DomainError, match="matrix must be square"):
        det(as_matrix(rows))


def test_solve_matches_inverse():
    rng = random.Random(8)
    a = random_nonsingular(rng, 4)
    b = [[F(rng.randint(-5, 5)) for _ in range(3)] for _ in range(4)]
    x = solve(a, b)
    assert mat_mul(a, x) == b
    assert x == mat_mul(inverse(a), b)


def test_solve_rejects_a_right_hand_side_of_the_wrong_height():
    with pytest.raises(DomainError, match="wrong number of rows"):
        solve(identity(3), [[F(1)], [F(2)]])


# --- randomized identity suites ---

def test_norm_multiplicativity_random():
    rng = random.Random(101)
    for _ in range(50):
        ra, ca = rng.randint(1, 5), rng.randint(1, 5)
        rb, cb = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, ra, ca, allow_zero_row=True)
        b = random_matrix(rng, rb, cb, allow_zero_row=True)
        assert inf_norm(kronecker(a, b)) == inf_norm(a) * inf_norm(b)


def test_inverse_of_kronecker_random():
    rng = random.Random(202)
    for _ in range(50):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        a = random_nonsingular(rng, n)
        b = random_nonsingular(rng, m)
        k = kronecker(a, b)
        inv_k = inverse(k)
        assert inv_k == kronecker(inverse(a), inverse(b))
        assert mat_mul(k, inv_k) == identity(n * m)
        assert cond_inf(k) == cond_inf(a) * cond_inf(b)


def test_abs_of_kronecker_random():
    rng = random.Random(303)
    for _ in range(20):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 2, 4)
        assert abs_matrix(kronecker(a, b)) == \
            kronecker(abs_matrix(a), abs_matrix(b))


# --- total positivity ---

def test_tp_positive_2x2():
    cert = is_totally_positive(as_matrix([[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]]))
    assert cert.is_tp and cert.witness is None


def test_tp_negative_witness():
    cert = is_totally_positive(as_matrix([[1, 2], [3, 4]]))
    assert not cert.is_tp
    rows, cols, value = cert.witness
    assert (rows, cols, value) == ((0, 1), (0, 1), -2)
    # witness recomputes to the reported negative minor
    assert det([[F(v) for v in row] for row in ([1, 2], [3, 4])]) == value


def _brute_force_tn(a):
    """Oracle: the determinant of every minor of every order."""
    rows, cols = len(a), len(a[0])
    return all(det([[a[i][j] for j in cs] for i in rs]) >= 0
               for k in range(1, min(rows, cols) + 1)
               for rs in combinations(range(rows), k)
               for cs in combinations(range(cols), k))


def _bidiagonal_product(rng, rows, cols):
    """A totally nonnegative matrix, often singular: nonnegative lower and
    upper bidiagonal factors, some entries zero, around a nonnegative
    diagonal rows x cols core."""
    def factor(n):
        f = [[F(rng.choice((0, 1, 1, 2))) if i == j else F(0)
              for j in range(n)] for i in range(n)]
        for i in range(1, n):
            at = (i, i - 1) if rng.random() < 0.5 else (i - 1, i)
            f[at[0]][at[1]] = F(rng.choice((0, 0, 1, 3)), rng.choice((1, 2)))
        return f
    a = [[F(rng.choice((0, 1, 2))) if i == j else F(0) for j in range(cols)]
         for i in range(rows)]
    for _ in range(rng.randint(0, 3)):
        a = mat_mul(factor(rows), a)
    for _ in range(rng.randint(0, 3)):
        a = mat_mul(a, factor(cols))
    return a


def _tn_cases(seed, count=300):
    """Shapes 1..5 x 1..5: small-entry matrices, bidiagonal products, and
    bidiagonal products with one entry moved."""
    rng = random.Random(seed)
    for case in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if case % 3 == 0:
            yield [[F(rng.choice((0, 0, 1, 1, 2, 3, -1))) for _ in range(cols)]
                   for _ in range(rows)]
            continue
        a = _bidiagonal_product(rng, rows, cols)
        if case % 3 == 2:
            a[rng.randrange(rows)][rng.randrange(cols)] += rng.choice(
                (-1, 1, F(-1, 2)))
        yield a


TN_HAND_CASES = (
    [[1, 0, 0], [1, 1, -1], [0, 1, 2]],  # positive leading and initial minors
    [[1] * 3] * 3,
    [[0] * 3] * 3,
    [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
    [[1, 2], [3, 4]],
    [[0, 1], [1, 0]],
    [[-1]],
    [[0, 1, 1, 0, 2]],
    [[1], [0], [-1]],
)


def _assert_agrees_with_oracle(a):
    cert = is_totally_positive(a)
    assert cert.is_tp == _brute_force_tn(a), a
    if cert.is_tp:
        assert cert.witness is None
        return True
    rows, cols, value = cert.witness
    assert len(rows) == len(cols) and value < 0
    sub = [[F(a[i][j]) for j in cols] for i in rows]
    assert det(sub) == value
    # each proper minor omits a row, so it is a minor of a TN remainder
    if len(sub) > 1:
        assert all(_brute_force_tn(sub[:k] + sub[k + 1:])
                   for k in range(len(sub)))
    return False


@pytest.mark.parametrize("a", TN_HAND_CASES)
def test_tp_hand_cases_agree_with_minors(a):
    _assert_agrees_with_oracle(a)


@pytest.mark.parametrize("seed", range(5))
def test_tp_agrees_with_minors(seed):
    cases = list(_tn_cases(seed))
    tn = [a for a in cases if _assert_agrees_with_oracle(a)]
    # both outcomes occur, and singular TN squares among them
    assert 0.3 < len(tn) / len(cases) < 0.8
    assert any(len(a) == len(a[0]) > 1 and det(a) == 0 for a in tn)


@pytest.mark.parametrize("rows", ([], [[]], [[1, 2], [3]]))
def test_tp_rejects_malformed_input(rows):
    with pytest.raises(DomainError) as exc:
        as_matrix(rows)
    with pytest.raises(DomainError, match=str(exc.value)):
        is_totally_positive(rows)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_degree_23_collocations_are_tp(family):
    a = collocation_matrix(BasisSpec(family, 23), standard_nodes(23))
    assert is_totally_positive(a) == (True, None)


@pytest.mark.parametrize("n", range(1, 16))
def test_change_matrices_are_tn(n):
    """K = B^-1 M, with u = b K, is totally nonnegative for every family;
    it is stochastic for Said-Ball and corrected DP, and literal DP at odd
    n >= 3 breaks its row sums, hence partition of unity."""
    nodes = standard_nodes(n)
    b_inv = inverse(collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, n),
                                       nodes))

    def change(spec):
        k = mat_mul(b_inv, collocation_matrix(spec, nodes))
        assert is_totally_positive(k).is_tp
        return [sum(row) for row in k]

    for family in (BasisFamily.SAID_BALL, BasisFamily.DP):
        assert change(BasisSpec(family, n)) == [1] * (n + 1)
    change(BasisSpec(BasisFamily.MONOMIAL, n))
    if n % 2 and n >= 3:
        literal = change(BasisSpec(BasisFamily.DP, n, dp_literal_middle=True))
        assert any(total != 1 for total in literal)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", (3, 4, 5))
def test_grid_collocations_are_tp(family, n):
    plain = collocation_matrix(BasisSpec(family, n), standard_nodes(n))
    assert is_totally_positive(plain).is_tp
    weights = tuple(F(2 * i + 1) for i in range(n + 1))
    weighted = collocation_matrix(BasisSpec(family, n, weights=weights),
                                  standard_nodes(n))
    assert is_totally_positive(weighted).is_tp


# --- the integer elimination against sympy ---

def _sympy_matrix(sympy, m):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in m])


def _from_sympy(m):
    return [[F(int(v.p), int(v.q)) for v in m.row(i)] for i in range(m.rows)]


def _oracle_matrix(seed):
    """n = 1..8, mixed denominators, zero entries; in about one case of
    three a column is made a combination of the columns before it."""
    rng = random.Random(seed)
    n = seed % 8 + 1
    a = [[F(rng.choice((0, 1, 1, 1)) * rng.randint(-9, 9),
            rng.choice((1, 2, 3, 5, 7, 12))) for _ in range(n)]
         for _ in range(n)]
    if rng.random() < 0.35:
        j = rng.randrange(n)
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(j)]
        for row in a:
            row[j] = sum((c * v for c, v in zip(coeffs, row)), F(0))
    return a


# a zero (0, 0) entry makes the first step swap rows, which flips det's sign
SWAP_FIRST = [[F(0), F(2), F(1, 3)], [F(3, 2), F(1), F(0)],
              [F(1), F(0), F(4, 5)]]


@pytest.mark.parametrize("a", [_oracle_matrix(seed) for seed in range(48)]
                         + [SWAP_FIRST])
def test_elimination_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    oracle = _sympy_matrix(sympy, a)
    n = len(a)
    b = [[F(3 * i - 7, i + 2)] for i in range(n)]
    d = oracle.det()
    assert det(a) == F(int(d.p), int(d.q))
    if d != 0:
        assert inverse(a) == _from_sympy(oracle.inv())
        x = oracle.LUsolve(_sympy_matrix(sympy, b))
        assert solve(a, b) == _from_sympy(x)
        return
    step = next(k for k in range(n) if oracle[:, :k + 1].rank() <= k)
    for call in (lambda: inverse(a), lambda: solve(a, b)):
        with pytest.raises(SingularMatrixError) as exc:
            call()
        assert exc.value.step == step


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", range(1, 9))
def test_collocation_inverse_matches_sympy(family, n):
    sympy = pytest.importorskip("sympy")
    a = collocation_matrix(BasisSpec(family, n), standard_nodes(n))
    assert inverse(a) == _from_sympy(_sympy_matrix(sympy, a).inv())
