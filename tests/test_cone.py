"""The change matrices K_f and the conversion K_f w, against one
collocation solve per basis, and the exact cone stage of the weight
search, against scipy's LP and MILP solvers as float oracles and against
the exact conversion."""

from fractions import Fraction as F

import pytest

from tpbases import cone, linalg
from tpbases.bases import (
    BasisFamily,
    BasisSpec,
    binomial,
    eval_basis_row,
    standard_nodes,
)
from tpbases.cone import (
    NoIntegerPoint,
    WeightConversionResult,
    _cone_rows,
    _max_margin,
    cone_weights,
    convert_bernstein_weights,
)
from tpbases.errors import DomainError
from tpbases.experiments import ExperimentConfig, run_table_3_4
from tpbases.linalg import collocation_matrix, solve
from tpbases.rng import SplitMix64, search_positive_weights


def _solved_conversion(n, w):
    """The conversion by one collocation solve per basis: p = sum_j w_j b_j
    interpolated at the standard nodes.  It builds no K_f, so it checks
    both the conversion and the cone rows independently of them."""
    w = tuple(F(v) for v in w)
    nodes = standard_nodes(n)
    bern = BasisSpec(BasisFamily.BERNSTEIN, n)
    values = [[sum(x * y for x, y in zip(w, eval_basis_row(bern, t)))]
              for t in nodes]
    vectors = [w] + [
        tuple(row[0] for row in solve(
            collocation_matrix(BasisSpec(family, n), nodes), values))
        for family in (BasisFamily.SAID_BALL, BasisFamily.MONOMIAL,
                       BasisFamily.DP)]
    return WeightConversionResult(
        *vectors, all(v > 0 for vec in vectors for v in vec))


def _interior_point(n, e):
    """The Bernstein coefficients of p = 1 + e(x + ... + x^n),
    1 + e sum_{k=1..j} C(j,k)/C(n,k); positive in every basis for a small
    e > 0."""
    return [1 + e * sum(F(binomial(j, k), binomial(n, k))
                        for k in range(1, j + 1)) for j in range(n + 1)]


def _conversion_cases(n):
    rng = SplitMix64(1000 + n)
    for _ in range(8):
        yield [rng.randint(1, 1000) for _ in range(n + 1)]
    yield [F(rng.randint(1, 1000), rng.randint(1, 97)) for _ in range(n + 1)]
    yield _interior_point(n, F(1, 10**4))


@pytest.mark.parametrize("n", range(1, 13))
def test_conversion_equals_one_collocation_solve_per_basis(n):
    outcomes = set()
    for w in _conversion_cases(n):
        conv = convert_bernstein_weights(n, w)
        assert conv == _solved_conversion(n, w)
        assert all(type(v) is F for vec in conv[:4] for v in vec)
        outcomes.add(conv.all_positive)
    assert outcomes == {True, False}


def test_a_second_conversion_at_the_same_degree_runs_no_elimination(
        monkeypatch):
    calls = []
    eliminate = linalg._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    cone.change_matrices.cache_clear()
    first = convert_bernstein_weights(5, [7, 3, 9, 2, 8, 4])
    assert len(calls) == 3  # one per basis
    second = convert_bernstein_weights(5, [1, 2, 4, 8, 16, 32])
    assert len(calls) == 3
    assert (first, second) == (_solved_conversion(5, first.bernstein),
                               _solved_conversion(5, second.bernstein))


def _milp_finds_point(rows, n, lo, hi):
    """Whether scipy's MILP finds an integer w in [lo, hi]^(n+1) with
    a.w >= 1 for every row (None when it gives no verdict)."""
    optimize = pytest.importorskip("scipy.optimize")
    np = pytest.importorskip("numpy")
    res = optimize.milp(np.zeros(n + 1),
                        constraints=[optimize.LinearConstraint(
                            np.array(rows, dtype=float), lb=1, ub=np.inf)],
                        integrality=np.ones(n + 1),
                        bounds=optimize.Bounds(lo, hi))
    return {0: True, 2: False}.get(res.status)


def _dot(a, w):
    return sum(x * y for x, y in zip(a, w))


@pytest.mark.parametrize("n,spread", [(3, 60), (4, 20), (5, 8), (6, 2),
                                      (7, 1)])
def test_rows_decide_positivity_of_integer_weights(n, spread):
    # a.w >= 1 for every row exactly when the conversion is all-positive,
    # on integer points around the solver's, on both sides of the cone's
    # boundary
    rows = _cone_rows(n, 1)
    centre = cone_weights(n, 1, 1000).bernstein
    rng = SplitMix64(n)
    seen = set()
    for _ in range(60):
        w = [int(v) + rng.randint(-spread, spread) for v in centre]
        expected = _solved_conversion(n, w).all_positive
        assert all(_dot(a, w) >= 1 for a in rows) == expected
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("n", range(5, 9))
def test_solver_finds_certified_weights_where_milp_does(n):
    conv = cone_weights(n, 1, 1000)
    assert not isinstance(conv, NoIntegerPoint)
    assert conv.all_positive
    assert all(v.denominator == 1 and 1 <= v <= 1000 for v in conv.bernstein)
    assert conv == convert_bernstein_weights(n, conv.bernstein)
    assert _milp_finds_point(_cone_rows(n, 1), n, 1, 1000) is True


def test_solver_proves_that_degree_9_has_no_integer_point():
    found = cone_weights(9, 1, 1000)
    assert found == NoIntegerPoint(9, 1, 1000, 1, True)
    assert _milp_finds_point(_cone_rows(9, 1), 9, 1, 1000) is False


# the smallest hi for which [1, hi]^(n+1) holds integer weights
SMALLEST_HI = {3: 9, 4: 21, 5: 47, 6: 117, 7: 257, 8: 689}


@pytest.mark.parametrize("n,hi", [(n, hi + d) for n, hi in SMALLEST_HI.items()
                                  for d in (-1, 0)])
def test_boxes_at_the_threshold_agree_with_milp(n, hi):
    # boxes made small by hand, one just too small and one just large
    # enough
    found = cone_weights(n, 1, hi)
    expected = _milp_finds_point(_cone_rows(n, 1), n, 1, hi)
    if isinstance(found, NoIntegerPoint):
        assert found.certified and expected is False
    else:
        assert found.all_positive and max(found.bernstein) <= hi
        assert expected is True


@pytest.mark.parametrize("n", range(5, 10))
def test_root_margin_matches_scipy_lp(n):
    optimize = pytest.importorskip("scipy.optimize")
    np = pytest.importorskip("numpy")
    rows = _cone_rows(n, 1)
    t, w = _max_margin(rows, [1] * (n + 1), [1000] * (n + 1))
    # maximize t: -a.w + |a|_1 t <= -1, 1 <= w <= 1000
    a = np.array(rows, dtype=float)
    norms = np.abs(a).sum(axis=1, keepdims=True)
    res = optimize.linprog(np.r_[np.zeros(n + 1), -1.0],
                           A_ub=np.hstack([-a, norms]),
                           b_ub=-np.ones(len(rows)),
                           bounds=[(1, 1000)] * (n + 1) + [(None, None)])
    assert res.status == 0
    assert abs(float(t) + res.fun) <= 1e-9 * max(1.0, abs(res.fun))
    assert all(1 <= v <= 1000 for v in w)
    assert all(_dot(r, w) - sum(map(abs, r)) * t >= 1 for r in rows)


@pytest.mark.parametrize("n,lo,hi", [(0, 1, 10), (3, 0, 10), (3, 5, 4)])
def test_solver_rejects_a_bad_degree_or_box(n, lo, hi):
    with pytest.raises(DomainError):
        cone_weights(n, lo, hi)


@pytest.mark.parametrize("lo,hi", [(0, 10), (5, 4)])
def test_both_search_stages_reject_a_bad_box_alike(lo, hi):
    message = f"need 1 <= lo <= hi, got lo={lo}, hi={hi}"
    with pytest.raises(DomainError) as stream:
        search_positive_weights(3, lo, hi, seed=1)
    with pytest.raises(DomainError) as solver:
        cone_weights(3, lo, hi)
    assert str(stream.value) == str(solver.value) == message


def test_node_budget_makes_the_outcome_indeterminate(monkeypatch):
    # degree 8 needs more than one node
    monkeypatch.setattr(cone, "NODE_BUDGET", 1)
    found = cone_weights(8, 1, 1000)
    assert found == NoIntegerPoint(8, 1, 1000, 1, False)
    assert str(found).endswith("within its budget of 1 nodes (indeterminate)")


@pytest.mark.parametrize("n", range(9, 13))
def test_the_real_cone_is_not_empty(n):
    assert convert_bernstein_weights(n, _interior_point(n, F(1, 10**4))).all_positive


@pytest.mark.parametrize("seed", [9, 42, 82, 126, 137, 139, 193])
def test_the_stream_serves_the_documented_seeds_alone(seed, monkeypatch):
    def no_solver(*args):
        raise AssertionError("the exact solver ran")

    # the experiment grid imports the solver from its module when it runs
    monkeypatch.setattr(cone, "cone_weights", no_solver)
    _, weights = run_table_3_4(ExperimentConfig(seed=seed), which=(4,))
    assert sorted(weights) == [3, 4, 5]
