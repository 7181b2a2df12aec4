"""Change of basis by K_f, and the exact stage of the weight search.

In the Said-Ball, monomial and DP bases, p(x) = sum_j w_j b_j^n(x) has
the weights K_f w, where K_f = M_f^-1 B is the exact change matrix
between the collocation matrices at the standard nodes
(``change_matrices``, built once per degree).  So the Bernstein weights
w stay positive in every basis exactly when w > 0 and K_f w > 0.
Scaling a row of K_f to coprime integers a gives an integer a.w for
integer w, so an integer weight vector keeps the row positive exactly
when a.w >= 1.  These rounded constraints, with the box [lo, hi]^(n+1),
cut out the polytope the integer weights must lie in.

``cone_weights`` searches it by branch-and-bound.  Each node solves the
max-margin LP over its box: the largest cube [w - t, w + t]^(n+1), t
measured in each row's l1 norm, on which every a.w >= 1 holds.  A cube of
half-width 1/2 holds its rounded centre, so a node whose optimum is
t >= 1/2 yields weights at once; a node with t < 0 holds no point at
all; otherwise the rounded centre is tried and the node is split on its
most fractional weight.  The LP needs no phase 1: with w = lo + v and t
shifted by an integer below its value at v = 0, the origin is feasible.
It runs the simplex method with Bland's rule on a fraction-free integer
tableau, as ``linalg._eliminate`` eliminates: every entry is the
current basis determinant times its rational value, and each pivot
divides exactly by the previous determinant.

Weights come back only after ``convert_bernstein_weights`` certifies
them.  Otherwise the result is ``NoIntegerPoint``: certified when the
whole tree was explored, indeterminate when ``NODE_BUDGET`` ran out.
The cone itself is never empty: p = 1 + e(x + ... + x^n) is positive in
every basis for a small e > 0.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .bases import BasisFamily, BasisSpec, standard_nodes
from .errors import DomainError
from .linalg import Matrix, collocation_matrix, solve

NODE_BUDGET = 1000


@functools.cache
def change_matrices(n: int) -> tuple[Matrix, Matrix, Matrix]:
    """K_f = M_f^-1 B for f = Said-Ball, monomial and DP, in that order:
    the exact change matrices between the degree-n collocation matrices
    at the standard nodes, each from one elimination of [M_f | B].
    Cached per degree; callers must not modify them."""
    nodes = standard_nodes(n)
    bern = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, n), nodes)
    return tuple(solve(collocation_matrix(BasisSpec(family, n), nodes), bern)
                 for family in (BasisFamily.SAID_BALL, BasisFamily.MONOMIAL,
                                BasisFamily.DP))


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


def convert_bernstein_weights(n: int, w) -> WeightConversionResult:
    """Re-express p(x) = sum_j w_j b_j^n(x) in the Said-Ball, monomial and
    DP bases as the exact products K_f w."""
    w = tuple(Fraction(v) for v in w)
    if len(w) != n + 1:
        raise DomainError(f"need {n + 1} weights, got {len(w)}")
    if any(v <= 0 for v in w):
        raise DomainError("all Bernstein weights must be strictly positive")
    saidball, monomial, dp = (
        tuple(sum(k * v for k, v in zip(row, w)) for row in kf)
        for kf in change_matrices(n))
    all_positive = all(v > 0 for vec in (w, saidball, monomial, dp) for v in vec)
    return WeightConversionResult(w, saidball, monomial, dp, all_positive)


class NoIntegerPoint(namedtuple("NoIntegerPoint",
                                "degree lo hi nodes certified")):
    """No integer weights in [lo, hi]^(degree+1) were found after
    ``nodes`` branch-and-bound nodes; ``certified`` says the whole tree
    was explored, so none exists, rather than the node budget running
    out first."""

    __slots__ = ()

    def __str__(self) -> str:
        box = f"[{self.lo}, {self.hi}]^{self.degree + 1}"
        if self.certified:
            return (f"the exact solver proved that no integer point of {box} "
                    f"lies in the cone (branch-and-bound nodes: {self.nodes})")
        return (f"the exact solver found no integer point of {box} within "
                f"its budget of {self.nodes} nodes (indeterminate)")


def _cone_rows(n: int, lo: int) -> list[tuple[int, ...]]:
    """The coprime integer rows a with a.w >= 1 for the integer weights
    w >= lo, one per distinct row of the three K_f; rows that w >= lo
    already satisfies are left out."""
    rows = []
    for kf in change_matrices(n):
        for row in kf:
            s = math.lcm(*(v.denominator for v in row))
            a = [v.numerator * (s // v.denominator) for v in row]
            g = math.gcd(*a)
            a = tuple(v // g for v in a)
            implied = min(a) >= 0 and sum(a) * lo >= 1
            if not implied and a not in rows:
                rows.append(a)
    return rows


def _max_margin(rows, lo: list[int], hi: list[int]
                ) -> tuple[Fraction, list[Fraction]]:
    """The optimum (t, w) of: maximize t subject to
    a.w - |a|_1 t >= 1 for every row a, and lo <= w <= hi."""
    k = len(lo)
    norms = [sum(map(abs, a)) for a in rows]
    slack = [sum(x * y for x, y in zip(a, lo)) - 1 for a in rows]
    t0 = min(s // c for s, c in zip(slack, norms))  # t at v = 0 is >= t0
    # x_B + sum_j T_ij x_j = rhs_i over the nonbasic x: first v (ids
    # 0..k-1) and t - t0 (id k), then one slack per row (ids k+1, ...);
    # the last row is the objective, z - (t - t0) = 0
    tab = [[-x for x in a] + [c, s - c * t0]
           for a, c, s in zip(rows, norms, slack)]
    tab += [[int(i == j) for i in range(k)] + [0, u - l]
            for j, (l, u) in enumerate(zip(lo, hi))]
    tab.append([0] * k + [-1, 0])
    nonbasic = list(range(k + 1))
    basic = list(range(k + 1, k + len(tab)))
    det = 1  # every entry is det times its rational value
    while True:
        # Bland's rule: the entering and leaving variables of smallest id
        entering = [j for j in range(k + 1) if tab[-1][j] < 0]
        if not entering:
            break
        c = min(entering, key=nonbasic.__getitem__)
        # the ratio test; t is bounded, so some row limits the entering
        # variable
        r = min((i for i in range(len(tab) - 1) if tab[i][c] > 0),
                key=lambda i: (Fraction(tab[i][-1], tab[i][c]), basic[i]))
        pivot, prow = tab[r][c], tab[r]
        for i, row in enumerate(tab):
            if i != r:
                f = row[c]
                tab[i] = [(pivot * v - f * w) // det
                          for v, w in zip(row, prow)]
                tab[i][c] = -f
        prow[c] = det
        det = pivot
        basic[r], nonbasic[c] = nonbasic[c], basic[r]
    values = dict(zip(basic, (Fraction(row[-1], det) for row in tab)))
    return (t0 + values.get(k, 0),
            [l + values.get(j, 0) for j, l in enumerate(lo)])


def check_box(lo: int, hi: int) -> None:
    """Raise unless 1 <= lo <= hi, the weight range of both search stages."""
    if not 1 <= lo <= hi:
        raise DomainError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")


def cone_weights(n: int, lo: int, hi: int
                 ) -> WeightConversionResult | NoIntegerPoint:
    """Integer Bernstein weights in [lo, hi]^(n+1), 1 <= lo <= hi, that
    stay positive in every basis, found by branch-and-bound over the
    max-margin LP and certified by the exact conversion; or the
    ``NoIntegerPoint`` outcome."""
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    check_box(lo, hi)
    rows = _cone_rows(n, lo)
    stack = [([lo] * (n + 1), [hi] * (n + 1))]
    nodes = 0
    while stack:
        if nodes == NODE_BUDGET:
            return NoIntegerPoint(n, lo, hi, nodes, False)
        nodes += 1
        box_lo, box_hi = stack.pop()
        t, w = _max_margin(rows, box_lo, box_hi)
        if t < 0:
            continue
        point = [round(v) for v in w]
        if all(sum(x * y for x, y in zip(a, point)) >= 1 for a in rows):
            conv = convert_bernstein_weights(n, point)
            if conv.all_positive:
                return conv
        # an integral centre with t >= 0 passes, so this one has a
        # fractional weight: split on the most fractional one and visit
        # the nearer side first
        j = max(range(n + 1), key=lambda j: abs(w[j] - point[j]))
        f = math.floor(w[j])
        below = (box_lo, box_hi[:j] + [f] + box_hi[j + 1:])
        above = (box_lo[:j] + [f + 1] + box_lo[j + 1:], box_hi)
        stack += [below, above] if point[j] > f else [above, below]
    return NoIntegerPoint(n, lo, hi, nodes, True)
