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

This module only evaluates bases.  The change matrices between them at
the standard nodes, and the conversion of Bernstein weights into the
other bases, are in ``cone``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .errors import DomainError


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

