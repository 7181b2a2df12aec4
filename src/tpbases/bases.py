"""Polynomial basis families on [0, 1] and their rational (weighted) variants.

Four families are supported: Bernstein, Said-Ball, DP and monomial.  All
evaluation is exact over ``fractions.Fraction``; no floating point enters
any code path in this module.

Each family's row (u_0(x), ..., u_n(x)) is built in one place, with
y = 1 - x and h = n // 2:

- Bernstein: C(n, i) x^i y^(n-i); monomial: x^i.
- Said-Ball and DP are symmetric, u_(n-i)(x) = u_i(y), so a row is the
  left half at (x, y), the middle function(s), and the left half at
  (y, x) reversed.  Said-Ball's left half is C(h+i, i) x^i y^(h+1) for
  i < (n+1)/2, with the middle C(n, h) (xy)^h at even n and none at odd
  n.  DP's left half is y^n, then x y^(n-i) for 1 <= i < h; its middle is
  1 - x^(h+1) - y^(h+1) at even n, and at odd n, with m = (n+1)/2, the
  pair x y^m + (1 - x^e - y^e)/2 and its mirror, e as below.  At n = 1
  DP's ends override its middle, so its row is (y, x).

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
    polynomial family.  ``family`` is a ``BasisFamily`` or its value
    string; ``weights`` is a tuple of ``degree + 1`` Fractions or None.
    """

    __slots__ = ()

    def __new__(cls, family: BasisFamily | str, degree: int,
                weights: tuple[Fraction, ...] | None = None,
                dp_literal_middle: bool = False):
        try:
            family = BasisFamily(family)
        except ValueError:
            raise DomainError(f"unknown basis family {family!r}") from None
        if degree < 1:
            raise DomainError(f"degree must be >= 1, got {degree}")
        if weights is not None:
            weights = tuple(Fraction(w) for w in weights)
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


def _plain_row(family: BasisFamily, n: int, x: Fraction,
               literal: bool) -> list[Fraction]:
    """(u_0(x), ..., u_n(x)) of the plain family, by the module's rules."""
    y = 1 - x
    h = n // 2
    if family is BasisFamily.BERNSTEIN:
        return [binomial(n, i) * x**i * y ** (n - i) for i in range(n + 1)]
    if family is BasisFamily.MONOMIAL:
        return [x**i for i in range(n + 1)]
    if family is BasisFamily.SAID_BALL:
        def half(a, b):
            return [binomial(h + i, i) * a**i * b ** (h + 1)
                    for i in range((n + 1) // 2)]
        middle = [binomial(n, h) * (x * y) ** h] if n % 2 == 0 else []
    elif n == 1:  # DP's ends override its middle
        return [y, x]
    else:
        def half(a, b):
            return [b**n] + [a * b ** (n - i) for i in range(1, h)]
        if n % 2 == 0:
            middle = [1 - x ** (h + 1) - y ** (h + 1)]
        else:
            m = (n + 1) // 2
            e = m + 1 if literal else m
            middle = [a * b**m + Fraction(1, 2) * (1 - a**e - b**e)
                      for a, b in ((x, y), (y, x))]
    return half(x, y) + middle + half(y, x)[::-1]


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
    row = _plain_row(spec.family, spec.degree, _check_point(x),
                     spec.dp_literal_middle)
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

