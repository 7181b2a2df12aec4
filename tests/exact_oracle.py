"""Exact reference routines that the package is checked against
(test-only): the Faddeev-LeVerrier characteristic polynomial, products and
transposes of rational matrices, and entrywise absolute values and
dominance."""

import math
import operator
from fractions import Fraction

from tpbases.errors import DomainError


def faddeev_leverrier(a) -> list[Fraction]:
    """det(lambda I - A), coefficients ascending, by the Faddeev-LeVerrier
    recurrence on N = d A, d the lcm of the entry denominators: n - 1 full
    integer matrix products, each division by k exact."""
    n = len(a)
    d = math.lcm(*(Fraction(x).denominator for row in a for x in row))
    big = [[Fraction(x).numerator * (d // Fraction(x).denominator) for x in row]
           for row in a]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [row[:] for row in big]
    for k in range(1, n + 1):
        c = -sum(m[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                m[i][i] += c
            cols = list(zip(*m))
            m = [[sum(map(operator.mul, row, col)) for col in cols] for row in big]
    return [Fraction(c, d ** (n - k)) for k, c in enumerate(coeffs)]


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise DomainError("inner dimensions do not match")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def abs_matrix(a):
    return [[abs(v) for v in row] for row in a]


def dominates(a, c) -> bool:
    """True iff |c_ij| <= a_ij entrywise."""
    if len(a) != len(c) or len(a[0]) != len(c[0]):
        raise DomainError("dimension mismatch")
    return all(
        abs(cv) <= av for arow, crow in zip(a, c) for av, cv in zip(arow, crow)
    )
