"""Exact dense linear algebra over rational matrices.

A matrix is a list of equal-length lists of ``fractions.Fraction``.  All
operations here are exact; floating point appears nowhere in this module.
``inverse``, ``solve`` and ``det`` share one elimination over the integers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .bases import BasisSpec, eval_basis_row
from .errors import DomainError, SingularMatrixError

Matrix = list[list[Fraction]]

MINOR_CHECK_MAX_DIM = 8


def as_matrix(rows) -> Matrix:
    """Coerce nested iterables to a well-formed rational matrix."""
    out = [[Fraction(v) for v in row] for row in rows]
    if not out or not out[0]:
        raise DomainError("matrix must have at least one row and one column")
    width = len(out[0])
    if any(len(row) != width for row in out):
        raise DomainError("rows have inconsistent lengths")
    return out


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise DomainError("inner dimensions do not match")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def collocation_matrix(spec: BasisSpec, nodes) -> Matrix:
    """Matrix (u_j(t_i)) of basis values at an increasing node sequence."""
    nodes = [Fraction(t) for t in nodes]
    if any(t2 <= t1 for t1, t2 in zip(nodes, nodes[1:])):
        raise DomainError("nodes must be strictly increasing")
    return [eval_basis_row(spec, t) for t in nodes]


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Block matrix (a_ij * B)."""
    return [
        [aij * bkl for aij in arow for bkl in brow]
        for arow in a
        for brow in b
    ]


def inf_norm(a: Matrix) -> Fraction:
    """Max over rows of the sum of absolute entry values."""
    return max(sum(abs(v) for v in row) for row in a)


def _eliminate(a: Matrix, rhs: Matrix) -> tuple[Fraction, Matrix]:
    """Fraction-free Gauss-Jordan on [A | rhs]; returns det(A), A^-1 rhs.

    Each row is scaled to integers by the lcm of its denominators, which
    keeps the solution; ``scale`` is their product, negated per row swap.
    Every division (p*v - f*w) // prev is exact by Sylvester's identity
    (Bareiss, Math. Comp. 22, 1968), and the left block ends as p_last*I.
    """
    n = len(a)
    m, scale, prev = [], 1, 1
    for row, aug in zip(a, rhs):
        s = math.lcm(*(v.denominator for v in row + aug))
        m.append([v.numerator * (s // v.denominator) for v in row + aug])
        scale *= s
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(col)
        if pivot != col:
            m[col], m[pivot], scale = m[pivot], m[col], -scale
        p = m[col][col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(p * v - f * w) // prev for v, w in zip(m[r], m[col])]
        prev = p
    return Fraction(prev, scale), [[Fraction(v, prev) for v in row[n:]]
                                   for row in m]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square nonsingular matrix."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("matrix must be square")
    return _eliminate(a, identity(n))[1]


def solve(a: Matrix, b) -> list[Fraction]:
    """Solve A x = b exactly."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("matrix must be square")
    if len(b) != n:
        raise DomainError("right-hand side has wrong length")
    return [row[0] for row in _eliminate(a, [[Fraction(v)] for v in b])[1]]


def cond_inf(a: Matrix) -> Fraction:
    """Infinity-norm condition number ||A|| * ||A^-1||, exact."""
    return inf_norm(a) * inf_norm(inverse(a))


def abs_matrix(a: Matrix) -> Matrix:
    return [[abs(v) for v in row] for row in a]


def dominates(a: Matrix, c: Matrix) -> bool:
    """True iff |c_ij| <= a_ij entrywise."""
    if len(a) != len(c) or len(a[0]) != len(c[0]):
        raise DomainError("dimension mismatch")
    return all(
        abs(cv) <= av for arow, crow in zip(a, c) for av, cv in zip(arow, crow)
    )


def det(a: Matrix) -> Fraction:
    """Exact determinant, from the same elimination as ``inverse``."""
    try:
        return _eliminate(a, [[]] * len(a))[0]
    except SingularMatrixError:
        return Fraction(0)


class TotalPositivityCertificate(namedtuple(
        "TotalPositivityCertificate", "is_tp witness", defaults=(None,))):
    """Outcome of an exhaustive minor check.

    On failure, ``witness`` is (row_indices, col_indices, minor_value) for
    one negative minor.
    """

    __slots__ = ()


def is_totally_positive(a: Matrix) -> TotalPositivityCertificate:
    """Check every minor of every order for nonnegativity.

    Brute force over all index subsets; refuses matrices larger than
    ``MINOR_CHECK_MAX_DIM`` to bound the combinatorial cost.
    """
    rows, cols = len(a), len(a[0])
    if rows > MINOR_CHECK_MAX_DIM or cols > MINOR_CHECK_MAX_DIM:
        raise DomainError(f"{rows}x{cols} exceeds the minor-check guard "
                          f"of {MINOR_CHECK_MAX_DIM}")
    for k in range(1, min(rows, cols) + 1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                minor = det([[a[i][j] for j in cs] for i in rs])
                if minor < 0:
                    return TotalPositivityCertificate(False, (rs, cs, minor))
    return TotalPositivityCertificate(True)
