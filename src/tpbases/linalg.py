"""Exact dense linear algebra over rational matrices.

A matrix is a list of equal-length lists of ``fractions.Fraction``.  All
operations here are exact; floating point appears nowhere in this module.
``inverse``, ``solve`` and ``det`` share one elimination over the integers;
``is_totally_positive`` tests total nonnegativity by deleting derivations.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .bases import BasisSpec, eval_basis_row
from .errors import DomainError, SingularMatrixError

Matrix = list[list[Fraction]]


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


def _integer_rows(a: Matrix, rhs: Matrix) -> tuple[list[list[int]], list[int]]:
    """The rows of [A | rhs], each scaled to integers by the lcm of its
    denominators (which keeps the solution of A X = rhs), and the scales."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("matrix must be square")
    rows, scales = [], []
    for row, aug in zip(a, rhs):
        s = math.lcm(*(v.denominator for v in row + aug))
        rows.append([v.numerator * (s // v.denominator) for v in row + aug])
        scales.append(s)
    return rows, scales


def _eliminate(m: list[list[int]], n: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan on the integer rows m of [A | rhs], A
    n x n, in place; returns the last pivot p and the sign of the row
    permutation, and leaves m = [p I | p A^-1 rhs].

    Every division (p*v - f*w) // prev is exact by Sylvester's identity
    (Bareiss, Math. Comp. 22, 1968), and det(m[:, :n]) = sign * p.
    """
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(col)
        if pivot != col:
            m[col], m[pivot], sign = m[pivot], m[col], -sign
        p = m[col][col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(p * v - f * w) // prev for v, w in zip(m[r], m[col])]
        prev = p
    return prev, sign


def _solution(a: Matrix, rhs: Matrix) -> Matrix:
    """A^-1 rhs, exact."""
    n = len(a)
    m, _ = _integer_rows(a, rhs)
    p, _ = _eliminate(m, n)
    return [[Fraction(v, p) for v in row[n:]] for row in m]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square nonsingular matrix."""
    return _solution(a, identity(len(a)))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B exactly: A^-1 B, for a matrix right-hand side B."""
    if len(b) != len(a):
        raise DomainError("right-hand side has wrong number of rows")
    return _solution(a, as_matrix(b))


def cond_inf(a: Matrix) -> Fraction:
    """Infinity-norm condition number ||A|| * ||A^-1||, exact.

    Both norms are read off the integer rows of [A | I]: row i of A is its
    scaled row over the scale, and A^-1 is the final right block over the
    last pivot, so no rational inverse is formed.
    """
    n = len(a)
    m, scales = _integer_rows(a, identity(n))
    norm = max(Fraction(sum(map(abs, row[:n])), s) for row, s in zip(m, scales))
    p, _ = _eliminate(m, n)
    return norm * Fraction(max(sum(map(abs, row[n:])) for row in m), abs(p))


def det(a: Matrix) -> Fraction:
    """Exact determinant, from the same elimination as ``inverse``."""
    m, scales = _integer_rows(a, [[]] * len(a))
    try:
        p, sign = _eliminate(m, len(a))
    except SingularMatrixError:
        return Fraction(0)
    return Fraction(sign * p, math.prod(scales))


class TotalPositivityCertificate(namedtuple(
        "TotalPositivityCertificate", "is_tp witness", defaults=(None,))):
    """Outcome of the total nonnegativity test.

    On failure, ``witness`` is (row_indices, col_indices, minor_value) for
    a negative minor whose own proper minors are all nonnegative.
    """

    __slots__ = ()


def _failure(a: Matrix, rows, cols) -> tuple[int, int] | None:
    """Deleting derivations (Goodearl, Launois & Lenagan 2011): the
    submatrix is totally nonnegative iff the final t is nonnegative and
    each zero in it has only zeros to its left or only zeros above it.
    Returns None, or the corner of a bottom-right block that fails.
    """
    t = [[a[i][j] for j in cols] for i in rows]
    for r in reversed(range(len(t))):
        for s in reversed(range(len(t[r]))):
            p = t[r][s]
            if p < 0:  # final, and fixed by the block from (r, s) alone
                return r, s
            for row in t[:r] if p else ():
                if f := row[s] / p:
                    row[:s] = [v - f * w for v, w in zip(row[:s], t[r])]
    if all(v or not any(row[:j]) or not any(u[j] for u in t[:i])
           for i, row in enumerate(t) for j, v in enumerate(row)):
        return None
    return 0, 0


def is_totally_positive(a) -> TotalPositivityCertificate:
    """Test every minor of a matrix of any shape for nonnegativity.

    A failure drops each row, then each column, once if the rest still
    fails; as submatrices of TN matrices are TN, a square witness is left.
    """
    a = as_matrix(a)
    keep = [tuple(range(len(a))), tuple(range(len(a[0])))]
    for _ in range(2):  # reversing both index orders keeps every minor
        corner = _failure(a, *keep)
        if corner is None:
            return TotalPositivityCertificate(True)
        keep = [keep[0][corner[0]:][::-1], keep[1][corner[1]:][::-1]]
    for axis in (0, 1):
        for k in keep[axis]:
            trial = keep[:]
            trial[axis] = tuple(x for x in trial[axis] if x != k)
            if _failure(a, *trial):
                keep = trial
    rows, cols = keep
    return TotalPositivityCertificate(
        False, (rows, cols, det([[a[i][j] for j in cols] for i in rows])))
