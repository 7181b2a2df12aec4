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
    if any(len(row) != n for row in a):
        raise DomainError("matrix must be square")
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
    return _eliminate(a, identity(len(a)))[1]


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B exactly: A^-1 B, for a matrix right-hand side B."""
    if len(b) != len(a):
        raise DomainError("right-hand side has wrong number of rows")
    return _eliminate(a, as_matrix(b))[1]


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
