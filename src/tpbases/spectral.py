"""Certified minimal eigenvalues and singular values of rational matrices.

The pipeline is fully exact and has one path, and its core works on
Python integers only.  ``char_poly`` clears the denominators of A once,
N = d A, and runs Berkowitz's recurrence (Inform. Process. Lett. 18,
1984) on the integer matrix N: the characteristic polynomial of each
leading block of N is that of the block before it times a Toeplitz
matrix of inner products over Z, so no step divides.  Scaling back gives
the monic rational coefficients of det(lambda I - A).

Roots are isolated with a Sturm chain over Z: p, p', then the negated
primitive parts of |lc|^(delta+1)-scaled pseudo-remainders.  Every
element is a positive multiple of the classical Sturm sequence, so root
counts are unchanged, and signs at a rational a/b (b > 0) come from the
homogeneous Horner sum sum c_i a^i b^(d-i), with no rational arithmetic.
A polynomial p and its squarefree part q = p / gcd(p, p') have the same
roots, and gcd(p, p') is the last element of p's chain; q is kept
primitive over Z.  Dividing the chain by gcd(p, p') gives a Sturm chain of
q, so at every point that is not a root, p's chain counts q's roots: one
chain is built per polynomial.

Root counts come from the sign variations V at the two ends of an
interval; B, the Cauchy bound, is a strict root bound, so V(-B) and V(B)
are read off the chain's leading coefficients as V(-inf) and V(+inf).
One bisection walk of (-B, B], in which every midpoint costs one chain
evaluation, yields the enclosures of the roots in ascending order:
``isolate_real_roots`` collects them all, and ``min_eigenvalue`` takes
the first.

``min_eigenvalue`` requires V(-inf) - V(+inf) = deg q, i.e. an all-real
spectrum.  Every root is then positive exactly when V(0), read off the
chain's constant terms, equals V(-inf) (``_smallest_root`` gives the
argument): this one count decides positivity everywhere in the module.
The answer is the cell that
bisecting (-B, B) along the smallest root ends on.  Bisection is
path-independent, so when every root is positive Newton finds that cell:
from 0 it climbs towards the smallest root on the cell grid and never
passes it, and one chain evaluation plus a rational-root test of the
midpoints on the way certify the cell.  Otherwise, or when a certificate
fails (a midpoint that is a root, two roots in one cell), the walk's
first enclosure is taken instead, and ``refine_root`` bisects it.
``min_singular_value`` forms N^T N = d^2 A^T A over Z, hands it to
``char_poly`` with its scale d^2 and does the same on the polynomial; it
raises unless the count certifies every root positive, and only then
refines until the enclosure is separated from zero.  ``spectral_report``
keeps A's count as ``all_eigs_real_positive``, ``refine_report`` tightens
a report in place, and ``kron_min_spectral`` multiplies the enclosures of
two reports whose counts certify positive spectra, reading a low end
below 0 as 0.  Every reported value is a rational interval guaranteed to
contain the true eigenvalue; no floating point enters this module.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, SpectralAssumptionError
from .linalg import Matrix, _exact, _nonempty

CHAR_POLY_MAX_DIM = 24
DEFAULT_TOL = Fraction(1, 10**30)

# --- dense univariate polynomials, coefficients ascending by degree ---

Poly = list[Fraction]


def poly_trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_deriv(p: Poly) -> Poly:
    return [i * c for i, c in enumerate(p)][1:]


# --- integer core: primitive polynomials over Z ---


def _primitive(p: list[int]) -> list[int]:
    """p divided by the (positive) gcd of its coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _integer_poly(p: Poly) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of p."""
    d = math.lcm(*(c.denominator for c in p))
    return _primitive(poly_trim([c.numerator * (d // c.denominator) for c in p]))


def _pseudo_rem(num: list[int], den: list[int]) -> list[int]:
    """Remainder of |lc(den)|^(deg num - deg den + 1) * num modulo den."""
    r = num[:]
    m = len(den) - 1
    scale, sign = abs(den[-1]), (1 if den[-1] > 0 else -1)
    for top in range(len(num) - 1, m - 1, -1):
        c = sign * r[top]
        for j in range(top):
            r[j] *= scale
        for j in range(m):
            r[top - m + j] -= c * den[j]
    return poly_trim(r[:m])


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """num / den for a primitive den that divides num over Q; by Gauss's
    lemma the quotient has integer coefficients."""
    r = num[:]
    m = len(den) - 1
    q = [0] * (len(num) - m)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + m] // den[-1]
        for j in range(m + 1):
            r[k + j] -= c * den[j]
    return q


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _sign_at(p: Poly, x: Fraction) -> int:
    """Sign of p(x), from the homogeneous Horner sum of p at x = a/b."""
    a, b = x.numerator, x.denominator
    acc, b_pow = 0, 1
    for c in reversed(p):
        acc = acc * a + c * b_pow
        b_pow *= b
    return _sign(acc)


def _newton_at(p: list[int], x: Fraction, h: Fraction) -> tuple[int, int | None]:
    """Sign of p(x) and the Newton step -p(x)/p'(x) from x, rounded down to
    whole grid steps h (None where p'(x) = 0).

    One homogeneous Horner pass at x = a/b gives P = b^d p(x) and
    D = b^(d-1) p'(x), so the step is floor(-P h_den / (D b h_num)).
    """
    a, b = x.numerator, x.denominator
    acc = der = 0
    b_pow = 1
    for c in reversed(p):
        der = der * a + acc
        acc = acc * a + c * b_pow
        b_pow *= b
    if der == 0:
        return _sign(acc), None
    return _sign(acc), (-acc * h.denominator) // (der * b * h.numerator)


# --- Sturm machinery ---


def sturm_chain(p: Poly) -> list[list[int]]:
    """Sturm sequence of p over Z: p, p', then the negated primitive parts
    of the successive pseudo-remainders.

    Every element is a positive multiple of the classical element (p, p',
    negated remainders), so sign variations are the same at every point.
    The last element is gcd(p, p') up to a constant factor, so it is
    constant exactly when p is squarefree.
    """
    chain = [_integer_poly(p)]
    chain.append(_primitive(poly_deriv(chain[0])))
    while chain[-1]:
        chain.append([-c for c in _primitive(_pseudo_rem(chain[-2], chain[-1]))])
    return chain[:-1]


def _variations(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _sign_variations(chain: list[list[int]], x: Fraction) -> int:
    return _variations(_sign_at(q, x) for q in chain)


def _variations_at_infinity(chain: list[list[int]]) -> tuple[int, int]:
    """V(-inf) and V(+inf), read off the leading coefficients."""
    return (_variations(_sign(p[-1]) * (-1) ** (len(p) - 1) for p in chain),
            _variations(_sign(p[-1]) for p in chain))


def count_roots(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def cauchy_bound(p: Poly) -> Fraction:
    """Strict bound B with every real root in (-B, B)."""
    p = poly_trim(p)
    lead = abs(p[-1])
    return 1 + max((Fraction(abs(c), lead) for c in p[:-1]),
                   default=Fraction(0))


class RootEnclosure(namedtuple("RootEnclosure", "low high polynomial")):
    """Open rational interval (``low``, ``high``) certified to contain
    exactly one real root of ``polynomial``: the primitive integer
    squarefree part of the polynomial whose roots were isolated, as a tuple
    (None for enclosures derived by interval arithmetic, e.g. Kronecker
    products)."""

    __slots__ = ()

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    @property
    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2


def _squarefree_chain(p: Poly) -> tuple[list[int], list[list[int]]]:
    """Squarefree part q = p / gcd(p, p') of p, made primitive over Z with
    the sign of p's leading coefficient, and the Sturm chain of p.

    The chain divided by its last element, gcd(p, p'), is a Sturm chain of
    q, and the gcd vanishes only at roots of q, so at any other point the
    sign variations of p's chain count q's roots."""
    chain = sturm_chain(p)
    q, gcd = chain[0], chain[-1]
    if len(gcd) > 1:  # repeated root: divide out the gcd
        q = _exact_quotient(q, gcd)
        if (q[-1] > 0) != (chain[0][-1] > 0):
            q = [-c for c in q]
    return q, chain


def _walk(q: list[int], chain: list[list[int]], low: Fraction, v_low: int,
          high: Fraction, v_high: int):
    """Enclosures of the roots of q in (low, high], in ascending order, where
    V(low) = v_low and V(high) = v_high on ``chain``.

    Bisection: an interval holding one root is an enclosure, one holding
    more is split at its midpoint.  Each interval carries the counts of its
    ends, so a point costs one chain evaluation.  A midpoint that is a root
    gets an exact-hit enclosure (mid - r, mid + r): r halves from (b - a) / 4
    until mid - r is not a root and the counts at the two ends differ by
    one.  A root at mid + r would be a second one in (mid - r, mid + r], so
    neither end is a root; the two sides are walked on.
    """
    stack = [(low, v_low, high, v_high)]
    while stack:
        a, v_a, b, v_b = stack.pop()
        if v_a - v_b == 1:
            yield RootEnclosure(a, b, tuple(q))
        elif v_a - v_b > 1:
            mid = (a + b) / 2
            if _sign_at(q, mid) == 0:
                radius = (b - a) / 4
                while True:
                    lo, hi = mid - radius, mid + radius
                    if _sign_at(q, lo):
                        v_lo = _sign_variations(chain, lo)
                        v_hi = _sign_variations(chain, hi)
                        if v_lo - v_hi == 1:
                            break
                    radius /= 2
                stack += [(hi, v_hi, b, v_b), (lo, v_lo, hi, v_hi),
                          (a, v_a, lo, v_lo)]
            else:
                v = _sign_variations(chain, mid)
                stack += [(mid, v, b, v_b), (a, v_a, mid, v)]


def isolate_real_roots(p: Poly) -> list[RootEnclosure]:
    """Sorted, pairwise-disjoint enclosures of all distinct real roots of p.

    Each enclosure carries the primitive integer squarefree part q of p,
    which has the same roots.  Every bisection endpoint is -B, B, a
    midpoint that is not a root or an end of an exact-hit enclosure, so no
    endpoint is a root and the enclosures never overlap.
    """
    p = poly_trim([Fraction(c) for c in p])
    if not p:
        raise DomainError("cannot isolate roots of the zero polynomial")
    q, chain = _squarefree_chain(p)
    v_left, v_right = _variations_at_infinity(chain)
    bound = cauchy_bound(q)
    return list(_walk(q, chain, -bound, v_left, bound, v_right))


def _levels(width: Fraction, tol: Fraction) -> int:
    """Smallest m >= 0 with width / 2^m <= tol."""
    ratio = width / tol
    return (-(-ratio.numerator // ratio.denominator) - 1).bit_length()


def refine_root(enc: RootEnclosure, tol: Fraction) -> RootEnclosure:
    """Bisect down to width <= tol, preserving the one-root invariant."""
    tol = Fraction(tol)
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if enc.polynomial is None:
        raise DomainError("cannot refine an enclosure without its polynomial")
    if enc.width <= tol:
        return enc
    q = enc.polynomial
    low, high = enc.low, enc.high
    sign_low = _sign_at(q, low)
    # squarefree polynomial with one root in the open interval: endpoint
    # signs are nonzero and opposite
    while high - low > tol:
        mid = (low + high) / 2
        sign = _sign_at(q, mid)
        if sign == 0:
            # mid is the only root in (low, high), so q has no root at
            # mid +- radius, which lie strictly inside
            radius = min(tol / 2, (mid - low) / 2, (high - mid) / 2)
            return RootEnclosure(mid - radius, mid + radius, enc.polynomial)
        if sign == sign_low:
            low = mid
        else:
            high = mid
    return RootEnclosure(low, high, enc.polynomial)


# --- matrix spectra ---


def _cleared(a: Matrix) -> tuple[int, list[list[int]]]:
    """d, the lcm of the entry denominators of A, and the integer matrix d A."""
    a = _exact(a)
    d = math.lcm(*(x.denominator for row in a for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in a]


def check_char_poly_dim(n: int) -> None:
    """Raise unless an n x n matrix is within the exact char-poly guard."""
    if n > CHAR_POLY_MAX_DIM:
        raise DomainError(
            f"dimension {n} exceeds the exact char-poly guard of {CHAR_POLY_MAX_DIM}"
        )


def char_poly(a: Matrix, scale: int = 1) -> Poly:
    """det(lambda I - A / scale), exact, by Berkowitz's recurrence.

    It runs on the integer matrix N = d A, d the lcm of the entry
    denominators; coefficient k of det(lambda I - N) is (d scale)^(n-k)
    times that of det(lambda I - A / scale).  With N_r the leading r x r
    block and R, C the row and column beside N[r][r], the coefficients of
    det(lambda I - N_(r+1)), highest first, are those of det(lambda I - N_r)
    times the lower-triangular Toeplitz matrix with first column 1,
    -N[r][r], -R C, -R N_r C, ..., -R N_r^(r-1) C: no step divides.
    """
    n = len(_nonempty(a))
    if any(len(row) != n for row in a):
        raise DomainError("matrix must be square")
    check_char_poly_dim(n)
    if not isinstance(scale, int) or scale < 1:
        raise DomainError(f"scale must be a positive integer, got {scale!r}")
    d, big = _cleared(a)
    coeffs = [1]
    for r in range(n):  # R = big[r] and N_r's rows meet C in r entries
        row, col = big[r], [v[r] for v in big[:r]]
        first = [1, -row[r]]
        for k in range(r):
            if k:
                col = [sum(map(operator.mul, v, col)) for v in big[:r]]
            first.append(-sum(map(operator.mul, row, col)))
        coeffs = [sum(map(operator.mul, first[i::-1], coeffs)) for i in range(r + 2)]
    d *= scale
    return [Fraction(c, d ** k) for k, c in reversed(list(enumerate(coeffs)))]


class SpectralReport(namedtuple(
        "SpectralReport", "lambda_min sigma_min_sq all_eigs_real_positive")):
    """Certified minimal eigenvalue and singular value of one matrix.

    ``lambda_min`` and ``sigma_min_sq`` are RootEnclosures;
    ``sigma_min_sq`` encloses the smallest eigenvalue of A^T A, which is
    also sigma_min(A (x) A), so no square root is ever taken.
    """

    __slots__ = ()


def refine_report(rep: SpectralReport, tol: Fraction) -> SpectralReport:
    """``rep`` with both enclosures bisected down to width <= tol."""
    return SpectralReport(refine_root(rep.lambda_min, tol),
                          refine_root(rep.sigma_min_sq, tol),
                          rep.all_eigs_real_positive)


def _newton_smallest(
    q: list[int], chain: list[list[int]], v_left: int, bound: Fraction,
    tol: Fraction
) -> RootEnclosure | None:
    """The enclosure that refining the walk's first one to ``tol`` returns,
    for a q with only positive roots, V(-inf) = v_left and Cauchy bound B,
    found by Newton and certified; None when a certificate fails.

    The walk and ``refine_root`` bisect (-B, B), so they end on the level-L
    cell holding the smallest root, L the smallest level with
    2B / 2^L <= tol, as long as no midpoint on the way is a root and no
    other root shares the cell.  As every root is positive, Newton from 0
    climbs towards the smallest root and never passes it; each step is
    rounded down to the grid, and a step shorter than one cell becomes one
    cell.  The climb takes at most L steps, as many as bisection would, so
    a cluster of roots, which Newton nears only linearly, costs at most L
    Horner passes before the walk takes over.
    """
    levels = _levels(2 * bound, tol)
    if levels == 0:
        return None
    zero = 2 ** (levels - 1)  # grid point i is B (i - zero) / zero
    h = bound / zero
    sign_left = _sign(q[0])
    j, move = zero, 0
    for _ in range(levels):  # bisection would take as many steps
        sign, step = _newton_at(q, -bound + j * h, h)
        if sign != sign_left:
            break
        if step is None or step < 0:
            return None  # past two roots in one cell
        prev, move = j, max(step, 1)
        j += move
    else:
        return None
    if sign == 0 or move != 1:
        return None  # an exact hit, or a cell wider than one step
    low, high = -bound + prev * h, -bound + j * h
    if _sign_variations(chain, high) != v_left - 1:
        return None  # another root <= high
    # the midpoints on the way; by the rational root theorem a root a/b in
    # lowest terms has b | lc(q) and a | q(0).  The power of 2 in b never
    # falls from one level to the next, so once b holds more factors of 2
    # than lc(q), no midpoint from there on is a root.
    den = bound.denominator * zero
    too_even = (q[-1] & -q[-1]) * 2
    for shift in range(levels, 0, -1):
        i = ((prev >> shift) * 2 + 1) << (shift - 1)
        num = bound.numerator * (i - zero)
        g = math.gcd(num, den)
        a, b = num // g, den // g
        if b % too_even == 0:
            break
        if (q[-1] % b == 0 and (not a or q[0] % a == 0)
                and _sign_at(q, Fraction(a, b)) == 0):
            return None
    return RootEnclosure(low, high, tuple(q))


def _smallest_root(p: Poly, tol: Fraction) -> tuple[RootEnclosure, bool]:
    """Enclosure of the smallest root of the characteristic polynomial p,
    refined to width <= tol, and whether every root of p is positive.

    Errors unless p has as many distinct real roots, V(-inf) - V(+inf), as
    its squarefree part q has degree, and then unless tol > 0.  Every root
    is positive exactly when V(0), read off the chain's constant terms,
    equals V(-inf): a root at 0 gives V(0) = V(0+) < V(-inf) if simple and,
    as every chain element vanishes there, V(0) = 0 < V(-inf) if multiple.
    Newton runs only then, for one chain evaluation; otherwise, or when a
    certificate fails, the answer is the first enclosure of the walk of
    (-B, B], which starts from the same counts.
    """
    q, chain = _squarefree_chain(p)
    v_left, v_right = _variations_at_infinity(chain)
    if v_left == v_right or v_left - v_right != len(q) - 1:
        raise SpectralAssumptionError(
            "not every eigenvalue is real; matrix is outside the totally "
            "positive regime this module assumes"
        )
    tol = Fraction(tol)
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    positive = _variations(_sign(c[0]) for c in chain) == v_left
    bound = cauchy_bound(q)
    enc = _newton_smallest(q, chain, v_left, bound, tol) if positive else None
    if enc is None:
        first = next(_walk(q, chain, -bound, v_left, bound, v_right))
        enc = refine_root(first, tol)
    return enc, positive


def min_eigenvalue(a: Matrix, tol: Fraction = DEFAULT_TOL) -> RootEnclosure:
    """Enclosure of the smallest (real) eigenvalue, refined to width <= tol.

    Errors unless every eigenvalue is real, and then unless tol > 0.
    """
    return _smallest_root(char_poly(a), tol)[0]


def _gram(a: Matrix) -> tuple[int, list[list[int]]]:
    """d^2 and N^T N for N = d A, d the lcm of the entry denominators of A:
    A^T A = N^T N / d^2, formed over Z."""
    d, big = _cleared(a)
    cols = list(zip(*big))
    return d * d, [[sum(map(operator.mul, ci, cj)) for cj in cols]
                   for ci in cols]


def min_singular_value(a: Matrix, tol: Fraction = DEFAULT_TOL) -> RootEnclosure:
    """Enclosure of the smallest eigenvalue of A^T A (i.e. sigma_min^2),
    refined to width <= tol and separated from zero."""
    scale, gram = _gram(a)
    smallest, positive = _smallest_root(char_poly(gram, scale), tol)
    if not positive:
        raise SpectralAssumptionError(
            "smallest singular value cannot be separated from zero; "
            "the matrix may be singular"
        )
    # the root is positive, so refinement lifts the low end above 0
    while smallest.low <= 0:
        smallest = refine_root(smallest, smallest.width / 4)
    return smallest


def spectral_report(a: Matrix, tol: Fraction = DEFAULT_TOL) -> SpectralReport:
    lam, positive = _smallest_root(char_poly(a), tol)
    return SpectralReport(lam, min_singular_value(a, tol), positive)


def _interval_product(x: RootEnclosure, y: RootEnclosure) -> RootEnclosure:
    # both values are certified positive, so a low end below 0 counts as 0
    return RootEnclosure(max(x.low, 0) * max(y.low, 0), x.high * y.high, None)


def kron_min_spectral(rep_a: SpectralReport, rep_b: SpectralReport) -> SpectralReport:
    """Lift factor reports to their Kronecker product.

    Uses the product laws for eigenvalues and singular values of A (x) B,
    which require both factors to have real positive spectra.
    """
    if not (rep_a.all_eigs_real_positive and rep_b.all_eigs_real_positive):
        raise SpectralAssumptionError(
            "Kronecker spectral lifting needs real positive factor spectra"
        )
    return SpectralReport(
        _interval_product(rep_a.lambda_min, rep_b.lambda_min),
        _interval_product(rep_a.sigma_min_sq, rep_b.sigma_min_sq),
        True,
    )


__all__ = [
    "CHAR_POLY_MAX_DIM",
    "DEFAULT_TOL",
    "RootEnclosure",
    "SpectralReport",
    "char_poly",
    "check_char_poly_dim",
    "count_roots",
    "isolate_real_roots",
    "kron_min_spectral",
    "min_eigenvalue",
    "min_singular_value",
    "refine_report",
    "refine_root",
    "spectral_report",
    "sturm_chain",
]
