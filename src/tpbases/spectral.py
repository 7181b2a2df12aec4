"""Certified minimal eigenvalues and singular values of rational matrices.

The pipeline is fully exact and has one path: characteristic polynomials
come from the Faddeev-LeVerrier recurrence, real roots are isolated with
Sturm sequences and the smallest is refined by bisection, on A for
``min_eigenvalue`` and on A^T A, then separated from zero, for
``min_singular_value``; ``spectral_report`` is those two calls, and
``refine_report`` tightens a report in place (bisection is
path-independent).  A characteristic polynomial p and its squarefree part
q = p / gcd(p, p') have the same roots, so the spectrum is all real
exactly when q has deg q real roots: multiplicities are never counted,
and gcd(p, p') is read off the end of p's Sturm sequence.  Every reported
value is a rational interval guaranteed to contain the true eigenvalue.
A floating-point cross-check (``float_crosscheck``) exists purely as an
independent sanity oracle and never feeds the certified path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, SpectralAssumptionError
from .linalg import Matrix, mat_mul, transpose

CHAR_POLY_MAX_DIM = 12
FLOAT_CHECK_MAX_DIM = 64
DEFAULT_TOL = Fraction(1, 10**30)

# --- dense univariate polynomials, coefficients ascending by degree ---

Poly = list[Fraction]


def poly_trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p: Poly) -> Poly:
    return [i * c for i, c in enumerate(p)][1:]


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    num, den = num[:], poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / lead
        q[k] = c
        if c != 0:
            for j, d in enumerate(den):
                num[k + j] -= c * d
    return poly_trim(q), poly_trim(num)


# --- Sturm machinery ---


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of p: p, p', then the negated successive remainders.

    The last element is gcd(p, p') up to a constant factor, so it is
    constant exactly when p is squarefree.
    """
    chain = [poly_trim(p), poly_trim(poly_deriv(p))]
    while chain[-1]:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        chain.append([-c for c in rem])
    return chain[:-1]


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = poly_eval(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def count_roots(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def cauchy_bound(p: Poly) -> Fraction:
    """Strict bound B with every real root in (-B, B)."""
    p = poly_trim(p)
    lead = abs(p[-1])
    return 1 + max((abs(c) / lead for c in p[:-1]), default=Fraction(0))


@dataclass(frozen=True)
class RootEnclosure:
    """Open rational interval certified to contain exactly one real root
    of ``polynomial`` (None for enclosures derived by interval arithmetic,
    e.g. Kronecker products)."""

    low: Fraction
    high: Fraction
    polynomial: tuple[Fraction, ...] | None

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    @property
    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2


def _exact_root_enclosure(
    q: Poly, chain: list[Poly], root: Fraction, radius: Fraction
) -> RootEnclosure:
    # shrink a symmetric interval around an exactly-hit root until its
    # endpoints are not roots and no other root sneaks in
    while (
        poly_eval(q, root - radius) == 0
        or poly_eval(q, root + radius) == 0
        or count_roots(chain, root - radius, root + radius) != 1
    ):
        radius /= 2
    return RootEnclosure(root - radius, root + radius, tuple(q))


def isolate_real_roots(p: Poly) -> list[RootEnclosure]:
    """Sorted, pairwise-disjoint enclosures of all distinct real roots of p.

    Each enclosure carries the squarefree part q of p, which has the same
    roots: p itself when p is squarefree, else p / gcd(p, p').
    """
    p = poly_trim([Fraction(c) for c in p])
    if not p:
        raise DomainError("cannot isolate roots of the zero polynomial")
    if len(p) <= 1:
        return []
    q, chain = p, sturm_chain(p)
    gcd = chain[-1]
    if len(gcd) > 1:  # repeated root: divide out the monic gcd
        q = poly_divmod(p, [c / gcd[-1] for c in gcd])[0]
        chain = sturm_chain(q)
    bound = cauchy_bound(q)
    out: list[RootEnclosure] = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        k = count_roots(chain, a, b)
        if k == 0:
            continue
        if k == 1:
            if poly_eval(q, b) == 0:
                out.append(_exact_root_enclosure(q, chain, b, (b - a) / 2))
            else:
                out.append(RootEnclosure(a, b, tuple(q)))
            continue
        mid = (a + b) / 2
        if poly_eval(q, mid) == 0:
            enc = _exact_root_enclosure(q, chain, mid, (b - a) / 4)
            out.append(enc)
            stack.append((a, enc.low))
            stack.append((enc.high, b))
        else:
            stack.append((a, mid))
            stack.append((mid, b))
    out.sort(key=lambda e: e.low)
    # exact root hits can leave neighbouring enclosures overlapping;
    # refine until the intervals are pairwise disjoint
    for i in range(len(out) - 1):
        while out[i].high > out[i + 1].low:
            out[i] = refine_root(out[i], out[i].width / 4)
            out[i + 1] = refine_root(out[i + 1], out[i + 1].width / 4)
    return out


def refine_root(enc: RootEnclosure, tol: Fraction) -> RootEnclosure:
    """Bisect down to width <= tol, preserving the one-root invariant."""
    tol = Fraction(tol)
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if enc.polynomial is None:
        raise DomainError("cannot refine an enclosure without its polynomial")
    if enc.width <= tol:
        return enc
    q = list(enc.polynomial)
    low, high = enc.low, enc.high
    sign_low = poly_eval(q, low)
    # squarefree polynomial with one root in the open interval: endpoint
    # signs are nonzero and opposite
    while high - low > tol:
        mid = (low + high) / 2
        v = poly_eval(q, mid)
        if v == 0:
            radius = min(tol / 2, (mid - low) / 2, (high - mid) / 2)
            while poly_eval(q, mid - radius) == 0 or poly_eval(q, mid + radius) == 0:
                radius /= 2
            return RootEnclosure(mid - radius, mid + radius, enc.polynomial)
        if (v > 0) == (sign_low > 0):
            low = mid
        else:
            high = mid
    return RootEnclosure(low, high, enc.polynomial)


# --- matrix spectra ---


def char_poly(a: Matrix) -> Poly:
    """det(lambda I - A) via the Faddeev-LeVerrier recurrence, exact."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("matrix must be square")
    if n > CHAR_POLY_MAX_DIM:
        raise DomainError(
            f"dimension {n} exceeds the exact char-poly guard of {CHAR_POLY_MAX_DIM}"
        )
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        if k < n:
            shifted = [
                [m[i][j] + (c if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            m = mat_mul(a, shifted)
    return coeffs


@dataclass(frozen=True)
class SpectralReport:
    """Certified minimal eigenvalue and singular value of one matrix.

    ``sigma_min_sq`` encloses the smallest eigenvalue of A^T A; the square
    root is taken only when rendering, with outward rounding.
    """

    lambda_min: RootEnclosure
    sigma_min_sq: RootEnclosure
    all_eigs_real_positive: bool


def refine_report(rep: SpectralReport, tol: Fraction) -> SpectralReport:
    """``rep`` with both enclosures bisected down to width <= tol."""
    return SpectralReport(refine_root(rep.lambda_min, tol),
                          refine_root(rep.sigma_min_sq, tol),
                          rep.all_eigs_real_positive)


def _smallest_eigenvalue(a: Matrix) -> RootEnclosure:
    """Enclosure of the smallest eigenvalue; errors unless the spectrum is real.

    The characteristic polynomial and its squarefree part have the same
    roots, so every eigenvalue is real exactly when the squarefree part has
    as many distinct real roots as its degree.
    """
    roots = isolate_real_roots(char_poly(a))
    if not roots or len(roots) != len(roots[0].polynomial) - 1:
        raise SpectralAssumptionError(
            "not every eigenvalue is real; matrix is outside the totally "
            "positive regime this module assumes"
        )
    return roots[0]


def _separated_from_zero(enc: RootEnclosure) -> RootEnclosure | None:
    """``enc`` refined until its low end is positive, or None when its root
    is not positive."""
    if enc.low <= 0 and poly_eval(list(enc.polynomial), Fraction(0)) == 0:
        return None  # zero is the root: no refinement can separate it
    while enc.low <= 0 < enc.high:
        enc = refine_root(enc, enc.width / 4)
    return enc if enc.low > 0 else None


def min_eigenvalue(a: Matrix, tol: Fraction = DEFAULT_TOL) -> RootEnclosure:
    """Enclosure of the smallest (real) eigenvalue, refined to width <= tol."""
    return refine_root(_smallest_eigenvalue(a), tol)


def min_singular_value(a: Matrix, tol: Fraction = DEFAULT_TOL) -> RootEnclosure:
    """Enclosure of the smallest eigenvalue of A^T A (i.e. sigma_min^2),
    refined to width <= tol and separated from zero."""
    smallest = _separated_from_zero(
        min_eigenvalue(mat_mul(transpose(a), a), tol))
    if smallest is None:
        raise SpectralAssumptionError(
            "smallest singular value cannot be separated from zero; "
            "the matrix may be singular"
        )
    return smallest


def spectral_report(a: Matrix, tol: Fraction = DEFAULT_TOL) -> SpectralReport:
    lam = min_eigenvalue(a, tol)
    # min_eigenvalue has certified the whole spectrum real, so it is
    # positive exactly when its smallest eigenvalue is
    positive = _separated_from_zero(lam) is not None
    return SpectralReport(lam, min_singular_value(a, tol), positive)


def _interval_product(x: RootEnclosure, y: RootEnclosure) -> RootEnclosure:
    # valid for intervals with positive endpoints only
    return RootEnclosure(x.low * y.low, x.high * y.high, None)


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


def float_crosscheck(a: Matrix) -> tuple[float, float]:
    """Binary64 (lambda_min, sigma_min) via a standard dense solver.

    Sanity oracle only; the certified enclosures never depend on it.
    """
    import numpy as np

    n = len(a)
    if n > FLOAT_CHECK_MAX_DIM:
        raise DomainError(
            f"dimension {n} exceeds the cross-check guard of {FLOAT_CHECK_MAX_DIM}"
        )
    m = np.array([[float(v) for v in row] for row in a])
    lam = min(np.linalg.eigvals(m).real)
    sig = min(np.linalg.svd(m, compute_uv=False))
    return float(lam), float(sig)


def sqrt_enclosure(low: Fraction, high: Fraction) -> tuple[Fraction, Fraction]:
    """Outward-rounded rational enclosure of [sqrt(low), sqrt(high)].

    Rounds to max(40, floor(-log10(high))) decimal places, so the bound
    on sqrt(high) keeps at least 19 significant digits however small high
    is.
    """
    import math

    if low < 0:
        raise DomainError("cannot take the square root of a negative bound")
    digits = 40
    if high > 0:
        digits = max(digits, len(str(high.denominator // high.numerator)) - 1)
    scale = 10**digits
    lo_n = math.isqrt(low.numerator * scale * scale // low.denominator)
    hi_scaled = high.numerator * scale * scale
    hi_n = math.isqrt(hi_scaled // high.denominator)
    if hi_n * hi_n * high.denominator < hi_scaled:
        hi_n += 1
    return Fraction(lo_n, scale), Fraction(hi_n, scale)


__all__ = [
    "CHAR_POLY_MAX_DIM",
    "DEFAULT_TOL",
    "RootEnclosure",
    "SpectralReport",
    "char_poly",
    "count_roots",
    "float_crosscheck",
    "isolate_real_roots",
    "kron_min_spectral",
    "min_eigenvalue",
    "min_singular_value",
    "poly_eval",
    "refine_report",
    "refine_root",
    "spectral_report",
    "sqrt_enclosure",
    "sturm_chain",
]
