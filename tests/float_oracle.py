"""Binary64 oracle for the certified enclosures (test-only; a test that
calls it is skipped where numpy is missing)."""

import pytest


def float_crosscheck(a) -> tuple[float, float]:
    """Binary64 (lambda_min, sigma_min) of a rational matrix via numpy's
    dense eigenvalue and singular value solvers."""
    np = pytest.importorskip("numpy")
    m = np.array([[float(v) for v in row] for row in a])
    lam = min(np.linalg.eigvals(m).real)
    sig = min(np.linalg.svd(m, compute_uv=False))
    return float(lam), float(sig)
