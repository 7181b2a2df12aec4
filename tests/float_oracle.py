"""Binary64 oracle for the certified enclosures (test-only; needs numpy)."""

import numpy as np


def float_crosscheck(a) -> tuple[float, float]:
    """Binary64 (lambda_min, sigma_min) of a rational matrix via numpy's
    dense eigenvalue and singular value solvers."""
    m = np.array([[float(v) for v in row] for row in a])
    lam = min(np.linalg.eigvals(m).real)
    sig = min(np.linalg.svd(m, compute_uv=False))
    return float(lam), float(sig)
