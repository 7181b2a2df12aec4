"""Search for positive weight systems, build rational (weighted) bases,
and verify the dominance / spectral / conditioning orderings.

The search draws integer weights for a rational Bernstein basis and
keeps draws whose exact change of basis yields positive weights for the
Said-Ball, monomial and corrected-DP representations simultaneously.
"""

from tpbases import search_positive_weights
from tpbases.experiments import ExperimentConfig, verify_orderings

result = search_positive_weights(3, 1, 1000, seed=137)
print(f"degree 3: accepted Bernstein weights {result.bernstein}")
print(f"  Said-Ball weights: {[str(w) for w in result.saidball]}")
print(f"  monomial weights:  {[str(w) for w in result.monomial]}")
print(f"  DP weights:        {[str(w) for w in result.dp]}")

print("\nverifying the three orderings on degree-3 grids (seed 137):")
verdicts, _ = verify_orderings(ExperimentConfig(degrees=(3,)))
for v in verdicts:
    print(f"  {v.part:<22} [{v.variant:>8}] {v.pair:<42} holds={v.holds}")
