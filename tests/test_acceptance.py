"""Acceptance suite: one test per release criterion, each printing a
PASS line when its checks hold (run with ``pytest -s`` to see them)."""

import math
import random
import time
from fractions import Fraction as F

import pytest
from float_oracle import float_crosscheck

from tpbases.bases import (
    BasisFamily,
    BasisSpec,
    eval_basis_row,
    standard_nodes,
)
from tpbases.experiments import (
    ExperimentConfig,
    GOLDEN_TABLE1,
    GOLDEN_TABLE2,
    SIG_DIGITS,
    _dp_variant,
    run_table_1_2,
    run_table_3_4,
    verify_orderings,
)
from tpbases.linalg import (
    collocation_matrix,
    cond_inf,
    det,
    inf_norm,
    inverse,
    is_totally_positive,
    kronecker,
)
from tpbases.render import render_enclosure
from tpbases.spectral import RootEnclosure, kron_min_spectral, spectral_report

# seeds verified to complete every degree-3/4/5 weight search within the
# default iteration budget
ACCEPTANCE_SEEDS = (137, 9, 82, 139, 193)

PLAIN_GRID = [(family, n)
              for family in (BasisFamily.BERNSTEIN, BasisFamily.SAID_BALL,
                             BasisFamily.DP)
              for n in (3, 4, 5)]


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" +
          (f" ({detail})" if detail else ""))
    assert ok, criterion


def test_criterion_1_table1_reproduction():
    start = time.monotonic()
    rows = run_table_1_2(ExperimentConfig())
    values = {(r.degree, r.family_label, r.metric): r.decimal
              for r in rows if r.table == 1}
    ok = True
    for (n, label), (lam, sig) in GOLDEN_TABLE1.items():
        ok &= values[(n, label, "lambda_min")] == lam
        ok &= values[(n, label, "sigma_min")] == sig
    elapsed = time.monotonic() - start
    ok &= elapsed < 60
    report("criterion 1: all 18 table-1 values at 3 significant digits",
           ok, f"dp_variant={_dp_variant(rows)}, {elapsed:.1f}s")


def test_criterion_2_table2_reproduction():
    start = time.monotonic()
    rows = run_table_1_2(ExperimentConfig())
    values = {(r.degree, r.family_label): r.decimal
              for r in rows if r.table == 2}
    ok = all(values[key] == expected
             for key, expected in GOLDEN_TABLE2.items())
    elapsed = time.monotonic() - start
    ok &= elapsed < 30
    report("criterion 2: all 9 table-2 values at 5 significant digits",
           ok, f"{elapsed:.1f}s")


@pytest.mark.parametrize("seed", ACCEPTANCE_SEEDS)
def test_criterion_3_rational_orderings(seed):
    start = time.monotonic()
    rows, _, _ = run_table_3_4(ExperimentConfig(seed=seed))
    ok = True
    for n in (3, 4, 5):
        kappas = {r.family_label: r.exact for r in rows
                  if r.table == 4 and r.degree == n}
        ok &= kappas["M_T"] <= kappas["B1_T"]
        ok &= kappas["M_T"] <= kappas["B2_T"]
        ok &= kappas["M_T"] <= kappas["B3_T"]
        for metric in ("lambda_min", "sigma_min"):
            encs = {r.family_label: r.enclosure for r in rows
                    if r.table == 3 and r.degree == n and r.metric == metric}
            # disjoint enclosures certify the strict ordering
            ok &= encs["B1_T"].high < encs["M_T"].low
            ok &= encs["B3_T"].high < encs["M_T"].low
    elapsed = time.monotonic() - start
    ok &= elapsed < 300
    report(f"criterion 3: rational-grid orderings for seed {seed}",
           ok, f"{elapsed:.1f}s")


def test_criterion_4_dominance():
    verdicts, exhausted = verify_orderings(ExperimentConfig(), parts=("i",))
    assert exhausted == []
    dominance = [v for v in verdicts
                 if "said-ball" in v.pair or "dp" in v.pair]
    ok = len(dominance) == 12 and all(v.holds is True for v in dominance)
    report("criterion 4: exact dominance for 12 basis pairings",
           ok, f"{len(dominance)} checks")


def test_criterion_5_kronecker_identities():
    rng = random.Random(515)

    def rand(n, m):
        return [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
                for _ in range(n)]

    def rand_nonsingular(n):
        while True:
            a = rand(n, n)
            if det(a) != 0:
                return a

    ok = True
    for _ in range(50):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        a, b = rand_nonsingular(n), rand_nonsingular(m)
        k = kronecker(a, b)
        ok &= inverse(k) == kronecker(inverse(a), inverse(b))
        ok &= inf_norm(k) == inf_norm(a) * inf_norm(b)
        ok &= cond_inf(k) == cond_inf(a) * cond_inf(b)
    report("criterion 5: inverse/norm/conditioning Kronecker identities "
           "on 50 random pairs", ok)


def test_criterion_6_basis_suite():
    rng = random.Random(66)
    points = []
    while len(points) < 100:
        den = rng.randint(1, 911)
        points.append(F(rng.randint(0, den), den))
    ok = True
    for family in (BasisFamily.BERNSTEIN, BasisFamily.SAID_BALL,
                   BasisFamily.DP):
        for n in range(1, 9):
            spec = BasisSpec(family, n)
            for x in points:
                row = eval_basis_row(spec, x)
                ok &= sum(row) == 1
                if family is not BasisFamily.BERNSTEIN:
                    flipped = eval_basis_row(spec, 1 - x)
                    ok &= row == flipped[::-1]
    for family in BasisFamily:
        for n in (3, 4, 5):
            plain = collocation_matrix(BasisSpec(family, n), standard_nodes(n))
            ok &= is_totally_positive(plain).is_tp
            weights = tuple(F(i + 2, 3) for i in range(n + 1))
            weighted = collocation_matrix(BasisSpec(family, n, weights=weights),
                                          standard_nodes(n))
            ok &= is_totally_positive(weighted).is_tp
    report("criterion 6: partition of unity, symmetries and total "
           "positivity of the grid", ok)


def test_criterion_7_spectral_soundness():
    pad = F(1, 10**6)
    ok = True
    cases = []
    for family, n in PLAIN_GRID:
        cases.append(collocation_matrix(BasisSpec(family, n),
                                        standard_nodes(n)))
    _, weights, _ = run_table_3_4(ExperimentConfig())
    for n, conv in weights.items():
        for family, wv in ((BasisFamily.BERNSTEIN, conv.bernstein),
                           (BasisFamily.SAID_BALL, conv.saidball),
                           (BasisFamily.DP, conv.dp),
                           (BasisFamily.MONOMIAL, conv.monomial)):
            cases.append(collocation_matrix(BasisSpec(family, n, weights=wv),
                                            standard_nodes(n)))
    for x in cases:
        rep = spectral_report(x)
        lifted = kron_min_spectral(rep, rep)
        lam_f, sig_f = float_crosscheck(kronecker(x, x))
        ok &= lifted.lambda_min.low * (1 - pad) <= F(lam_f) <= \
            lifted.lambda_min.high * (1 + pad)
        # sigma_min(x (x) x) = sigma_min(x)^2, the factor's own enclosure
        ok &= rep.sigma_min_sq.low * (1 - pad) <= F(sig_f) <= \
            rep.sigma_min_sq.high * (1 + pad)
    report("criterion 7: enclosures contain binary64 cross-checks on the "
           "full grid", ok, f"{len(cases)} matrices")


def test_criterion_8_determinism():
    from tpbases.experiments import render_report

    config = ExperimentConfig()

    def run():
        plain_rows = run_table_1_2(config)
        rational_rows, weights, _ = run_table_3_4(config)
        return render_report(plain_rows + rational_rows, [], "json", config,
                             weights=weights)

    ok = run() == run()
    report("criterion 8: byte-identical reports for identical config", ok)


def _exact_root(q: F) -> F:
    # the rational whose square is q, which must be one
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    assert num * num == q.numerator and den * den == q.denominator, q
    return F(num, den)


def test_tables_1_2_render_unambiguously():
    # supporting check: every rendered decimal of tables 1 and 3 (seed 137)
    # is reproducible from the enclosure endpoints alone (no midpoint
    # guessing); a sigma row's enclosure is the square of its factor's
    # sigma_min^2 enclosure, and the decimal renders that factor enclosure
    config = ExperimentConfig()
    rows = run_table_1_2(config) + run_table_3_4(config)[0]
    assert {r.table for r in rows if r.enclosure is not None} == {1, 3}
    for r in rows:
        if r.enclosure is None:
            continue
        enc = r.enclosure
        if r.metric == "sigma_min":
            enc = RootEnclosure(_exact_root(enc.low), _exact_root(enc.high),
                                None)
        assert render_enclosure(enc, SIG_DIGITS[r.table]) == r.decimal
