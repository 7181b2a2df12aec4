import json
from fractions import Fraction as F

import pytest
from exact_oracle import abs_matrix, dominates

from tpbases import experiments
from tpbases.bases import BasisFamily, BasisSpec, eval_basis_row, standard_nodes
from tpbases.errors import DomainError, SpectralAssumptionError
from tpbases.experiments import (
    TOL_ROUNDS,
    ExperimentConfig,
    GOLDEN_TABLE1,
    GOLDEN_TABLE2,
    TableRow,
    _conditioning_verdict,
    _dominance_verdict,
    _kron_report_rendered,
    _spectral_verdict,
    check_goldens,
    render_report,
    run_table_1_2,
    run_table_3_4,
    verify_orderings,
)
from tpbases.linalg import collocation_matrix, cond_inf, inverse, kronecker
from tpbases.render import sci_notation
from tpbases.spectral import DEFAULT_TOL, spectral_report


@pytest.fixture(scope="module")
def plain_run():
    return run_table_1_2(ExperimentConfig())


@pytest.fixture(scope="module")
def rational_run():
    return run_table_3_4(ExperimentConfig())


def test_sci_notation():
    assert sci_notation(F(7), 3) == "7.00e+00"
    assert sci_notation(F(1, 3), 3) == "3.33e-01"
    assert sci_notation(F(25, 10000), 2) == "2.5e-03"
    assert sci_notation(F(-1500), 2) == "-1.5e+03"
    assert sci_notation(F(0), 3) == "0.00e+00"
    # round-half-even at the boundary digit
    assert sci_notation(F(1250), 2) == "1.2e+03"
    assert sci_notation(F(1350), 2) == "1.4e+03"
    # one digit has no point; rounding may carry into a new exponent
    assert sci_notation(F(96, 10), 1) == "1e+01"
    assert sci_notation(F(-5, 2), 1) == "-2e+00"
    assert sci_notation(F(0), 1) == "0e+00"
    assert sci_notation(F(9996, 1000), 3) == "1.00e+01"
    # three-digit exponents
    assert sci_notation(F(10) ** 300, 2) == "1.0e+300"
    assert sci_notation(F(1, 10**300), 4) == "1.000e-300"
    with pytest.raises(DomainError, match="at least one significant digit"):
        sci_notation(F(7), 0)


def test_plain_tables_match_goldens(plain_run):
    assert check_goldens(plain_run) == []
    assert experiments._dp_variant(plain_run) == "literal"


def test_dp_takes_the_printed_formula_at_odd_published_degrees():
    assert [n for n in range(1, 12) if experiments._dp_literal(n)] == [3, 5]
    assert experiments._dp_variant(run_table_1_2(
        ExperimentConfig(degrees=(4,)), which=(2,))) == "unity-corrected"


def test_table_1_alone_computes_no_condition_number(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return cond_inf(x)

    monkeypatch.setattr(experiments, "cond_inf", counted)
    rows = run_table_1_2(ExperimentConfig(degrees=(3,)), which=(1,))
    assert calls == [] and experiments._dp_variant(rows) == "literal"
    assert check_goldens(rows) == []
    run_table_1_2(ExperimentConfig(degrees=(3,)), which=(2,))
    assert len(calls) == 3  # one per plain basis


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_reports_end_with_one_newline(fmt, plain_run, rational_run):
    config = ExperimentConfig()
    rational_rows, weights = rational_run
    for report in (render_report([], [], fmt, config),
                   render_report(plain_run + rational_rows, [], fmt, config,
                                 weights=weights)):
        assert report.endswith("\n") and not report.endswith("\n\n")


def test_table2_md_row(plain_run):
    config = ExperimentConfig()
    report = render_report([r for r in plain_run if r.table == 2], [], "md",
                           config)
    assert "| 3 | 5.1883e+02 | 1.7361e+03 | 7.1797e+03 |" in report
    assert "dp_variant: literal" in report


def test_md_columns_are_the_family_labels_of_the_rows():
    rows = [TableRow(3, 4, label, metric, "1.00e+00")
            for label in ("M_T", "B3_T")
            for metric in ("lambda_min", "sigma_min")]
    report = render_report(rows, [], "md", ExperimentConfig()).splitlines()
    assert report[6:9] == [
        "| n | M_T λmin | M_T σmin | B3_T λmin | B3_T σmin |",
        "|---|---|---|---|---|",
        "| 4 | 1.00e+00 | 1.00e+00 | 1.00e+00 | 1.00e+00 |"]


def test_json_schema(plain_run):
    config = ExperimentConfig()
    doc = json.loads(render_report(plain_run, [], "json", config))
    assert doc["dp_variant"] == "literal"
    assert doc["config"]["seed"] == config.seed
    kappa = next(r for r in doc["rows"]
                 if r["metric"] == "kappa_inf" and r["degree"] == 3
                 and r["family"] == "M")
    assert kappa["decimal"] == "5.1883e+02"
    assert set(kappa["exact"]) == {"num", "den"}
    lam = next(r for r in doc["rows"]
               if r["metric"] == "lambda_min" and r["degree"] == 3
               and r["family"] == "M")
    assert set(lam["enclosure"]) == {"low", "high"}


def test_csv_round_trip(rational_run):
    rows, weights = rational_run
    config = ExperimentConfig()
    text = render_report(rows, [], "csv", config, weights=weights)
    records = [line.split(",") for line in text.strip().split("\n")]
    rebuilt = "\n".join(",".join(rec) for rec in records) + "\n"
    assert rebuilt == text


def test_rational_orderings(rational_run):
    rows, _ = rational_run
    for n in (3, 4, 5):
        kappas = {r.family_label: r.exact for r in rows
                  if r.table == 4 and r.degree == n}
        assert kappas["M_T"] <= kappas["B1_T"]
        assert kappas["M_T"] <= kappas["B2_T"]
        assert kappas["M_T"] <= kappas["B3_T"]
        for metric in ("lambda_min", "sigma_min"):
            encs = {r.family_label: r.enclosure for r in rows
                    if r.table == 3 and r.degree == n and r.metric == metric}
            for other in ("B1_T", "B3_T"):
                assert encs[other].high < encs["M_T"].low


def test_rational_report_determinism():
    config = ExperimentConfig()
    first = run_table_3_4(config)
    second = run_table_3_4(config)
    text1 = render_report(first[0], [], "json", config, weights=first[1])
    text2 = render_report(second[0], [], "json", config, weights=second[1])
    assert text1 == text2


def test_goldens_cover_full_grid():
    assert len(GOLDEN_TABLE1) == 9  # 18 values
    assert len(GOLDEN_TABLE2) == 9


def test_verify_reflexive_case():
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 3), standard_nodes(3))
    holds, witness = _dominance_verdict(inverse(m), inverse(m))
    assert holds is True and witness is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_all_parts_hold(n):
    # at n <= 2 Said-Ball and DP equal Bernstein, so their equal spectral
    # reports decide the spectral ordering without refining
    verdicts, exhausted = verify_orderings(ExperimentConfig(degrees=(n,)))
    assert exhausted == []
    assert len(verdicts) == 15  # 5 pairs x 3 parts
    assert all(v.holds is True for v in verdicts)


def test_verify_compares_normalized_bases_only(monkeypatch):
    # the printed DP formula of odd degrees is not normalized (at n = 3 its
    # functions sum to 1 + x(1 - x)); verify keeps the corrected one there
    seen = []

    def recorded(x):
        seen.append(x)
        return cond_inf(x)

    monkeypatch.setattr(experiments, "cond_inf", recorded)
    verdicts, exhausted = verify_orderings(ExperimentConfig(degrees=(3, 5)),
                                           parts=("iii",))
    assert exhausted == [] and all(v.holds is True for v in verdicts)
    assert len(seen) == 14  # per degree 3 plain and 4 rational matrices
    assert all(sum(row) == 1 for x in seen for row in x)


def test_coarse_reports_are_tightened_in_place(monkeypatch):
    # at tolerance 1/10 nothing renders or orders: both results need the
    # later rounds of the tolerance schedule
    coarse = F(1, 10)
    nodes = standard_nodes(3)
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 3), nodes)
    a = collocation_matrix(BasisSpec(BasisFamily.SAID_BALL, 3), nodes)
    _, lam, sig = _kron_report_rendered(m, coarse, 3)
    assert (lam, sig) == GOLDEN_TABLE1[(3, "M")]
    holds, _ = _spectral_verdict(spectral_report(a, coarse),
                                 spectral_report(m, coarse), coarse)
    assert holds is True
    # a rounding that stays ambiguous gives up after the last round
    calls = []
    monkeypatch.setattr(experiments, "render_enclosure",
                        lambda *args, **kwargs: calls.append(args[0]))
    with pytest.raises(SpectralAssumptionError, match="would not refine"):
        _kron_report_rendered(m, coarse, 3)
    assert len(calls) == 2 * TOL_ROUNDS


def test_spectral_verdict_can_be_false_or_indeterminate():
    nodes = standard_nodes(3)
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 3), nodes)
    b1 = collocation_matrix(BasisSpec(BasisFamily.SAID_BALL, 3), nodes)
    # Said-Ball as the reference: Bernstein's spectra are the larger
    holds, witness = _spectral_verdict(spectral_report(m, DEFAULT_TOL),
                                       spectral_report(b1, DEFAULT_TOL),
                                       DEFAULT_TOL)
    assert holds is False
    lam_a, lam_m, sig_a, sig_m = witness
    assert lam_m.high < lam_a.low and sig_m.high < sig_a.low
    # two reports of one matrix enclose the same roots, so no tolerance
    # separates them; unequal tolerances skip the equality shortcut
    coarse = spectral_report(m, F(1, 10))
    fine = spectral_report(m, DEFAULT_TOL)
    assert coarse != fine
    holds, witness = _spectral_verdict(coarse, fine, DEFAULT_TOL)
    assert holds is None and witness is None


def _scrambled_bernstein():
    # a negative weight leaves the totally positive class
    n = 3
    nodes = standard_nodes(n)
    bern = BasisSpec(BasisFamily.BERNSTEIN, n)
    bad_weights = (F(1), F(-2), F(3), F(1))
    scrambled = []
    for t in nodes:
        row = eval_basis_row(bern, t)
        weighted = [w * v for w, v in zip(bad_weights, row)]
        total = sum(weighted)
        scrambled.append([v / total for v in weighted])
    return scrambled


def test_scrambled_basis_fails_dominance():
    scrambled = _scrambled_bernstein()
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 3),
                           standard_nodes(3))
    holds, witness = _dominance_verdict(inverse(scrambled), inverse(m))
    assert holds is False
    i, j, bound, value = witness
    assert abs(value) > bound
    # the witness is an entry of the factor inverses
    assert bound == abs(inverse(scrambled)[i][j])
    assert value == inverse(m)[i][j]


def _dominance_cases():
    for n in range(1, 6):
        nodes = standard_nodes(n)
        weights = tuple(F(i + 2, 3) for i in range(n + 1))
        for wv in (None, weights):
            m = collocation_matrix(
                BasisSpec(BasisFamily.BERNSTEIN, n, weights=wv), nodes)
            for family in BasisFamily:
                a = collocation_matrix(BasisSpec(family, n, weights=wv), nodes)
                yield n, a, m
    m = collocation_matrix(BasisSpec(BasisFamily.BERNSTEIN, 3),
                           standard_nodes(3))
    yield 3, _scrambled_bernstein(), m


def test_factor_dominance_matches_kronecker_dominance():
    outcomes = set()
    for n, a, m in _dominance_cases():
        inv_a, inv_m = inverse(a), inverse(m)
        oracle = dominates(kronecker(abs_matrix(inv_a), abs_matrix(inv_a)),
                           kronecker(inv_m, inv_m))
        holds, _ = _dominance_verdict(inv_a, inv_m)
        assert holds is oracle
        outcomes.add(oracle)
    assert outcomes == {True, False}  # both directions are exercised


def test_factor_conditioning_matches_kronecker_conditioning():
    # the Kronecker squares are at most 16 x 16 for n <= 3
    outcomes = set()
    for n, a, m in _dominance_cases():
        if n > 3:
            continue
        kappa = {id(x): cond_inf(kronecker(x, x)) for x in (a, m)}
        for x, y in ((a, m), (m, a)):
            oracle = kappa[id(y)] <= kappa[id(x)]
            holds, witness = _conditioning_verdict(cond_inf(x), cond_inf(y))
            assert holds is oracle
            assert witness == (None if oracle else
                               (kappa[id(y)], kappa[id(x)]))
            outcomes.add(oracle)
    assert outcomes == {True, False}  # both directions are exercised


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(degrees=())
    with pytest.raises(ValueError, match="degree 3 is given more than once"):
        ExperimentConfig(degrees=(3, 4, 3))
    with pytest.raises(ValueError):
        render_report([], [], "xml", ExperimentConfig())
