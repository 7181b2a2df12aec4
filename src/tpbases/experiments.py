"""Experiment grid: published-table reproduction and ordering verification.

Reproduces the two published golden tables (minimal eigenvalue/singular
value, and infinity condition number, of Kronecker-squared collocation
matrices for degrees 3..5) and checks the three optimality properties of
the Bernstein basis against the Said-Ball, DP and rational bases, with
exact comparisons for dominance/conditioning and certified enclosure
comparisons for the spectral ordering.  ``BASES`` lists the compared
bases, ``_bases`` builds each degree's matrices of them, κ∞ comes from
``cond_inf``, and a report reads its md columns and DP label off its rows.
The rational bases take their weights from ``_weights``: the stream and,
where it runs dry, the exact cone solver; only it and ``check_inputs``
import ``rng`` and ``cone``, so the plain tables load neither
(annotations naming their types are never evaluated).
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction

from .bases import BasisFamily, BasisSpec, standard_nodes
from .errors import (
    DEFAULT_SEARCH_MAX_ITER,
    SearchExhaustedError,
    SpectralAssumptionError,
)
from .linalg import Matrix, collocation_matrix, cond_inf, inverse
from .render import fraction_str, render_enclosure, sci_notation
from .spectral import (
    DEFAULT_TOL,
    RootEnclosure,
    SpectralReport,
    check_char_poly_dim,
    kron_min_spectral,
    refine_report,
    spectral_report,
)

DEFAULT_SEED = 137
DEFAULT_DP_VARIANT = "unity-corrected"
# fixed settings, listed in the JSON report's config block: the integer
# Bernstein weight range and the first enclosure tolerance
WEIGHT_LO, WEIGHT_HI = 1, 1000
# a report that renders ambiguously or leaves an ordering uncertified is
# refined in place: TOL_ROUNDS tolerances, each TOL_STEP times the last
TOL_ROUNDS = 4
TOL_STEP = Fraction(1, 10**10)

# significant digits per table, as published: 3 for the spectral tables,
# 5 for the condition-number tables
SIG_DIGITS = {1: 3, 2: 5, 3: 3, 4: 5}
# published values, keyed by (degree, family label)
GOLDEN_TABLE1 = {
    (3, "M"): ("2.30e-03", "2.19e-03"),
    (3, "B1"): ("8.28e-04", "8.28e-04"),
    (3, "B2"): ("3.23e-04", "3.20e-04"),
    (4, "M"): ("3.43e-04", "3.23e-04"),
    (4, "B1"): ("2.17e-04", "1.97e-04"),
    (4, "B2"): ("1.92e-05", "1.11e-05"),
    (5, "M"): ("5.10e-05", "4.78e-05"),
    (5, "B1"): ("1.04e-05", "1.03e-05"),
    (5, "B2"): ("3.54e-07", "2.77e-07"),
}
GOLDEN_TABLE2 = {
    (3, "M"): "5.1883e+02",
    (3, "B1"): "1.7361e+03",
    (3, "B2"): "7.1797e+03",
    (4, "M"): "3.9690e+03",
    (4, "B1"): "6.5610e+03",
    (4, "B2"): "1.6080e+05",
    (5, "M"): "2.5264e+04",
    (5, "B1"): "1.3949e+05",
    (5, "B2"): "6.0028e+06",
}

# table label, family and WeightConversionResult field of each compared
# basis, in table order, the reference (Bernstein) first.  The plain grid
# takes three: the plain monomial basis is not normalized.
BASES = (("M", BasisFamily.BERNSTEIN, "bernstein"),
         ("B1", BasisFamily.SAID_BALL, "saidball"),
         ("B2", BasisFamily.DP, "dp"),
         ("B3", BasisFamily.MONOMIAL, "monomial"))

# md layout: table -> (quantity, (metric, column suffix) pairs, basis
# group); the columns are the family labels of the table's rows
_SPECTRAL = ("minimal eigenvalue and singular value",
             (("lambda_min", " λmin"), ("sigma_min", " σmin")))
_KAPPA = ("infinity condition number", (("kappa_inf", ""),))
MD_TABLES = {1: (*_SPECTRAL, "Kronecker squares"),
             2: (*_KAPPA, "Kronecker squares"),
             3: (*_SPECTRAL, "rational bases"),
             4: (*_KAPPA, "rational bases")}


class ExperimentConfig(namedtuple("ExperimentConfig",
                                  "degrees seed max_iter full")):
    """The grid one command runs: its degrees, seed and weight-search
    budget; ``full`` also emits the B2_T spectral columns."""

    __slots__ = ()

    def __new__(cls, degrees: tuple[int, ...] = (3, 4, 5),
                seed: int = DEFAULT_SEED,
                max_iter: int = DEFAULT_SEARCH_MAX_ITER, full: bool = False):
        if not degrees or any(n < 1 for n in degrees):
            raise ValueError("degrees must be a nonempty list of integers >= 1")
        for i, n in enumerate(degrees):
            if n in degrees[:i]:
                raise ValueError(f"degree {n} is given more than once")
        return super().__new__(cls, degrees, seed, max_iter, full)


class TableRow(namedtuple(
        "TableRow", "table degree family_label metric decimal exact enclosure",
        defaults=(None, None))):
    """One rendered table cell; ``metric`` is kappa_inf, lambda_min or
    sigma_min, with the exact value (kappa_inf) or the enclosure behind
    ``decimal``."""

    __slots__ = ()


class OrderingVerdict(namedtuple(
        "OrderingVerdict", "part degree pair variant holds witness",
        defaults=(None,))):
    """One ordering check: ``part`` is dominance, spectral_ordering or
    conditioning_ordering, ``variant`` plain or rational, and ``holds``
    None when the ordering could not be certified."""

    __slots__ = ()


_HOLDS_TEXT = {True: "true", False: "false", None: "indeterminate"}


def check_inputs(config: ExperimentConfig, which=(), parts=()) -> None:
    """Raise ``DomainError`` on a grid that tables ``which`` or verify
    ``parts`` would reject later: the weight search's range and budget
    when tables 3/4 or any part are asked for, and the exact char-poly
    guard of every degree when spectra are (tables 1/3, part ii)."""
    if parts or not {3, 4}.isdisjoint(which):
        from .rng import check_search_bounds

        check_search_bounds(WEIGHT_LO, WEIGHT_HI, config.max_iter)
    if "ii" in parts or not {1, 3}.isdisjoint(which):
        for n in config.degrees:
            check_char_poly_dim(n + 1)


def _golden(table: int, n: int, label: str, metric: str) -> str | None:
    """The published decimal of a cell, None where the paper prints none."""
    if table == 1 and (n, label) in GOLDEN_TABLE1:
        return GOLDEN_TABLE1[n, label][metric != "lambda_min"]
    if table == 2:
        return GOLDEN_TABLE2.get((n, label))
    return None


def _bases(n: int, conv: WeightConversionResult | None = None,
           literal: bool = False) -> list[tuple[str, BasisFamily, Matrix]]:
    """Degree n's compared bases as (label, family, collocation matrix),
    the Bernstein reference first: without ``conv`` the three plain bases,
    DP taking the literal printed formula only when ``literal``; with
    ``conv`` the four rational bases on its weights, labelled ``_T``."""
    picked, suffix = (BASES[:3], "") if conv is None else (BASES, "_T")
    return [(label + suffix, family, collocation_matrix(BasisSpec(
        family, n, weights=None if conv is None else getattr(conv, field),
        dp_literal_middle=literal and family is BasisFamily.DP),
        standard_nodes(n))) for label, family, field in picked]


def _tightened(rep: SpectralReport, tol: Fraction):
    """The Kronecker square of the factor report ``rep``, refined in place
    to each tolerance of the schedule."""
    for k in range(TOL_ROUNDS):
        rep = refine_report(rep, tol * TOL_STEP**k)
        yield kron_min_spectral(rep, rep)


def _kron_report_rendered(
    x: Matrix, tol: Fraction, sig_digits: int
) -> tuple[SpectralReport, str, str]:
    """Kronecker-square spectral report plus unambiguous decimal strings,
    tightening the tolerance when rounding would be ambiguous."""
    for krep in _tightened(spectral_report(x, tol), tol):
        lam = render_enclosure(krep.lambda_min, sig_digits)
        sig = render_enclosure(krep.sigma_min_sq, sig_digits, sqrt=True)
        if lam is not None and sig is not None:
            return krep, lam, sig
    raise SpectralAssumptionError("enclosures would not refine to an "
                                  "unambiguous rounding")


def _spectral_rows(table: int, n: int, label: str, x: Matrix
                   ) -> list[TableRow]:
    krep, lam, sig = _kron_report_rendered(x, DEFAULT_TOL, SIG_DIGITS[table])
    return [
        TableRow(table, n, label, "lambda_min", lam,
                 enclosure=krep.lambda_min),
        TableRow(table, n, label, "sigma_min", sig,
                 enclosure=krep.sigma_min_sq),
    ]


def _kappa_row(table: int, n: int, label: str, x: Matrix) -> TableRow:
    kappa = cond_inf(x) ** 2  # norm and inverse both factor over (x)
    return TableRow(table, n, label, "kappa_inf",
                    sci_notation(kappa, SIG_DIGITS[table]), exact=kappa)


def _dp_literal(n: int) -> bool:
    """Whether degree n's DP columns take the literal printed formula: the
    paper's published DP values come from that formula, which differs
    from the unity-corrected one only at odd degrees."""
    return n % 2 == 1 and (n, "B2") in GOLDEN_TABLE2


def _dp_variant(rows: list[TableRow]) -> str:
    """The report's DP label: "literal" when some table-1/2 row's degree
    took the printed formula, the partition-of-unity corrected one
    otherwise."""
    literal = any(r.table in (1, 2) and _dp_literal(r.degree) for r in rows)
    return "literal" if literal else DEFAULT_DP_VARIANT


def run_table_1_2(config: ExperimentConfig, which=(1, 2)) -> list[TableRow]:
    """Rows of the plain-basis tables in ``which`` (1, 2 or both).

    The DP columns of a degree take the literal printed formula where
    ``_dp_literal`` says so, and the partition-of-unity corrected one
    elsewhere.
    """
    rows: list[TableRow] = []
    for n in config.degrees:
        for label, _, x in _bases(n, literal=_dp_literal(n)):
            if 1 in which:
                rows.extend(_spectral_rows(1, n, label, x))
            if 2 in which:
                rows.append(_kappa_row(2, n, label, x))
    return rows


def _weights(config: ExperimentConfig):
    """(n, weights) for each degree of the grid, in order.  One generator
    seeded from the config is consumed sequentially across the degrees, so
    the whole grid is reproducible from the seed alone; once the stream has
    spent ``config.max_iter`` weight vectors for a degree, the exact cone
    solver supplies its weights, announced on stderr, and where neither
    finds any the degree's entry is (n, ``SearchExhaustedError``)."""
    from .cone import NoIntegerPoint, cone_weights
    from .rng import SplitMix64, search_positive_weights

    rng = SplitMix64(config.seed)
    for n in config.degrees:
        try:
            found = search_positive_weights(n, WEIGHT_LO, WEIGHT_HI,
                                            max_iter=config.max_iter, rng=rng)
        except SearchExhaustedError:
            found = cone_weights(n, WEIGHT_LO, WEIGHT_HI)
            if isinstance(found, NoIntegerPoint):
                found = SearchExhaustedError(config.max_iter, config.seed,
                                             found)
            else:
                print(f"degree {n}: weights from the exact cone solver; the "
                      f"stream spent its {config.max_iter} weight vectors "
                      f"(seed={config.seed})", file=sys.stderr)
        yield n, found


def run_table_3_4(
    config: ExperimentConfig, which=(3, 4)
) -> tuple[list[TableRow], dict[int, WeightConversionResult]]:
    """Rows of the rational-basis tables in ``which`` (3, 4 or both) plus
    the weights behind them, drawn by ``_weights``.  A degree without
    weights raises ``SearchExhaustedError``.
    """
    rows: list[TableRow] = []
    weights: dict[int, WeightConversionResult] = {}
    for n, conv in _weights(config):
        if isinstance(conv, SearchExhaustedError):
            raise conv
        weights[n] = conv
        for label, _, x in _bases(n, conv):
            if 4 in which:
                rows.append(_kappa_row(4, n, label, x))
            if 3 in which and (config.full or label != "B2_T"):
                rows.extend(_spectral_rows(3, n, label, x))
    return rows, weights


def _dominance_verdict(inv_a: Matrix, inv_m: Matrix):
    """|(M (x) M)^-1| <= |(A (x) A)^-1| entrywise, decided on the factor
    inverses: the Kronecker entries are products m_ij m_kl and a_ij a_kl,
    so factor dominance gives it by multiplying bounds, and the diagonal
    index pairs (k, l) = (i, j), m_ij^2 <= a_ij^2, give the converse."""
    for i, (arow, mrow) in enumerate(zip(inv_a, inv_m)):
        for j, (av, mv) in enumerate(zip(arow, mrow)):
            if abs(mv) > abs(av):
                return False, (i, j, abs(av), mv)
    return True, None


def _interval_le(x: RootEnclosure, y: RootEnclosure) -> bool | None:
    """Certified x <= y, None when the enclosures overlap."""
    if x.high <= y.low:
        return True
    if y.high < x.low:
        return False
    return None


def _spectral_verdict(fac_a: SpectralReport, fac_m: SpectralReport,
                      tol: Fraction = DEFAULT_TOL):
    """Spectral ordering of the Kronecker squares of factor reports refined
    to ``tol``, witnessed by the square enclosures; equal reports enclose
    the same root of the same polynomial, so their values are equal."""
    if fac_a == fac_m:
        return True, None
    for rep_a, rep_m in zip(_tightened(fac_a, tol), _tightened(fac_m, tol)):
        lam_ok = _interval_le(rep_a.lambda_min, rep_m.lambda_min)
        sig_ok = _interval_le(rep_a.sigma_min_sq, rep_m.sigma_min_sq)
        if lam_ok is False or sig_ok is False:
            return False, (rep_a.lambda_min, rep_m.lambda_min,
                           rep_a.sigma_min_sq, rep_m.sigma_min_sq)
        if lam_ok and sig_ok:
            return True, None
    return None, None


def _conditioning_verdict(kappa_a: Fraction, kappa_m: Fraction):
    """kappa_inf ordering of the Kronecker squares from the factors'."""
    kappa_a, kappa_m = kappa_a ** 2, kappa_m ** 2  # as _kappa_row
    if kappa_m <= kappa_a:
        return True, None
    return False, (kappa_m, kappa_a)


def _pair_verdicts(n: int, variant: str,
                   bases: list[tuple[str, BasisFamily, Matrix]],
                   parts: tuple[str, ...]) -> list[OrderingVerdict]:
    """Verdicts of ``parts`` for each basis of the ``_bases`` list
    ``bases`` against its first, the Bernstein reference, pair by pair,
    parts in the order i, ii, iii.  Each part is a row (record name, fact,
    predicate): the fact is read off each matrix, the reference's once,
    and the predicate gives (holds, witness) from the two: dominance (i)
    reads the inverse, the spectral ordering (ii) the spectral report, and
    conditioning (iii) kappa_inf from ``cond_inf``, which forms no
    inverse."""
    # built per call, so that it holds the functions' current bindings
    table = {"i": ("dominance", inverse, _dominance_verdict),
             "ii": ("spectral_ordering", spectral_report, _spectral_verdict),
             "iii": ("conditioning_ordering", cond_inf,
                     _conditioning_verdict)}
    p = "rational " if variant == "rational" else ""
    (_, _, m), *others = bases
    steps = [(name, fact, verdict, fact(m))
             for part, (name, fact, verdict) in table.items() if part in parts]
    return [OrderingVerdict(name, n, f"{p}{family.value} vs {p}bernstein",
                            variant, *verdict(fact(a), ref))
            for _, family, a in others for name, fact, verdict, ref in steps]


def verify_orderings(
    config: ExperimentConfig, parts: tuple[str, ...] = ("i", "ii", "iii")
) -> tuple[list[OrderingVerdict], list[SearchExhaustedError]]:
    """Check dominance (i), spectral ordering (ii) and conditioning (iii)
    for every comparison basis against the (rational) Bernstein basis.

    Returns the verdicts and, one per degree that found no weights, the
    search's error; such a degree has its plain verdicts only.
    """
    verdicts: list[OrderingVerdict] = []
    exhausted: list[SearchExhaustedError] = []
    for n, conv in _weights(config):
        verdicts += _pair_verdicts(n, "plain", _bases(n), parts)
        if isinstance(conv, SearchExhaustedError):
            exhausted.append(conv)
        else:
            verdicts += _pair_verdicts(n, "rational", _bases(n, conv), parts)
    return verdicts, exhausted


def check_goldens(rows: list[TableRow]) -> list[tuple[TableRow, str]]:
    """Rendered-vs-published mismatches; empty when all values agree."""
    mismatches = []
    for row in rows:
        expected = _golden(row.table, row.degree, row.family_label, row.metric)
        if expected is not None and row.decimal != expected:
            mismatches.append((row, expected))
    return mismatches


# --- report rendering ---


def _md_table(header: list[str], lines: list[list[str]]) -> list[str]:
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join("---" for _ in header) + "|"]
    out.extend("| " + " | ".join(line) + " |" for line in lines)
    return out


def _weight_strings(conv: WeightConversionResult) -> dict[str, list[str]]:
    return {name: [fraction_str(v) for v in vec]
            for name, vec in zip(conv._fields, conv) if name != "all_positive"}


def _render_md(rows, verdicts, weights) -> str:
    lines = ["# Totally positive basis conditioning report",
             "", f"dp_variant: {_dp_variant(rows)}", ""]
    degrees = sorted({r.degree for r in rows})
    values = {(r.table, r.degree, r.family_label, r.metric): r.decimal
              for r in rows}
    for table in sorted({r.table for r in rows}):
        quantity, metrics, group = MD_TABLES[table]
        labels = list(dict.fromkeys(r.family_label for r in rows
                                    if r.table == table))
        lines += [f"## Table {table}: {quantity} ({group})", ""]
        header = ["n"] + [lab + suffix for lab in labels
                          for _, suffix in metrics]
        body = [[str(n)] + [values.get((table, n, lab, metric), "-")
                            for lab in labels for metric, _ in metrics]
                for n in degrees]
        lines += _md_table(header, body) + [""]
    if weights:
        lines += ["## Weights", ""]
        for n in sorted(weights):
            lines.append(f"- n={n}:")
            for name, vec in _weight_strings(weights[n]).items():
                lines.append(f"  - {name}: " + " ".join(vec))
        lines.append("")
    if verdicts:
        lines += ["## Ordering verdicts", ""]
        header = ["part", "degree", "variant", "pair", "holds"]
        body = [[v.part, str(v.degree), v.variant, v.pair, _HOLDS_TEXT[v.holds]]
                for v in verdicts]
        lines += _md_table(header, body) + [""]
    return "\n".join(lines)


def _render_csv(rows, verdicts, weights) -> str:
    lines = ["table,degree,family,metric,value"]
    for row in rows:
        lines.append(f"{row.table},{row.degree},{row.family_label},"
                     f"{row.metric},{row.decimal}")
    for n in sorted(weights or {}):
        for name, vec in _weight_strings(weights[n]).items():
            lines.append(f"weights,{n},{name},weights,{' '.join(vec)}")
    for v in verdicts or []:
        lines.append(f"verdict,{v.degree},{v.variant},"
                     f"{v.part}:{v.pair},{_HOLDS_TEXT[v.holds]}")
    return "\n".join(lines) + "\n"


def _enc_json(enc: RootEnclosure | None):
    if enc is None:
        return None
    return {"low": fraction_str(enc.low), "high": fraction_str(enc.high)}


def _render_json(rows, verdicts, config, weights) -> str:
    import json  # only the JSON report needs it

    doc = {
        "config": {
            "degrees": list(config.degrees),
            "seed": config.seed,
            "weight_lo": WEIGHT_LO,
            "weight_hi": WEIGHT_HI,
            "max_iter": config.max_iter,
            "tol": fraction_str(DEFAULT_TOL),
            "sig_digits_table1": SIG_DIGITS[1],
            "sig_digits_table2": SIG_DIGITS[2],
        },
        "dp_variant": _dp_variant(rows),
        "weights": {
            str(n): _weight_strings(conv)
            for n, conv in sorted((weights or {}).items())
        } or None,
        "rows": [
            {
                "table": r.table,
                "degree": r.degree,
                "family": r.family_label,
                "metric": r.metric,
                "decimal": r.decimal,
                "exact": None if r.exact is None else
                {"num": str(r.exact.numerator), "den": str(r.exact.denominator)},
                "enclosure": _enc_json(r.enclosure),
            }
            for r in rows
        ],
        "verdicts": [
            {
                "part": v.part,
                "degree": v.degree,
                "variant": v.variant,
                "pair": v.pair,
                "holds": v.holds,
            }
            for v in (verdicts or [])
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_report(rows, verdicts, fmt, config: ExperimentConfig,
                  weights=None) -> str:
    if fmt == "md":
        return _render_md(rows, verdicts, weights)
    if fmt == "csv":
        return _render_csv(rows, verdicts, weights)
    if fmt == "json":
        return _render_json(rows, verdicts, config, weights)
    raise ValueError(f"unknown output format {fmt!r}")
