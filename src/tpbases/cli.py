"""Command-line driver.

Exit codes: 0 success, 1 verification or golden-table failure, 2 bad
input, 3 no weights found for some degree, neither by the stream nor by
the exact cone solver (every row, weight and verdict found is printed).

Each command imports what it runs: ``eval`` needs only the basis and
rendering modules, so the experiment grid is imported inside the one
handler of ``tables`` and ``verify``.  The CLI only turns argv into an
``ExperimentConfig``; ``experiments.check_inputs`` decides which checks a
run needs and makes them before any table or verdict is computed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bases import BasisFamily, BasisSpec, eval_basis_row
from .errors import DEFAULT_SEARCH_MAX_ITER, DomainError
from .render import fraction_str, parse_fraction

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_SEARCH_EXHAUSTED = 3

_FAMILY_NAMES = {f.value: f for f in BasisFamily}


def _default_seed(default: int) -> int:
    env = os.environ.get("TPB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"TPB_SEED must be an integer, got {env!r}")
    return default


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpbases",
        description="Exact conditioning experiments for totally positive "
                    "polynomial bases and their Kronecker products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="reproduce the report tables")
    tables.add_argument("--which", default="1,2,3,4",
                        help="comma-separated table numbers (subset of 1,2,3,4)")

    verify = sub.add_parser("verify", help="verify the optimality properties")
    verify.add_argument("--part", choices=("i", "ii", "iii", "all"),
                        default="all")

    for grid in (tables, verify):  # the grid's options, after the selector
        grid.add_argument("--degrees", default="3,4,5")
        grid.add_argument("--seed", type=int, default=None)
        grid.add_argument("--max-iter", type=int,
                          default=DEFAULT_SEARCH_MAX_ITER)
        grid.add_argument("--format", choices=("md", "csv", "json"),
                          default="md")
        grid.add_argument("--out", default=None)
    tables.add_argument("--full", action="store_true",
                        help="also emit the B2_T spectral columns in table 3")

    ev = sub.add_parser("eval", help="evaluate one basis row at a point")
    ev.add_argument("--family", required=True, choices=sorted(_FAMILY_NAMES))
    ev.add_argument("--degree", type=int, required=True)
    ev.add_argument("--x", required=True, help="rational point, e.g. 1/5")
    ev.add_argument("--weights", default=None,
                    help="comma-separated positive rational weights")
    return parser


def _make_config(args):
    from .experiments import DEFAULT_SEED, ExperimentConfig

    degrees = _parse_int_list(args.degrees)
    seed = args.seed if args.seed is not None else _default_seed(DEFAULT_SEED)
    return ExperimentConfig(degrees, seed, args.max_iter,
                            getattr(args, "full", False))


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out_path}: {exc.strerror}") from exc


def _cmd_grid(args) -> int:
    from .experiments import (check_goldens, check_inputs, render_report,
                              run_table_1_2, run_table_3_4, verify_orderings)

    if args.command == "tables":
        which, parts = set(_parse_int_list(args.which)), ()
        if not which.issubset({1, 2, 3, 4}):
            raise DomainError(
                f"--which must be a subset of 1,2,3,4, got {args.which!r}")
    else:
        which = set()
        parts = ("i", "ii", "iii") if args.part == "all" else (args.part,)
    config = _make_config(args)
    check_inputs(config, which=which, parts=parts)
    rows, weights, verdicts, exhausted = [], None, [], []
    if which & {1, 2}:
        rows = run_table_1_2(config, which=which)
    if which & {3, 4}:
        rational_rows, weights, exhausted = run_table_3_4(config, which=which)
        rows.extend(rational_rows)
    if parts:
        verdicts, exhausted = verify_orderings(config, parts=parts)
    _emit(render_report(rows, verdicts, args.format, config, weights=weights),
          args.out)
    mismatches = check_goldens(rows)
    for row, expected in mismatches:
        print(f"golden mismatch: table {row.table} n={row.degree} "
              f"{row.family_label} {row.metric}: got {row.decimal}, "
              f"expected {expected}", file=sys.stderr)
    failures = [v for v in verdicts if v.holds is not True]
    for v in failures:
        state = "indeterminate" if v.holds is None else "FALSE"
        print(f"verdict {state}: {v.part} n={v.degree} {v.pair} "
              f"({v.variant})", file=sys.stderr)
    for exc in exhausted:
        print(f"error: {exc}", file=sys.stderr)
    if exhausted:
        return EXIT_SEARCH_EXHAUSTED
    return EXIT_VERIFICATION_FAILED if mismatches or failures else EXIT_OK


def _cmd_eval(args) -> int:
    weights = None
    if args.weights is not None:
        weights = tuple(parse_fraction(w) for w in args.weights.split(","))
    spec = BasisSpec(_FAMILY_NAMES[args.family], args.degree, weights=weights)
    x = parse_fraction(args.x)
    row = eval_basis_row(spec, x)
    for i, value in enumerate(row):
        print(f"u_{i}({args.x}) = {fraction_str(value)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_grid(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
