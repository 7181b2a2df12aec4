import os
import subprocess
import sys
from pathlib import Path

import pytest

from tpbases.cli import _build_parser, _make_config, main


def test_tables_golden_pass(capsys, tmp_path):
    out = tmp_path / "t1.md"
    assert main(["tables", "--which", "1", "--degrees", "3",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "2.30e-03" in text and "2.19e-03" in text


def test_tables_stdout(capsys):
    assert main(["tables", "--which", "2", "--degrees", "3"]) == 0
    captured = capsys.readouterr()
    assert "| 3 | 5.1883e+02 | 1.7361e+03 | 7.1797e+03 |" in captured.out


def test_tables_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["tables", "--which", "3", "--seed", "9", "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_part_iii(capsys):
    assert main(["verify", "--part", "iii", "--degrees", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("| true |") == 5


def test_eval_row(capsys):
    assert main(["eval", "--family", "bernstein", "--degree", "3",
                 "--x", "1/5"]) == 0
    captured = capsys.readouterr()
    assert "u_1(1/5) = 48/125" in captured.out


def test_eval_weighted(capsys):
    assert main(["eval", "--family", "bernstein", "--degree", "1",
                 "--x", "1/2", "--weights", "1,2"]) == 0
    captured = capsys.readouterr()
    assert "u_0(1/2) = 1/3" in captured.out


def test_bad_usage_exit_code(capsys):
    assert main(["tables", "--which", "7"]) == 2
    assert main(["eval", "--family", "bernstein", "--degree", "3",
                 "--x", "nonsense"]) == 2
    assert main(["nonexistent-command"]) == 2


def test_search_exhaustion_exit_code(capsys):
    # degree 9 is the first without weights in [1, 1000]: the stream runs
    # out and the exact solver proves that none exist
    assert main(["tables", "--which", "3", "--degrees", "9",
                 "--seed", "1", "--max-iter", "10"]) == 3
    captured = capsys.readouterr()
    assert "weight vectors" in captured.err


def test_verify_prints_the_verdicts_found_before_exhaustion(capsys,
                                                            monkeypatch):
    # degree 3 finds its weights; degree 9 finds none after its plain
    # rows, which need no weights
    monkeypatch.delenv("TPB_SEED", raising=False)
    assert main(["verify", "--part", "i", "--degrees", "3,9",
                 "--max-iter", "20000", "--format", "csv"]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "table,degree,family,metric,value"
    assert [line.split(",")[1:3] for line in lines[1:]] == (
        [["3", "plain"]] * 2 + [["3", "rational"]] * 3 + [["9", "plain"]] * 2)
    assert all(line.endswith(",true") for line in lines[1:])
    assert captured.err == (
        "error: degree 9: no all-positive weight system found within 20000 "
        "weight vectors (seed=137); the exact solver proved that no integer "
        "point of [1, 1000]^10 lies in the cone (branch-and-bound nodes: 1)\n")


def test_verify_keeps_going_after_a_degree_without_weights(capsys,
                                                          monkeypatch):
    # every degree runs and every verdict is printed; stderr lists each
    # degree without weights, and the exit code is 3
    monkeypatch.delenv("TPB_SEED", raising=False)
    assert main(["verify", "--part", "iii", "--degrees", "9,3,10",
                 "--max-iter", "10", "--format", "csv"]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()[1:]
    assert [line.split(",")[1:3] for line in lines] == (
        [["9", "plain"]] * 2 + [["3", "plain"]] * 2 + [["3", "rational"]] * 3
        + [["10", "plain"]] * 2)
    errors = captured.err.splitlines()
    assert [line.split(":")[:2] for line in errors if line.startswith("error")] \
        == [["error", " degree 9"], ["error", " degree 10"]]


def _csv_run(capsys, argv):
    """The exit code, stdout lines and stderr lines of a csv report."""
    code = main(argv + ["--format", "csv"])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err.splitlines()


_SOLVER_3 = ("degree 3: weights from the exact cone solver; the stream "
             "spent its 10 weight vectors (seed=137)")
_NO_WEIGHTS_9 = ("error: degree 9: no all-positive weight system found "
                 "within 10 weight vectors (seed=137); the exact solver "
                 "proved that no integer point of [1, 1000]^10 lies in the "
                 "cone (branch-and-bound nodes: 1)")


def test_tables_print_every_row_found_before_a_degree_without_weights(
        capsys, monkeypatch):
    # degree 9 has no weights: its plain rows, and degree 3's rational rows
    # and weights, are printed as the runs that leave degree 9's rational
    # tables out print them
    monkeypatch.delenv("TPB_SEED", raising=False)
    code, out, err = _csv_run(capsys, ["tables", "--which", "1,2,3,4",
                                       "--degrees", "3,9", "--max-iter", "10"])
    plain = _csv_run(capsys, ["tables", "--which", "1,2", "--degrees", "3,9"])
    rational = _csv_run(capsys, ["tables", "--which", "3,4", "--degrees", "3",
                                 "--max-iter", "10"])
    assert (plain[0], rational[0], code) == (0, 0, 3)
    assert out == plain[1] + rational[1][1:]
    assert rational[2] == [_SOLVER_3]
    assert err == [_SOLVER_3, _NO_WEIGHTS_9]


def test_a_degree_without_weights_decides_the_exit_code(capsys, monkeypatch):
    # one rule for both commands: 3 for a degree without weights, even when
    # a golden value or a verdict fails too; that line is printed last
    import tpbases.experiments as experiments
    from tpbases.errors import SearchExhaustedError
    from tpbases.experiments import OrderingVerdict

    monkeypatch.delenv("TPB_SEED", raising=False)
    monkeypatch.setitem(experiments.GOLDEN_TABLE2, (3, "M"), "1.0000e+00")
    code, _, err = _csv_run(capsys, ["tables", "--which", "2,4", "--degrees",
                                     "3,9", "--max-iter", "10"])
    assert code == 3
    assert err == [_SOLVER_3,
                   "golden mismatch: table 2 n=3 M kappa_inf: got "
                   "5.1883e+02, expected 1.0000e+00",
                   _NO_WEIGHTS_9]

    def verdicts(config, parts):
        return [OrderingVerdict("dominance", 3, "dp vs bernstein", "plain",
                                False)], [SearchExhaustedError(10, 137)]

    monkeypatch.setattr(experiments, "verify_orderings", verdicts)
    code, out, err = _csv_run(capsys, ["verify", "--part", "i",
                                       "--degrees", "3"])
    assert code == 3
    assert out[1:] == ["verdict,3,plain,dominance:dp vs bernstein,false"]
    assert err == ["verdict FALSE: dominance n=3 dp vs bernstein (plain)",
                   "error: no all-positive weight system found within 10 "
                   "weight vectors (seed=137)"]


def test_solver_weights_are_announced_on_stderr(capsys):
    # the stream spends its 1000 vectors at degree 6; the exact solver
    # supplies certified weights and the job succeeds
    assert main(["tables", "--which", "4", "--degrees", "6", "--seed", "9",
                 "--max-iter", "1000", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("degree 6: weights from the exact cone solver; "
                            "the stream spent its 1000 weight vectors "
                            "(seed=9)\n")
    assert "weights,6,bernstein,weights,295/1 298/1 305/1 325/1 380/1 " \
        "539/1 1000/1" in captured.out


def test_golden_mismatches_fail_with_one_line_each(capsys, monkeypatch):
    import tpbases.experiments as experiments

    monkeypatch.setitem(experiments.GOLDEN_TABLE1, (3, "B1"),
                        ("1.00e-03", "2.00e-03"))
    monkeypatch.setitem(experiments.GOLDEN_TABLE2, (4, "M"), "1.0000e+00")
    assert main(["tables", "--which", "1,2", "--degrees", "3,4",
                 "--format", "csv"]) == 1
    assert capsys.readouterr().err == (
        "golden mismatch: table 1 n=3 B1 lambda_min: got 8.28e-04, "
        "expected 1.00e-03\n"
        "golden mismatch: table 1 n=3 B1 sigma_min: got 8.28e-04, "
        "expected 2.00e-03\n"
        "golden mismatch: table 2 n=4 M kappa_inf: got 3.9690e+03, "
        "expected 1.0000e+00\n")


def test_a_golden_mismatch_keeps_the_printed_dp_formula(capsys, monkeypatch):
    # the formula follows the degree, not a comparison with the goldens
    import tpbases.experiments as experiments

    monkeypatch.setitem(experiments.GOLDEN_TABLE2, (3, "B2"), "1.0000e+00")
    assert main(["tables", "--which", "2", "--degrees", "3",
                 "--format", "md"]) == 1
    captured = capsys.readouterr()
    assert "dp_variant: literal" in captured.out
    assert "| 3 | 5.1883e+02 | 1.7361e+03 | 7.1797e+03 |" in captured.out
    assert captured.err == ("golden mismatch: table 2 n=3 B2 kappa_inf: got "
                            "7.1797e+03, expected 1.0000e+00\n")


def test_failing_verdicts_fail_with_one_line_each(capsys, monkeypatch):
    import tpbases.experiments as experiments
    from tpbases.experiments import OrderingVerdict

    def verdicts(config, parts):
        return [
            OrderingVerdict("dominance", 3, "said-ball vs bernstein", "plain",
                            True),
            OrderingVerdict("dominance", 3, "dp vs bernstein", "plain", False,
                            witness=(0, 0, 1, 2)),
            OrderingVerdict("spectral_ordering", 4,
                            "rational dp vs rational bernstein", "rational",
                            None),
        ], []

    monkeypatch.setattr(experiments, "verify_orderings", verdicts)
    assert main(["verify", "--degrees", "3,4", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [
        "verdict,3,plain,dominance:said-ball vs bernstein,true",
        "verdict,3,plain,dominance:dp vs bernstein,false",
        "verdict,4,rational,spectral_ordering:rational dp vs rational "
        "bernstein,indeterminate"]
    assert captured.err == (
        "verdict FALSE: dominance n=3 dp vs bernstein (plain)\n"
        "verdict indeterminate: spectral_ordering n=4 rational dp vs "
        "rational bernstein (rational)\n")


def test_cli_defaults_are_the_library_defaults(monkeypatch):
    from tpbases.experiments import ExperimentConfig

    parser = _build_parser()
    monkeypatch.delenv("TPB_SEED", raising=False)
    for command in ("tables", "verify"):
        assert _make_config(parser.parse_args([command])) == ExperimentConfig()
    monkeypatch.setenv("TPB_SEED", "9")
    for command in ("tables", "verify"):
        assert _make_config(parser.parse_args([command])).seed == 9


def test_option_strings_are_pinned():
    # the help text lists the options in this order
    commands = next(a for a in _build_parser()._actions
                    if a.dest == "command").choices
    grid = [["--degrees"], ["--seed"], ["--max-iter"], ["--format"], ["--out"]]
    assert {name: [a.option_strings for a in sub._actions]
            for name, sub in commands.items()} == {
        "tables": [["-h", "--help"], ["--which"]] + grid + [["--full"]],
        "verify": [["-h", "--help"], ["--part"]] + grid,
        "eval": [["-h", "--help"], ["--family"], ["--degree"], ["--x"],
                 ["--weights"]],
    }


def test_env_seed_fallback(monkeypatch, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("TPB_SEED", "9")
    assert main(["tables", "--which", "4", "--degrees", "3",
                 "--format", "csv", "--out", str(a)]) == 0
    monkeypatch.delenv("TPB_SEED")
    assert main(["tables", "--which", "4", "--degrees", "3", "--seed", "9",
                 "--format", "csv", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_flag_beats_env(monkeypatch, tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    monkeypatch.setenv("TPB_SEED", "1")
    assert main(["tables", "--which", "4", "--degrees", "3", "--seed", "9",
                 "--format", "csv", "--out", str(a)]) == 0
    monkeypatch.setenv("TPB_SEED", "9")
    assert main(["tables", "--which", "4", "--degrees", "3",
                 "--format", "csv", "--out", str(b)]) == 0
    # with the flag given, a malformed variable is never read
    monkeypatch.setenv("TPB_SEED", "abc")
    assert main(["tables", "--which", "4", "--degrees", "3", "--seed", "9",
                 "--format", "csv", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_unwritable_out_path_is_bad_input(capsys, tmp_path):
    out = tmp_path / "missing" / "x.md"
    assert main(["tables", "--which", "2", "--degrees", "3",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write")
    assert not out.parent.exists()


def _forbid_table_work(monkeypatch):
    import tpbases.experiments as experiments

    def no_work(*args, **kwargs):
        raise AssertionError("a table runner was called")

    for name in ("run_table_1_2", "run_table_3_4", "verify_orderings"):
        monkeypatch.setattr(experiments, name, no_work)


def test_bad_budget_fails_before_any_table_work(capsys, monkeypatch):
    _forbid_table_work(monkeypatch)
    for argv in (["tables", "--which", "1,2,3,4", "--max-iter", "0"],
                 ["verify", "--part", "i", "--max-iter", "0"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_iter must be >= 1, got 0\n"


_LIST_ERROR = "error: expected a comma-separated integer list, got {!r}\n"


@pytest.mark.parametrize("argv,env_seed,err", [
    (["tables", "--which", "2"], "abc",
     "error: TPB_SEED must be an integer, got 'abc'\n"),
    (["verify", "--part", "iii"], "abc",
     "error: TPB_SEED must be an integer, got 'abc'\n"),
    (["tables", "--degrees", "3,x"], None, _LIST_ERROR.format("3,x")),
    (["tables", "--which", "2,y"], None, _LIST_ERROR.format("2,y")),
    (["verify", "--degrees", ""], None, _LIST_ERROR.format("")),
    (["tables", "--degrees", "3,,4"], None, _LIST_ERROR.format("3,,4")),
])
def test_malformed_grid_input_fails_before_any_table_work(
        argv, env_seed, err, capsys, monkeypatch):
    _forbid_table_work(monkeypatch)
    if env_seed is None:
        monkeypatch.delenv("TPB_SEED", raising=False)
    else:
        monkeypatch.setenv("TPB_SEED", env_seed)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_budget_is_unchecked_without_a_search(capsys):
    # tables 1 and 2 draw no weights, so their budget is never used
    assert main(["tables", "--which", "1,2", "--degrees", "3",
                 "--max-iter", "0"]) == 0
    unused = capsys.readouterr().out
    assert main(["tables", "--which", "1,2", "--degrees", "3"]) == 0
    assert unused == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["tables", "--which", "1,2", "--degrees", "18,24"],
    ["tables", "--which", "3", "--degrees", "3,24"],
    ["verify", "--part", "ii", "--degrees", "18,24"],
    ["verify", "--part", "all", "--degrees", "18,24"],
])
def test_char_poly_guard_fails_before_any_table_work(argv, capsys, monkeypatch):
    _forbid_table_work(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: dimension 25 exceeds the exact char-poly "
                            "guard of 24\n")


def test_char_poly_guard_spares_the_condition_number_tables(capsys):
    # tables 2 and 4 compute no characteristic polynomial
    assert main(["tables", "--which", "2", "--degrees", "24",
                 "--format", "csv"]) == 0
    assert "2,24,M,kappa_inf," in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["tables", "--which", "3,4", "--degrees", "3,3", "--seed", "137"],
    ["tables", "--which", "1", "--degrees", "4,3,4"],
    ["verify", "--part", "all", "--degrees", "3,3"],
])
def test_repeated_degree_is_rejected(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    degree = argv[argv.index("--degrees") + 1].split(",")[0]
    assert captured.err == f"error: degree {degree} is given more than once\n"


def test_tables_skip_the_rows_they_do_not_print(monkeypatch, capsys):
    import tpbases.experiments as experiments

    def no_spectra(*args, **kwargs):
        raise AssertionError("a spectral row was computed")

    monkeypatch.setattr(experiments, "_spectral_rows", no_spectra)
    assert main(["tables", "--which", "2,4", "--degrees", "3",
                 "--seed", "9", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"2", "4", "weights"}


def test_report_imports_no_numpy():
    # numpy adds about 13 MiB to the resident set, and it is a test-only
    # dependency: no command may import it
    code = ("import sys\n"
            "from tpbases.cli import main\n"
            "code = main(['tables', '--which', '3,4', '--degrees', '3',"
            " '--format', 'csv'])\n"
            "print(code, 'numpy' in sys.modules)\n")
    env = {k: v for k, v in os.environ.items() if k != "TPB_SEED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 False"


def _modules_after(argv, watched=("tpbases.experiments", "json",
                                  "dataclasses")):
    """The exit code of ``main(argv)`` in a fresh interpreter and which of
    the ``watched`` modules it left loaded; ``-S`` keeps site hooks from
    preloading any of them."""
    code = ("import sys\n"
            "from tpbases.cli import main\n"
            f"code = main({argv!r})\n"
            f"watched = {watched!r}\n"
            "print(code, sorted(m for m in watched if m in sys.modules))\n")
    env = {k: v for k, v in os.environ.items() if k != "TPB_SEED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1]


def test_eval_imports_only_the_basis_and_rendering_modules():
    argv = ["eval", "--family", "said-ball", "--degree", "3", "--x", "1/5"]
    watched = ("tpbases.experiments", "tpbases.linalg", "tpbases.rng",
               "tpbases.spectral", "json", "dataclasses")
    assert _modules_after(argv, watched) == "0 []"


def test_csv_tables_import_no_json():
    # the plain tables need neither the weight stream nor the cone solver
    argv = ["tables", "--which", "1,2", "--degrees", "3", "--format", "csv"]
    watched = ("tpbases.experiments", "tpbases.rng", "tpbases.cone", "json",
               "dataclasses")
    assert _modules_after(argv, watched) == "0 ['tpbases.experiments']"
