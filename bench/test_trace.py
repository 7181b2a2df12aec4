"""Checks of the benchmark's tracer and gate.  Run: python3 -m pytest bench"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_every_namespace_holding_a_public_function_gets_the_wrapper():
    # experiments holds spectral_report, cond_inf, inverse and kronecker,
    # linalg holds eval_basis_row and render holds sqrt_enclosure
    code = (
        "import sys, trace_cli\n"
        "import tpbases.cli\n"
        "mods = [m for n, m in list(sys.modules.items()) if n.startswith('tpbases')]\n"
        "before = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}\n"
        "trace_cli.install(trace_cli.Tracer())\n"
        "changed = sorted(f'{m}:{k}' for (m, k), v in before.items()\n"
        "                 if getattr(sys.modules[m], k) is not v)\n"
        "print('\\n'.join(changed))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=ENV,
                         capture_output=True, text=True, check=True).stdout
    changed = set(out.split())
    for holder, name in [("experiments", "spectral_report"),
                         ("experiments", "cond_inf"),
                         ("experiments", "inverse"),
                         ("experiments", "kronecker"),
                         ("linalg", "eval_basis_row"),
                         ("render", "sqrt_enclosure"),
                         ("spectral", "poly_eval")]:
        assert f"tpbases.{holder}:{name}" in changed


def test_exact_call_counts_of_tables_1_2_degree_3(tmp_path):
    stats_path = tmp_path / "stats.json"
    args = ["tables", "--which", "1,2", "--degrees", "3", "--format", "csv"]
    traced = subprocess.run(
        [sys.executable, str(BENCH / "trace_cli.py"), str(stats_path), *args],
        env=ENV, capture_output=True, check=True)
    plain = subprocess.run([sys.executable, "-m", "tpbases.cli", *args],
                           env=ENV, capture_output=True, check=True)
    assert traced.stdout == plain.stdout
    stats = json.loads(stats_path.read_text())["stats"]
    # M, B1 and B2 matrices, and the DP one again with the literal middle
    # functions because the corrected one misses the n=3 golden value
    expected = {
        "cli.main.calls": 1,
        "experiments.run_table_1_2.calls": 1,
        "linalg.collocation_matrix.calls": 4,
        "bases.eval_basis_row.calls": 16,     # 4 nodes per matrix
        "linalg.cond_inf.calls": 4,
        "linalg.inverse.calls": 4,
        "spectral.spectral_report.calls": 3,  # one per family, no retry
        "spectral.min_singular_value.calls": 3,
        "spectral.sqrt_enclosure.calls": 3,
        "render.render_enclosure.calls": 6,   # lambda and sigma per family
        "render.sci_notation.calls": 16,      # 2 per enclosure, 1 per kappa
        "spectral.char_poly.calls": 6,        # A and A^T A per family
        "linalg.kronecker.calls": 0,
        "bases.search_positive_weights.calls": 0,
    }
    assert {k: stats.get(k, 0) for k in expected} == expected
    assert stats["spectral.spectral_report.distinct"] == 3
    assert stats.get("render.render_enclosure.ambiguous", 0) == 0


def test_a_removed_function_is_reported_absent():
    declared = ["spectral.squarefree_part.self_s", "linalg.mat_mul.calls",
                "bases.search.hit_ratio", "spectral.self_s",
                "trace.overhead_frac"]
    merged = [{"linalg.mat_mul.calls": 7, "spectral.self_s": 1.0}] * 2
    wrapped = {"linalg.mat_mul", "bases.convert_bernstein_weights"}
    values, absent = run.layer_values(declared, merged, wrapped, 0.5)
    assert absent == ["spectral.squarefree_part.self_s", "bases.search.hit_ratio"]
    assert values == {"spectral.squarefree_part.self_s": 0,
                      "linalg.mat_mul.calls": 7, "bases.search.hit_ratio": 0,
                      "spectral.self_s": 1.0, "trace.overhead_frac": 0.5}


def _result(job, code, stdout):
    return run.JobResult(tuple(job), 1.0, 1, code, stdout.encode())


def test_gate_rejects_changed_bytes_and_exit_codes():
    job = run.SETUP_JOB
    refs = {" ".join(job): {"exit": 0, "stdout": "u_0(1/5) = 64/125\n"}}
    assert run.gate(_result(job, 0, "u_0(1/5) = 64/125\n"), refs) is None
    assert run.gate(_result(job, 0, "u_0(1/5) = 64/126\n"), refs)
    assert run.gate(_result(job, 1, "u_0(1/5) = 64/125\n"), refs)
    assert run.gate(_result(("eval",), 0, ""), refs)


def test_a_job_that_exhausted_may_succeed_with_one_positive_polynomial():
    # a degree 3-5 job's real output, judged as if it had exhausted before
    job = ("tables", "--which", "3,4", "--format", "csv", "--degrees", "3,4,5",
           "--seed", "82")
    stdout = run.load_references()[" ".join(job)]["stdout"]
    refs = {" ".join(job): {"exit": run.EXIT_SEARCH_EXHAUSTED, "stdout": ""}}
    assert run.gate(_result(job, 0, stdout), refs) is None

    lines = stdout.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("weights,4,dp,"))
    head, last = lines[i].rsplit(" ", 1)
    lines[i] = f"{head} {run.Fraction(last) * 2}"  # another polynomial
    assert "differ" in run.gate(_result(job, 0, "\n".join(lines)), refs)
    lines[i] = f"{head} -{last}"
    assert "positive" in run.gate(_result(job, 0, "\n".join(lines)), refs)
    missing = "\n".join(line for line in stdout.splitlines()
                        if not line.startswith("weights,5,"))
    assert "degree 5" in run.gate(_result(job, 0, missing), refs)
    assert "parse" in run.gate(_result(job, 0, "weights,3,dp,weights,1/0\n"), refs)
