#!/usr/bin/env python3
"""tpbases benchmark: real CLI jobs, output-checked, timed end to end.

Usage (from the root of a source checkout; nothing needs installing)::

    python3 bench/run.py --workload plain_degree_ladder --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --record-references   # rewrite bench/reference.json

A workload is a list of ``python -m tpbases.cli`` jobs.  One client runs
them one after another, each in a fresh interpreter (a closed loop), which
is what a user of this batch tool pays.  The workload seed picks the
program ``--seed`` values; the program sees only the resulting argv.

Every job's stdout bytes and exit code are compared with
``bench/reference.json``, recorded from the seed commit.  With ``--trace 0``
the end-to-end metrics of BENCHMARK.json are measured; with ``--trace 1``
one untraced pass and two traced passes (``bench/trace_cli.py``) give the
per-layer metrics, and the work counters of the two traced passes must be
equal.  The last stdout line is the result object; the lines before it are
a readable summary and the provenance.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from trace_cli import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
JOB_TIMEOUT_S = 150

EXIT_SEARCH_EXHAUSTED = 3
SETUP_JOB = ("eval", "--family", "bernstein", "--degree", "3", "--x", "1/5")
SETUP_REPEATS = 9

# Three of the documented seeds that find degree 3-5 weights (README: 9,
# 42, 82, 126, 137, 139, 193), chosen because their searches cost the same:
# 1.69, 1.86 and 1.76 M draws.  The others need 0.76 (137) to 2.71 (126) M
# draws.  Every pass runs all three, so the workload seed, which picks their
# order and the seed of the degree-6 job, does not move the cost of a pass.
PROGRAM_SEEDS = (82, 139, 193)
SEED_ORDERS = tuple(itertools.permutations(PROGRAM_SEEDS))
LADDER_DEGREES = ("3,4,5", "6,7,8,9", "10", "11")
DEGREE6_MAX_ITER = "200000"


def program_seeds(seed: int) -> tuple[int, ...]:
    return SEED_ORDERS[seed % len(SEED_ORDERS)]


def _ladder_jobs(seed):
    return [("tables", "--which", "1,2", "--format", "csv", "--degrees", d)
            for d in LADDER_DEGREES]


def _weight_jobs(seed):
    seeds = program_seeds(seed)
    return [("tables", "--which", "3,4", "--format", "csv", "--degrees", "3,4,5",
             "--seed", str(s)) for s in seeds] + [
        # exhausts its budget on the seed commit (exit 3): a counted failure
        ("tables", "--which", "3,4", "--format", "csv", "--degrees", "6",
         "--max-iter", DEGREE6_MAX_ITER, "--seed", str(seeds[0]))]


def _verify_jobs(seed):
    return [("verify", "--part", "all", "--format", "csv", "--degrees", "3,4,5",
             "--seed", str(s)) for s in program_seeds(seed)]


WORKLOADS = {
    "plain_degree_ladder": _ladder_jobs,
    "weight_search": _weight_jobs,
    "verify_orderings": _verify_jobs,
}


def all_jobs() -> list[tuple[str, ...]]:
    jobs = [SETUP_JOB]
    for make in WORKLOADS.values():
        for seed in range(len(SEED_ORDERS)):
            jobs += [j for j in make(seed) if j not in jobs]
    return jobs


# --- running one job ---


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TPB_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class JobResult:
    job: tuple[str, ...]
    seconds: float
    rss_kib: int
    code: int
    stdout: bytes
    stats: dict | None = None
    matches: bool | None = None  # set by the output gate


def run_job(job: tuple[str, ...], traced: bool = False) -> JobResult:
    """Run one CLI job in a fresh interpreter; time it and read its max RSS."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path, stats_path = (WORK / "stdout", WORK / "stderr",
                                      WORK / "stats.json")
    stats_path.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(stats_path), *job]
    else:
        cmd = [sys.executable, "-m", "tpbases.cli", *job]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(),
                                cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stats = None
    if stats_path.exists():
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
    return JobResult(job, seconds, usage.ru_maxrss, proc.returncode,
                     out_path.read_bytes(), stats)


# --- output gate ---


def load_references() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _job_key(job) -> str:
    return " ".join(job)


def _weights_by_degree(stdout: str) -> dict[int, dict[str, list[Fraction]]]:
    found: dict[int, dict[str, list[Fraction]]] = {}
    for line in stdout.splitlines():
        if line.startswith("weights,"):
            _, n, name, _, values = line.split(",", 4)
            found.setdefault(int(n), {})[name] = [Fraction(v) for v in values.split()]
    return found


def check_new_weights(job, stdout: str) -> str | None:
    """For a job that exhausted its search on the seed commit and now
    succeeds: the four printed weight vectors of each degree must be
    positive and describe one polynomial.  Returns a problem or None."""
    sys.path.insert(0, str(ROOT / "src"))
    from tpbases.bases import BasisFamily, BasisSpec, eval_basis_row

    degrees = [int(d) for d in job[job.index("--degrees") + 1].split(",")]
    try:
        found = _weights_by_degree(stdout)
    except (ValueError, ZeroDivisionError) as exc:
        return f"cannot parse the weight lines: {exc}"
    families = {"bernstein": BasisFamily.BERNSTEIN,
                "saidball": BasisFamily.SAID_BALL,
                "monomial": BasisFamily.MONOMIAL, "dp": BasisFamily.DP}
    for n in degrees:
        vectors = found.get(n, {})
        if set(vectors) != set(families):
            return f"degree {n}: weight vectors {sorted(vectors)} printed"
        for name, vec in vectors.items():
            if len(vec) != n + 1 or any(v <= 0 for v in vec):
                return f"degree {n}: {name} weights are not {n + 1} positive values"
        # two degree-n polynomials that agree at n+1 points are equal
        for k in range(n + 1):
            x = Fraction(k, n)
            values = {sum(w * u for w, u in zip(
                          vectors[name], eval_basis_row(BasisSpec(fam, n), x)))
                      for name, fam in families.items()}
            if len(values) != 1:
                return f"degree {n}: the weight vectors differ at x={x}"
    return None


def gate(result: JobResult, references: dict) -> str | None:
    """Compare one job's output with the reference; returns a problem or None."""
    ref = references.get(_job_key(result.job))
    if ref is None:
        return "no reference output recorded for this job"
    if result.code == ref["exit"] and result.stdout == ref["stdout"].encode():
        return None
    if ref["exit"] == EXIT_SEARCH_EXHAUSTED and result.code == 0:
        return check_new_weights(result.job,
                                 result.stdout.decode(errors="replace"))
    return (f"exit {result.code} and {len(result.stdout)} stdout bytes, "
            f"reference exit {ref['exit']} and {len(ref['stdout'])} bytes")


# --- passes ---


def run_pass(jobs, references, traced=False):
    start = time.perf_counter()
    results = []
    for job in jobs:
        result = run_job(job, traced)
        problem = gate(result, references)
        result.matches = problem is None
        if problem:
            print(f"OUTPUT MISMATCH: {_job_key(job)}: {problem}", file=sys.stderr)
        results.append(result)
    return time.perf_counter() - start, results


def measure_setup(references) -> tuple[float, list[JobResult]]:
    results = []
    for _ in range(SETUP_REPEATS):
        result = run_job(SETUP_JOB)
        result.matches = gate(result, references) is None
        results.append(result)
    return statistics.median(r.seconds for r in results), results


def end_to_end(jobs, references, seconds):
    setup_s, setup_results = measure_setup(references)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, references))
        typical = statistics.median(wall for wall, _ in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    results = [r for _, pass_results in passes for r in pass_results]
    done = sum(1 for r in results if r.code == 0 and r.matches)
    values = {
        "wall_s": statistics.median(wall for wall, _ in passes),
        "slowest_job_s": statistics.median(
            max(r.seconds for r in rs) for _, rs in passes),
        "peak_rss_mb": statistics.median(
            max(r.rss_kib for r in rs) for _, rs in passes) / 1024,
        "done_frac": done / len(results),
        "setup_s": setup_s,
    }
    summary = [f"pass {i}: {wall:.3f} s  " + "  ".join(
                   f"[{r.seconds:.3f} s exit {r.code}]" for r in rs)
               for i, (wall, rs) in enumerate(passes)]
    correct = all(r.matches for r in results + setup_results)
    return values, results, correct, summary


# --- traced passes ---

INT_SUFFIXES = (".calls", ".returned", ".entries", ".ambiguous", ".distinct", "_max")
RATIOS = {
    "spectral.spectral_report.distinct_ratio":
        ("spectral.spectral_report.distinct", "spectral.spectral_report.calls"),
    "bases.search.hit_ratio":
        ("bases.search_positive_weights.returned",
         "bases.convert_bernstein_weights.calls"),
}


def merge_stats(results) -> dict:
    """Sum the per-job statistics of one traced pass (maxima take the max)."""
    merged: dict = {}
    for r in results:
        for name, value in (r.stats or {"stats": {}})["stats"].items():
            if name.endswith("_max"):
                merged[name] = max(merged.get(name, 0), value)
            else:
                merged[name] = merged.get(name, 0) + value
    merged["trace.unattributed_s"] = sum(
        r.seconds - r.stats["stats"]["trace.root_s"] for r in results if r.stats)
    for name, (num, den) in RATIOS.items():
        merged[name] = merged.get(num, 0) / merged[den] if merged.get(den) else 0.0
    return merged


def _function_of(metric: str) -> str | None:
    """The wrapped function a per-layer metric reads, or None for aggregates."""
    if metric in RATIOS:
        return RATIOS[metric][0].rsplit(".", 1)[0]
    parts = metric.split(".")
    return ".".join(parts[:2]) if len(parts) == 3 else None


def layer_values(declared, merged, wrapped, overhead_frac):
    """Per-layer metric values from the merged stats of two traced passes.

    A metric whose function is not among the wrapped ones (a later change
    removed it) reads 0 and is listed as absent."""
    values, absent = {}, []
    for metric in declared:
        func = _function_of(metric)
        if metric == "trace.overhead_frac":
            values[metric] = overhead_frac
        elif func is not None and func not in wrapped:
            absent.append(metric)
            values[metric] = 0
        elif metric.endswith(INT_SUFFIXES) or metric in RATIOS:
            values[metric] = merged[0].get(metric, 0)
        else:
            values[metric] = statistics.mean(m.get(metric, 0.0) for m in merged)
    return values, absent


def per_layer(jobs, references, declared):
    base_wall, base_results = run_pass(jobs, references)
    traced = [run_pass(jobs, references, traced=True) for _ in range(2)]
    merged = [merge_stats(rs) for _, rs in traced]
    counters = [{k: v for k, v in m.items() if k.endswith(INT_SUFFIXES)}
                for m in merged]
    deterministic = counters[0] == counters[1]
    if not deterministic:
        diff = sorted(k for k in counters[0].keys() | counters[1].keys()
                      if counters[0].get(k) != counters[1].get(k))
        print(f"NONDETERMINISTIC COUNTERS between two traced passes: {diff}",
              file=sys.stderr)
    wrapped = set()
    for _, rs in traced:
        for r in rs:
            wrapped.update((r.stats or {}).get("wrapped", []))
    traced_wall = statistics.mean(wall for wall, _ in traced)
    values, absent = layer_values(declared, merged, wrapped,
                                  traced_wall / base_wall - 1)
    work_s = sum(merged[0].get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    summary = [f"untraced pass {base_wall:.3f} s, traced passes "
               + ", ".join(f"{w:.3f} s" for w, _ in traced)]
    if work_s:
        for label, names in (
                ("spectral + linalg.mat_mul", ("spectral.self_s", "linalg.mat_mul.self_s")),
                ("bases.search_positive_weights", ("bases.search_positive_weights.self_s",))):
            share = sum(merged[0].get(n, 0.0) for n in names) / work_s
            summary.append(f"share of traced self time, {label}: {share:.1%}")
    if absent:
        summary.append("absent (function no longer exists): " + ", ".join(absent))
    results = base_results + [r for _, rs in traced for r in rs]
    correct = deterministic and all(r.matches for r in results)
    return values, results, correct, summary


# --- provenance and result ---


def provenance(workload, seed, results) -> dict:
    try:
        # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    exits: dict[str, list[int]] = {}
    for r in results:
        exits.setdefault(_job_key(r.job), []).append(r.code)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "workload": workload,
        "workload_seed": seed,
        "program_seeds": (list(program_seeds(seed))
                          if workload != "plain_degree_ladder" else []),
        "job_exit_codes": exits,
    }


def record_references() -> int:
    """Run every job of every workload seed once and store its output."""
    refs = {}
    for job in all_jobs():
        result = run_job(job)
        refs[_job_key(job)] = {"exit": result.code,
                               "stdout": result.stdout.decode()}
        print(f"{result.seconds:7.3f} s exit {result.code} {_job_key(job)}")
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tpbases" / "cli.py").is_file():
        print(f"error: no tpbases sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_references:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    references = load_references()
    jobs = WORKLOADS[args.workload](args.seed)
    run_job(SETUP_JOB)  # warm-up: a fresh checkout compiles its .pyc files here
    if args.trace:
        values, results, correct, summary = per_layer(jobs, references, declared)
    else:
        values, results, correct, summary = end_to_end(jobs, references,
                                                       args.seconds)
    for line in summary:
        print(line)
    for name, unit in declared.items():
        print(f"{name:48s} {values[name]:.6g} {unit}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, results)))
    failed = sum(1 for r in results if r.code != 0 or not r.matches)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
