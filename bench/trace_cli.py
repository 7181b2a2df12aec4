"""Run one tpbases CLI job with the public functions of every layer timed.

Usage::

    PYTHONPATH=src python3 bench/trace_cli.py STATS.json <tpbases cli arguments>

Every public function of the layer modules (and every public method of
their classes) is replaced, in each module namespace that holds it, by a
wrapper.  Span wrappers record calls, total time and self time: the span
minus the time covered by wrapped child spans.  The primitive helpers in
``COUNT_ONLY`` run 10^5-10^6 times per job, so they only count calls; their
time stays in the self time of the stage that called them, which is the
stage a reader of the trace looks for (root isolation, the weight search).
``rng.next_uint64`` is left unwrapped: it runs once per ``randint`` draw,
so its count adds nothing and its wrapper would double the tracing cost.

The job's stdout and exit code are those of ``python -m tpbases.cli``; the
statistics are written to STATS.json as one flat ``{name: number}`` map.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "tpbases"
LAYERS = ("cli", "experiments", "bases", "rng", "linalg", "spectral", "render")
COUNT_ONLY = frozenset({
    "bases.binomial",
    "render.fraction_str",
    "rng.randint",
    "spectral.cauchy_bound",
    "spectral.count_roots",
    "spectral.poly_deriv",
    "spectral.poly_divmod",
    "spectral.poly_eval",
    "spectral.poly_gcd",
    "spectral.poly_trim",
    "spectral.zip_longest",
})
UNWRAPPED = frozenset({"rng.next_uint64"})


def _coeff_bits(tracer, args, result):
    bits = max(c.numerator.bit_length() + c.denominator.bit_length()
               for c in result)
    key = "spectral.char_poly.coeff_bits_max"
    tracer.maxima[key] = max(tracer.maxima[key], bits)


def _distinct_matrix(tracer, args, result):
    tracer.matrices.add(tuple(map(tuple, args[0])))


def _kron_entries(tracer, args, result):
    tracer.counts["linalg.kronecker.entries"] += len(result) * len(result[0])


def _ambiguous(tracer, args, result):
    if result is None:
        tracer.counts["render.render_enclosure.ambiguous"] += 1


# work counters read off a wrapped function's arguments or result
HOOKS = {
    "spectral.char_poly": _coeff_bits,
    "spectral.spectral_report": _distinct_matrix,
    "linalg.kronecker": _kron_entries,
    "render.render_enclosure": _ambiguous,
}


class Tracer:
    """Call counts, span times and work counters of one process."""

    def __init__(self):
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self.maxima = defaultdict(int)
        self.matrices = set()
        self.root_s = 0.0
        self.wrapped = []
        self._stack = []  # time covered by child spans, one slot per open span

    def wrap(self, key, fn):
        self.wrapped.append(key)
        if key in COUNT_ONLY:
            return self._counted(key, fn)
        return self._span(key, fn)

    def _counted(self, key, fn):
        counts, calls = self.counts, f"{key}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, key, fn):
        counts, seconds, stack = self.counts, self.seconds, self._stack
        clock, hook = time.perf_counter, HOOKS.get(key)
        calls, returned = f"{key}.calls", f"{key}.returned"
        total_s, self_s = f"{key}.total_s", f"{key}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                counts[calls] += 1
                seconds[total_s] += elapsed
                seconds[self_s] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
            counts[returned] += 1
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def stats(self) -> dict:
        out = dict(self.counts)
        out.update(self.seconds)
        out.update(self.maxima)
        out["spectral.spectral_report.distinct"] = len(self.matrices)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.seconds.items()
                if k.startswith(layer + ".") and k.endswith(".self_s"))
        out["trace.root_s"] = self.root_s
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer in every tpbases namespace."""
    layers = {name: importlib.import_module(f"{PACKAGE}.{name}")
              for name in LAYERS}
    replacements = {}
    for layer, module in layers.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and f"{layer}.{name}" not in UNWRAPPED:
                replacements[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    key = f"{layer}.{attr}"
                    if (not attr.startswith("_") and key not in UNWRAPPED
                            and inspect.isfunction(member)):
                        setattr(obj, attr, tracer.wrap(key, member))
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for module in namespaces:
        for name, obj in list(vars(module).items()):
            wrapper = replacements.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_cli.py STATS.json <tpbases cli arguments>",
              file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules[f"{PACKAGE}.cli"]
    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"wrapped": sorted(tracer.wrapped), "stats": tracer.stats()},
                  fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
