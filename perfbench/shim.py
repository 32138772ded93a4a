"""Traced child: wrap the named layer functions, then run radixion.cli.main.

Usage: python perfbench/shim.py SPANS_JSON INVOCATION -- CLI_ARGV...

Spans (name, id, parent, invocation, start, end, counters) stay in memory
and are written to SPANS_JSON when the CLI returns.  The wrappers are
installed from outside the package: every module attribute of `radixion`
that is bound to a named function is replaced, so calls through
`bulk.strip_residuals` and through `from .numeration import enumerate_N`
style imports are both seen.  A layer function that no longer exists is
skipped, so its metrics read 0 ("absent").

The span stack is one list, so the traced run must use --threads 1; every
layer call then nests in the main thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def _q_pow(a, key):
    return a["ns"].Q ** a[key]


# name -> counters(bound arguments, result); None records time only.
LAYERS = {
    "bulk.strip_residuals": lambda a, r: {"row_steps": len(a["values"]) * a["steps"]},
    "bulk.digit_table": lambda a, r: {"rows": _q_pow(a, "lam")},
    "carry.carry_census": lambda a, r: {
        "pairs": a["ns"].Q ** a["mu"] * a["ns"].Q ** (a["nu"] - a["rho"])},
    "carry.build_automaton": lambda a, r: {"states": len(r.carry_set.states)},
    "carry.carry_constant": lambda a, r: {"iterations": r.iterations},
    "numeration.NumberSystem.parse": None,
    "numeration.is_fns": lambda a, r: {"candidates": r.candidates_examined},
    "numeration.expand": None,
    "numeration.enumerate_N": None,  # generator: counts "elements" as consumed
    # phase_evals is computed from the inputs: sum over lambda of Q^lambda (T+1)
    "analysis.fourier_decay": lambda a, r: {"phase_evals": sum(
        a["ns"].Q ** lam for lam in range(1, a["lam_max"] + 1)) * (a["t_samples"] + 1)},
    "analysis.prime_mask": lambda a, r: {"rows": len(a["coords"]), "primes": int(r.sum())},
    "analysis.weyl_sum": lambda a, r: {"rows": _q_pow(a, "lam")},
    "analysis.sod_factorization_reference": None,
    # bytes is computed from the inputs: points * d * 8
    "tile.tile_points": lambda a, r: {"points": _q_pow(a, "depth"),
                                      "bytes": _q_pow(a, "depth") * a["ns"].degree * 8},
    "tile.rasterize": lambda a, r: {"points": len(a["cloud"].points)},
    "tile.boundary_boxdim": None,
    "tile.cover_fraction": None,
    "tile.tile_radii": None,
    "cli.main": None,
}

# Hot scalar helpers: counted without a span, so their cost stays in the caller.
COUNTED = ("algebra.divide_exact_by_q",)


class Tracer:
    def __init__(self, invocation):
        self.invocation = invocation
        self.spans = []
        self.stack = []
        self.counts = {}

    def open(self, name):
        span = {"name": name, "id": len(self.spans),
                "parent": self.stack[-1]["id"] if self.stack else None,
                "invocation": self.invocation, "counters": {},
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError("span %s closed out of order" % span["name"])

    def wrap(self, name, fn):
        if name == "numeration.enumerate_N":
            @functools.wraps(fn)
            def stream(*args, **kwargs):
                return self._stream(name, fn(*args, **kwargs))
            return stream

        counters = LAYERS[name]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counters"] = counters(bound.arguments, result)
            return result
        return wrapper

    def _stream(self, name, gen):
        # The span runs from the first request to exhaustion; the CLI
        # consumes the stream with list(), so nothing else nests inside.
        span = self.open(name)
        n = 0
        try:
            for value in gen:
                n += 1
                yield value
        finally:
            span["counters"] = {"elements": n}
            self.close(span)

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        self.counts[name] = 0
        return counted


def install(tracer):
    """Wrap every named function that exists; return the names wrapped."""
    import radixion.cli  # noqa: F401  (imports every layer module)

    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "radixion" or key.startswith("radixion."))]
    installed = []
    for name in (*LAYERS, *COUNTED):
        module_name, _, attr = name.partition(".")
        module = sys.modules.get("radixion." + module_name)
        if attr == "NumberSystem.parse":
            cls = getattr(module, "NumberSystem", None)
            raw = getattr(cls, "__dict__", {}).get("parse")
            if isinstance(raw, classmethod):
                cls.parse = classmethod(tracer.wrap(name, raw.__func__))
                installed.append(name)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            continue
        wrapped = tracer.wrap(name, original) if name in LAYERS else tracer.count(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
        installed.append(name)
    return installed


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, invocation, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer(invocation)
    installed = install(tracer)
    from radixion import cli

    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"invocation": invocation, "installed": installed,
                       "spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
