"""Run one relprime CLI request with tracing at module boundaries.

Usage: python perfbench/trace_child.py OUT.json ARG...   (src on PYTHONPATH)

Before relprime.cli.main(ARGS) runs, every public function of the arith,
counting, setphi, oracle and affine modules is replaced by a wrapper in
each module namespace that binds it (counting, for one, imports
binomial and shared_mobius by name), and the builtin str() that cli uses
for decimal output is shadowed in cli's namespace.  Each wrapper keeps
per-function calls, total time and self time.  A call into a module
from a different one is recorded as a span (name, start, end, parent);
hot helpers (HOT) only count.  Everything stays in memory and goes to
OUT.json once, when main returns.
"""

from __future__ import annotations

import builtins
import json
import sys
import time

from checker import divisors

HOT = frozenset({
    "binomial", "divisors", "shared_mobius", "gcd_set", "pow2_minus_1", "euler_phi",
    "integer_set", "canonical_form", "sumset", "difference_set",
})
LAYERS = ("arith", "counting", "setphi", "oracle", "affine")


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[list] = []  # [name, start_s, end_s, parent span or -1]
        # Frames: [time spent in wrapped callees, module, enclosing span].
        self.stack: list[list] = [[0.0, None, -1]]
        self.counters: dict[str, int] = {}
        self.missed: dict[str, list[int]] = {"counting": [], "setphi": []}

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, module: str, fn, hot: bool = False):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, t0, clock = self.stack, self.spans, self.t0, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = -1
            if hot:
                frame = [0.0, parent[1], parent[2]]
            elif parent[1] != module:
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent[2]])
                frame = [0.0, module, span]
            else:
                frame = [0.0, module, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                parent[0] += elapsed
                if span >= 0:
                    spans[span][1] = round(start - t0, 7)
                    spans[span][2] = round(start - t0 + elapsed, 7)

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- observers: plain wrappers that feed counters, timed with the call

    def cached(self, layer: str, fn):
        info, missed = fn.cache_info, self.missed[layer]

        def observed(n, *rest):
            before = info().misses
            result = fn(n, *rest)
            if info().misses != before:
                missed.append(n)
            return result

        observed.cache_info, observed.cache_clear = fn.cache_info, fn.cache_clear
        return observed

    def sieve(self, fn):
        def observed(limit):
            self.counters["arith.sieve_limit_max"] = max(
                limit, self.counters.get("arith.sieve_limit_max", 0))
            return fn(limit)
        return observed

    def enumeration(self, fn, seen: set):
        def observed(n, *rest):
            self.add("oracle.masks_scanned", (1 << n) - 1)
            seen.add(n)
            return fn(n, *rest)
        return observed

    def distribution(self, fn):
        canonical = self.stats.setdefault("affine.canonical_form", [0, 0.0, 0.0])

        def observed(n, k=None, inequivalent_only=False):
            self.add("affine.dist_masks", (1 << (n + 1)) - 1)
            before = canonical[0]
            result = fn(n, k=k, inequivalent_only=inequivalent_only)
            if inequivalent_only:
                self.add("affine.canonicalized", canonical[0] - before)
                self.add("affine.kept", sum(result.values()))
            return result
        return observed

    def decimal(self, *args, **kwargs):
        if kwargs or len(args) != 1 or type(args[0]) is not int:
            return builtins.str(*args, **kwargs)
        self.add("cli.decimal_bits", args[0].bit_length())
        try:
            return builtins.str(args[0])
        except ValueError as exc:
            if "integer string conversion" in builtins.str(exc):
                self.add("cli.digit_limit_failures", 1)
            raise


def install(tracer: Tracer, package) -> tuple[list, set]:
    """Wrap the public functions of LAYERS wherever the package binds them.

    Returns the original lru_cache functions and the set of n the oracle
    was asked for, both read when the request ends.
    """
    modules = [getattr(package, layer) for layer in LAYERS]
    namespaces = [package, *modules, package.cli]
    cached, oracle_ns = [], set()
    for layer, module in zip(LAYERS, modules):
        for name, obj in list(vars(module).items()):
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            inner = obj
            if hasattr(obj, "cache_info"):
                inner = tracer.cached(layer, obj)
                cached.append((layer, obj))
            elif name == "mobius_sieve":
                inner = tracer.sieve(obj)
            elif layer == "oracle":
                inner = tracer.enumeration(obj, oracle_ns)
            elif name == "sumset_size_distribution":
                inner = tracer.distribution(obj)
            traced = tracer.wrap(f"{layer}.{name}", layer, inner, name in HOT)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, attr, traced)
    package.cli.str = tracer.wrap("cli.decimal", "cli.decimal", tracer.decimal)
    return cached, oracle_ns


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import relprime
    import relprime.cli

    tracer = Tracer()
    cached, oracle_ns = install(tracer, relprime)
    traced_main = tracer.wrap("cli.main", "cli", relprime.cli.main)
    try:
        return traced_main(argv)
    finally:
        sys.stdout.flush()
        for layer, fn in cached:
            tracer.add(f"{layer}.cache_entries", fn.cache_info().currsize)
            tracer.add(f"{layer}.calls", tracer.stats[f"{layer}.{fn.__name__}"][0])
        for layer, missed in tracer.missed.items():
            tracer.add(f"{layer}.cache_misses", len(missed))
        tracer.add("counting.terms", sum(tracer.missed["counting"]))
        tracer.add("setphi.terms",
                   sum(len(divisors(n)) for n in tracer.missed["setphi"] if n > 1))
        tracer.add("oracle.useful_masks", sum((1 << n) - 1 for n in oracle_ns))
        with open(out_path, "w") as fh:
            json.dump({"stats": tracer.stats, "spans": tracer.spans,
                       "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
