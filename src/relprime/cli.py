"""Command-line front end: compute, verify, affine tooling, benchmark.

Exit codes follow one contract everywhere: 0 success, 1 verification
failure (an identity or cross-check that should hold did not), 2 usage
error (bad arguments or violated preconditions).  Malformed input never
produces a traceback; arguments are checked here, at the boundary, and
raise UsageError.  Any other exception is a fault in the program and
surfaces as one.  When the reader of stdout closes it early, the run
ends quietly with 141, the status a shell shows for SIGPIPE.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import relprime

# compute f and phi take 1.3-2.1 s at this n (README's caps table), mostly
# converting their n-bit values to decimal; beyond it the time grows a
# little faster than n.
COMPUTE_MAX_N = 10_000_000
# A count at n has at most n bits, so the sum of the requested n bounds
# the output.  Ten n next to COMPUTE_MAX_N take about ten times as long
# as one, and 1..14141, the longest range from 1, about 1.4 times.
COMPUTE_MAX_TOTAL_N = 100_000_000
_DEFAULT_N_MAX = 1000  # verify --n-max when omitted, lowered to the suite's cap
# The oracle counts the subsets of each half of {1,...,n}, so a repetition
# at n costs about 2^ceil(n/2), but up to n = 32 a fixed cost dominates:
# 1600 repetitions at any n <= 32 take at most about 1.5 times as long as
# 100 at the enumeration guard.  So each n counts as 2^max(ceil(n/2),
# ceil(ORACLE_MAX/2) - 4), and --reps times the sum of that over the n is at
# most this many times 2^ceil(ORACLE_MAX/2).  One repetition at the guard,
# n = 40, takes about 0.06 s on a 2-vCPU x86-64 machine, so this many take
# about 6 s.
BENCH_MAX_REPS = 100


class UsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


def _cut(text: str) -> str:
    return text if len(text) <= 20 else text[:20] + "..."


def _integer(text: str, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """The int that text spells, within lo..hi (an end left None is open).

    Every integer argument goes through here.  Bad text is never echoed
    whole: a run of digits too long for int() is named by its length,
    anything else is quoted cut to 20 characters.
    """
    try:
        value = int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isdecimal():  # int() refuses such a run only for its length
            raise UsageError(f"{what} has {len(digits)} digits, more than "
                             "the int-string limit allows") from None
        raise UsageError(f"{what} must be an integer, got {_cut(text)!r}") from None
    if lo is not None and value < lo:
        raise UsageError(f"{what} must be >= {lo}, got {_cut(str(value))}")
    if hi is not None and value > hi:
        raise UsageError(f"{what} must be <= {hi}, got {_cut(str(value))}")
    return value


def _parse_range(text: str) -> range:
    """A single n or an inclusive range 'a..b', each end in 1..COMPUTE_MAX_N."""
    if ".." in text:
        first, _, last = text.partition("..")
        lo = _integer(first, "range start", 1, COMPUTE_MAX_N)
        hi = _integer(last, "range end", 1, COMPUTE_MAX_N)
        if lo > hi:
            raise UsageError(f"empty range {_cut(text)!r}")
        return range(lo, hi + 1)
    n = _integer(text, "n", 1, COMPUTE_MAX_N)
    return range(n, n + 1)


def _parse_n_list(text: str) -> list[int]:
    """Comma-separated n values, each a single value or an a..b range.

    Their sum is checked against COMPUTE_MAX_TOTAL_N before any list is
    built.
    """
    ranges = [_parse_range(part) for part in text.split(",")]
    total = sum((r.start + r.stop - 1) * len(r) // 2 for r in ranges)
    if total > COMPUTE_MAX_TOTAL_N:
        raise UsageError(f"the requested n must sum to <= {COMPUTE_MAX_TOTAL_N}, got {total}")
    return [n for r in ranges for n in r]


# str() is quadratic in the digits, _decimal_by_halves is not.  Without a
# limit str() is the faster one up to about 45 000 bits (14 000: 0.34 vs
# 0.48 ms); bounded by CPython's default limit, each value takes the path it
# takes under that default, whatever limit the process has.
_STR_MAX_DIGITS = 4300


def _decimal(value: int) -> str:
    """Exact decimal digits of value; the int-string limit is never lifted.

    Long values are split at powers of two and put back together in
    decimal.Decimal, whose arithmetic and printing are subquadratic.
    """
    # bits * log10(2) < _STR_MAX_DIGITS guarantees at most that many digits.
    if value.bit_length() * 30103 < _STR_MAX_DIGITS * 100_000:
        try:
            return str(value)
        except ValueError:  # the process limit is lower
            pass
    return _decimal_by_halves(value)


_LEAF_BITS = 256


def _decimal_by_halves(value: int) -> str:
    import decimal  # only long outputs pay for the import

    powers: dict[int, decimal.Decimal] = {}

    def power_of_two(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            if w <= _LEAF_BITS:
                p = decimal.Decimal(1 << w)
            else:
                p = power_of_two(w >> 1) * power_of_two(w - (w >> 1))
            powers[w] = p
        return p

    def convert(v: int, w: int) -> decimal.Decimal:
        # 0 <= v < 2^w; the low half takes the low w//2 bits.
        if w <= _LEAF_BITS:
            return decimal.Decimal(v)
        half = w >> 1
        high = v >> half
        return convert(high, w - half) * power_of_two(half) + convert(v - (high << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(value), value.bit_length()))
    return "-" + digits if value < 0 else digits


def _format_set(elems) -> str:
    return "{" + ",".join(_decimal(e) for e in elems) + "}"


# ---------------------------------------------------------------- compute

# Per function: the one option it takes besides --n (None, "k" or "d"),
# and the module and name of its count.  Both are looked up when it runs,
# so a function patched into the module is the one called.
_COMPUTE = {
    "f": (None, "counting", "count_relprime"),
    "fk": ("k", "counting", "count_relprime_k"),
    "phi": (None, "setphi", "subset_phi"),
    "phik": ("k", "setphi", "subset_phi_k"),
    "psi": ("d", "setphi", "subset_psi"),
}


def _cmd_compute(args: argparse.Namespace) -> int:
    option, module, name = _COMPUTE[args.function]
    for flag in ("k", "d"):
        given = getattr(args, flag) is not None
        if given and flag != option:
            raise UsageError(f"function {args.function} does not take --{flag}")
        if not given and flag == option:
            raise UsageError(f"function {args.function} requires --{flag}")
    extra = {}
    if option is not None:
        # No d above the largest accepted n divides it.
        hi = COMPUTE_MAX_N if option == "d" else None
        extra[option] = _integer(getattr(args, option), f"--{option}", 1, hi)
    ns = _parse_n_list(args.n)
    if option == "d":
        for n in ns:
            if n % extra["d"]:
                raise UsageError(f"psi requires d | n; {extra['d']} does not divide {n}")
    if args.format == "json":
        import json

    # Each value is written as soon as it is computed, so a reader that
    # closes the pipe early stops the run, and no value is kept after it is printed.
    count = getattr(getattr(relprime, module), name)
    for i, n in enumerate(ns, 1):
        start = time.perf_counter()
        value = count(n, *extra.values())
        elapsed = time.perf_counter() - start
        text = _decimal(value)
        if args.format == "plain":
            print(text, end=" " if i < len(ns) else "\n")
        elif args.format == "json":
            record = {"n": n, **extra, "value": text, "method": "formula",
                      "elapsed_ms": elapsed * 1000.0}
            print(json.dumps(record))
        else:  # bfile
            print(f"{n} {text}")
    return 0


# ----------------------------------------------------------------- verify

def _cmd_verify(args: argparse.Namespace) -> int:
    from relprime.checks import SUITES  # only verify compiles the suites

    lowest, highest, samples_k, suite = SUITES[args.suite]
    if args.n_max is None:
        n_max = min(_DEFAULT_N_MAX, highest)
    else:
        n_max = _integer(args.n_max, "--n-max", lowest, highest)
    if args.k_max is not None and not samples_k:
        raise UsageError(f"verify {args.suite} samples no k; it does not take --k-max")
    # Below 1 every k-restricted check would be skipped in silence.
    k_max = None if args.k_max is None else _integer(args.k_max, "--k-max", 1)
    checks = 0
    for failure in suite(range(lowest, n_max + 1), k_max):
        if failure is not None:
            print(f"{args.suite}: FAIL after {checks} passing checks: {failure}")
            return 1
        checks += 1
    print(f"{args.suite}: {checks} checks passed")
    return 0


# ----------------------------------------------------------------- affine

def _cmd_affine(args: argparse.Namespace) -> int:
    affine = relprime.affine
    action = args.action
    sets = [[_integer(tok, "set element") for tok in text.split(",")]
            for text in args.set or []]
    if action in ("canon", "profile") and len(sets) != 1:
        raise UsageError(f"affine {action} requires exactly one --set")
    if action == "equiv" and len(sets) != 2:
        raise UsageError("affine equiv requires exactly two --set arguments")
    if action != "dist" and (args.n is not None or args.k is not None):
        raise UsageError(f"affine {action} takes --set, not --n/--k")
    if action != "dist" and args.inequivalent:
        raise UsageError(f"affine {action} does not take --inequivalent")
    if action == "dist":
        if sets:
            raise UsageError("affine dist takes --n/--k flags, not --set")
        if args.n is None:
            raise UsageError("affine dist requires --n")
        n = _integer(args.n, "--n", 0, affine.DIST_MAX_N)
        k = None if args.k is None else _integer(args.k, "--k", 1)

    if action == "canon":
        form = affine.canonical_form(sets[0])
        print(
            f"C={_format_set(form.base)} D={_format_set(form.mirror)} "
            f"representative={_format_set(form.representative)}"
        )
    elif action == "equiv":
        verdict = affine.affinely_equivalent(sets[0], sets[1])
        print("true" if verdict else "false")
    elif action == "profile":
        try:
            profile = affine.invariant_profile(sets[0])
        except ValueError as exc:  # a set past affine.PROFILE_MAX_ELEMENTS
            raise UsageError(f"affine {exc}") from None
        print(f"s={profile.sumset_size} d={profile.difference_size}")
    else:
        dist = affine.sumset_size_distribution(n, k=k, inequivalent_only=args.inequivalent)
        print(" ".join(f"{size}:{count}" for size, count in dist.items()))
    return 0


# ------------------------------------------------------------------ bench

def _cmd_bench(args: argparse.Namespace) -> int:
    arith, counting, oracle = relprime.arith, relprime.counting, relprime.oracle
    ns = _parse_n_list(args.n)
    reps = _integer(args.reps, "--reps", 1, BENCH_MAX_REPS)
    for n in ns:
        if n > oracle.ORACLE_MAX:
            raise UsageError(f"bench n={n} exceeds the enumeration guard of {oracle.ORACLE_MAX}")
    top = -(-oracle.ORACLE_MAX // 2)
    if reps * sum(1 << max(-(-n // 2), top - 4) for n in ns) > BENCH_MAX_REPS << top:
        raise UsageError(f"--reps times the sum of 2^max(ceil(n/2), {top - 4}) must be "
                         f"<= {BENCH_MAX_REPS} * 2^{top}")
    for n in ns:
        formula_s = float("inf")
        for _ in range(reps):
            arith._clear_kernel_memos()
            start = time.perf_counter()
            formula_value = counting.count_relprime(n)
            formula_s = min(formula_s, time.perf_counter() - start)
        oracle_s = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            oracle_value = oracle.enumerate_relprime(n)
            oracle_s = min(oracle_s, time.perf_counter() - start)
        if formula_value != oracle_value:
            print(
                f"n={n}: MISMATCH formula={formula_value} enumeration={oracle_value}",
                file=sys.stderr,
            )
            return 1
        speedup = oracle_s / max(formula_s, 1e-9)
        print(
            f"n={n} formula_ms={formula_s * 1000.0:.4f} "
            f"oracle_ms={oracle_s * 1000.0:.4f} speedup={speedup:.1f}"
        )
    return 0


# ------------------------------------------------------------------ wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relprime",
        description=(
            "Exact counts of relatively prime subsets of {1..n}, the subset "
            "phi functions, and affine canonicalization of integer sets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate a counting function")
    p_compute.add_argument(
        "function", choices=sorted(_COMPUTE), help="counting function to evaluate"
    )
    p_compute.add_argument("--n", required=True, help="n value, range a..b, or comma list")
    p_compute.add_argument("--k", help="cardinality (fk/phik only)")
    p_compute.add_argument("--d", help="divisor of n (psi only)")
    p_compute.add_argument(
        "--format",
        choices=("plain", "json", "bfile"),
        default="plain",
        help="plain values, JSON lines, or OEIS b-file lines",
    )
    p_compute.set_defaults(handler=_cmd_compute)

    p_verify = sub.add_parser("verify", help="run an identity/cross-check suite")
    # The rows of relprime.checks.SUITES, which only verify imports.
    p_verify.add_argument("suite", choices=(
        "affine", "asymptotics", "bounds", "closed-forms", "divisor-sums", "kernels",
        "oracle", "recursions",
    ))
    p_verify.add_argument(
        "--n-max",
        help="upper end of the check range (trial count for the affine suite); "
        "default 1000, or the suite's cap if lower",
    )
    p_verify.add_argument("--k-max", help="cap on sampled k; affine and closed-forms refuse it")
    p_verify.set_defaults(handler=_cmd_verify)

    p_affine = sub.add_parser("affine", help="canonical forms and invariants")
    p_affine.add_argument("action", choices=("canon", "dist", "equiv", "profile"))
    p_affine.add_argument(
        "--set", action="append", help="comma-separated integers; repeatable"
    )
    p_affine.add_argument("--n", help="interval end for dist")
    p_affine.add_argument("--k", help="cardinality restriction for dist")
    p_affine.add_argument(
        "--inequivalent",
        action="store_true",
        help="count each affine class once in dist",
    )
    p_affine.set_defaults(handler=_cmd_affine)

    p_bench = sub.add_parser("bench", help="time the formula against enumeration")
    p_bench.add_argument("--n", required=True, help="n value, range a..b, or comma list")
    p_bench.add_argument("--reps", default="3", help="timing repetitions")
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def _fold_set_values(argv: list[str]) -> list[str]:
    """Join '--set' with its value so sets starting with '-' parse."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--set" and i + 1 < len(argv):
            out.append(f"--set={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_set_values(list(argv)))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # What is still buffered goes nowhere, so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
