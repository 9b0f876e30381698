"""Command-line front end: compute, verify, affine tooling, benchmark.

Exit codes follow one contract everywhere: 0 success, 1 verification
failure (an identity or cross-check that should hold did not), 2 usage
error (bad arguments or violated preconditions).  Malformed input never
produces a traceback; arguments are checked here, at the boundary, and
raise UsageError.  Any other exception is a fault in the program and
surfaces as one.  When the reader of stdout closes it early, the run
ends quietly with 141, the status a shell shows for SIGPIPE.
"""

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
    """ascii() of text, or of its first 20 characters and "...", or fewer if
    their escapes take more than the 40 that 20 ASCII characters can."""
    cut = text[:20]
    while len(ascii(cut)) > 42:
        cut = cut[:-1]
    return ascii(cut if cut == text else cut + "...")


def _integer(text: str, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """The int that text spells, within lo..hi (an end left None is open).

    Every integer argument goes through here.  Bad text is never echoed
    whole: a run of digits too long for int() is named by its length,
    anything else is quoted cut short by _cut.
    """
    try:
        value = int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isdecimal():  # int() refuses such a run only for its length
            raise UsageError(f"{what} has {len(digits)} digits, more than "
                             "the int-string limit allows") from None
        raise UsageError(f"{what} must be an integer, got {_cut(text)}") from None
    if lo is not None and value < lo:
        raise UsageError(f"{what} must be >= {lo}, got {_cut(str(value))[1:-1]}")
    if hi is not None and value > hi:
        raise UsageError(f"{what} must be <= {hi}, got {_cut(str(value))[1:-1]}")
    return value


def _parse_n_list(text: str, highest: int) -> list[int]:
    """Comma-separated n values, each a single n or an inclusive range a..b,
    every n in 1..highest.

    Their sum is checked against COMPUTE_MAX_TOTAL_N before any list is
    built.
    """
    ranges = []
    for part in text.split(","):
        if ".." in part:
            first, _, last = part.partition("..")
            lo = _integer(first, "range start", 1, highest)
            hi = _integer(last, "range end", 1, highest)
            if lo > hi:
                raise UsageError(f"empty range {_cut(part)}")
        else:
            lo = hi = _integer(part, "n", 1, highest)
        ranges.append(range(lo, hi + 1))
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

# Per function: its row beyond the --n and --format that every function
# takes, and the module and name of its count, looked up when it runs, so a
# patched function is the one called.  No d above the largest n divides it.
_COMPUTE = {
    "f": ({}, "counting", "count_relprime"),
    "fk": ({"k": (True, 1, None)}, "counting", "count_relprime_k"),
    "phi": ({}, "setphi", "subset_phi"),
    "phik": ({"k": (True, 1, None)}, "setphi", "subset_phi_k"),
    "psi": ({"d": (True, 1, COMPUTE_MAX_N)}, "setphi", "subset_psi"),
}


def _cmd_compute(function: str, extra: dict) -> int:
    _, module, name = _COMPUTE[function]
    style = extra.pop("format")
    ns = extra.pop("n")
    if "d" in extra:
        for n in ns:
            if n % extra["d"]:
                raise UsageError(f"psi requires d | n; {extra['d']} does not divide {n}")

    # Each value is written as soon as it is computed, so a reader that
    # closes the pipe early stops the run, and no value is kept after it is printed.
    count = getattr(getattr(relprime, module), name)
    for i, n in enumerate(ns, 1):
        start = time.perf_counter()
        value = count(n, *extra.values())
        elapsed = time.perf_counter() - start
        text = _decimal(value)
        if style == "json":
            import json
            record = {"n": n, **extra, "value": text, "method": "formula",
                      "elapsed_ms": elapsed * 1000.0}
            print(json.dumps(record))
        elif style == "bfile":
            print(f"{n} {text}")
        else:  # plain, the default
            print(text, end=" " if i < len(ns) else "\n")
    return 0


# ----------------------------------------------------------------- verify

def _cmd_verify(name: str, options: dict) -> int:
    row, suite = relprime.checks.SUITES[name]
    _, lowest, highest = row["n-max"]
    n_max = options["n-max"] or min(_DEFAULT_N_MAX, highest)
    checks = 0
    for failure in suite(range(lowest, n_max + 1), options.get("k-max")):
        if failure is not None:
            print(f"{name}: FAIL after {checks} passing checks: {failure}")
            return 1
        checks += 1
    print(f"{name}: {checks} checks passed")
    return 0


# ----------------------------------------------------------------- affine

def _cmd_affine(action: str, options: dict) -> int:
    affine = relprime.affine
    if action == "canon":
        form = affine.canonical_form(*options["set"])
        print(
            f"C={_format_set(form.base)} D={_format_set(form.mirror)} "
            f"representative={_format_set(form.representative)}"
        )
    elif action == "equiv":
        verdict = affine.affinely_equivalent(*options["set"])
        print("true" if verdict else "false")
    elif action == "profile":
        try:
            profile = affine.invariant_profile(*options["set"])
        except ValueError as exc:  # a set past affine.PROFILE_MAX_ELEMENTS
            raise UsageError(f"affine {exc}") from None
        print(f"s={profile.sumset_size} d={profile.difference_size}")
    else:
        dist = affine.sumset_size_distribution(*options.values())
        print(" ".join(f"{size}:{count}" for size, count in dist.items()))
    return 0


# ------------------------------------------------------------------ bench

def _cmd_bench(_: str, options: dict) -> int:
    arith, counting, oracle = relprime.arith, relprime.counting, relprime.oracle
    ns = options["n"]
    reps = options["reps"] or 3
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

# Per command: what it does, its handler, and what --help says of each option.
_COMMANDS = {
    "compute": ("evaluate a counting function", _cmd_compute, {
        "n": "n value, range a..b, or comma list", "k": "cardinality", "d": "divisor of n",
        "format": "plain (the default), json lines, or bfile (OEIS b-file lines)"}),
    "verify": ("run an identity/cross-check suite", _cmd_verify, {
        "n-max": "upper end of the check range (trial count for the affine suite; "
                 "closed-forms runs its 13 checks whatever it is); "
                 "default 1000, or the suite's cap if lower",
        "k-max": "largest k checked"}),
    "affine": ("canonical forms and invariants", _cmd_affine, {
        "set": "comma-separated integers", "n": "interval end",
        "k": "cardinality restriction", "inequivalent": "count each affine class once"}),
    "bench": ("time the formula against enumeration", _cmd_bench, {
        "n": "n value, range a..b, or comma list", "reps": "timing repetitions, 3 if not given"}),
}


def _rows(command: str) -> dict:
    """Each action of command and its row; bench has one row, and no action.

    A row maps each option that the action takes, in the order it is read,
    to (required, lowest, highest) for an integer, (True, "n", highest) for
    an n list, (False, choices) for one of the words choices, (True,
    "sets", count) for count comma lists of integers, or (False, "flag")
    for an option that takes no value.  Caps are read as the rows are built.
    """
    if command == "compute":
        return {function: {**row, "format": (False, ("plain", "json", "bfile")),
                           "n": (True, "n", COMPUTE_MAX_N)}
                for function, (row, _, _) in _COMPUTE.items()}
    if command == "verify":  # only verify compiles the suites
        return {name: row for name, (row, _) in relprime.checks.SUITES.items()}
    if command == "affine":
        one = {"set": (True, "sets", 1)}
        return {"canon": one, "equiv": {"set": (True, "sets", 2)}, "profile": one, "dist": {
            "n": (True, 0, relprime.affine.DIST_MAX_N), "k": (False, 1, None),
            "inequivalent": (False, "flag")}}
    return {"": {"reps": (False, 1, BENCH_MAX_REPS), "n": (True, "n", relprime.oracle.ORACLE_MAX)}}


def _parse(argv: list[str]) -> tuple[str, str, dict]:
    """The command, the action and the values of the options that argv asks for.

    Options are `--opt value` (whatever value starts with; none at the end
    reads as "") or `--opt=value`.  Refused in turn: a word that the
    action's row does not list, or an option given again (but --set, whose
    count is checked with its values), as it is read; then, in row order, a
    required option left out or a bad value.
    """
    command, *argv = argv or [""]
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {_cut(command)}" if command else "no command given")
    rows = _rows(command)
    action = argv.pop(0) if argv and "" not in rows else ""
    if action not in rows:
        raise UsageError(f"unknown {command} action {_cut(action)}" if action
                         else f"no {command} action given")
    name = f"{command} {action}".strip()
    row = rows[action]
    given: dict[str, str | list[str]] = {}
    tokens = iter(argv)
    for token in tokens:
        opt, eq, value = token[2:].partition("=")
        flag = row.get(opt) == (False, "flag")
        if token[:2] != "--" or opt not in row or eq and flag:
            raise UsageError(f"{name} does not take {_cut(token)}")
        if not eq and not flag:
            value = next(tokens, "")
        sets = row[opt][1] == "sets"
        if opt in given and not sets:
            raise UsageError(f"{name} takes --{opt} once")
        given[opt] = [*given.get(opt, []), value] if sets else value
    options = {}
    for opt, (required, *how) in row.items():
        value = given.get(opt)
        if required and value is None:
            raise UsageError(f"{name} requires --{opt}")
        if how == ["flag"]:
            value = value is not None
        elif how[0] == "sets":
            value = [[_integer(word, "set element") for word in text.split(",")]
                     for text in value]
            if len(value) != how[1]:
                raise UsageError(f"{name} requires exactly {('one', 'two')[how[1] - 1]} --{opt}")
        elif how[0] == "n":
            value = _parse_n_list(value, how[1])
        elif isinstance(how[0], tuple):
            if value not in (None, *how[0]):
                raise UsageError(f"--{opt} must be {', '.join(how[0][:-1])} or {how[0][-1]}, "
                                 f"got {_cut(value)}")
        elif value is not None:
            value = _integer(value, f"--{opt}", *how)
        options[opt] = value
    return command, action, options


def _help(command: str) -> str:
    """The commands, or the usage of command and its options, read from its rows."""
    if command not in _COMMANDS:
        return "\n".join(["usage: relprime <command> [<action>] [--option value]...", *(
            f"  {name:<9}{summary}; see relprime {name} --help"
            for name, (summary, _, _) in _COMMANDS.items())])
    summary, _, texts = _COMMANDS[command]
    rows = _rows(command)
    lines = [f"usage: relprime {command} {'|'.join(rows)} [--option value]...".replace("  ", " "),
             summary]
    for opt, text in texts.items():
        for word, required in (("required", True), ("optional", False)):
            actions = [f"{action} ({('one', 'two')[row[opt][2] - 1]})" if row[opt][1] == "sets"
                       else action for action, row in rows.items()
                       if opt in row and row[opt][0] is required]
            if actions:
                text += f"; {word}" + (f" for {', '.join(actions)}" if any(actions) else "")
        lines.append(f"  --{opt:<{max(map(len, texts)) + 2}}{text}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(_help(argv[0]))
        return 0
    try:
        command, action, options = _parse(argv)
        return _COMMANDS[command][1](action, options)
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
