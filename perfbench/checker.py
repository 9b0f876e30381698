"""Independent checker for relprime CLI output.

The reference values come from the paper's identities, solved directly,
never from the Mobius formulas the program evaluates:

    sum_{d=1..n} f([n/d])       = 2^n - 1     (solved over quotient blocks)
    sum_{d=1..n} f_k([n/d], k)  = C(n, k)
    sum_{d|n} Phi(d)            = 2^n - 1     (solved over the divisors of n)
    sum_{d|n} Phi_k(d, k)       = C(n, k)
    psi(n, d)                   = Phi(n / d)

Affine class totals come from a dynamic program over the gcd of
normalized sets.  Nothing here imports relprime, and nothing converts a
value of more than 4300 digits with str() or int(): long outputs are
compared by length, low digits and residues, so the checker never needs
to lift CPython's int-to-string limit.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

DIGIT_LIMIT = 4300
_LIMIT_VALUE = 10**DIGIT_LIMIT
DIGIT_LIMIT_MARK = "integer string conversion"
_FINGERPRINT_PRIMES = ((1 << 61) - 1, (1 << 89) - 1)
_CHUNK = 1000


@dataclass(frozen=True)
class Verdict:
    """Outcome of one request: ok, or the failure cause."""

    ok: bool
    cause: str | None = None
    over_limit: bool = False  # some expected value has more than 4300 digits


# ------------------------------------------------------------ arithmetic

def divisors(n: int) -> list[int]:
    """Divisors of n, ascending, from a trial-division factorization."""
    divs = [1]
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            divs = [d * p**i for d in divs for i in range(e + 1)]
        p += 1
    if m > 1:
        divs += [d * m for d in divs]
    return sorted(divs)


class Reference:
    """Exact f, f_k, Phi, Phi_k and psi, memoized across requests."""

    def __init__(self) -> None:
        self._f: dict[int, int] = {}
        self._fk: dict[tuple[int, int], int] = {}
        self._phi: dict[int, int] = {}
        self._phik: dict[tuple[int, int], int] = {}

    @staticmethod
    def _quotients(n: int) -> list[int]:
        """All distinct [n/d], ascending; the set is closed under [./d]."""
        out, d = set(), 1
        while d <= n:
            q = n // d
            out.add(q)
            d = n // q + 1
        return sorted(out)

    @staticmethod
    def _solve_quotients(n: int, total, memo: dict, key) -> int:
        # value(m) = total(m) - sum_{d=2..m} value([m/d]), with the d that
        # share a quotient q handled as one block.
        for m in Reference._quotients(n):
            if key(m) in memo:
                continue
            acc, d = total(m), 2
            while d <= m:
                q = m // d
                last = m // q
                acc -= (last - d + 1) * memo[key(q)]
                d = last + 1
            memo[key(m)] = acc
        return memo[key(n)]

    def f(self, n: int) -> int:
        return self._solve_quotients(n, lambda m: (1 << m) - 1, self._f, lambda m: m)

    def fk(self, n: int, k: int) -> int:
        return self._solve_quotients(n, lambda m: math.comb(m, k), self._fk, lambda m: (m, k))

    @staticmethod
    def _solve_divisors(n: int, total, memo: dict, key) -> int:
        # value(e) = total(e) - sum_{d|e, d<e} value(d), over e | n ascending.
        divs = divisors(n)
        for i, e in enumerate(divs):
            if key(e) in memo:
                continue
            memo[key(e)] = total(e) - sum(memo[key(d)] for d in divs[:i] if e % d == 0)
        return memo[key(n)]

    def phi(self, n: int) -> int:
        return self._solve_divisors(n, lambda e: (1 << e) - 1, self._phi, lambda e: e)

    def phik(self, n: int, k: int) -> int:
        return self._solve_divisors(n, lambda e: math.comb(e, k), self._phik, lambda e: (e, k))

    def psi(self, n: int, d: int) -> int:
        return self.phi(n // d)


def affine_classes(n: int, k: int | None = None) -> int:
    """Affine classes among nonempty subsets of {0..n}, or its k-subsets.

    Every class of size >= 2 has normalized forms {0, m} + B with B in
    {1..m-1}, m <= n and gcd(B + {m}) = 1, paired by the reflection
    x -> m - x; so it counts (all normalized sets + symmetric ones) / 2.
    Singletons form one class.
    """
    by_size = [0] * (n + 2)
    by_size[1] = 1
    for m in range(1, n + 1):
        plain = _gcd_one_fills(m, [(x, 1) for x in range(1, m)])
        pairs = [(x, 2) for x in range(1, (m + 1) // 2)]
        if m % 2 == 0:
            pairs.append((m // 2, 1))
        symmetric = _gcd_one_fills(m, pairs)
        for size in range(len(plain)):
            by_size[size + 2] += (plain[size] + symmetric[size]) // 2
    return sum(by_size) if k is None else (by_size[k] if k < len(by_size) else 0)


def _gcd_one_fills(m: int, parts: list[tuple[int, int]]) -> list[int]:
    """Count choices of parts (value, element count) with gcd(m, values) = 1,
    indexed by the number of elements chosen."""
    states = {m: [1] + [0] * (m - 1)}
    for value, width in parts:
        nxt = {g: row[:] for g, row in states.items()}
        for g, row in states.items():
            h = math.gcd(g, value)
            out = nxt.setdefault(h, [0] * m)
            for size, count in enumerate(row):
                if count and size + width < m:
                    out[size + width] += count
        states = nxt
    return states.get(1, [0] * m)


# --------------------------------------------------------- decimal match

def matches(text: str, value: int) -> bool:
    """True iff text is the decimal form of value.

    Short values are compared exactly; long ones by digit count, the low
    64 digits and residues modulo two Mersenne primes, all computed from
    chunks of at most 1000 digits.
    """
    if not re.fullmatch(r"-?[0-9]+", text):
        return False
    if abs(value) < _LIMIT_VALUE:
        return text == str(value)
    if value < 0 or text[0] == "0":
        return False
    digits = len(text)
    if not 10 ** (digits - 1) <= value < 10**digits:
        return False
    if int(text[-64:]) != value % 10**64:
        return False
    for p in _FINGERPRINT_PRIMES:
        r = 0
        for i in range(0, digits, _CHUNK):
            chunk = text[i:i + _CHUNK]
            r = (r * pow(10, len(chunk), p) + int(chunk)) % p
        if r != value % p:
            return False
    return True


# ------------------------------------------------------------ the checks

def _n_values(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("..")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _options(argv: list[str], start: int) -> dict[str, str | bool]:
    opts: dict[str, str | bool] = {}
    i = start
    while i < len(argv):
        if argv[i] == "--inequivalent":
            opts["inequivalent"] = True
            i += 1
        else:
            opts[argv[i][2:]] = argv[i + 1]
            i += 2
    return opts


class Checker:
    """Checks CLI outputs against the references; keeps memo tables."""

    def __init__(self) -> None:
        self.ref = Reference()

    def check(self, argv: list[str], code: int | None, stdout: str, stderr: str) -> Verdict:
        over = self.over_limit(argv)
        if code is None:
            return Verdict(False, "timeout", over)
        if code != 0:
            if code == 2 and DIGIT_LIMIT_MARK in stderr:
                return Verdict(False, "digit_limit", over)
            return Verdict(False, f"exit_{code}", over)
        try:
            problem = self._output_problem(argv, stdout)
        except (ValueError, KeyError, IndexError, TypeError):
            problem = "malformed output"
        if problem:
            return Verdict(False, f"wrong_output: {problem}", over)
        return Verdict(True, None, over)

    def expected_values(self, argv: list[str]) -> list[tuple[int, int]]:
        """(n, value) pairs a compute request must print, in order."""
        opts = _options(argv, 2)
        fn = argv[1]
        k = int(opts["k"]) if "k" in opts else None
        d = int(opts["d"]) if "d" in opts else None
        out = []
        for n in _n_values(opts["n"]):
            if fn == "f":
                v = self.ref.f(n)
            elif fn == "fk":
                v = self.ref.fk(n, k)
            elif fn == "phi":
                v = self.ref.phi(n)
            elif fn == "phik":
                v = self.ref.phik(n, k)
            else:
                v = self.ref.psi(n, d)
            out.append((n, v))
        return out

    def over_limit(self, argv: list[str]) -> bool:
        if argv[0] != "compute":
            return False
        return any(abs(v) >= _LIMIT_VALUE for _, v in self.expected_values(argv))

    def _output_problem(self, argv: list[str], stdout: str) -> str | None:
        if argv[0] == "compute":
            return self._compute_problem(argv, stdout)
        if argv[0] == "verify":
            suite, n_max = argv[1], int(argv[3])
            checks = {"asymptotics": n_max - 1, "closed-forms": 13}.get(suite, n_max)
            expected = f"{suite}: {checks} checks passed"
            return None if stdout.strip() == expected else f"expected {expected!r}"
        if argv[0] == "affine":
            return self._dist_problem(argv, stdout)
        if argv[0] == "bench":
            return self._bench_problem(argv, stdout)
        return f"no check for {argv[0]!r}"

    def _compute_problem(self, argv: list[str], stdout: str) -> str | None:
        expected = self.expected_values(argv)
        opts = _options(argv, 2)
        fmt = opts.get("format", "plain")
        lines = stdout.splitlines()
        if fmt == "plain":
            if len(lines) != 1:
                return "plain output is not one line"
            got = list(zip((n for n, _ in expected), lines[0].split(" ")))
            rows = len(lines[0].split(" "))
        elif fmt == "bfile":
            got = [(int(n), text) for n, text in (line.split(" ") for line in lines)]
            rows = len(got)
        else:
            got = []
            for line in lines:
                rec = json.loads(line)
                for key in ("k", "d"):
                    if rec.get(key) != (int(opts[key]) if key in opts else None):
                        return f"bad {key} in the JSON record for n={rec['n']}"
                if rec["method"] != "formula":
                    return f"bad method in the JSON record for n={rec['n']}"
                got.append((rec["n"], rec["value"]))
            rows = len(got)
        if rows != len(expected):
            return f"{rows} values printed, {len(expected)} expected"
        for (n, value), (got_n, text) in zip(expected, got):
            if got_n != n or not matches(text, value):
                return f"wrong value at n={n}"
        return None

    def _dist_problem(self, argv: list[str], stdout: str) -> str | None:
        opts = _options(argv, 2)
        n = int(opts["n"])
        k = int(opts["k"]) if "k" in opts else None
        pairs = [token.split(":") for token in stdout.split()]
        dist = {int(size): int(count) for size, count in pairs}
        if k is None:
            lo, hi = 1, 2 * n + 1
        else:
            lo, hi = 2 * k - 1, min(k * (k + 1) // 2, 2 * n + 1)
        if any(not lo <= size <= hi for size in dist):
            return "sumset size outside its bounds"
        if opts.get("inequivalent"):
            expected = affine_classes(n, k)
        else:
            expected = (1 << (n + 1)) - 1 if k is None else math.comb(n + 1, k)
        total = sum(dist.values())
        return None if total == expected else f"total {total}, expected {expected}"

    @staticmethod
    def _bench_problem(argv: list[str], stdout: str) -> str | None:
        ns = _n_values(argv[2])
        lines = stdout.splitlines()
        pattern = r"n=(\d+) formula_ms=[0-9.]+ oracle_ms=[0-9.]+ speedup=[0-9.]+"
        found = [re.fullmatch(pattern, line) for line in lines]
        if len(lines) != len(ns) or not all(found):
            return "malformed bench output"
        if [int(m.group(1)) for m in found] != ns:
            return "bench lines do not follow the requested n"
        return None
