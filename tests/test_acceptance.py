"""End-to-end acceptance checks.

Each test covers one exit criterion and prints a PASS/FAIL line (visible
with pytest -s).  Everything is exact arithmetic; the only tolerances
are wall-clock budgets.
"""

import time
from fractions import Fraction
from functools import lru_cache

import random

from relprime import affine, arith, counting, oracle, setphi
from relprime.arith import divisors, euler_phi
from relprime.cli import main

FIRST_TEN = "1 2 5 11 26 53 116 236 488 983"


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, name


def _sampled_ks(n: int):
    return sorted(k for k in {1, 2, 3, 5, 8, n // 2, n} if 1 <= k <= n)


def test_sequence_reproduction(capsys):
    start = time.perf_counter()
    code = main(["compute", "f", "--n", "1..10", "--format", "plain"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        _report(
            "sequence reproduction",
            code == 0 and out.strip() == FIRST_TEN and elapsed < 1.0,
            f"{elapsed:.3f}s",
        )


def test_oracle_equivalence(monkeypatch):
    # Every enumerate_* at one n reads the same histogram.
    monkeypatch.setattr(oracle, "gcd_histogram", lru_cache(maxsize=1)(oracle.gcd_histogram))
    start = time.perf_counter()
    ok = True
    for n in range(1, oracle.ORACLE_MAX + 1):
        ok = ok and counting.count_relprime(n) == oracle.enumerate_relprime(n)
        ok = ok and setphi.subset_phi(n) == oracle.enumerate_subset_phi(n)
        assert ok, f"unrestricted disagreement at n={n}"
        for k in range(1, n + 1):
            ok = ok and counting.count_relprime_k(n, k) == oracle.enumerate_relprime_k(n, k)
            ok = ok and setphi.subset_phi_k(n, k) == oracle.enumerate_subset_phi_k(n, k)
            assert ok, f"cardinality disagreement at n={n}, k={k}"
        for d in divisors(n):
            ok = ok and setphi.subset_psi(n, d) == oracle.enumerate_subset_psi(n, d)
            assert ok, f"gcd-class disagreement at n={n}, d={d}"
    elapsed = time.perf_counter() - start
    _report("oracle equivalence", ok and elapsed < 300.0, f"{elapsed:.1f}s")


def test_recursion_and_divisor_sum_identities():
    for n in range(1, 1001):
        assert counting.verify_recursion(n), f"count recursion failed at n={n}"
        assert setphi.verify_divisor_sum(n), f"divisor sum failed at n={n}"
        for k in _sampled_ks(n):
            assert counting.verify_recursion(n, k), (n, k)
            assert setphi.verify_divisor_sum(n, k), (n, k)
    _report("recursion and divisor-sum identities", True, "n <= 1000, sampled k")


def test_closed_forms():
    for p in (2, 3, 5, 7, 11, 13):
        assert setphi.subset_phi(p) == 2**p - 2, p
    for p in (2, 3, 5):
        assert setphi.subset_phi(p * p) == 2 ** (p * p) - 2**p, p
    for p, q in ((2, 3), (2, 5), (3, 5), (2, 7)):
        assert setphi.subset_phi(p * q) == 2 ** (p * q) - 2**q - 2**p + 2, (p, q)
    _report("prime-argument closed forms", True)


def test_euler_reduction():
    for n in range(1, 1001):
        assert setphi.subset_phi_k(n, 1) == euler_phi(n), n
    _report("cardinality-one reduction to euler phi", True, "n <= 1000")


def test_sandwich_bounds():
    # n = 1 sits outside the checked range for the unrestricted count;
    # negative lower endpoints are vacuously satisfied.
    for n in range(2, 1001):
        lo, hi = counting.sandwich_bounds(n)
        assert lo <= counting.count_relprime(n) <= hi, n
    for n in range(1, 1001):
        for k in _sampled_ks(n):
            lo, hi = counting.sandwich_bounds(n, k)
            assert lo <= counting.count_relprime_k(n, k) <= hi, (n, k)
    _report("sandwich bounds", True, "2 <= n <= 1000, sampled k")


def test_asymptotic_envelopes():
    for n in range(2, 1001):
        report = setphi.asymptotic_report(n)
        assert abs(report.residual) <= setphi.residual_bound(n), n
        for k in _sampled_ks(n):
            rk = setphi.asymptotic_report(n, k)
            assert abs(rk.residual) <= setphi.residual_bound(n, k), (n, k)
    _report("asymptotic residual envelopes", True, "2 <= n <= 1000, sampled k")


def test_affine_worked_example_and_random_invariance():
    a, b = [2, 8, 11, 20], [-4, 10, 17, 38]
    for s in (a, b):
        form = affine.canonical_form(s)
        assert form.base == (0, 2, 3, 6), s
        assert form.mirror == (0, 3, 4, 6), s
    assert affine.affinely_equivalent(a, b)

    rng = random.Random(20070103)
    for trial in range(1000):
        size = rng.randint(1, 8)
        base = set()
        while len(base) < size:
            base.add(rng.randint(-30, 30))
        q = rng.randint(1, 6)
        p = rng.choice([v for v in range(-6, 7) if v != 0])
        anchor = rng.randint(-10, 10)
        w = rng.randint(-10, 10)
        domain = [q * r + anchor for r in base]
        x = Fraction(p, q)
        y = Fraction(w * q - p * anchor, q)
        image = affine.affine_map(domain, x, y)
        assert (
            affine.canonical_form(image).representative
            == affine.canonical_form(domain).representative
        ), trial
        assert affine.invariant_profile(image) == affine.invariant_profile(domain), trial
    _report("affine canonicalization and invariance", True, "1000 trials")


def test_sumset_cardinality_bounds():
    from itertools import combinations

    start = time.perf_counter()
    for k in range(1, 7):
        for subset in combinations(range(13), k):
            size = len({x + y for x in subset for y in subset})
            assert 2 * k - 1 <= size <= k * (k + 1) // 2, subset
    elapsed = time.perf_counter() - start
    _report("sumset cardinality bounds", elapsed < 30.0, f"{elapsed:.1f}s")


def test_formula_versus_enumeration_speed():
    # Best of five on each side: a single timing of the formula (tens of
    # microseconds) can be stretched past the margin by one short pause.
    # At the enumeration guard, where enumeration costs the most.
    n = oracle.ORACLE_MAX
    formula_s = oracle_s = float("inf")
    for _ in range(5):
        arith._clear_kernel_memos()  # every formula repetition starts cold
        start = time.perf_counter()
        formula_value = counting.count_relprime(n)
        formula_s = min(formula_s, time.perf_counter() - start)
    for _ in range(5):
        start = time.perf_counter()
        oracle_value = oracle.enumerate_relprime(n)
        oracle_s = min(oracle_s, time.perf_counter() - start)

    ratio = oracle_s / max(formula_s, 1e-9)
    _report(
        "formula versus enumeration speed",
        formula_value == oracle_value and ratio >= 100.0,
        f"{ratio:.0f}x",
    )
