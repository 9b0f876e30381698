import inspect
import math
from functools import lru_cache
from math import gcd

import pytest

from relprime import oracle
from relprime.arith import divisors
from relprime.counting import count_relprime, count_relprime_k
from relprime.oracle import (
    ORACLE_MAX,
    gcd_histogram,
    enumerate_relprime,
    enumerate_relprime_k,
    enumerate_subset_phi,
    enumerate_subset_phi_k,
    enumerate_subset_psi,
)
from relprime.setphi import subset_phi, subset_phi_k, subset_psi


def full_gcd_count(n: int) -> int:
    """Relatively prime subsets counted with no early exit anywhere."""
    total = 0
    for mask in range(1, 1 << n):
        elems = [i + 1 for i in range(n) if mask >> i & 1]
        g = 0
        for v in elems:
            g = math.gcd(g, v)
        total += g == 1
    return total


# The oracle as it stood before the two-halves combine, kept verbatim as
# the reference for its counts: the gcds of all subsets of {1,...,16} in a
# low table, mapped through g -> gcd(g, h) for every subset of the rest.

_LOW_BITS = 16  # the low table holds the gcds of 2^16 subsets


def _gcds_by_size(elements, gcd_with: list[bytes]) -> list[bytes]:
    """by_size[k]: the gcd of every k-subset of elements, one byte each."""
    by_size = [b"\0"]  # the empty set
    for e in elements:
        extended = [gcds.translate(gcd_with[e]) for gcds in by_size]
        by_size = [
            without + with_e
            for without, with_e in zip(by_size + [b""], [b""] + extended)
        ]
    return by_size


def split_scan_counts(n: int):
    gcd_with = [bytes(gcd(g, e) for g in range(256)) for e in range(n + 1)]
    split = min(n, _LOW_BITS)
    low = _gcds_by_size(range(1, split + 1), gcd_with)
    high = _gcds_by_size(range(split + 1, n + 1), gcd_with)
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for high_size, high_gcds in enumerate(high):
        for h in high_gcds:
            # gcd(g, h) divides h; an empty high part (h = 0) leaves g as it is.
            values = range(split + 1) if h == 0 else [g for g in range(1, h + 1) if h % g == 0]
            for low_size, low_gcds in enumerate(low):
                gcds = low_gcds.translate(gcd_with[h])
                row = counts[high_size + low_size]
                for g in values:
                    row[g] += gcds.count(g)
    return tuple(map(tuple, counts))


def formula_disagreements(n: int) -> list:
    """Every enumerate_* at n that differs from its formula, for every k and d."""
    wrong = []
    if enumerate_relprime(n) != count_relprime(n):
        wrong.append("f")
    if enumerate_subset_phi(n) != subset_phi(n):
        wrong.append("phi")
    for k in range(1, n + 1):
        if enumerate_relprime_k(n, k) != count_relprime_k(n, k):
            wrong.append(("f_k", k))
        if enumerate_subset_phi_k(n, k) != subset_phi_k(n, k):
            wrong.append(("phi_k", k))
    for d in divisors(n):
        if enumerate_subset_psi(n, d) != subset_psi(n, d):
            wrong.append(("psi", d))
    scan = oracle.gcd_histogram(n)  # the one the enumerate_* read, patched or not
    for d in range(1, n + 1):
        if scan.with_gcd(d) != count_relprime(n // d):
            wrong.append(("by_gcd", d))
    return wrong


def one_scan_per_n(monkeypatch):
    """Every enumerate_* at the same n reads one histogram."""
    monkeypatch.setattr(oracle, "gcd_histogram", lru_cache(maxsize=1)(oracle.gcd_histogram))


def _without_empty_high_subset(monkeypatch):
    by_size = oracle._gcds_by_size

    def mutant(elements, gcd_with):
        gcds = by_size(elements, gcd_with)
        if elements.start > 1:  # the high half loses its empty subset
            gcds[0] = b""
        return gcds

    monkeypatch.setattr(oracle, "_gcds_by_size", mutant)


def _max_for_gcd_in_the_combine(monkeypatch):
    source = inspect.getsource(oracle.gcd_histogram)
    assert source.count("row[gcd(g, h)]") == 1
    namespace = dict(vars(oracle))
    exec(source.replace("row[gcd(g, h)]", "row[max(g, h)]"), namespace)
    monkeypatch.setattr(oracle, "gcd_histogram", namespace["gcd_histogram"])


# Reference per-mask scans: one independent 2^n loop per count, kept as
# the oracle stood before it became a single histogram scan.

def reference_relprime(n: int) -> int:
    count = 0
    for mask in range(1, 1 << n):
        g = 0
        m = mask
        while m:
            low = m & -m
            g = math.gcd(g, low.bit_length())
            if g == 1:
                count += 1
                break
            m ^= low
    return count


def reference_relprime_k(n: int, k: int) -> int:
    count = 0
    for mask in range(1, 1 << n):
        if mask.bit_count() != k:
            continue
        g = 0
        m = mask
        while m:
            low = m & -m
            g = math.gcd(g, low.bit_length())
            if g == 1:
                count += 1
                break
            m ^= low
    return count


def reference_subset_phi(n: int) -> int:
    count = 0
    for mask in range(1, 1 << n):
        h = n  # gcd(h, elements...) ends at gcd(gcd(A), n)
        m = mask
        while m:
            low = m & -m
            h = math.gcd(h, low.bit_length())
            if h == 1:
                break
            m ^= low
        if h == 1:
            count += 1
    return count


def reference_subset_phi_k(n: int, k: int) -> int:
    count = 0
    for mask in range(1, 1 << n):
        if mask.bit_count() != k:
            continue
        h = n
        m = mask
        while m:
            low = m & -m
            h = math.gcd(h, low.bit_length())
            if h == 1:
                break
            m ^= low
        if h == 1:
            count += 1
    return count


def reference_subset_psi(n: int, d: int) -> int:
    count = 0
    for mask in range(1, 1 << n):
        h = n
        m = mask
        while m:
            low = m & -m
            h = math.gcd(h, low.bit_length())
            if h == 1:
                break
            m ^= low
        if h == d:
            count += 1
    return count


def reference_count_by_gcd(n: int, d: int) -> int:
    count = 0
    for mask in range(1, 1 << n):
        g = 0
        m = mask
        while m:
            low = m & -m
            g = math.gcd(g, low.bit_length())
            if g == 1:
                break
            m ^= low
        if g == d:
            count += 1
    return count


class TestGuards:
    def test_rejects_outside_range(self):
        for bad in (0, -3, ORACLE_MAX + 1, 41):
            with pytest.raises(ValueError):
                enumerate_relprime(bad)
            with pytest.raises(ValueError):
                enumerate_subset_phi(bad)
        # The other three wrappers, with valid k and d, rely on the same check.
        for bad in (0, ORACLE_MAX + 1):
            for call in (enumerate_relprime_k, enumerate_subset_phi_k, enumerate_subset_psi):
                with pytest.raises(ValueError):
                    call(bad, 1)

    def test_psi_requires_divisor(self):
        with pytest.raises(ValueError):
            enumerate_subset_psi(6, 4)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            enumerate_relprime_k(5, 0)
        with pytest.raises(ValueError):
            enumerate_subset_phi_k(5, 0)


class TestEnumerateRelprime:
    def test_examples(self):
        assert enumerate_relprime(1) == 1
        assert enumerate_relprime(3) == 5
        assert enumerate_relprime(10) == 983

    def test_k_examples(self):
        assert enumerate_relprime_k(4, 2) == 5
        assert enumerate_relprime_k(2, 2) == 1
        for n in (1, 3, 7, 12):
            assert enumerate_relprime_k(n, 1) == 1

    def test_early_exit_is_neutral(self):
        # Differential check against the no-early-exit scan.
        for n in range(1, 17):
            assert enumerate_relprime(n) == full_gcd_count(n), n


class TestEnumerateSubsetPhi:
    def test_examples(self):
        assert enumerate_subset_phi(4) == 12
        assert enumerate_subset_phi(6) == 54
        assert enumerate_subset_phi_k(6, 1) == 2

    def test_psi_examples(self):
        assert enumerate_subset_psi(6, 6) == 1
        assert enumerate_subset_psi(6, 2) == 6
        assert enumerate_subset_psi(6, 1) == 54

    def test_psi_partitions_all_subsets(self):
        for n in list(range(1, 17)) + [18, 20]:
            total = sum(enumerate_subset_psi(n, d) for d in divisors(n))
            assert total == 2**n - 1, n


class TestCountByGcd:
    def test_examples(self):
        scan = gcd_histogram(10)
        assert scan.with_gcd(2) == 26
        assert scan.with_gcd(10) == 1
        assert scan.with_gcd(7) == 1

    def test_equals_scaled_count(self):
        # Dividing through by d bijects gcd-d subsets of {1..n} onto the
        # relatively prime subsets of {1..[n/d]}.
        for n in range(1, 13):
            scan = gcd_histogram(n)
            for d in range(1, n + 1):
                assert scan.with_gcd(d) == count_relprime(n // d), (n, d)

    def test_partitions_all_subsets(self):
        for n in list(range(1, 13)) + [16, 20]:
            scan = gcd_histogram(n)
            total = sum(scan.with_gcd(d) for d in range(1, n + 1))
            assert total == 2**n - 1, n


class TestFormulaAgreement:
    def test_unrestricted(self):
        for n in range(1, 15):
            assert enumerate_relprime(n) == count_relprime(n), n
            assert enumerate_subset_phi(n) == subset_phi(n), n

    def test_cardinality_restricted(self):
        for n in range(1, 12):
            for k in range(1, n + 1):
                assert enumerate_relprime_k(n, k) == count_relprime_k(n, k), (n, k)
                assert enumerate_subset_phi_k(n, k) == subset_phi_k(n, k), (n, k)

    def test_psi(self):
        for n in range(1, 15):
            for d in divisors(n):
                assert enumerate_subset_psi(n, d) == subset_psi(n, d), (n, d)


class TestAgainstPerMaskReference:
    def test_every_projection(self):
        for n in range(1, 15):
            assert enumerate_relprime(n) == reference_relprime(n), n
            assert enumerate_subset_phi(n) == reference_subset_phi(n), n
            for k in range(1, n + 3):
                assert enumerate_relprime_k(n, k) == reference_relprime_k(n, k), (n, k)
                assert enumerate_subset_phi_k(n, k) == reference_subset_phi_k(n, k), (n, k)
            for d in divisors(n):
                assert enumerate_subset_psi(n, d) == reference_subset_psi(n, d), (n, d)
            scan = gcd_histogram(n)
            for d in range(1, n + 1):
                assert scan.with_gcd(d) == reference_count_by_gcd(n, d), (n, d)

    def test_histogram_covers_every_subset_once(self):
        # The halves {1..n//2} and {n//2+1..n}: empty at n = 1, equal at
        # even n, the high one larger at odd n.  Every (size, gcd) row sums
        # to C(n, size).
        for n in (1, 2, 3, 16, 17, 18, 20, 39, ORACLE_MAX):
            counts = gcd_histogram(n).counts
            assert counts[0] == (1,) + (0,) * n, n
            for size, row in enumerate(counts):
                assert sum(row) == math.comb(n, size), (n, size)


class TestTwoHalves:
    def test_equals_the_split_scan(self):
        for n in range(1, 27):
            assert gcd_histogram(n).counts == split_scan_counts(n), n

    def test_equals_the_formulas_past_the_split_scan(self, monkeypatch):
        one_scan_per_n(monkeypatch)
        for n in range(27, ORACLE_MAX + 1):
            assert formula_disagreements(n) == [], n

    @pytest.mark.parametrize("mutate", [_without_empty_high_subset, _max_for_gcd_in_the_combine])
    def test_mutants_are_caught(self, monkeypatch, mutate):
        mutate(monkeypatch)
        for n in range(2, 27):
            assert oracle.gcd_histogram(n).counts != split_scan_counts(n), n
        one_scan_per_n(monkeypatch)
        for n in (27, ORACLE_MAX):
            assert formula_disagreements(n) != [], n
