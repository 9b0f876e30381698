import math

import pytest

from relprime.arith import divisors
from relprime.counting import count_relprime, count_relprime_k
from relprime.oracle import (
    ORACLE_MAX,
    enumerate_count_by_gcd,
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
        for bad in (0, -3, ORACLE_MAX + 1, 40):
            with pytest.raises(ValueError):
                enumerate_relprime(bad)
            with pytest.raises(ValueError):
                enumerate_subset_phi(bad)
        # The other four wrappers, with valid k and d, rely on the same check.
        for bad in (0, ORACLE_MAX + 1):
            for call in (enumerate_relprime_k, enumerate_subset_phi_k,
                         enumerate_subset_psi, enumerate_count_by_gcd):
                with pytest.raises(ValueError):
                    call(bad, 1)

    def test_psi_requires_divisor(self):
        with pytest.raises(ValueError):
            enumerate_subset_psi(6, 4)

    def test_count_by_gcd_range(self):
        with pytest.raises(ValueError):
            enumerate_count_by_gcd(10, 0)
        with pytest.raises(ValueError):
            enumerate_count_by_gcd(10, 11)

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
        assert enumerate_count_by_gcd(10, 2) == 26
        assert enumerate_count_by_gcd(10, 10) == 1
        assert enumerate_count_by_gcd(10, 7) == 1

    def test_equals_scaled_count(self):
        # Dividing through by d bijects gcd-d subsets of {1..n} onto the
        # relatively prime subsets of {1..[n/d]}.
        for n in range(1, 13):
            for d in range(1, n + 1):
                assert enumerate_count_by_gcd(n, d) == count_relprime(n // d), (n, d)

    def test_partitions_all_subsets(self):
        for n in list(range(1, 13)) + [16, 20]:
            total = sum(enumerate_count_by_gcd(n, d) for d in range(1, n + 1))
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
            for d in range(1, n + 1):
                assert enumerate_count_by_gcd(n, d) == reference_count_by_gcd(n, d), (n, d)

    def test_histogram_covers_every_subset_once(self):
        # The split into a 2^16 low table and a loop over high parts
        # starts at n = 17; every (size, gcd) cell sums to C(n, size).
        for n in (1, 2, 16, 17, 18, 20):
            counts = gcd_histogram(n).counts
            assert counts[0] == (1,) + (0,) * n, n
            for size, row in enumerate(counts):
                assert sum(row) == math.comb(n, size), (n, size)
