import math
from itertools import combinations

import pytest

from relprime import setphi
from relprime.arith import divisors, euler_phi
from relprime.setphi import (
    asymptotic_report,
    residual_bound,
    subset_phi,
    subset_phi_k,
    subset_psi,
    verify_divisor_sum,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def brute_phi(n: int) -> int:
    """Reference count: nonempty subsets whose gcd is coprime to n."""
    total = 0
    for mask in range(1, 1 << n):
        h = n
        for i in range(n):
            if mask >> i & 1:
                h = math.gcd(h, i + 1)
        total += h == 1
    return total


def brute_phi_k(n: int, k: int) -> int:
    total = 0
    for subset in combinations(range(1, n + 1), k):
        h = n
        for v in subset:
            h = math.gcd(h, v)
        total += h == 1
    return total


def brute_psi(n: int, d: int) -> int:
    total = 0
    for mask in range(1, 1 << n):
        h = n
        for i in range(n):
            if mask >> i & 1:
                h = math.gcd(h, i + 1)
        total += h == d
    return total


class TestSubsetPhi:
    def test_one_is_special(self):
        assert subset_phi(1) == 1

    def test_small_values(self):
        assert subset_phi(4) == 12  # 2^4 - 2^2
        assert subset_phi(6) == 54  # 2^6 - 2^3 - 2^2 + 2

    def test_matches_brute_force(self):
        for n in range(1, 15):
            assert subset_phi(n) == brute_phi(n), n

    def test_prime_closed_form(self):
        for p in PRIMES:
            assert subset_phi(p) == 2**p - 2, p

    def test_prime_square_closed_form(self):
        for p in (2, 3, 5):
            assert subset_phi(p * p) == 2 ** (p * p) - 2**p, p

    def test_semiprime_closed_form(self):
        pairs = [(p, q) for p in PRIMES for q in PRIMES if p < q and p * q <= 35]
        assert (2, 3) in pairs and (5, 7) in pairs
        for p, q in pairs:
            assert subset_phi(p * q) == 2 ** (p * q) - 2**q - 2**p + 2, (p, q)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            subset_phi(0)


class TestSubsetPhiK:
    def test_reduces_to_euler_phi(self):
        for n in range(1, 1001):
            assert subset_phi_k(n, 1) == euler_phi(n), n

    def test_pairs_of_four(self):
        # all 2-subsets of {1..4} except {2,4}
        assert subset_phi_k(4, 2) == 5

    def test_oversized_cardinality(self):
        assert subset_phi_k(5, 6) == 0
        assert subset_phi_k(1, 5) == 0

    def test_base_case(self):
        assert subset_phi_k(1, 1) == 1

    def test_matches_brute_force(self):
        for n in range(1, 12):
            for k in range(1, n + 1):
                assert subset_phi_k(n, k) == brute_phi_k(n, k), (n, k)

    def test_column_sum_equals_total(self):
        for n in range(1, 201):
            total = sum(subset_phi_k(n, k) for k in range(1, n + 1))
            assert total == subset_phi(n), n

    def test_memoized(self, cold_known):
        # The count keeps nothing; the divisor-sum check's memo of size 4 keeps
        # the 5 divisors of 30 that are >= 4, and a second check reads only those.
        assert not hasattr(subset_phi_k, "cache_info")
        assert verify_divisor_sum(30, 4)
        info = setphi._known(4).cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 5, 5)
        assert verify_divisor_sum(30, 4)
        info = setphi._known(4).cache_info()
        assert (info.hits, info.misses, info.currsize) == (5, 5, 5)
        assert setphi._known.cache_info().currsize == 1  # one memo, of size 4

    def test_rejects_zero_arguments(self):
        with pytest.raises(ValueError):
            subset_phi_k(0, 1)
        with pytest.raises(ValueError):
            subset_phi_k(4, 0)


class TestSubsetPsi:
    def test_examples(self):
        assert subset_psi(6, 6) == 1
        assert subset_psi(6, 2) == 6
        assert subset_psi(6, 1) == 54

    def test_matches_brute_force(self):
        for n in range(1, 13):
            for d in divisors(n):
                assert subset_psi(n, d) == brute_psi(n, d), (n, d)

    def test_partitions_all_subsets(self):
        for n in range(1, 1001):
            total = sum(subset_psi(n, d) for d in divisors(n))
            assert total == 2**n - 1, n

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            subset_psi(6, 4)
        with pytest.raises(ValueError):
            subset_psi(6, 0)


class TestDivisorSums:
    def test_examples(self):
        assert verify_divisor_sum(1)
        assert verify_divisor_sum(4)  # 1 + 2 + 12 = 15
        assert verify_divisor_sum(6)  # 1 + 2 + 6 + 54 = 63

    def test_holds_up_to_four_hundred(self):
        for n in range(1, 401):
            assert verify_divisor_sum(n), n

    def test_k_variant(self):
        assert verify_divisor_sum(4, 2)  # 0 + 1 + 5 = 6
        assert verify_divisor_sum(6, 3)
        for n in range(1, 101):
            for k in (1, 2, 3, 5, 8, n // 2, n):
                if 1 <= k <= n:
                    assert verify_divisor_sum(n, k), (n, k)

    def test_gauss_identity(self):
        # sum_{d|n} phi(d) = n, through the k = 1 reduction
        for n in range(1, 201):
            assert sum(subset_phi_k(d, 1) for d in divisors(n)) == n, n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            verify_divisor_sum(0)
        with pytest.raises(ValueError):
            verify_divisor_sum(4, 0)


class TestAsymptotics:
    def test_report_examples(self):
        nine = asymptotic_report(9)
        assert (nine.value, nine.main_term, nine.residual) == (504, 512, -8)
        assert residual_bound(9) == 72

        four = asymptotic_report(4)
        assert four.residual == 0  # 12 = 2^4 - 2^2 exactly
        two = asymptotic_report(2)
        assert two.residual == 0

    def test_report_k_examples(self):
        r = asymptotic_report(9, 2)
        assert (r.value, r.main_term, r.residual) == (33, 36, -3)
        assert residual_bound(9, 2) == 27
        assert asymptotic_report(4, 2).residual == 0
        assert asymptotic_report(2, 1).residual == 0

    def test_value_splits_into_main_and_residual(self):
        for n in range(1, 200):
            report = asymptotic_report(n)
            assert report.value == report.main_term + report.residual
            assert report.value == subset_phi(n)

    def test_envelope(self):
        for n in range(2, 401):
            assert abs(asymptotic_report(n).residual) <= residual_bound(n), n

    def test_envelope_k(self):
        for n in range(2, 151):
            for k in (1, 2, 3, 5, 8, n // 2, n):
                if 1 <= k <= n:
                    report = asymptotic_report(n, k)
                    assert abs(report.residual) <= residual_bound(n, k), (n, k)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            asymptotic_report(0)
        with pytest.raises(ValueError):
            asymptotic_report(3, 0)
        with pytest.raises(ValueError):
            residual_bound(0)
        with pytest.raises(ValueError):
            residual_bound(0, 1)
