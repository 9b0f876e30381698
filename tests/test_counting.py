import math
from itertools import combinations

import pytest

from relprime.counting import (
    CountReport,
    construction_lower_bound,
    count_relprime,
    count_relprime_k,
    sandwich_bounds,
    sandwich_bounds_k,
    verify_recursion,
    verify_recursion_k,
)

# First ten values, the canonical fingerprint of the unrestricted count.
FIRST_TEN = [1, 2, 5, 11, 26, 53, 116, 236, 488, 983]


def brute_count(n: int) -> int:
    """Reference count by scanning all nonempty subsets."""
    total = 0
    for mask in range(1, 1 << n):
        g = 0
        for i in range(n):
            if mask >> i & 1:
                g = math.gcd(g, i + 1)
        total += g == 1
    return total


def brute_count_k(n: int, k: int) -> int:
    total = 0
    for subset in combinations(range(1, n + 1), k):
        g = 0
        for v in subset:
            g = math.gcd(g, v)
        total += g == 1
    return total


class TestCountRelprime:
    def test_first_ten(self):
        assert [count_relprime(n) for n in range(1, 11)] == FIRST_TEN

    def test_matches_brute_force(self):
        for n in range(1, 15):
            assert count_relprime(n) == brute_count(n), n

    def test_monotone_strictly_increasing(self):
        prev = count_relprime(1)
        for n in range(2, 301):
            cur = count_relprime(n)
            assert cur > prev, n
            prev = cur

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            count_relprime(0)


class TestCountRelprimeK:
    def test_singletons(self):
        # {1} is the only relatively prime singleton.
        for n in (1, 2, 5, 17, 100):
            assert count_relprime_k(n, 1) == 1

    def test_pairs_of_four(self):
        # {1,2},{1,3},{1,4},{2,3},{3,4}
        assert count_relprime_k(4, 2) == 5

    def test_oversized_cardinality(self):
        assert count_relprime_k(4, 5) == 0

    def test_matches_brute_force(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert count_relprime_k(n, k) == brute_count_k(n, k), (n, k)

    def test_column_sum_equals_total(self):
        for n in range(1, 201):
            total = sum(count_relprime_k(n, k) for k in range(1, n + 1))
            assert total == count_relprime(n), n

    def test_memoized(self):
        count_relprime_k.cache_clear()
        assert count_relprime_k(30, 4) == count_relprime_k(30, 4)
        info = count_relprime_k.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_rejects_zero_arguments(self):
        with pytest.raises(ValueError):
            count_relprime_k(0, 1)
        with pytest.raises(ValueError):
            count_relprime_k(4, 0)


class TestSandwichBounds:
    def test_at_ten(self):
        assert sandwich_bounds(10) == (912, 992)

    def test_small_arguments(self):
        # Floor divisions: [1/2] = [1/3] = 0 and [2/3] = 0.
        assert sandwich_bounds(1) == (0, 1)
        assert sandwich_bounds(2) == (0, 2)

    def test_sandwich_holds_everywhere(self):
        # Including n = 1: 0 <= 1 <= 1.
        for n in range(1, 301):
            lo, hi = sandwich_bounds(n)
            assert lo <= count_relprime(n) <= hi, n

    def test_density_approaches_one(self):
        # Equivalent integral form of count/2^n >= 1 - 2^(-[n/2]) - n*2^(-2n/3+1),
        # weakened by rounding the exponents up.
        for n in range(1, 301):
            floor_term = 1 << ((n + 1) // 2)
            tail_term = n << ((n + 2) // 3 + 1)
            assert count_relprime(n) >= (1 << n) - floor_term - tail_term, n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sandwich_bounds(0)


class TestSandwichBoundsK:
    def test_examples(self):
        assert sandwich_bounds_k(4, 2) == (5, 5)
        assert sandwich_bounds_k(2, 2) == (1, 1)

    def test_singleton_column_contains_one(self):
        for n in range(6, 40):
            lo, hi = sandwich_bounds_k(n, 1)
            assert lo <= 1 <= hi, n

    def test_sandwich_holds(self):
        for n in range(1, 101):
            for k in range(1, n + 1):
                lo, hi = sandwich_bounds_k(n, k)
                assert lo <= count_relprime_k(n, k) <= hi, (n, k)

    def test_rejects_zero_arguments(self):
        with pytest.raises(ValueError):
            sandwich_bounds_k(0, 1)
        with pytest.raises(ValueError):
            sandwich_bounds_k(3, 0)


class TestRecursions:
    def test_base_case(self):
        assert verify_recursion(1)

    def test_explicit_sum_at_four(self):
        # 11 + 2 + 1 + 1 = 15 = 2^4 - 1
        parts = [count_relprime(4 // d) for d in range(1, 5)]
        assert parts == [11, 2, 1, 1]
        assert sum(parts) == 15

    def test_holds_up_to_three_hundred(self):
        for n in range(1, 301):
            assert verify_recursion(n), n

    def test_k_variant_examples(self):
        assert verify_recursion_k(4, 2)
        assert verify_recursion_k(6, 3)
        for n in range(1, 50):
            assert verify_recursion_k(n, 1), n

    def test_k_variant_sampled(self):
        for n in range(1, 101):
            for k in (1, 2, 3, 5, 8, n // 2, n):
                if 1 <= k <= n:
                    assert verify_recursion_k(n, k), (n, k)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            verify_recursion(0)
        with pytest.raises(ValueError):
            verify_recursion_k(5, 0)


class TestConstructionLowerBound:
    @pytest.mark.parametrize("n,expected", [(5, 24), (6, 48), (10, 768)])
    def test_examples(self, n, expected):
        assert construction_lower_bound(n) == expected

    def test_count_dominates_construction(self):
        for n in range(5, 201):
            assert count_relprime(n) >= construction_lower_bound(n), n

    def test_rejects_small_n(self):
        for n in (1, 4):
            with pytest.raises(ValueError):
                construction_lower_bound(n)


def test_count_report_round_trip():
    report = CountReport(n=10, count=983, method="formula", elapsed=0.0, k=None, d=None)
    assert report.count == 983
    assert report.method == "formula"
    with pytest.raises(AttributeError):
        report.count = 1  # frozen
