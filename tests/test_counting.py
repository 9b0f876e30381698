import math
import random
from collections import Counter
from itertools import combinations

import pytest

from relprime import counting
from relprime.counting import (
    count_relprime,
    count_relprime_k,
    sandwich_bounds,
    verify_recursion,
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

    def test_memoized(self, cold_known):
        # The count keeps nothing; the recursion check's memo of size 4 keeps
        # the 7 distinct [30/d] >= 4, and a second check reads only those.
        assert not hasattr(count_relprime_k, "cache_info")
        assert verify_recursion(30, 4)
        info = counting._known(4).cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 7, 7)
        assert verify_recursion(30, 4)
        info = counting._known(4).cache_info()
        assert (info.hits, info.misses, info.currsize) == (7, 7, 7)
        assert counting._known.cache_info().currsize == 1  # one memo, of size 4

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

    def test_lower_end_covers_the_construction(self):
        # The sets that contain 1, and those without 1 that contain {2,3},
        # {2,5} but not 3, or {3,5} but not 2, are relatively prime:
        # 2^(n-1) + 2^(n-2) sets for n >= 5.  From n = 8 the lower end is
        # at least that many; below it the oracle suite checks the count.
        for n in range(5, 8):
            assert count_relprime(n) >= 3 << (n - 2), n
        for n in range(8, 3001):
            assert sandwich_bounds(n)[0] >= 3 << (n - 2), n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sandwich_bounds(0)


class TestSandwichBoundsK:
    def test_examples(self):
        assert sandwich_bounds(4, 2) == (5, 5)
        assert sandwich_bounds(2, 2) == (1, 1)

    def test_singleton_column_contains_one(self):
        for n in range(6, 40):
            lo, hi = sandwich_bounds(n, 1)
            assert lo <= 1 <= hi, n

    def test_sandwich_holds(self):
        for n in range(1, 101):
            for k in range(1, n + 1):
                lo, hi = sandwich_bounds(n, k)
                assert lo <= count_relprime_k(n, k) <= hi, (n, k)

    def test_rejects_zero_arguments(self):
        with pytest.raises(ValueError):
            sandwich_bounds(0, 1)
        with pytest.raises(ValueError):
            sandwich_bounds(3, 0)


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
        assert verify_recursion(4, 2)
        assert verify_recursion(6, 3)
        for n in range(1, 50):
            assert verify_recursion(n, 1), n

    def test_k_variant_sampled(self):
        for n in range(1, 101):
            for k in (1, 2, 3, 5, 8, n // 2, n):
                if 1 <= k <= n:
                    assert verify_recursion(n, k), (n, k)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            verify_recursion(0)
        with pytest.raises(ValueError):
            verify_recursion(5, 0)


SPLIT_N_MAX = 1500


def split_ks(n: int) -> list[int]:
    """The k the split sums are checked at, k = n + 1 (no terms) included."""
    return sorted({k for k in (1, 2, 3, 5, 8, n // 2, n, n + 1) if k >= 1})


def plain_terms(n: int) -> Counter:
    """q -> the number of d = 1..n with [n/d] = q, found by trying every d."""
    return Counter(n // d for d in range(1, n + 1))


class RecordingCount:
    """A stand-in for the memos by size: the memo of each size returns
    values[q] and records each q asked for."""

    def __init__(self):
        self.values: dict[int, int] = {}
        self.asked: list[int] = []

    def __call__(self, k):
        return self.count

    def count(self, q):
        self.asked.append(q)
        return self.values[q]  # a q with no value is a KeyError


class TestSplitSums:
    """verify_recursion sums on the isqrt split; the plain sum runs over every d."""

    def test_the_counts_agree_with_the_plain_sums(self):
        for n in range(1, SPLIT_N_MAX + 1):
            terms = plain_terms(n)
            plain = sum(m * count_relprime(q) for q, m in terms.items())
            assert verify_recursion(n) == (plain == (1 << n) - 1), n
            for k in split_ks(n):
                plain = sum(m * count_relprime_k(q, k) for q, m in terms.items() if q >= k)
                assert verify_recursion(n, k) == (plain == math.comb(n, k)), (n, k)

    def test_any_counts_agree_with_the_plain_sums(self, monkeypatch):
        # Arbitrary values at q < n, and at q = n the value that makes the
        # plain sum hit its target: the split sum must hit it as well, and
        # must ask for each distinct quotient >= k exactly once.
        rng = random.Random(SPLIT_N_MAX)
        arbitrary = [rng.getrandbits(64) for _ in range(SPLIT_N_MAX + 2)]
        count = RecordingCount()
        monkeypatch.setattr(counting, "_known", count)
        for n in range(1, SPLIT_N_MAX + 1):
            terms = plain_terms(n)
            for k in (None, *split_ks(n)):
                low, target = (1, (1 << n) - 1) if k is None else (k, math.comb(n, k))
                count.values = {q: arbitrary[q] + low for q in terms if q >= low}
                if n >= low:
                    rest = sum(m * count.values[q] for q, m in terms.items() if low <= q < n)
                    count.values[n] = target - rest
                count.asked = []
                assert verify_recursion(n, k), (n, k)
                assert sorted(count.asked) == sorted(count.values), (n, k)

    def test_a_count_off_by_one_at_one_q_is_caught(self, monkeypatch, cold_known):
        def off_at_12(q, k):
            return count_relprime_k(q, k) + (q == 12)

        monkeypatch.setattr(counting, "count_relprime_k", off_at_12)
        # 12 is [25/2], one d at a time, and [150/12], a weighted q <= isqrt(150).
        for n in (12, 25, 150):
            for k in range(1, 13):
                assert not verify_recursion(n, k), (n, k)
            # For k = 13 the quotient 12 is below k and is not read.
            assert verify_recursion(n, 13), n
        assert verify_recursion(11, 1)

