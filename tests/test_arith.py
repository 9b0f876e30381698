import math
import random

import pytest

from relprime.arith import (
    _clear_kernel_memos,
    _divisors,
    binomial,
    divisors,
    euler_phi,
    mobius_sieve,
)


def mu_by_factorization(n: int) -> int:
    """Reference Mobius value by trial factorization."""
    if n == 1:
        return 1
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


class TestMobius:
    def test_limit_one(self):
        # mu(0) = 0 starts the Mertens prefix sums at M(0) = 0.
        assert mobius_sieve(1) == (0, 1)

    def test_small_values(self):
        tab = mobius_sieve(6)
        assert tab[2] == -1
        assert tab[4] == 0
        assert tab[6] == 1

    def test_thirty(self):
        assert mobius_sieve(30)[30] == -1

    def test_matches_factorization(self):
        tab = mobius_sieve(300)
        assert len(tab) == 301
        for n in range(1, 301):
            assert tab[n] == mu_by_factorization(n), n

    def test_divisor_sum_vanishes(self):
        # sum_{d|n} mu(d) = 0 for every n >= 2
        tab = mobius_sieve(500)
        for n in range(2, 501):
            assert sum(tab[d] for d in divisors(n)) == 0, n

    def test_multiplicative_on_coprime_pairs(self):
        tab = mobius_sieve(90_000)
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randint(1, 300)
            b = rng.randint(1, 300)
            if math.gcd(a, b) != 1:
                continue
            assert tab[a * b] == tab[a] * tab[b], (a, b)

    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            mobius_sieve(0)


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, [1]),
            (6, [1, 2, 3, 6]),
            (12, [1, 2, 3, 4, 6, 12]),
        ],
    )
    def test_examples(self, n, expected):
        assert divisors(n) == expected

    def test_against_naive_scan(self):
        for n in range(1, 201):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    def test_returns_a_fresh_list_each_call(self):
        first = divisors(12)
        first.append(5)
        first[0] = 7
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert _divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_memo_is_cleared_with_the_kernel(self):
        divisors(30)
        assert _divisors.cache_info().currsize > 0
        _clear_kernel_memos()
        assert _divisors.cache_info().currsize == 0


class TestBinomial:
    def test_examples(self):
        assert binomial(4, 2) == 6
        assert binomial(3, 5) == 0
        assert binomial(50, 25) == 126410606437752

    def test_pascal_recurrence(self):
        # Build Pascal rows additively and compare every entry up to n = 200.
        row = [1]
        for n in range(1, 201):
            row = [1] + [row[i - 1] + row[i] for i in range(1, n)] + [1]
            for k, expected in enumerate(row):
                assert binomial(n, k) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial(-1, 2)
        with pytest.raises(ValueError):
            binomial(3, -2)


class TestEulerPhi:
    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 2), (100, 40)])
    def test_examples(self, n, expected):
        assert euler_phi(n) == expected

    def test_against_gcd_count(self):
        for n in range(1, 201):
            assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)
