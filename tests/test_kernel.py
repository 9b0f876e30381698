"""The Mobius-sum kernel against the plain Mobius sums it replaces.

The references sum mu(d) * g([n/d]) over every d (or every divisor d),
with mu read from a sieve, exactly as the formulas are written.
"""

import inspect
import math
import random
import sys
import threading
from functools import cache
from itertools import accumulate

import pytest

from relprime import arith, counting, setphi
from relprime.arith import (
    _clear_kernel_memos,
    _comb,
    _divisor_weights,
    _quotient_weights,
    _sum,
    binomial,
    mobius_sieve,
)
from relprime.counting import count_relprime, count_relprime_k
from relprime.setphi import subset_phi, subset_phi_k

LIMIT = 524_287  # 2^19 - 1, prime
MU = mobius_sieve(LIMIT)
LARGE = (65_537, 131_071, 510_510, LIMIT)  # primes, and 2*3*5*7*11*13*17


def naive_f(n: int) -> int:
    # d descending, so the running total grows with the terms.
    return sum(MU[d] * ((1 << (n // d)) - 1) for d in range(n, 0, -1) if MU[d])


def naive_fk(n: int, k: int) -> int:
    return sum(MU[d] * math.comb(n // d, k) for d in range(1, n + 1) if MU[d])


def naive_phi(n: int) -> int:
    if n == 1:
        return 1
    return sum(MU[d] * (1 << (n // d)) for d in range(1, n + 1) if n % d == 0)


def naive_phik(n: int, k: int) -> int:
    return sum(MU[d] * math.comb(n // d, k) for d in range(1, n + 1) if n % d == 0)


def sampled_ks(n: int) -> list[int]:
    return sorted({k for k in (1, 2, 3, 5, 8, 13, n // 2, n) if k >= 1})


class TestAgainstNaiveSums:
    def test_small_n(self):
        for n in range(1, 601):
            assert count_relprime(n) == naive_f(n), n
            assert subset_phi(n) == naive_phi(n), n
            for k in sampled_ks(n):
                assert count_relprime_k(n, k) == naive_fk(n, k), (n, k)
                assert subset_phi_k(n, k) == naive_phik(n, k), (n, k)

    @pytest.mark.parametrize("n", LARGE)
    def test_large_n(self, n):
        assert count_relprime(n) == naive_f(n)
        assert subset_phi(n) == naive_phi(n)
        for k in (2, 3):
            assert count_relprime_k(n, k) == naive_fk(n, k)
            assert subset_phi_k(n, k) == naive_phik(n, k)


class TestWeights:
    @pytest.mark.parametrize("n", [1, 2, 12, 1000, 510_510, LIMIT])
    def test_quotient_weights_are_short_and_sum_to_mertens(self, n):
        weights = _quotient_weights(n)
        qs = [q for _, q in weights]
        assert qs == sorted(set(qs))
        assert qs[-1] == n and weights[-1][0] == 1
        assert len(weights) <= 2 * math.isqrt(n)
        assert sum(w for w, _ in weights) == sum(MU[1 : n + 1])

    @pytest.mark.parametrize("n", [1, 2, 12, 30, 510_510, LIMIT])
    def test_divisor_weights_are_the_squarefree_divisors(self, n):
        expected = sorted((MU[d], n // d) for d in range(1, n + 1) if n % d == 0 and MU[d])
        assert sorted(_divisor_weights(n)) == expected
        assert [q for _, q in _divisor_weights(n)] == sorted(q for _, q in expected)


def quotient_blocks(n: int) -> list[tuple[int, int]]:
    """(size, q) for each distinct q = [n/d], d = 1..n, q descending.

    size counts the d with [n/d] = q; they follow on from the d of the
    previous block.
    """
    blocks = []
    d = 1
    while d <= n:
        q = n // d
        hi = n // q
        blocks.append((hi - d + 1, q))
        d = hi + 1
    return blocks


@cache
def mertens_table() -> list[int]:
    """M(0..10^6), the Mertens function as prefix sums of a sieve."""
    return list(accumulate(mobius_sieve(10**6)))


def reference_quotient_weights(n: int) -> tuple[tuple[int, int], ...]:
    """The per-block build of _quotient_weights(n) for n <= 10^6.

    Each weight is M(hi) - M(lo - 1) over the block lo..hi of d, with M
    read from a full sieve; pairs of weight 0 are dropped and q ascends.
    """
    table = mertens_table()
    pairs = []
    hi = before = 0  # before = M(lo - 1)
    for size, q in quotient_blocks(n):
        hi += size
        upto = table[hi]
        if upto != before:
            pairs.append((upto - before, q))
        before = upto
    pairs.reverse()
    return tuple(pairs)


class TestQuotientWeightsAgainstPerBlockBuild:
    """The weights read as one list of Mertens values, against one read per block."""

    SPOT = (65_537, 10**5, 999_983, 10**6)

    @pytest.fixture(scope="class")
    def expected(self):
        _clear_kernel_memos()
        table = {n: reference_quotient_weights(n) for n in (*range(1, 3001), *self.SPOT)}
        _clear_kernel_memos()
        return table

    def test_cold(self, expected):
        for n in expected:
            _clear_kernel_memos()
            assert _quotient_weights(n) == expected[n], n
        _clear_kernel_memos()

    def test_after_a_dense_ascending_range(self, expected):
        _clear_kernel_memos()
        for n in range(1, 3001):
            assert _quotient_weights(n) == expected[n], n
        for n in self.SPOT:
            for m in range(n - 200, n):
                _quotient_weights(m)
            assert _quotient_weights(n) == expected[n], n
        _clear_kernel_memos()

    def test_table_cleared_between_m_of_n_and_the_reads(self, expected, monkeypatch):
        class ClearsOnFirstIsqrt:
            """math, but the first isqrt resets the table, as another thread's clear may.

            The table has been sized by then, and the ends past it are
            about to be computed from it.
            """

            def __init__(self) -> None:
                self.armed = True

            def isqrt(self, x: int) -> int:
                if self.armed:
                    self.armed = False
                    arith._table = [0, 1]
                return math.isqrt(x)

        for n in (2, 3, 100, 3000, 10**5, 10**6):
            for warm in (False, True):  # a table sized from [0, 1], or left by n - 1
                _clear_kernel_memos()
                if warm:
                    _quotient_weights.__wrapped__(n - 1)
                monkeypatch.setattr(arith, "math", ClearsOnFirstIsqrt())
                assert _quotient_weights.__wrapped__(n) == expected[n], (n, warm)
                assert arith._table == [0, 1]
                monkeypatch.setattr(arith, "math", math)
        _clear_kernel_memos()

    def test_threads_building_while_the_table_is_resieved(self, expected):
        _clear_kernel_memos()
        done = threading.Event()
        wrong: list[int] = []
        finished: list[str] = []  # an exception in a thread skips its append

        def build() -> None:
            try:
                for n in (*range(1, 3001), 10**5):
                    if _quotient_weights.__wrapped__(n) != expected[n]:
                        wrong.append(n)
                finished.append("build")
            finally:
                done.set()

        def resieve() -> None:
            # Clears the kernel, then grows the table again as a sum would.
            limits = (16, 5000, 300, 20_000)
            i = 0
            while not done.is_set():
                _clear_kernel_memos()
                arith._table = list(accumulate(mobius_sieve(limits[i % len(limits)])))
                i += 1
            finished.append("resieve")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build), threading.Thread(target=resieve)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            _clear_kernel_memos()
        assert not any(t.is_alive() for t in threads)
        assert sorted(finished) == ["build", "resieve"]
        assert wrong == []


def mertens(x: int) -> int:
    """M(x) as the sum of the quotient weights of x, which telescope to M(x) - M(0)."""
    return sum(w for w, _ in _quotient_weights.__wrapped__(x))


class TestMertens:
    @pytest.mark.parametrize(
        "x,expected",
        [(10, -1), (10**2, 1), (10**3, 2), (10**4, -23), (10**5, -48), (10**6, 212)],
    )
    def test_known_values(self, x, expected):
        _clear_kernel_memos()
        assert mertens(x) == expected  # cold: small table, the loop past it
        assert mertens(x) == expected  # the table this x sized
        mertens(2 * 10**6)
        assert mertens(x) == expected  # warm: the table a larger x sized
        _clear_kernel_memos()

    def test_matches_sieve_prefix_sums(self):
        prefix = list(accumulate(MU[:3001]))
        _clear_kernel_memos()  # a dense run re-sieves as it goes
        assert [mertens(x) for x in range(3001)] == prefix
        _clear_kernel_memos()  # the first call sizes the table for 3000
        assert mertens(3000) == prefix[3000]
        assert [mertens(x) for x in range(3000, -1, -1)] == prefix[::-1]
        _clear_kernel_memos()

    def test_clear_forgets_everything(self):
        _clear_kernel_memos()
        _quotient_weights(10**5)  # one entry in the weight memo
        assert mertens(10**5) == -48
        assert len(arith._table) > 2 and arith._steps > 0
        _clear_kernel_memos()
        assert (arith._table, arith._steps) == ([0, 1], 0)
        assert _quotient_weights.cache_info().currsize == 0
        assert mertens(10**5) == -48
        _clear_kernel_memos()

    def test_threads_sharing_one_instance_read_exact_values(self):
        prefix = list(accumulate(MU[:8001]))
        _clear_kernel_memos()
        wrong: list[int] = []
        finished: list[int] = []  # an exception in a thread skips its append

        def work(seed: int) -> None:
            xs = list(range(8001))
            random.Random(seed).shuffle(xs)
            wrong.extend(x for x in xs if mertens(x) != prefix[x])
            finished.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            _clear_kernel_memos()
        assert not any(t.is_alive() for t in threads)
        assert sorted(finished) == [0, 1, 2, 3]
        assert wrong == []


def mutant(old: str, new: str):
    """_quotient_weights with old replaced by new in its source, on a table of its own."""
    source = inspect.getsource(_quotient_weights.__wrapped__)
    assert source.count(old) == 1
    namespace = {**vars(arith), "_table": [0, 1], "_steps": 0}
    exec(source.replace(old, new), namespace)
    return namespace["_quotient_weights"].__wrapped__


class TestMutantsOfTheLoopPastTheTable:
    """Each mutant must get some n wrong, or fail on a read past the table."""

    MUTANTS = {
        "an end read from the table at qd = past": ("q * d <= past", "q * d < past"),
        "the d range ending one early": (
            "range(2, x // (r + 1) + 1)",
            "range(2, x // (r + 1))",
        ),
    }

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_is_caught(self, name):
        weights = mutant(*self.MUTANTS[name])
        caught = []
        for n in (100, 3000, 65_537, 10**5, 999_983, 10**6):
            try:
                caught.append(weights(n) != reference_quotient_weights(n))
            except IndexError:
                caught.append(True)
        assert any(caught), name

    def test_the_unmutated_source_agrees(self):
        weights = mutant("q * d <= past", "q * d <= past")
        for n in (100, 3000, 65_537, 10**5, 999_983, 10**6):
            assert weights(n) == reference_quotient_weights(n), n


class TestCentralBinomial:
    """C(n, [n/2]) is stepped from n - 1 when that was the last one computed."""

    ORDERS = {
        "ascending": range(3001),
        "descending": range(3000, -1, -1),
        "every second": range(0, 3001, 2),
        "every seventh": range(0, 3001, 7),
        "repeated": [n for n in range(0, 3001, 50) for _ in range(3)]
        + [n for n in range(1000, 1011) for _ in range(2)],
    }

    @pytest.fixture(scope="class")
    def central(self):
        return [math.comb(n, n // 2) for n in range(3001)]

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_matches_math_comb(self, order, central):
        _clear_kernel_memos()
        for n in self.ORDERS[order]:
            assert _comb(n, n // 2) == central[n], n
            assert _comb(n, n - n // 2) == central[n], n
            assert binomial(n, n // 2) == central[n], n
        _clear_kernel_memos()

    def test_other_arguments_fall_back(self):
        _clear_kernel_memos()
        for n in range(40):
            for k in range(n + 3):
                assert _comb(n, k) == math.comb(n, k), (n, k)
        assert _comb(10**4, 3) == math.comb(10**4, 3)
        _clear_kernel_memos()

    def test_every_argument_up_to_600(self):
        # Pascal's rows, which equal math.comb's, from a cleared kernel and
        # again with the last central binomial held.
        rows = [[1, 0]]
        for n in range(1, 601):
            rows.append([1] + [a + b for a, b in zip(rows[-1], rows[-1][1:])] + [0])
        assert rows[600][:-1] == [math.comb(600, k) for k in range(601)]
        _clear_kernel_memos()
        for _ in range(2):
            wrong = [(n, k) for n, row in enumerate(rows) for k, c in enumerate(row) if _comb(n, k) != c]
            assert wrong == []
        _clear_kernel_memos()

    @staticmethod
    def within_3_of_centre_disagree(comb, n: int) -> list[tuple[int, int]]:
        return [(n, k) for k in range(max(n // 2 - 3, 0), n - n // 2 + 4)
                if comb(n, k) != math.comb(n, k)]

    def test_next_to_centre_walked_up_to_10_4(self):
        # Every n is walked through C(n, [n/2] - 1) and its mirror, which
        # step the central one; math.comb, milliseconds apiece near 10^4,
        # is asked at every 199th n and at the last four.
        _clear_kernel_memos()
        wrong = []
        for n in range(2, 10**4 + 1):
            _comb(n, n // 2 - 1)
            _comb(n, n - n // 2 + 1)
            if n % 199 == 0 or n > 10**4 - 4:
                wrong += self.within_3_of_centre_disagree(_comb, n)
        _clear_kernel_memos()
        assert wrong == []

    def test_next_to_centre_in_a_shuffled_order(self):
        # Pairs n - 1, n, so that some n are stepped and others are not.
        rng = random.Random(26)
        ns = [n for m in rng.sample(range(1, 10**4 + 1), 25) for n in (m - 1, m)]
        rng.shuffle(ns)
        _clear_kernel_memos()
        wrong = [pair for n in ns for pair in self.within_3_of_centre_disagree(_comb, n)]
        _clear_kernel_memos()
        assert wrong == []

    def test_dividing_by_n_minus_i_is_caught(self):
        # C(n, i - 1) = C(n, i) i / (n - i + 1); the mutant drops the + 1.
        source = inspect.getsource(_comb)
        assert source.count("(n - half + 1)") == 1
        namespace = {**vars(arith), "_central": (0, 1)}
        exec(source.replace("(n - half + 1)", "(n - half)"), namespace)
        assert any(self.within_3_of_centre_disagree(namespace["_comb"], n) for n in range(2, 200))

    def test_threads_read_exact_values(self, central):
        _clear_kernel_memos()
        walks = [range(0, 1001), range(1000, 2001), range(500, 1501), range(2000, -1, -3)]
        wrong: list[int] = []
        finished: list[int] = []  # an exception in a thread skips its append

        def work(index: int) -> None:
            for n in walks[index]:
                if _comb(n, n // 2) != central[n] or binomial(n, n - n // 2) != central[n]:
                    wrong.append(n)
            finished.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(walks))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            _clear_kernel_memos()
        assert not any(t.is_alive() for t in threads)
        assert sorted(finished) == [0, 1, 2, 3]
        assert wrong == []


class TestTheTwoKernelsAgree:
    """Identities that tie the quotient kernel (f, f_k) to the divisor kernel (Phi, Phi_k).

    For n >= 2, pair each A counted by Phi(n) with A xor {n}: of each pair,
    the set that holds n has gcd 1, so f(n) - f(n-1) = Phi(n)/2.  By size,
    Phi_k(n) counts the k-sets with n, Delta f_k(n), and the k-sets without
    it, Delta f_{k+1}(n).  Phi(n) is n times the number of binary Lyndon
    words of length n, so n | Phi(n).
    """

    @pytest.mark.parametrize(
        "ns", [range(2, 3001), (10**7 - 1, 10**7)], ids=["n<=3000", "n=1e7-1,1e7"]
    )
    def test_phi_is_twice_the_step_of_f(self, ns):
        f = {n: count_relprime(n) for m in ns for n in (m - 1, m)}
        for n in ns:
            phi = subset_phi(n)
            assert 2 * (f[n] - f[n - 1]) == phi, n
            assert phi % n == 0, n

    def test_phi_k_is_the_sum_of_two_steps_of_f_k(self):
        def step(n, k):  # f_k(m) is 0 for k > m
            return count_relprime_k(n, k) - count_relprime_k(n - 1, k)

        for n in range(2, 200):
            for k in range(1, n + 1):
                assert subset_phi_k(n, k) == step(n, k) + step(n, k + 1), (n, k)


def size_zero_wrong(evaluate, n_max: int) -> list[int]:
    """The n <= n_max at which evaluate(weights, 0) is not the sum of the weights.

    C(q, 0) = 1, so the quotient weights of n sum to M(n), and the divisor
    weights, the mu(d) of d | n, to 1 at n = 1 and 0 otherwise.
    """
    mertens_values = list(accumulate(MU[: n_max + 1]))
    return [n for n in range(1, n_max + 1)
            if evaluate(_quotient_weights(n), 0) != mertens_values[n]
            or evaluate(_divisor_weights(n), 0) != (n == 1)]


class TestSizeZero:
    """k = 0 is the size 0, whose binomial C(q, 0) is 1; every size is k = None."""

    def test_sums_of_the_weights_cold_and_warm(self):
        _clear_kernel_memos()
        assert size_zero_wrong(_sum, 5000) == []  # cold: the Mertens table grows with n
        assert size_zero_wrong(_sum, 5000) == []  # warm: the table the first pass left
        _clear_kernel_memos()

    def test_every_size_at_zero_is_caught(self):
        # The mutant reads k = 0 as every size, summing 2^q - 1.
        source = inspect.getsource(_sum)
        assert source.count("if k is None:") == 1
        namespace = dict(vars(arith))
        exec(source.replace("if k is None:", "if not k:"), namespace)
        assert size_zero_wrong(namespace["_sum"], 30) != []

    @pytest.mark.parametrize(
        "module,count", [(counting, count_relprime), (setphi, subset_phi)], ids=["f", "phi"]
    )
    def test_the_check_memos_read_every_size_as_none(self, cold_known, module, count):
        for q in range(1, 200):
            assert module._known(None)(q) == count(q), q
            with pytest.raises(ValueError):  # the size 0, refused by the k >= 1 check
                module._known(0)(q)
