"""Exact number-theoretic primitives shared by the counting modules.

Everything here is plain integer arithmetic: Python ints are arbitrary
precision, so counts on the order of 2^10000 need no special handling.
No floating point appears anywhere in a counting path.

The private Mobius-sum kernel at the end of this module serves all four
counts.  Each is a sum  sum_d mu(d) * g([n/d])  that depends on d only
through q = [n/d], so n is first turned into a short tuple of
(weight, q) pairs and _sum then sums w * g(q) over that tuple, with
g(q) = C(q, k) for a size k >= 0, or 2^q - 1 for every size, k = None:

    d = 1..n   (f, f_k)     one pair per distinct quotient q, O(sqrt n)
                            pairs, weight M(n/q) - M(n/(q+1)) from the
                            Mertens function M, read from a sieved table
                            and, at the few n/q past it, from one loop
                            over the identity sum_{d<=x} M([x/d]) = 1;
    d | n      (Phi, Phi_k) one pair per squarefree divisor d, 2^omega(n)
                            pairs, weight mu(d), from trial factoring n.
"""

import math
from functools import lru_cache
from itertools import accumulate


def mobius_sieve(limit: int) -> tuple[int, ...]:
    """mu(0..limit) by a linear prime sieve, with mu(0) = 0.

    mu(n) = 1 if n = 1, 0 if a squared prime divides n, else (-1)^r where
    r is the number of distinct prime factors.  Rejects limit = 0; cost
    is O(limit) time and memory.
    """
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    mu = [0] * (limit + 1)
    mu[1] = 1
    composite = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            composite[ip] = 1
            if i % p == 0:
                mu[ip] = 0  # p^2 divides ip
                break
            mu[ip] = -mu[i]
    return tuple(mu)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    return list(_divisors(n))


def binomial(n: int, k: int) -> int:
    """C(n, k) exactly; 0 whenever k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    return _comb(n, k)


def euler_phi(n: int) -> int:
    """Count of 1 <= a <= n with gcd(a, n) = 1, by trial factorization."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p, _ in _factorization(n):
        result -= result // p
    return result


# ------------------------------------------------------ Mobius-sum kernel

def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1, primes ascending, by trial division."""
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@lru_cache(maxsize=16)
def _divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, ascending.

    Memoized briefly: the divisor-sum checks read the divisors of one n
    once per sampled k.
    """
    divs = [1]
    for p, e in _factorization(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    divs.sort()
    return tuple(divs)


# M(0), M(1), ..., M(len - 1), the Mertens function M(x) = sum_{d<=x} mu(d)
# as prefix sums of a Mobius sieve.  Always rebound as a whole list, never
# mutated, so a thread that holds it reads it whole.
_table = [0, 1]
# Steps of the loop past the table since it was sieved; an update lost to
# another thread only delays a re-sieve.
_steps = 0


@lru_cache(maxsize=8)
def _quotient_weights(n: int) -> tuple[tuple[int, int], ...]:
    """(sum of mu(d) over the d with [n/d] = q, q) for q = [n/d], d = 1..n.

    With s = isqrt(n), each q <= s has a block of d ending at [n/q], and
    each d up to top = [n/(s+1)] is a block of its own, with q = [n/d] > s.
    So the weights are the differences of M over the block ends
    [n/1] > ... > [n/s] > top > top - 1 > ... > 0, read as one list.

    The table covers n^(2/3), so it holds every end but the [n/q] with
    q <= past = [n/len(table)].  Those come from the identity
    sum_{d<=x} M([x/d]) = 1 (Deleglise & Rivat, "Computing the summation
    of the Mobius function", Experimental Math. 5, 1996) at x = [n/q],
    q = past, ..., 1: with r = isqrt(x), the d <= [x/(r+1)] one at a time,
    each M([x/d]) = M([n/(qd)]) an end already computed when qd <= past
    and a table entry otherwise, then the d with [x/d] = p <= r in one
    block per p.  The loop costs about 2 sqrt(x) steps per end and a sieve
    up to n about n, so once the steps since the last sieve pass n the
    table is sieved to n: a dense run of n (every n up to some bound) ends
    up as table reads.  Otherwise the table is sieved to a power of two at
    or above n^(2/3), so repeated growth doubles it.

    Pairs of weight 0 are dropped and q ascends.  Memoized briefly: one
    n is usually asked for once per sampled k.
    """
    global _table, _steps
    table = _table
    if n >= len(table):
        need = 1 << -(-2 * n.bit_length() // 3)
        if _steps > n or need >= len(table):
            limit = max(n if _steps > n else need, 2 * (len(table) - 1))
            table = _table = list(accumulate(mobius_sieve(limit)))
            _steps = 0
    past = n // len(table)
    ends = [0] * (past + 1)  # ends[q] = M([n/q]) for q <= past
    for q in range(past, 0, -1):
        x = n // q
        r = math.isqrt(x)
        _steps += 2 * r
        value = 1 - sum(
            ends[q * d] if q * d <= past else table[x // d]
            for d in range(2, x // (r + 1) + 1)
        )
        value -= sum((x // p - x // (p + 1)) * table[p] for p in range(1, r + 1))
        ends[q] = value
    s = math.isqrt(n)
    top = n // (s + 1)
    ends = ends[1:] + [table[n // q] for q in range(past + 1, s + 1)] + table[top::-1]
    qs = list(range(1, s + 1)) + [n // d for d in range(top, 0, -1)]
    return tuple([(a - b, q) for a, b, q in zip(ends, ends[1:], qs) if a != b])


@lru_cache(maxsize=8)
def _divisor_weights(n: int) -> tuple[tuple[int, int], ...]:
    """(mu(d), n/d) for each squarefree divisor d of n, n/d ascending.

    Memoized briefly, like _quotient_weights: the divisor-sum checks ask
    for one n once per sampled k.
    """
    pairs = [(1, n)]
    for p, _ in _factorization(n):
        pairs += [(-w, q // p) for w, q in pairs]
    pairs.sort(key=lambda pair: pair[1])
    return tuple(pairs)


# The last central binomial computed, (n, C(n, [n/2])).  Always rebound
# as a whole tuple, so a thread reads a matching pair or an older one.
_central = (0, 1)


def _comb(n: int, k: int) -> int:
    """C(n, k) for n, k >= 0, with the last central binomial kept.

    A central binomial C(n, [n/2]) costs milliseconds at large n.  The
    identity checks ask for one twice in a row, as the d = 1 term of a
    k-restricted count and as the C(n, k) that count is compared with,
    and the verify suites walk n upward with k = [n/2] sampled.  So
    _central, the only binomial memo, holds the last one: the same n is
    read back, n is stepped from n - 1 when that is the one held,
    C(n, [n/2]) = 2 C(n-1, [(n-1)/2]) for even n and
    n C(n-1, [(n-1)/2]) / (n - [n/2]) for odd n,
    and any other n pays one math.comb.  The kernels suite, which samples
    k = [n/2] and k + 1 at n and at n - 1, also asks for the binomial next
    to the centre, C(n, i - 1) = C(n, i) i / (n - i + 1) at i = [n/2]:
    one multiply and one exact divide from the central one held or
    stepped (at n <= 1 the same test takes k = n + 1, and the factor
    i = 0 gives 0).  Other (n, k) go straight to math.comb.
    """
    global _central
    half = n >> 1
    i = min(k, n - k)  # at most half
    if i < half - 1:  # also k > n, where C(n, k) = 0
        return math.comb(n, k)
    m, value = _central
    if m != n:
        if m == n - 1:
            value = value << 1 if n & 1 == 0 else value * n // (n - half)
        else:
            value = math.comb(n, half)
        _central = (n, value)
    return value if i == half else value * half // (n - half + 1)


def _sum(weights: tuple[tuple[int, int], ...], k: int | None = None) -> int:
    """sum of w * g(q) over (w, q), weighted subset counts: g(q) = C(q, k)
    counts those of size k >= 0, and 2^q - 1 the nonempty ones at k = None.

    q ascends, so the running total stays short until the last terms.
    The last pair is (mu(1), n) = (1, n) for both kinds of weights; its
    C(n, k) goes through _comb, like binomial().
    """
    if k is None:
        total = 0
        for w, q in weights:
            total += (w << q) - w
        return total
    last = len(weights) - 1
    total = sum(w * math.comb(q, k) for w, q in weights[:last] if q >= k)
    return total + _comb(weights[last][1], k)


def _clear_kernel_memos() -> None:
    """Forget every memo of the kernel, so the next sum is computed cold."""
    global _central, _table, _steps
    _central = (0, 1)
    _table = [0, 1]
    _steps = 0
    _divisors.cache_clear()
    _quotient_weights.cache_clear()
    _divisor_weights.cache_clear()
