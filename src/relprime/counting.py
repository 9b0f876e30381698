"""Counts of relatively prime subsets of {1,...,n}.

A nonempty A within {1,...,n} is relatively prime when gcd(A) = 1.  The
number of such subsets, here count_relprime(n), satisfies

    count_relprime(n)      = sum_{d=1..n} mu(d) * (2^[n/d] - 1)
    count_relprime_k(n, k) = sum_{d=1..n} mu(d) * C([n/d], k)

with [x] the floor.  Both sums depend on d only through q = [n/d], so
they are evaluated over the O(sqrt n) distinct quotients, each weighted
by the Mobius sum of its block of d, a difference of Mertens values (see
the kernel in arith).  The self-referential recursions

    sum_{d=1..n} count_relprime([n/d])      = 2^n - 1
    sum_{d=1..n} count_relprime_k([n/d], k) = C(n, k)

are kept as verification checks, not as the evaluation path.  The counts
keep no values; the checks, which ask for each [n/d] again and again,
read them through one memo per size k.  They sum on the split that
arith's loop for the Mertens values past its table uses: with
s = isqrt(n), each q <= s weighted by the number [n/q] - [n/(q+1)] of d
with [n/d] = q, then the d <= [n/(s+1)] one at a time, d descending.  So
q ascends, and the running total is no longer than the terms added so
far.
"""

import math
from functools import lru_cache

from .arith import _quotient_weights, _sum, binomial


def count_relprime(n: int) -> int:
    """Number of nonempty subsets of {1,...,n} with gcd 1.

    O(sqrt n) big-integer terms, one per distinct [n/d].
    """
    if n < 1:
        raise ValueError("count_relprime requires n >= 1")
    return _sum(_quotient_weights(n))


def count_relprime_k(n: int, k: int) -> int:
    """Number of k-element subsets of {1,...,n} with gcd 1; 0 when k > n."""
    if n < 1 or k < 1:
        raise ValueError("count_relprime_k requires n >= 1 and k >= 1")
    if k > n:
        return 0
    return _sum(_quotient_weights(n), k)


@lru_cache(maxsize=None)
def _known(k: int | None):
    """The memo of count_relprime_k(q, k) by q, or of count_relprime(q) at
    k = None, for the recursion checks; they never ask for the q < k zeros,
    which would be most of it.  Each memo is keyed by q alone."""
    if k is None:
        return lru_cache(maxsize=None)(lambda q: count_relprime(q))
    return lru_cache(maxsize=None)(lambda q: count_relprime_k(q, k))


def sandwich_bounds(n: int, k: int | None = None) -> tuple[int, int]:
    """Endpoints 2^n - 2^[n/2] - n*2^[n/3] and 2^n - 2^[n/2], or at a size k
    C(n,k) - C([n/2],k) - n*C([n/3],k) and C(n,k) - C([n/2],k).

    The count always lies between them; the lower endpoint can go
    negative for small n, in which case it is vacuous.
    """
    if n < 1 or k is not None and k < 1:
        raise ValueError("sandwich_bounds requires n >= 1 and k >= 1")
    if k is None:
        upper = (1 << n) - (1 << (n // 2))
        return upper - n * (1 << (n // 3)), upper
    upper = binomial(n, k) - binomial(n // 2, k)
    return upper - n * binomial(n // 3, k), upper


def verify_recursion(n: int, k: int | None = None) -> bool:
    """True iff sum_{d=1..n} count_relprime_k([n/d], k) = C(n, k) exactly,
    or sum_{d=1..n} count_relprime([n/d]) = 2^n - 1 at k = None.

    Each distinct q = [n/d] is read once, q ascending: those up to
    isqrt(n) times their number of d, the others one d at a time.  Terms
    with q < k count k-subsets of a smaller set and are 0, so only
    d <= [n/k] and q >= k are read; the q = k term is 1 and stays in.
    """
    if n < 1 or k is not None and k < 1:
        raise ValueError("verify_recursion requires n >= 1 and k >= 1")
    known, low, s = _known(k), k or 1, math.isqrt(n)
    total = 0
    for q in range(low, s + 1):
        total += (n // q - n // (q + 1)) * known(q)
    for d in range(min(n // (s + 1), n // low), 0, -1):
        total += known(n // d)
    return total == ((1 << n) - 1 if k is None else binomial(n, k))
