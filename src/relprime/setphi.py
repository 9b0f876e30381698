"""A phi function for subsets of {1,...,n}.

subset_phi(n) counts the nonempty A within {1,...,n} whose gcd is
relatively prime to n; subset_phi_k restricts to |A| = k.  These
generalize Euler's phi: subset_phi_k(n, 1) = euler_phi(n).

Both are divisor Mobius sums:

    subset_phi(n)      = sum_{d|n} mu(d) * (2^(n/d) - 1)
    subset_phi_k(n, k) = sum_{d|n} mu(d) * C(n/d, k)

For n >= 2 the first is sum_{d|n} mu(d) * 2^(n/d), because the mu(d)
sum to 0; at n = 1 it gives 1.  Only squarefree d contribute, so each
sum runs over the 2^omega(n) squarefree divisors of n, found by trial
factoring n (see the kernel in arith); no Mobius table is sieved.  The
divisor-sum identities

    sum_{d|n} subset_phi(d)   = 2^n - 1
    sum_{d|n} subset_phi_k(d) = C(n, k)

are exposed as verification checks, which read the counts of the
divisors through one memo per size k; the counts keep no values.
subset_psi(n, d) counts subsets by the gcd they share with n and reduces
to subset_phi(n/d).
"""

from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

from .arith import _divisor_weights, _divisors, _sum, binomial


class PhiReport(NamedTuple):
    """A subset-phi value split into its leading term and residual.

    value = main_term + residual always holds; main_term is 2^n for odd
    n and 2^n - 2^(n/2) for even n (binomial analogues when k is set).
    """

    n: int
    k: int | None
    value: int
    main_term: int
    residual: int


def subset_phi(n: int) -> int:
    """Count of nonempty subsets of {1,...,n} whose gcd is coprime to n."""
    if n < 1:
        raise ValueError("subset_phi requires n >= 1")
    return _sum(_divisor_weights(n))


def subset_phi_k(n: int, k: int) -> int:
    """Count of k-element subsets of {1,...,n} whose gcd is coprime to n; 0 when k > n."""
    if n < 1 or k < 1:
        raise ValueError("subset_phi_k requires n >= 1 and k >= 1")
    if k > n:
        return 0
    return _sum(_divisor_weights(n), k)


def subset_psi(n: int, d: int) -> int:
    """Count of nonempty A within {1,...,n} with gcd(A united {n}) = d.

    Requires d | n.  Dividing every element by d bijects these subsets
    onto the ones counted by subset_phi(n/d).
    """
    if n < 1 or d < 1:
        raise ValueError("subset_psi requires n >= 1 and d >= 1")
    if n % d != 0:
        raise ValueError(f"subset_psi requires d | n; {d} does not divide {n}")
    return subset_phi(n // d)


@lru_cache(maxsize=None)
def _known(k: int | None):
    """The memo of subset_phi_k(d, k) by d, or of subset_phi(d) at k = None,
    for the divisor-sum checks; they never ask for the d < k zeros, which
    would be most of it.  Each memo is keyed by d alone."""
    if k is None:
        return lru_cache(maxsize=None)(lambda d: subset_phi(d))
    return lru_cache(maxsize=None)(lambda d: subset_phi_k(d, k))


def verify_divisor_sum(n: int, k: int | None = None) -> bool:
    """True iff sum_{d|n} subset_phi_k(d, k) = C(n, k) exactly, or
    sum_{d|n} subset_phi(d) = 2^n - 1 at k = None.

    Divisors d < k contribute subset_phi_k(d, k) = 0 and are skipped;
    the d = k term is 1 and stays in.
    """
    if n < 1 or k is not None and k < 1:
        raise ValueError("verify_divisor_sum requires n >= 1 and k >= 1")
    divs = _divisors(n)
    if k is None:
        return sum(map(_known(None), divs)) == (1 << n) - 1
    return sum(map(_known(k), divs[bisect_left(divs, k):])) == binomial(n, k)


def asymptotic_report(n: int, k: int | None = None) -> PhiReport:
    """subset_phi(n), or subset_phi_k(n, k), against its leading term.

    main_term is 2^n for odd n, 2^n - 2^(n/2) for even n, or their
    binomial analogues C(n, k) and C(n, k) - C(n/2, k) at a size k; the
    residual satisfies |residual| <= residual_bound(n, k) (checked by
    callers).
    """
    if n < 1 or k is not None and k < 1:
        raise ValueError("asymptotic_report requires n >= 1 and k >= 1")
    if k is None:
        main = (1 << n) if n % 2 else (1 << n) - (1 << (n // 2))
        value = subset_phi(n)
    else:
        main = binomial(n, k) if n % 2 else binomial(n, k) - binomial(n // 2, k)
        value = subset_phi_k(n, k)
    return PhiReport(n=n, k=k, value=value, main_term=main, residual=value - main)


def residual_bound(n: int, k: int | None = None) -> int:
    """Envelope n * 2^ceil(n/3) for the subset_phi residual, or
    n * C([n/3], k) for the subset_phi_k one.

    Dropping the one or two leading divisor terms leaves fewer than n
    terms, each at most 2^(n/3); the ceiling keeps the bound an integer
    power of two when 3 does not divide n.
    """
    if n < 1 or k is not None and k < 1:
        raise ValueError("residual_bound requires n >= 1 and k >= 1")
    return n << ((n + 2) // 3) if k is None else n * binomial(n // 3, k)
