"""Ground-truth subset enumeration at desk scale.

Every counting formula in the package can be cross-checked against a
count of all 2^n subsets of {1,...,n}.  One pass builds the histogram of
(|A|, gcd(A)) over every subset, and each enumerate_* function reads its
count off that histogram.  No Mobius function and no recursion over gcd
values is involved: every subset's gcd is computed from its own elements.

Each subset's gcd is held in one byte (the empty set has gcd 0), enough
for n <= 255.  Extending a batch of subsets by an element e is one
bytes.translate through g -> gcd(g, e), so the gcds of all subsets of
each half, {1,...,n//2} and {n//2+1,...,n}, are built element by
element and counted per (size, gcd).  As gcd(L united H) is
gcd(gcd(L), gcd(H)), the halves' histograms combine into the whole one
(the meet in the middle of Horowitz and Sahni, J. ACM 21, 1974).
Memory stays near 2^ceil(n/2) bytes; the hard ceiling ORACLE_MAX keeps
a mistyped argument from launching an hours-long run.
"""

from math import gcd
from typing import NamedTuple

ORACLE_MAX = 40


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("cardinality k must be >= 1")


class GcdHistogram(NamedTuple):
    """counts[k][g]: subsets of {1,...,n} with k elements and gcd g.

    The empty set is the single entry counts[0][0]; the counts below
    cover nonempty subsets only, and k (when given) must be >= 1.
    """

    n: int
    counts: tuple[tuple[int, ...], ...]

    def _subsets(self, keep, k: int | None) -> int:
        rows = self.counts[1:] if k is None else self.counts[k:k + 1]
        return sum(c for row in rows for g, c in enumerate(row) if keep(g))

    def with_gcd(self, d: int, k: int | None = None) -> int:
        """Nonempty subsets (of size k, if given) with gcd(A) = d."""
        return self._subsets(lambda g: g == d, k)

    def with_gcd_n(self, d: int, k: int | None = None) -> int:
        """Nonempty subsets (of size k, if given) with gcd(A united {n}) = d."""
        return self._subsets(lambda g: gcd(g, self.n) == d, k)


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


def gcd_histogram(n: int) -> GcdHistogram:
    """The (|A|, gcd(A)) histogram of all subsets of {1,...,n}, from two halves."""
    if not 1 <= n <= ORACLE_MAX:  # the one check of n for every enumerate_*
        raise ValueError(f"oracle enumeration requires 1 <= n <= {ORACLE_MAX}, got {n}")
    gcd_with = [bytes(gcd(g, e) for g in range(256)) for e in range(n + 1)]
    low, high = (
        [[(g, c) for g in range(n + 1) if (c := gcds.count(g))]
         for gcds in _gcds_by_size(elements, gcd_with)]
        for elements in (range(1, n // 2 + 1), range(n // 2 + 1, n + 1))
    )
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for low_size, low_row in enumerate(low):
        for high_size, high_row in enumerate(high):
            row = counts[low_size + high_size]
            for g, a in low_row:
                for h, b in high_row:
                    row[gcd(g, h)] += a * b  # gcd(0, x) = x: an empty half changes no gcd
    return GcdHistogram(n, tuple(map(tuple, counts)))


def enumerate_relprime(n: int) -> int:
    """Count nonempty subsets of {1,...,n} with gcd 1, by enumeration."""
    return gcd_histogram(n).with_gcd(1)


def enumerate_relprime_k(n: int, k: int) -> int:
    """Count k-element subsets of {1,...,n} with gcd 1, by enumeration."""
    _check_k(k)
    return gcd_histogram(n).with_gcd(1, k)


def enumerate_subset_phi(n: int) -> int:
    """Count nonempty subsets whose gcd is coprime to n, by enumeration."""
    return gcd_histogram(n).with_gcd_n(1)


def enumerate_subset_phi_k(n: int, k: int) -> int:
    """Cardinality-k restriction of enumerate_subset_phi."""
    _check_k(k)
    return gcd_histogram(n).with_gcd_n(1, k)


def enumerate_subset_psi(n: int, d: int) -> int:
    """Count nonempty subsets with gcd(gcd(A), n) = d, by enumeration.

    Requires d | n: the shared gcd always divides n.
    """
    if d < 1 or n % d != 0:
        raise ValueError(f"enumerate_subset_psi requires d | n; got d={d}, n={n}")
    return gcd_histogram(n).with_gcd_n(d)

