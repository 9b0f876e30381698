"""Affine equivalence and invariants of finite integer sets.

Two finite sets of integers are affinely equivalent when one is a
rational dilation-plus-translation of the other (x*A + y with x != 0).
Every set with at least two elements has exactly two normalized forms
anchored at 0 with gcd 1, each the mirror image of the other; a
singleton normalizes to {0}.  Equivalence testing compares a designated
representative, the lexicographically smaller of the two forms.

Sumset and difference-set cardinalities are affine invariants.
"""

from math import gcd
from typing import Iterable, NamedTuple

DIST_MAX_N = 20  # the 2^n subsets of {0,...,n} that contain 0 are walked
# invariant_profile's bitsets beat pairwise sets below this span for every
# size; at it, 2- and 3-element sets take about as long either way.
_BITSET_SPAN = 2048
# invariant_profile's pairwise sets grow as the square of the size; a set of
# span below _BITSET_SPAN, which the bitsets take, never has more elements.
PROFILE_MAX_ELEMENTS = _BITSET_SPAN

IntSet = tuple[int, ...]


def integer_set(elements: Iterable[int]) -> IntSet:
    """Normalize to a sorted duplicate-free tuple; rejects the empty set."""
    out = tuple(sorted(set(elements)))
    if not out:
        raise ValueError("integer set must be nonempty")
    return out


class CanonicalForm(NamedTuple):
    """The two normalized forms of an affine class plus one representative.

    base and mirror both start at 0 and have gcd 1 (for sets of size >= 2);
    mirror is the reflection max(base) - base.  representative is the
    lexicographically smaller of the two, the single object used for
    equivalence tests.
    """

    base: IntSet
    mirror: IntSet
    representative: IntSet


_POINT = CanonicalForm((0,), (0,), (0,))  # the record of every singleton


class InvariantProfile(NamedTuple):
    """Cardinalities of A+A and A-A, both affine invariants."""

    sumset_size: int
    difference_size: int


def affine_map(a: Iterable[int], x, y) -> IntSet:
    """Image x*A + y, which must consist of integers.

    x and y may be ints or fractions; x = 0 is rejected (the map must be
    injective) and any element with a non-integral image is reported.
    """
    elems = integer_set(a)
    try:  # an int or a Fraction gives its terms as they are
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    except AttributeError:  # anything else is read as Fraction reads it
        from fractions import Fraction  # only such maps pay for fractions and decimal

        x, y = Fraction(x), Fraction(y)
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    if xn == 0:
        raise ValueError("dilation factor x must be nonzero")
    # x*e + y = (xn*yd*e + yn*xd) / (xd*yd): one divmod per image, none
    # when xd*yd = 1.
    slope, shift, scale = xn * yd, yn * xd, xd * yd
    if scale == 1:
        image = [slope * e + shift for e in elems]
    else:
        image = []
        for e in elems:
            v, r = divmod(slope * e + shift, scale)
            if r:
                from fractions import Fraction

                raise ValueError(
                    f"element {e} has non-integral image {Fraction(slope * e + shift, scale)}"
                )
            image.append(v)
    if slope < 0:  # the map is monotone: decreasing for x < 0
        image.reverse()
    return tuple(image)


def canonical_form(a: Iterable[int]) -> CanonicalForm:
    """Normalize a set to its affine canonical pair.

    Size >= 2: translate the minimum to 0, divide by the gcd, and pair
    the result with its reflection.  Singletons normalize to {0}.
    """
    base = integer_set(a)
    if len(base) == 1:
        return _POINT
    origin = base[0]
    if origin:
        base = tuple([e - origin for e in base])
    g = gcd(*base)
    if g != 1:
        base = tuple([e // g for e in base])
    top = base[-1]
    mirror = tuple([top - e for e in reversed(base)])
    return CanonicalForm(base, mirror, min(base, mirror))


def affinely_equivalent(a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff some rational map x*A + y (x != 0) carries a onto b."""
    return canonical_form(a).representative == canonical_form(b).representative


def sumset(a: Iterable[int], b: Iterable[int]) -> IntSet:
    """Pairwise sums {x + y}, sorted and deduplicated."""
    ea, eb = integer_set(a), integer_set(b)
    return tuple(sorted({x + y for x in ea for y in eb}))


def invariant_profile(a: Iterable[int]) -> InvariantProfile:
    """card(A+A) and card(A-A) for the set a.

    With B the bitset of the offsets o from min(A), A+A is the union of
    the B << o, and the differences >= 0 are the union of the B >> o;
    A-A is those and their negatives, with 0 once.  A bitset costs
    about the span per element, so from a span of _BITSET_SPAN on the
    sums and positive differences are sets of values instead, built
    from the pairs of elements, and sparse sets with huge elements stay
    cheap.  Such a set may have at most PROFILE_MAX_ELEMENTS elements.
    """
    elems = integer_set(a)
    origin = elems[0]
    if elems[-1] - origin < _BITSET_SPAN:
        b = sums = halves = 0
        for e in elems:
            b |= 1 << (e - origin)
        for e in elems:
            sums |= b << (e - origin)
            halves |= b >> (e - origin)
        return InvariantProfile(sums.bit_count(), 2 * halves.bit_count() - 1)
    if len(elems) > PROFILE_MAX_ELEMENTS:
        raise ValueError(f"profile takes at most {PROFILE_MAX_ELEMENTS} elements")
    sums = {x + y for i, x in enumerate(elems) for y in elems[i:]}
    gaps = {y - x for i, x in enumerate(elems) for y in elems[i + 1 :]}
    return InvariantProfile(sumset_size=len(sums), difference_size=2 * len(gaps) + 1)


def sumset_size_distribution(
    n: int,
    k: int | None = None,
    inequivalent_only: bool = False,
) -> dict[int, int]:
    """How many subsets of {0,...,n} have each sumset cardinality.

    Maps each attained card(A+A) to the number of nonempty subsets A of
    {0,...,n} attaining it; k restricts to |A| = k, and inequivalent_only
    counts each affine equivalence class once (via its representative).

    Only sets B containing 0 are walked, depth first in increasing
    elements, with B as an int bitmask and B+B as an int bitset: adding
    x > max(B) gives B+B | (B << x) | (1 << 2x).  Every nonempty subset
    of {0,...,n} is exactly one translate t + B with 0 <= t <= n - max(B),
    and translation keeps card(A+A), so B stands for n - max(B) + 1 sets.
    An affine class has exactly one normalized form B with gcd 1 that is
    its representative, the lexicographically smaller of B and its mirror
    max(B) - B; the class of singletons is {0}.
    """
    if not 0 <= n <= DIST_MAX_N:
        raise ValueError(f"distribution requires 0 <= n <= {DIST_MAX_N}, got {n}")
    if k is not None and k < 1:
        raise ValueError("cardinality k must be >= 1")
    counts = [0] * (2 * n + 2)  # card(A+A) <= 2n + 1
    if k is None or k == 1:
        counts[1] = 1 if inequivalent_only else n + 1
    if k != 1:
        walk = _walk_classes if inequivalent_only else _walk_translates
        walk(n, k, counts)
    return {size: count for size, count in enumerate(counts) if count}


def _walk_translates(n: int, k: int | None, counts: list[int]) -> None:
    """Add the translates of every B with 0 in B, |B| >= 2, to counts."""

    def walk(b: int, s: int, top: int, size: int) -> None:
        # b: B as a bitmask, s: B+B as a bitset, top = max(B), size = |B|;
        # with k set, x leaves room for the k - size - 1 elements after it.
        last = n if k is None else n - k + size + 1
        for x in range(top + 1, last + 1):
            t = s | b << x | 1 << 2 * x
            if k is None or size + 1 == k:
                counts[t.bit_count()] += n - x + 1
            if x < n and (k is None or size + 1 < k):
                walk(b | 1 << x, t, x, size + 1)

    walk(1, 1, 0, 1)


def _walk_classes(n: int, k: int | None, counts: list[int]) -> None:
    """Add every class representative B of size >= 2 within {0,...,n} to counts."""

    def walk(b: int, s: int, top: int, size: int, g: int, rev: int) -> None:
        # As in _walk_translates, plus g = gcd(B) and rev, which has bit
        # n - e for each e in B, so the mirror of B is rev >> (n - max(B)).
        last = n if k is None else n - k + size + 1
        for x in range(top + 1, last + 1):
            c = b | 1 << x
            t = s | b << x | 1 << 2 * x
            h = gcd(g, x)
            r = rev | 1 << (n - x)
            if h == 1 and (k is None or size + 1 == k):
                # C is the representative when it equals its mirror or the
                # smallest element where they differ belongs to C.
                diff = c ^ r >> (n - x)
                if not diff or diff & -diff & c:
                    counts[t.bit_count()] += 1
            if x < n and (k is None or size + 1 < k):
                walk(c, t, x, size + 1, h, r)

    walk(1, 1, 0, 1, 0, 1 << n)
