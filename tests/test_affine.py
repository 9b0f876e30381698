import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from relprime import affine
from relprime.affine import (
    _BITSET_SPAN,
    CanonicalForm,
    InvariantProfile,
    affine_map,
    affinely_equivalent,
    canonical_form,
    integer_set,
    invariant_profile,
    sumset,
    sumset_size_distribution,
)
from relprime.arith import divisors, mobius_sieve
from relprime.setphi import subset_phi

WORKED_A = [2, 8, 11, 20]
WORKED_B = [-4, 10, 17, 38]


def random_set(rng, size_lo=1, size_hi=8, span=30):
    elems = set()
    size = rng.randint(size_lo, size_hi)
    while len(elems) < size:
        elems.add(rng.randint(-span, span))
    return sorted(elems)


def random_integral_map(rng, base):
    """A set constant mod q plus a rational map acting integrally on it."""
    q = rng.randint(1, 6)
    p = rng.choice([v for v in range(-6, 7) if v != 0])
    anchor = rng.randint(-10, 10)
    w = rng.randint(-10, 10)
    domain = [q * r + anchor for r in base]
    x = Fraction(p, q)
    y = Fraction(w * q - p * anchor, q)
    return domain, x, y


class TestIntegerSet:
    def test_sorts_and_dedupes(self):
        assert integer_set([3, -1, 3, 0]) == (-1, 0, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            integer_set([])


class TestAffineMap:
    def test_worked_example(self):
        image = affine_map(WORKED_A, Fraction(7, 3), Fraction(-26, 3))
        assert image == (-4, 10, 17, 38)

    def test_identity(self):
        assert affine_map([5, -2, 9], 1, 0) == (-2, 5, 9)

    def test_negative_dilation_reverses_order(self):
        assert affine_map([1, 2, 4], -1, 0) == (-4, -2, -1)

    def test_non_integral_image_names_element(self):
        with pytest.raises(ValueError) as err:
            affine_map([0, 2, 3, 6], Fraction(1, 2), 0)
        assert "3" in str(err.value)

    def test_rejects_zero_dilation(self):
        with pytest.raises(ValueError):
            affine_map([1, 2], 0, 5)


class TestCanonicalForm:
    def test_worked_example(self):
        form = canonical_form(WORKED_A)
        assert form.base == (0, 2, 3, 6)
        assert form.mirror == (0, 3, 4, 6)
        assert form.representative == (0, 2, 3, 6)

    def test_equivalent_set_gives_same_forms(self):
        assert canonical_form(WORKED_B) == canonical_form(WORKED_A)

    def test_singleton(self):
        form = canonical_form([7])
        assert form.base == form.mirror == form.representative == (0,)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(200):
            form = canonical_form(random_set(rng))
            again = canonical_form(form.base)
            assert again.base == form.base

    def test_mirror_is_an_involution(self):
        rng = random.Random(5)
        for _ in range(200):
            form = canonical_form(random_set(rng, size_lo=2))
            top = form.base[-1]
            reflected = tuple(top - e for e in reversed(form.base))
            assert reflected == form.mirror
            back = tuple(
                max(form.mirror) - e for e in reversed(form.mirror)
            )
            assert back == form.base

    def test_normalization_invariants(self):
        rng = random.Random(9)
        for _ in range(200):
            form = canonical_form(random_set(rng, size_lo=2))
            for side in (form.base, form.mirror):
                assert side[0] == 0
                g = 0
                for e in side:
                    g = math.gcd(g, e)
                assert g == 1
            assert form.representative == min(form.base, form.mirror)


class TestEquivalence:
    def test_worked_pair(self):
        assert affinely_equivalent(WORKED_A, WORKED_B)

    def test_both_canonical_sets_are_equivalent(self):
        assert affinely_equivalent([0, 2, 3, 6], [0, 3, 4, 6])

    def test_different_cardinalities_never_equivalent(self):
        assert not affinely_equivalent([0, 1], [0, 1, 2])

    def test_is_an_equivalence_relation(self):
        rng = random.Random(17)
        for _ in range(100):
            a = random_set(rng)
            assert affinely_equivalent(a, a)  # reflexive
            b, x, y = random_integral_map(rng, a)
            c = affine_map(b, x, y)
            assert affinely_equivalent(b, c) and affinely_equivalent(c, b)  # symmetric
            d_dom, x2, y2 = random_integral_map(rng, c)
            e = affine_map(d_dom, x2, y2)
            # b ~ scaled c = d_dom and d_dom ~ e force b ~ e (transitive)
            assert affinely_equivalent(b, d_dom)
            assert affinely_equivalent(d_dom, e)
            assert affinely_equivalent(b, e)


class TestSumsets:
    def test_examples(self):
        assert sumset([0, 1], [0, 1]) == (0, 1, 2)
        assert sumset([0, 1, 3], [0, 1, 3]) == (0, 1, 2, 3, 4, 6)
        assert sumset([0, 1, 2], [0, 1, 2]) == (0, 1, 2, 3, 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sumset([], [1])
        with pytest.raises(ValueError):
            sumset([1], [])


class TestInvariantProfile:
    def test_examples(self):
        p = invariant_profile([0, 1, 3])
        assert (p.sumset_size, p.difference_size) == (6, 7)
        q = invariant_profile([0, 1, 2])
        assert (q.sumset_size, q.difference_size) == (5, 5)

    def test_worked_pair_has_identical_profiles(self):
        assert invariant_profile(WORKED_A) == invariant_profile(WORKED_B)

    def test_preserved_under_affine_maps(self):
        rng = random.Random(29)
        for _ in range(300):
            base = random_set(rng)
            domain, x, y = random_integral_map(rng, base)
            image = affine_map(domain, x, y)
            assert invariant_profile(image) == invariant_profile(domain)
            assert (
                canonical_form(image).representative
                == canonical_form(domain).representative
            )

    def test_cardinality_bounds_exhaustive(self):
        # Every k-subset of {0..12}: 2k-1 <= card(A+A) <= k(k+1)/2 and
        # 2k-1 <= card(A-A) <= k(k-1)+1.
        universe = range(13)
        for k in range(2, 9):
            for subset in combinations(universe, k):
                p = invariant_profile(subset)
                assert 2 * k - 1 <= p.sumset_size <= k * (k + 1) // 2, subset
                assert 2 * k - 1 <= p.difference_size <= k * (k - 1) + 1, subset


def reference_affine_map(a, x, y):
    """affine_map as it stood before the integer-only path."""
    elems = integer_set(a)
    x = Fraction(x)
    y = Fraction(y)
    if x == 0:
        raise ValueError("dilation factor x must be nonzero")
    image = []
    for e in elems:
        v = x * e + y
        if v.denominator != 1:
            raise ValueError(f"element {e} has non-integral image {v}")
        image.append(int(v))
    return tuple(sorted(image))


def reference_canonical_form(a):
    """canonical_form without its skips of a zero origin and a unit gcd."""
    elems = integer_set(a)
    if len(elems) == 1:
        zero = (0,)
        return CanonicalForm(zero, zero, zero)
    origin = elems[0]
    shifted = [e - origin for e in elems]
    g = math.gcd(*shifted)
    base = tuple(e // g for e in shifted)
    mirror = tuple(base[-1] - e for e in reversed(base))
    return CanonicalForm(base, mirror, min(base, mirror))


def reference_invariant_profile(a):
    """invariant_profile as it stood before it built A+A and A-A directly."""
    elems = integer_set(a)
    return InvariantProfile(
        sumset_size=len(sumset(elems, elems)),
        difference_size=len({x - y for x in elems for y in elems}),
    )


def outcome(fn, *args):
    """The value fn returns, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return f"ValueError: {err}"


class TestFastPathsMatchReferences:
    SCALARS = (
        0, 1, -1, 2, -3, 7, 0.5, -1.5, 0.25, 0.0, 2.0,
        Fraction(1, 2), Fraction(-7, 3), Fraction(5, 6), Fraction(-26, 3), Fraction(9, 1),
        True, False, "3/2", "-2", Decimal("1.5"), Decimal("-0.25"), Decimal(4),
    )

    def test_affine_map(self):
        rng = random.Random(41)
        errors = 0
        for _ in range(3000):
            a = random_set(rng, span=rng.choice((5, 30, 10**6)))
            x, y = rng.choice(self.SCALARS), rng.choice(self.SCALARS)
            got = outcome(affine_map, a, x, y)
            assert got == outcome(reference_affine_map, a, x, y), (a, x, y)
            errors += isinstance(got, str)
        assert 300 < errors < 2700  # both paths are exercised

    def test_affine_map_on_integral_maps(self):
        rng = random.Random(43)
        for _ in range(1000):
            domain, x, y = random_integral_map(rng, random_set(rng))
            assert affine_map(domain, x, y) == reference_affine_map(domain, x, y)

    def test_non_integral_message(self):
        message = "element 3 has non-integral image 3/2"
        for fn in (affine_map, reference_affine_map):
            assert outcome(fn, [0, 2, 3, 6], 0.5, 0) == f"ValueError: {message}"
        assert outcome(affine_map, [1, 4], Fraction(-7, 3), 0.5) == (
            "ValueError: element 1 has non-integral image -11/6"
        )

    def test_canonical_form(self):
        rng = random.Random(59)
        for _ in range(3000):
            size_hi, span = rng.choice(((2, 5), (8, 5), (8, 30), (20, 30), (20, 10**9)))
            a = random_set(rng, size_hi=size_hi, span=span)
            assert canonical_form(a) == reference_canonical_form(a), a

    def test_canonical_form_origins_and_spans(self):
        rng = random.Random(61)
        for span in (1, 2, _BITSET_SPAN - 1, _BITSET_SPAN, _BITSET_SPAN + 1, 10**15):
            for size in (2, 3, 8):
                for origin in (0, 3, -span, -span - 7, -(10**12), 10**15):
                    for step in (1, 2, 6):
                        a = {origin, origin + step * span}
                        a.update(origin + step * rng.randint(1, span - 1)
                                 for _ in range(size - 2) if span > 1)
                        assert canonical_form(a) == reference_canonical_form(a), a
                        assert canonical_form(sorted(a, reverse=True)) == canonical_form(a)

    def test_canonical_form_of_singletons(self):
        for e in (0, -3, 7, 10**15, -(10**100)):
            for a in ([e], (e, e), {e}):
                assert canonical_form(a) == reference_canonical_form(a) == ((0,), (0,), (0,))

    def test_empty_set_message(self):
        message = "ValueError: integer set must be nonempty"
        for fn in (integer_set, canonical_form, reference_canonical_form,
                   invariant_profile, reference_invariant_profile):
            assert outcome(fn, []) == message
        for fn in (affine_map, reference_affine_map):
            assert outcome(fn, (), 2, 1) == message
            assert outcome(fn, (), "x", 1) == message  # the set is read first
        assert outcome(sumset, [], [1]) == message
        assert outcome(sumset, [1], ()) == message

    def test_invariant_profile(self):
        rng = random.Random(47)
        for _ in range(2000):
            a = random_set(rng, size_hi=rng.choice((3, 8, 20)), span=rng.choice((12, 30, 10**9)))
            assert invariant_profile(a) == reference_invariant_profile(a), a

    def test_invariant_profile_either_side_of_the_bitset_bound(self):
        rng = random.Random(53)
        for span in (_BITSET_SPAN - 1, _BITSET_SPAN, _BITSET_SPAN + 1):
            for size in (2, 3, 8, 40):
                for origin in (0, -span - 7, -(10**12), 10**15):
                    a = {origin, origin + span}
                    a.update(origin + rng.randint(1, span - 1) for _ in range(size - 2))
                    assert invariant_profile(a) == reference_invariant_profile(a), a
        for e in (0, -3, 7, 10**15):
            assert invariant_profile([e]) == InvariantProfile(1, 1)

    def test_invariant_profile_of_sparse_huge_sets(self, monkeypatch):
        # A bitset of A+A would need 10^15 bits here.  With the cap lowered
        # to 4 elements, a set past it is refused from the span of
        # _BITSET_SPAN on, and only there.
        monkeypatch.setattr(affine, "PROFILE_MAX_ELEMENTS", 4)
        past = "ValueError: profile takes at most 4 elements"
        cases = [
            ([0, 10**12, -(10**15)], (6, 7)),
            ([-(10**15), 0, 10**12, 2 * 10**12], (9, 11)),  # at the cap
            ([0, 10**12, 0, 2 * 10**12, 3 * 10**12], (7, 7)),  # at it, once deduplicated
            ([0, 10**100], (3, 3)),
            ([0, 1, 2, 3, _BITSET_SPAN - 1], (12, 15)),  # past it, on bitsets
            ([-(10**15), 0, 10**12, 2 * 10**12, 3 * 10**12], past),
            ([0, 1, 2, 3, _BITSET_SPAN], past),
        ]
        for a, expected in cases:
            if expected == past:
                assert outcome(invariant_profile, a) == past, a
            else:
                assert invariant_profile(a) == InvariantProfile(*expected), a
                assert invariant_profile(a) == reference_invariant_profile(a), a


def reference_distribution(n, k=None, inequivalent_only=False):
    """Per-mask sumset distribution, as it stood before the bitset walk."""
    counts = {}
    seen = set()
    width = n + 1
    for mask in range(1, 1 << width):
        if k is not None and mask.bit_count() != k:
            continue
        a = tuple(i for i in range(width) if mask >> i & 1)
        if inequivalent_only:
            rep = canonical_form(a).representative
            if rep in seen:
                continue
            seen.add(rep)
        size = len({x + y for x in a for y in a})
        counts[size] = counts.get(size, 0) + 1
    return dict(sorted(counts.items()))


class TestSumsetSizeDistribution:
    def test_tiny_interval(self):
        assert sumset_size_distribution(1) == {1: 2, 3: 1}
        assert sumset_size_distribution(1, inequivalent_only=True) == {1: 1, 3: 1}

    def test_singletons(self):
        for n in (0, 3, 7):
            assert sumset_size_distribution(n, k=1) == {1: n + 1}
            assert sumset_size_distribution(n, k=1, inequivalent_only=True) == {1: 1}

    def test_pairs_all_collapse(self):
        # Any 2-set has card(A+A) = 3 exactly; C(5,2) = 10 pairs in {0..4}.
        assert sumset_size_distribution(4, k=2) == {3: 10}

    def test_matches_direct_enumeration(self):
        for n in range(0, 7):
            expected: dict[int, int] = {}
            elems = list(range(n + 1))
            for mask in range(1, 1 << (n + 1)):
                a = [elems[i] for i in range(n + 1) if mask >> i & 1]
                size = len({p + q for p in a for q in a})
                expected[size] = expected.get(size, 0) + 1
            assert sumset_size_distribution(n) == dict(sorted(expected.items())), n

    def test_total_subset_count(self):
        for n in (3, 5):
            dist = sumset_size_distribution(n)
            assert sum(dist.values()) == 2 ** (n + 1) - 1

    def test_matches_per_mask_reference(self):
        for n in range(0, 13):
            for k in [None, *range(1, n + 3)]:
                for inequivalent_only in (False, True):
                    got = sumset_size_distribution(n, k, inequivalent_only)
                    assert got == reference_distribution(n, k, inequivalent_only), (
                        n, k, inequivalent_only,
                    )

    def test_class_count_matches_subset_phi(self):
        # Classes of diameter m >= 2: Phi(m)/2 normalized sets {0,...,m}
        # with gcd 1, paired by the reflection; sum_{d|m} mu(d) 2^[m/2d]
        # of them are their own mirror (Burnside).  Add {0} and {0,1}.
        mu = mobius_sieve(18)
        expected = 2
        for m in range(2, 19):
            symmetric = sum(mu[d] * 2 ** (m // (2 * d)) for d in divisors(m))
            expected += (subset_phi(m) // 2 + symmetric) // 2
            total = sum(sumset_size_distribution(m, inequivalent_only=True).values())
            assert total == expected, m

    def test_guard(self):
        with pytest.raises(ValueError):
            sumset_size_distribution(21)
        with pytest.raises(ValueError):
            sumset_size_distribution(-1)
        with pytest.raises(ValueError):
            sumset_size_distribution(3, k=0)
