"""The verify suites, as one table.

A suite is a generator that takes the range of n it checks and the cap
on checked k, and yields once per check: None when the check passed, or
the failure message when it did not.  It is not resumed after a
message.  Each suite looks up the library functions it calls through
their module, when it starts or at each call, so a function patched
into its module before the run is the one called.  A row of SUITES
lists the options verify takes for its suite, --k-max only where the
suite reads k.  Only the verify command imports this module.
"""

import relprime

VERIFY_MAX_N = 10_000


def _sampled_ks(n: int, k_max: int | None) -> list[int]:
    ks = {1, 2, 3, 5, 8, n // 2, n}
    top = n if k_max is None else min(n, k_max)
    return sorted(k for k in ks if 1 <= k <= top)


def _sampled(stem: str, module: str, check):
    """The suite of one check per n: check(m, n, k) at k = None, then per
    sampled k, with m the module named, looked up when the suite starts."""
    def suite(ns: range, k_max: int | None):
        m = getattr(relprime, module)
        for n in ns:
            for k in (None, *_sampled_ks(n, k_max)):
                if not check(m, n, k):
                    yield f"{stem} at n={n}" if k is None else f"{stem} at n={n}, k={k}"
            yield None

    return suite


def _suite_oracle(ns: range, k_max: int | None):
    counting, oracle, setphi = relprime.counting, relprime.oracle, relprime.setphi
    for n in ns:
        scan = oracle.gcd_histogram(n)  # one histogram serves every check at n
        if counting.count_relprime(n) != scan.with_gcd(1):
            yield f"count formula disagrees with enumeration at n={n}"
        if setphi.subset_phi(n) != scan.with_gcd_n(1):
            yield f"subset phi disagrees with enumeration at n={n}"
        top = n if k_max is None else min(n, k_max)
        for k in range(1, top + 1):
            if counting.count_relprime_k(n, k) != scan.with_gcd(1, k):
                yield f"count formula disagrees at n={n}, k={k}"
            if setphi.subset_phi_k(n, k) != scan.with_gcd_n(1, k):
                yield f"subset phi disagrees at n={n}, k={k}"
        for d in relprime.arith.divisors(n):
            if setphi.subset_psi(n, d) != scan.with_gcd_n(d):
                yield f"subset psi disagrees at n={n}, d={d}"
        yield None


def _suite_kernels(ns: range, k_max: int | None):
    """The quotient kernel (f, f_k) against the divisor kernel (Phi, Phi_k).

    For n >= 2: n | Phi(n), 2 (f(n) - f(n-1)) = Phi(n), and, per sampled
    k, Phi_k(n) = f_k(n) - f_k(n-1) + f_{k+1}(n) - f_{k+1}(n-1).  The
    values at n - 1 are kept from the n before, or computed before those
    at n, so a central binomial C(n, [n/2]) is stepped from C(n-1, ...),
    and the one next to it, C(n, [n/2] + 1) at even n, is read off it.
    """
    counting, setphi = relprime.counting, relprime.setphi
    before = {None: counting.count_relprime(ns.start - 1)}  # f(n-1) at key None, f_k(n-1) at k
    for n in ns:
        ks = _sampled_ks(n, k_max)
        terms = [None, *sorted({*ks, *(k + 1 for k in ks)})]
        before = {j: before[j] if j in before else counting.count_relprime_k(n - 1, j)
                  for j in terms}
        now = {j: counting.count_relprime(n) if j is None else counting.count_relprime_k(n, j)
               for j in terms}
        phi = setphi.subset_phi(n)
        if phi % n:
            yield f"Phi not divisible by n at n={n}"
        if 2 * (now[None] - before[None]) != phi:
            yield f"f step disagrees with Phi at n={n}"
        for k in ks:
            if setphi.subset_phi_k(n, k) != now[k] - before[k] + now[k + 1] - before[k + 1]:
                yield f"f_k steps disagree with Phi_k at n={n}, k={k}"
        before = now
        yield None


def _suite_affine(trials: range, _k_max):
    import random
    from fractions import Fraction

    affine_map = relprime.affine.affine_map
    canonical_form = relprime.affine.canonical_form
    invariant_profile = relprime.affine.invariant_profile
    # randint(lo, hi) draws lo + below(hi - lo + 1) and choice(s) draws
    # s[below(len(s))], so this is their stream, with fewer frames per draw.
    below = random.Random(20070103)._randbelow
    dilations = [v for v in range(-6, 7) if v != 0]
    # Each dilation p/q and each translation is built once.
    xs = {(p, q): Fraction(p, q) for p in dilations for q in range(1, 7)}
    ys: dict[tuple[int, int], Fraction] = {}
    for _ in trials:
        size = below(8) + 1
        base = set()
        while len(base) < size:
            base.add(below(61) - 30)
        q = below(6) + 1
        p = dilations[below(12)]
        anchor = below(21) - 10
        w = below(21) - 10
        # a is constant mod q by construction, so x = p/q acts integrally
        # with the matching translation.
        a = [q * r + anchor for r in base]
        x = xs[p, q]
        key = (w * q - p * anchor, q)
        y = ys.get(key)
        if y is None:
            y = ys[key] = Fraction(*key)
        b = affine_map(a, x, y)
        form = canonical_form(a)
        if form.representative != canonical_form(b).representative:
            yield f"representative not preserved for {sorted(a)}"
        if invariant_profile(a) != invariant_profile(b):
            yield f"invariant profile not preserved for {sorted(a)}"
        if canonical_form(form.base).base != form.base:
            yield f"canonicalization not idempotent for {sorted(a)}"
        yield None


def _suite_closed_forms(_ns, _k_max):
    # (failure message, n, the closed form of subset_phi(n))
    forms = [(f"prime closed form failed at p={p}", p, (1 << p) - 2)
             for p in (2, 3, 5, 7, 11, 13)]
    forms += [(f"prime-square closed form failed at p={p}", p * p, (1 << p * p) - (1 << p))
              for p in (2, 3, 5)]
    forms += [(f"semiprime closed form failed at pq={p * q}", p * q,
               (1 << p * q) - (1 << q) - (1 << p) + 2)
              for p, q in ((2, 3), (2, 5), (3, 5), (2, 7))]
    for message, n, expected in forms:
        yield None if relprime.setphi.subset_phi(n) == expected else message


# Each suite's row of verify options, as cli._rows reads them, and the
# suite, which checks n from the lowest --n-max up to the one asked for
# (affine runs one trial per n).  closed-forms runs its 13 checks whatever
# the range, yet takes any --n-max: callers such as the benchmark's verify
# workload send one and expect those 13 checks.
_N_MAX = {"n-max": (False, 1, VERIFY_MAX_N)}
_K_MAX = {"k-max": (False, 1, None)}  # below 1, every k-restricted check is skipped
SUITES = {
    "recursions": ({**_N_MAX, **_K_MAX}, _sampled(
        "count recursion failed", "counting", lambda c, n, k: c.verify_recursion(n, k))),
    "divisor-sums": ({**_N_MAX, **_K_MAX}, _sampled(
        "divisor sum failed", "setphi", lambda s, n, k: s.verify_divisor_sum(n, k))),
    # The unrestricted sandwich is checked from n = 2 on; see the bounds
    # discussion in the README.
    "bounds": ({**_N_MAX, **_K_MAX}, _sampled(
        "sandwich violated", "counting",
        lambda c, n, k: n < 2 and k is None or (b := c.sandwich_bounds(n, k))[0] <= (
            c.count_relprime(n) if k is None else c.count_relprime_k(n, k)) <= b[1])),
    "asymptotics": ({"n-max": (False, 2, VERIFY_MAX_N), **_K_MAX}, _sampled(
        "residual envelope violated", "setphi",
        lambda s, n, k: abs(s.asymptotic_report(n, k).residual) <= s.residual_bound(n, k))),
    # oracle.ORACLE_MAX, written out so that only this suite imports oracle.
    "oracle": ({"n-max": (False, 1, 40), **_K_MAX}, _suite_oracle),
    "affine": (_N_MAX, _suite_affine),
    "closed-forms": (_N_MAX, _suite_closed_forms),
    "kernels": ({"n-max": (False, 2, VERIFY_MAX_N), **_K_MAX}, _suite_kernels),
}
