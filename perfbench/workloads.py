"""Seeded request generators for the benchmark workloads.

A workload is an endless sequence of rounds.  A round holds one request
per template, in a seeded order.  Each template cycles through three
nominal sizes, offset per template so that every round mixes small,
middle and large requests; the seed shrinks each size by up to 15 % and
picks the secondary arguments (k, d, output format).  So the cost of a
round hardly depends on the seed, while the values checked do.

compute    the table-building user.  Per round: six range tabulations
           (f, fk, phi, phik, psi, and a second f range) with n up to
           2000, and six single large values.  Three singles (f near
           2.5e4..1e5, phi near 1e5..1e6, psi with n/d >= 2e4) have more
           than 4300 decimal digits, so today they fail on CPython's
           int-to-string limit: exactly a quarter of the requests.
verify     the identity user: one request per suite (recursions,
           divisor-sums, bounds, asymptotics, affine, closed-forms),
           n-max 480-9000, about 1 s each.  Heavy lru_cache reuse, no
           large decimal output, small sieves.
enumerate  the ground-truth user: verify oracle at n-max 16-17 (seeded
           --k-max), affine dist at n 14-15 unrestricted and 17-18 with
           --k, each with and without --inequivalent, and bench over n
           16..18 (seeded --reps).  Almost all time is 2^n enumeration.
"""

from __future__ import annotations

import random
from typing import Iterator

WORKLOADS = ("compute", "verify", "enumerate")
FORMATS = ("plain", "json", "bfile")
SMALL_KS = (2, 3, 5, 8, 13)


def _shrink(rng: random.Random, nominal: int) -> int:
    return max(1, round(nominal * rng.uniform(0.85, 1.0)))


def _compute_round(rng: random.Random, r: int) -> list[list[str]]:
    def pick(i: int, sizes: tuple[int, int, int]) -> int:
        return _shrink(rng, sizes[(r + i) % 3])

    def span(top: int, width: int) -> str:
        return f"{max(1, top - width + 1)}..{top}"

    k1, k2 = rng.choice(SMALL_KS), rng.choice(SMALL_KS)
    d = rng.choice((2, 3, 4, 6))
    psi_top = pick(4, (1200, 1600, 2000))
    d_small = rng.choice((20, 40, 80))
    d_large = rng.choice((2, 3, 4, 5))
    requests = [
        # Range tabulations, n <= 2000.
        ["compute", "f", "--n", span(pick(0, (1200, 1600, 2000)), 800)],
        ["compute", "fk", "--k", str(k1), "--n", span(pick(1, (1200, 1600, 2000)), 1000)],
        ["compute", "phi", "--n", span(pick(2, (1200, 1600, 2000)), 2000)],
        ["compute", "phik", "--k", str(k2), "--n", span(pick(3, (1200, 1600, 2000)), 2000)],
        ["compute", "psi", "--d", str(d), "--n",
         ",".join(str(m) for m in range(d, psi_top + 1, d))],
        ["compute", "f", "--n", span(pick(5, (600, 900, 1200)), 600)],
        # Single values that fit in 4300 digits.
        ["compute", "f", "--n", str(pick(6, (2000, 6000, 12000)))],
        ["compute", "phi", "--n", str(pick(7, (2000, 6000, 12000)))],
        ["compute", "psi", "--d", str(d_small), "--n",
         str(d_small * pick(8, (2000, 6000, 12000)))],
        # Single values past the 4300-digit limit (n/d > 14285).
        ["compute", "f", "--n", str(pick(9, (25_000, 50_000, 100_000)))],
        ["compute", "phi", "--n", str(pick(10, (100_000, 300_000, 1_000_000)))],
        ["compute", "psi", "--d", str(d_large), "--n",
         str(d_large * pick(11, (25_000, 80_000, 200_000)))],
    ]
    for argv in requests:
        argv += ["--format", rng.choice(FORMATS)]
    return requests


# Sized so that every suite but closed-forms takes about one second: with
# about 40 requests a run, a spread of costs would leave the median and
# tail latency sitting on whichever suite the partial last round favours.
_VERIFY_SIZES = (
    ("recursions", (560, 600, 640)),
    ("divisor-sums", (2100, 2300, 2500)),  # peak RSS steps up near n-max 2600
    ("bounds", (950, 1025, 1100)),
    ("asymptotics", (2300, 2500, 2700)),
    ("affine", (7000, 8000, 9000)),
    ("closed-forms", (10, 100, 1000)),
)


def _verify_round(rng: random.Random, r: int) -> list[list[str]]:
    return [
        ["verify", suite, "--n-max", str(_shrink(rng, sizes[(r + i) % 3]))]
        for i, (suite, sizes) in enumerate(_VERIFY_SIZES)
    ]


# Sized so that every request takes 0.45-0.75 s: with about 55 requests a
# run, a spread of costs would leave the median sitting in the gap between
# cheap and dear requests, on whichever side the seed's mix favours.
def _enumerate_round(rng: random.Random, r: int) -> list[list[str]]:
    # The oracle suite makes 2 + 2 min(n, k-max) + tau(n) passes over 2^n
    # masks per n; these k-max ranges keep its requests near 0.6 s.
    n_oracle = (16, 17, 17)[r % 3]
    k_max = rng.randint(*{16: (10, 16), 17: (2, 5)}[n_oracle])
    # C(n + 1, k) sets are enumerated with --k.
    n_k, k = ((17, 8), (18, 7), (18, 8))[(r + 1) % 3]
    return [
        ["verify", "oracle", "--n-max", str(n_oracle), "--k-max", str(k_max)],
        ["affine", "dist", "--n", "15"],
        ["affine", "dist", "--n", "14", "--inequivalent"],
        ["affine", "dist", "--n", str(n_k), "--k", str(k)],
        ["affine", "dist", "--n", "17", "--k", str(rng.choice((7, 8))), "--inequivalent"],
        ["bench", "--n", "16..18", "--reps", str(rng.randint(2, 3))],
    ]


_ROUNDS = {"compute": _compute_round, "verify": _verify_round, "enumerate": _enumerate_round}


def rounds(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Endless, deterministic sequence of rounds of CLI argv lists."""
    make_round = _ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    r = 0
    while True:
        batch = make_round(rng, r)
        rng.shuffle(batch)
        yield batch
        r += 1


def requests(workload: str, seed: int) -> Iterator[list[str]]:
    """The rounds of one workload, one request after another."""
    for batch in rounds(workload, seed):
        yield from batch
