"""The three workloads, as endless streams of rounds made from a seed.

A round is a list of CLI commands (without the global `-f json`).  Every round
of a workload has the same make-up: the same number of commands of each kind,
each kind drawn from a narrow size band, in seeded order.  A run attempts
whole rounds, so the median and the tail of its latencies fall inside one kind
of command and not on the edge between two kinds.
"""

from __future__ import annotations

import math
import random

import oracle

WORKLOADS = ("prime-sweep", "psi-table", "query-mix")

#: Standard-diagram searches of THK(3, n) mod r: r <= 100, the classification
#: gives only the lower bound 5, and count * n is within the brute-force
#: budget.  Each tries count(n, r) inputs of n block steps, 1.7e5 to 4.4e5
#: steps in all; picked so that each takes 0.2-0.3 s (CPython 3.11, 2-core
#: x86-64 VM), close to the two large-modulus sieves of a round.
HEAVY_SEARCHES = (
    (56, 26), (36, 19), (54, 17), (140, 13), (14, 78), (42, 39), (70, 26),
    (154, 13), (28, 52), (45, 19), (168, 13), (72, 17), (14, 91), (182, 13),
    (54, 19), (24, 23), (18, 51), (9, 57), (196, 13), (7, 29),
)

#: (small prime s, n) with psi(s) | n, so THK(3, n) mod s*Q has nontrivial
#: colorings for any cofactor Q; the first five fire an exact rule, the rest
#: the construction route.
SMALL_PRIME_CASES = ((2, 3), (3, 4), (5, 2), (7, 8), (11, 5), (13, 14), (17, 18), (19, 9), (29, 7))

#: Rules n0 | n, s | r that pin mincol exactly.
EXACT_RULES = ((3, 2), (4, 3), (2, 5), (8, 7), (5, 11))


def units(argv: list[str]) -> int:
    """Units of work one command completes: primes swept, moduli evaluated, or 1."""
    if argv[0] == "stats":
        return int(argv[1])
    if argv[0] == "psi-table":
        return int(argv[2]) - 1
    return 1


def rounds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    make = {"prime-sweep": _prime_sweep, "psi-table": _psi_table, "query-mix": _query_mix}[workload]
    while True:
        round_ = make(rng)
        rng.shuffle(round_)
        yield round_


def _random_prime(rng: random.Random, low: int, high: int) -> int:
    while True:
        p = rng.randint(low, high)
        if oracle.is_prime(p):
            return p


def _prime_sweep(rng):
    """The paper's statistic over the first 10,000 and 1,000 primes, and 30 short sweeps.

    The short sweeps put the median and the 99th percentile inside one kind
    of command each: about 6% of a round is `stats 10000`.
    """
    sizes = [10000, 1000] + [rng.randint(200, 300) for _ in range(30)]
    return [["stats", str(n)] for n in sizes]


def _psi_table(rng):
    """Tables over r <= ~4000 and single psi values, large and small."""
    cmds = [["psi-table", "--max", str(rng.randint(3800, 4000))], ["psi-table", "--max", "185"]]
    for _ in range(2):
        while True:  # primes with psi(p) = p + 1 in the band
            p = _random_prime(rng, 600_000, 799_999)
            if oracle.full_period(p):
                break
        cmds.append(["psi", str(p)])
    for _ in range(2):
        while True:  # squarefree p * q with psi = lcm(psi(p), psi(q)) in the band
            p, q = _random_prime(rng, 100, 3000), _random_prime(rng, 100, 3000)
            if p != q and 600_000 <= math.lcm(oracle.psi_of_prime(p), oracle.psi_of_prime(q)) < 800_000:
                break
        cmds.append(["psi", str(p * q)])
    cmds += [["psi", str(rng.randint(1000, 4000))] for _ in range(10)]
    return cmds


def _query_mix(rng):
    """100 interactive commands: 95 light, 2 large-modulus mincol, 3 searches."""
    cmds = [["mincol", str(n), str(r)] for n, r in oracle.PUBLISHED_MINCOL]
    cmds += [["mincol", str(rng.randint(1, 200)), str(rng.randint(101, 10_000))] for _ in range(14)]
    for _ in range(10):
        n0, s = rng.choice(EXACT_RULES)
        cmds.append(["mincol", str(n0 * rng.randint(1, 20)), str(s * rng.randint(1, 500))])
    for _ in range(10):
        p = _random_prime(rng, 13, 400)
        r = p * rng.randint(1, 30)
        while r <= 100:  # keep the standard-diagram search out of the light commands
            r += p
        cmds.append(["mincol", str(oracle.psi_of_prime(p) * rng.randint(1, 2)), str(r)])
    cmds += [["mincol", str(n), str(r)] for n, r in rng.sample(HEAVY_SEARCHES, 3)]
    for _ in range(2):  # sieving up to sqrt(r), 3.2e6 to 4e6
        s, n = rng.choice(SMALL_PRIME_CASES)
        q = _random_prime(rng, 10**13 // s, 16 * 10**12 // s)
        cmds.append(["mincol", str(n), str(s * q)])
    cmds += [["count", str(rng.randint(1, 10)), str(rng.randint(2, 10))] for _ in range(10)]
    cmds += [["count", str(rng.randint(1, 10_000)), str(rng.randint(2, 10**6))] for _ in range(10)]
    cmds += [["det", str(rng.randint(1, 2000))] for _ in range(10)]
    cmds += [["psi", str(rng.randint(2, 3000))] for _ in range(15)]
    cmds += [["construct", str(_random_prime(rng, 13, 1000))] for _ in range(10)]
    return cmds
