"""The psi map: first appearance of a modulus as a divisor in the u sequence.

psi(r) is the least q >= 1 with r | u_{q-1}.  It always exists: the residue
stream of u mod r is periodic (it is determined by four consecutive terms,
of which there are finitely many combinations), and u_{-1} = 0 sits inside
the period.  psi governs which THK(3, n) admit nontrivial r-colorings: for
prime r other than 5, THK(3, psi(r)) is the shortest braid with one.

psi is a rank of apparition, so it is computed by the order algorithm: the
indices q with r | u_{q-1} are exactly the multiples of psi(r), so psi(r) is
the lcm of psi(p^k) over the prime powers p^k exactly dividing r, and
psi(p^k) divides psi(p) p^(k-1) (Wall 1960; Vinson 1963).  For each prime
power, _prime_power_psi descends from that multiple, dividing out each prime
while p^k still divides the earlier term; each such rank test costs
O(log p^k).  psi_table walks r = 2, 3, ... and keeps the psi of each prime
power it meets for the rest of the walk, so every prime power is descended
once per table.  The residue scan, psi_scan, is kept as the fallback for
moduli that zmod.factor cannot factor within its budget, and as the oracle
of the tests.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from fractions import Fraction

from . import seq, thk, zmod
from .config import DEFAULT_PSI_SCAN_CAP, BudgetExceededError

class PsiValue(namedtuple("PsiValue", "r psi steps_scanned")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"r": self.r, "psi": self.psi, "steps_scanned": self.steps_scanned}


def psi(r: int, cap: int = DEFAULT_PSI_SCAN_CAP) -> PsiValue:
    """First q with r | u_{q-1}: the lcm of psi(p^k) over the p^k exactly dividing r.

    Each psi(p^k) comes from _prime_power_psi.  When zmod.factor exceeds its
    budget, on r or on a prime's bound, psi_scan answers instead.  Either
    way a psi above `cap` raises the scan's BudgetExceededError, so the cap
    bounds the reported psi and the fallback scan alike, and `steps_scanned`
    is psi, the length of the scan that finds it.
    """
    zmod.check_modulus(r)
    try:
        q = math.lcm(*(_prime_power_psi(p, k)[0] for p, k in zmod.factor(r).items()))
    except BudgetExceededError:
        return psi_scan(r, cap)
    if q > cap:
        raise _over_cap(r, cap)
    return PsiValue(r, q, q)


def psi_table(max_r: int, cap: int = DEFAULT_PSI_SCAN_CAP) -> list[tuple[int, int]]:
    """[(r, psi(r)) for 2 <= r <= max_r], ascending, as psi(r, cap) gives each.

    Each r is factored by trial division with a sieve of small primes, and
    the psi of each prime power is descended once and kept for the rest of
    this call.  At the first r whose psi exceeds `cap` the walk stops with
    the error psi(r, cap) raises there.  The sieve limit doubles as the
    walk needs it, up to isqrt(max_r), so a walk that stops early never
    sieves for the end of the range.
    """
    limit, small_primes = 0, []
    ranks: dict[tuple[int, int], int] = {}
    rows = []
    for r in range(2, max_r + 1):
        if (limit + 1) ** 2 <= r:
            limit = min(2 * math.isqrt(r), math.isqrt(max_r))
            small_primes = zmod.primes_up_to(limit)
        parts = zmod.least_prime_factors(r, small_primes).items()
        for part in parts:
            if part not in ranks:
                ranks[part] = _prime_power_psi(*part)[0]
        q = math.lcm(*(ranks[part] for part in parts))
        if q > cap:
            raise _over_cap(r, cap)
        rows.append((r, q))
    return rows


def _over_cap(r: int, cap: int) -> BudgetExceededError:
    return BudgetExceededError(f"psi({r}) not found within the scan cap {cap}")


def psi_scan(r: int, cap: int = DEFAULT_PSI_SCAN_CAP) -> PsiValue:
    """psi(r) by scanning the residue stream of u mod r, visiting psi(r) residues.

    Errors out at the scan cap rather than ever returning a wrong answer;
    the pigeonhole bound r^4 + 1 guarantees termination below any sane cap.
    """
    zmod.check_modulus(r)
    stream = seq.u_mod_stream(r)
    for index, residue in enumerate(stream):
        if index >= cap:
            raise _over_cap(r, cap)
        if residue == 0:
            return PsiValue(r, index + 1, index + 1)
    raise AssertionError("unreachable")


def _order_bound(p: int) -> int:
    """A multiple of psi(p) for a prime p.

    30 for p = 2 and p = 5; otherwise p + 1 or (p - 1)/2 by the sign of
    5^((p-1)/2) mod p.
    """
    if p in (2, 5):
        return 30
    return p + 1 if pow(5, (p - 1) // 2, p) == p - 1 else (p - 1) // 2


def _check_bound(r: int, bound: int) -> None:
    """Assert r | u_{bound-1}: the proof that psi(r) divides `bound`."""
    if seq.u_mod(bound - 1, r) != 0:
        raise AssertionError(f"{r} does not divide u_{bound - 1}")


def _descend(r: int, bound: int, primes) -> tuple[int, int]:
    """(psi(r), rank tests made) from a multiple `bound` of psi(r).

    r | u_{bound-1} is asserted; since the indices q with r | u_{q-1} are
    exactly the multiples of psi(r), each prime l of bound (from `primes`,
    which must include them all) is then divided out for as long as
    r | u_{q/l - 1} still holds.
    """
    _check_bound(r, bound)
    q, tests = bound, 1
    for ell in primes:
        while q % ell == 0:
            tests += 1
            if seq.u_mod(q // ell - 1, r) != 0:
                break
            q //= ell
    return q, tests


def _prime_power_psi(p: int, k: int = 1) -> tuple[int, int]:
    """(psi(p^k), rank tests made) for a prime p.

    Descends from _order_bound(p) p^(k-1), a multiple of psi(p^k), over the
    primes of _order_bound(p) and, when k > 1, p.
    """
    bound = _order_bound(p)
    primes = list(zmod.factor(bound))
    if k > 1 and p not in primes:
        primes.append(p)
    return _descend(p**k, bound * p ** (k - 1), primes)


def psi_of_prime(p: int) -> PsiValue:
    """psi at a prime, by the rank-of-apparition order algorithm.

    For an odd prime p != 5, psi(p) divides p + 1 or (p - 1)/2 according to
    the sign of 5^((p-1)/2) mod p (psi(2) and psi(5) divide 30), and every
    index q with p | u_{q-1} is a multiple of psi(p) (Wall 1960; Vinson
    1963).  So starting from that bound, each prime factor is divided out
    while p still divides the term before the smaller index.  Each rank test
    costs O(log p) and no residues are scanned, so no scan cap applies; on
    this route `steps_scanned` counts the rank tests, the check at the bound
    included.  Agrees with the stream scan everywhere (see tests).
    """
    if not zmod.is_prime(p):
        raise ValueError(f"psi_of_prime needs a prime, got {p}")
    q, tests = _prime_power_psi(p)
    return PsiValue(p, q, tests)


# -- prime statistics ----------------------------------------------------------

class PrimeStats(namedtuple("PrimeStats", "prime_count matched ratio")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "count": self.prime_count,
            "matched": self.matched,
            "ratio": float(self.ratio),
        }


def prime_psi_matches(count: int) -> list[bool]:
    """For each of the first `count` primes, ascending, whether psi(p) = p + 1.

    Each prime gets the certificate of the statement, not its psi.  The
    check p | u_{B-1} at the bound B = _order_bound(p) is asserted for
    every prime and proves psi(p) | B.  Then psi(p) = p + 1 exactly when
    (p + 1) | B, p | u_p, and p does not divide u_{(p+1)/l - 1} for any
    prime l of p + 1; the tests stop at the first l that fails.  So a
    prime with 5^((p-1)/2) = 1 mod p, whose bound is (p - 1)/2, costs the
    bound check alone.  The sieve that lists the primes proves them prime,
    and one list of small primes up to the square root of the largest
    p + 1 factors every p + 1 that is tested.
    """
    if count < 1:
        raise ValueError("prime count must be positive")
    primes = zmod.first_primes(count)
    small_primes = zmod.primes_up_to(math.isqrt(primes[-1] + 1))
    return [_psi_is_p_plus_1(p, small_primes) for p in primes]


def _psi_is_p_plus_1(p: int, small_primes: list[int]) -> bool:
    """Whether psi(p) = p + 1 for a prime p, by the certificate above.

    `small_primes` must cover isqrt(p + 1) (see zmod.least_prime_factors).
    """
    bound = _order_bound(p)
    _check_bound(p, bound)
    q = p + 1
    # when B = p + 1, the bound check has shown p | u_p already
    if bound % q or (bound != q and seq.u_mod(q - 1, p) != 0):
        return False
    return all(
        seq.u_mod(q // ell - 1, p) != 0
        for ell in zmod.least_prime_factors(q, small_primes)
    )


def prime_psi_stats(count: int) -> PrimeStats:
    """How many of the first `count` primes have psi(p) = p + 1.

    p = 2 is one of them (psi(2) = 3 = 2 + 1) and is counted, so the first
    10,000 primes give 3,970; the published 3,969 counts odd primes only.

    Each verdict is certified by prime_psi_matches: the bound check
    p | u_{B-1}, then p | u_p and one rank test per prime l of p + 1
    showing that no proper divisor (p + 1)/l is a zero index.
    """
    matched = sum(prime_psi_matches(count))
    return PrimeStats(count, matched, Fraction(matched, count))


def first_usage_primes(count: int) -> list[int]:
    """First `count` primes p > 7 with psi(p) = p + 1.

    The sieve limit doubles until enough are found; each round tests only
    the primes above the previous limit, by the certificate of the stats
    sweep (_psi_is_p_plus_1).
    """
    if count < 1:
        raise ValueError("prime count must be positive")
    out, done, limit = [], 7, 512
    while True:
        primes = zmod.primes_up_to(limit)
        for p in primes[bisect.bisect_right(primes, done):]:
            if _psi_is_p_plus_1(p, primes):
                out.append(p)
                if len(out) == count:
                    return out
        done, limit = limit, 2 * limit


def color_usage_ratio(p: int) -> Fraction:
    """Fraction of the p available colors used by the two probe colorings.

    For a prime p > 7 with psi(p) = p + 1, every input colors THK(3, psi(p))
    mod p; this propagates the probes (0, 1, 0) and (1, 2, 0) and returns
    the larger palette size divided by p.
    """
    if not zmod.is_prime(p) or p <= 7:
        raise ValueError(f"need a prime greater than 7, got {p}")
    value = psi_of_prime(p).psi
    if value != p + 1:
        raise ValueError(f"psi({p}) = {value} != {p + 1}; ratio not defined here")
    return _usage_ratio(p)


def _usage_ratio(p: int) -> Fraction:
    """Color-usage ratio of a prime p > 7 already known to have psi(p) = p + 1.

    color_usage_ratio proves both conditions first; the primes of
    first_usage_primes come with both proved.
    """
    palettes = [
        thk.distinct_colors(thk.Coloring.from_input(p + 1, p, probe))
        for probe in ((0, 1, 0), (1, 2, 0))
    ]
    return Fraction(max(palettes), p)
