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
power, _descend asserts that multiple (_check_bound) and descends from it,
dividing out each prime while p^k still divides the earlier term; each
such rank test, seq.rank_test, costs one ladder of O(log p^k) steps, and
an even bound shares its ladder with the test at half of it.  psi_table walks
r = 2, 3, ... with one lcm per modulus, psi(r) = lcm(psi(p^k), psi(r / p^k))
for the least prime p of r, read off the rows it has built; a growing
sieve of least prime factors gives p and splits each order bound without
trial division, and only the prime powers are descended.  The residue
scan, psi_scan, is kept as the fallback for moduli that zmod.factor cannot
factor within its budget, and as the oracle of the tests.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple

from . import seq, zmod
from .config import DEFAULT_PSI_SCAN_CAP, BudgetExceededError

class PsiValue(namedtuple("PsiValue", "r psi steps_scanned")):
    __slots__ = ()


def psi(r: int, cap: int = DEFAULT_PSI_SCAN_CAP) -> PsiValue:
    """First q with r | u_{q-1}: the lcm of psi(p^k) over the p^k exactly dividing r.

    Each psi(p^k) comes from psi_of_prime.  When zmod.factor exceeds its
    budget, on r or on a prime's bound, psi_scan answers instead.  Either
    way a psi above `cap` raises the scan's BudgetExceededError, so the cap
    bounds the reported psi and the fallback scan alike, and `steps_scanned`
    is psi, the length of the scan that finds it.
    """
    zmod.check_modulus(r)
    try:
        q = math.lcm(*(psi_of_prime(p, k) for p, k in zmod.factor(r).items()))
    except BudgetExceededError:
        return psi_scan(r, cap)
    if q > cap:
        raise _over_cap(r, cap)
    return PsiValue(r, q, q)


def psi_table(max_r: int, cap: int = DEFAULT_PSI_SCAN_CAP):
    """psi(r) at index r for 2 <= r <= max_r, as psi(r, cap) gives each.

    An array("q") of max_r + 1 entries, 8 bytes each, with 0 and 1 at
    indices 0 and 1.  Each r takes one step: with p its least prime and p^k
    the power of p that exactly divides it, psi(r) = lcm(psi(p^k),
    psi(r / p^k)), both read off the rows already built when p^k < r.
    p^k is found by dividing r by p for as long as p divides the rest.
    Only a prime power r = p^k is descended, over the primes of its order
    bound and p, so each prime power is descended once per table.

    p comes from one sieve of least prime factors,
    zmod.smallest_prime_factors, which also splits the order bounds.  The
    sieve must reach r + 1, the bound of a prime r; it starts at 64, past
    the bound 30 of p = 2 and 5, and once r + 1 passes its end it is
    rebuilt to min(2r, max_r + 1), so a walk that stops early never sieves
    for the end of the range.  It stops growing at the sieve ceiling, and
    beyond it zmod.factor splits what the sieve cannot.  At the first r
    whose psi exceeds `cap` the walk stops with the error psi(r, cap)
    raises there.
    """
    from array import array  # deferred: `import turkshead.cli` does not load it

    limit, spf = 64, zmod.smallest_prime_factors(64)
    table = array("q", (0, 1))  # psi(r)
    for r in range(2, max_r + 1):
        if r + 1 > limit:
            grown = min(2 * r, max_r + 1, zmod.SIEVE_CEILING)
            if grown > limit:
                limit, spf = grown, zmod.smallest_prime_factors(grown)
        p = spf[r] if r <= limit else min(zmod.factor(r))
        pk, rest = p, r // p
        while rest % p == 0:
            pk, rest = pk * p, rest // p
        if rest > 1:
            q = math.lcm(table[pk], table[rest])
        else:
            bound = _order_bound(p)
            primes = _sieved_primes(bound, spf) if bound <= limit else zmod.factor(bound)
            q = _descend(r, bound * r // p, primes if p in primes else [*primes, p])
        if q > cap:
            raise _over_cap(r, cap)
        table.append(q)
    return table


def _sieved_primes(m: int, spf) -> list[int]:
    """The distinct primes of 1 <= m < len(spf), ascending, read off the sieve."""
    primes = []
    while m > 1:
        p = spf[m]
        primes.append(p)
        m //= p
        while m % p == 0:
            m //= p
    return primes


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
    """A multiple of psi(p) for a prime p (Wall 1960).

    30 for p = 2 and p = 5.  Otherwise p + 1 when 5 is a quadratic
    non-residue mod p and (p - 1)/2 when it is a residue.  By quadratic
    reciprocity (5/p) = (p/5), as 5 = 1 mod 4, and the squares mod 5 are
    1 and 4; so the sign is read off p mod 5, where Euler's criterion would
    take 5^((p-1)/2) mod p.  Every caller asserts p | u_{B-1} at the bound
    B returned here (_check_bound), which certifies the reading at run
    time.
    """
    if p in (2, 5):
        return 30
    return (p - 1) // 2 if p % 5 in (1, 4) else p + 1


def _check_bound(r: int, bound: int) -> bool | None:
    """Assert r | u_{bound-1}: the proof that psi(r) divides `bound`.

    An even bound shares its ladder with the test at bound/2,
    seq.rank_tests_halving, and r | u_{bound/2-1} is returned; an odd bound
    runs seq.rank_test, and None is returned.
    """
    if bound % 2:
        at_half, at_bound = None, seq.rank_test(bound, r)
    else:
        at_half, at_bound = seq.rank_tests_halving(bound, r)
    if not at_bound:
        raise AssertionError(f"{r} does not divide u_{bound - 1}")
    return at_half


def _descend(r: int, bound: int, primes) -> int:
    """psi(r) from a multiple `bound` of psi(r).

    r | u_{bound-1} is asserted by _check_bound; since the indices q with
    r | u_{q-1} are exactly the multiples of psi(r), each prime l of bound
    (from `primes`, which must include them all) is then divided out for as
    long as r | u_{q/l - 1} still holds.  The test at bound/2 of an even
    bound has run with the check, so 2 is tested again only when it passed.
    """
    at_half = _check_bound(r, bound)
    q = bound // 2 if at_half else bound
    for ell in primes:
        if ell != 2 or at_half:
            while q % ell == 0 and seq.rank_test(q // ell, r):
                q //= ell
    return q


def psi_of_prime(p: int, k: int = 1) -> int:
    """psi(p^k) for a prime p, by the order algorithm.

    Descends from _order_bound(p) p^(k-1), a multiple of psi(p^k), over the
    primes of _order_bound(p), from zmod.factor, and p.  p divides the
    bound only at p = 2 and 5, where it is one of its primes, so at k = 1
    it adds no test.  No residues are scanned, so no scan cap applies.  p
    is not tested for primality: every caller has proved it, by
    zmod.is_prime, zmod.factor or a sieve.
    """
    bound = _order_bound(p)
    primes = zmod.factor(bound)
    return _descend(p**k, bound * p ** (k - 1), primes if p in primes else [*primes, p])


# -- prime statistics ----------------------------------------------------------

class PrimeStats(namedtuple("PrimeStats", "prime_count matched ratio")):
    __slots__ = ()


def prime_psi_matches(count: int) -> list[bool]:
    """For each of the first `count` primes, ascending, whether psi(p) = p + 1.

    Each prime gets the certificate of the statement, not its psi, from
    the one sweep loop, _plus_one_verdicts.  The sieve that lists the
    primes proves them prime, and the list is also the trial divisors of
    every p + 1 that is tested.
    """
    if count < 1:
        raise ValueError("prime count must be positive")
    primes = zmod.first_primes(count)
    return _plus_one_verdicts(primes, primes)


def _plus_one_verdicts(candidates: list[int], primes: list[int]) -> list[bool]:
    """For each prime p of `candidates`, in order, whether psi(p) = p + 1.

    The check p | u_{B-1} at the bound B = _order_bound(p) is asserted for
    every prime and proves psi(p) | B (_check_bound raises its refutation).
    Then psi(p) = p + 1 exactly when (p + 1) | B, p | u_p, and p does not
    divide u_{(p+1)/l - 1} for any prime l of p + 1; the tests run in
    ascending l and stop at the first that passes.  So a prime
    p = +-1 mod 5, whose bound is (p - 1)/2, costs the bound check alone.
    When B = p + 1 the bound check and the test at l = 2 share one ladder,
    seq.rank_tests_halving; otherwise (p = 2 and 5, B = 30) l = 2 takes a
    rank test of its own.  The odd primes l are found by trial division of
    the odd part of p + 1 over `primes`, ascending, which must cover
    isqrt(p + 1) for every candidate, and each takes one seq.rank_test.
    """
    verdicts = []
    for p in candidates:
        bound, q = _order_bound(p), p + 1
        if bound == q:
            plus_one = not _check_bound(p, q)
        else:
            if not seq.rank_test(bound, p):  # no test at half this bound is read
                _check_bound(p, bound)  # raises the refutation
            plus_one = (
                bound % q == 0
                and seq.rank_test(q, p)
                and (q % 2 == 1 or not seq.rank_test(q // 2, p))
            )
        if plus_one:
            m = q >> ((q & -q).bit_length() - 1)  # the odd part of p + 1
            for ell in primes:
                if ell * ell > m:
                    break
                if m % ell == 0:
                    if seq.rank_test(q // ell, p):
                        plus_one = False
                        break
                    m //= ell
                    while m % ell == 0:
                        m //= ell
            if plus_one and m > 1:
                plus_one = not seq.rank_test(q // m, p)
        verdicts.append(plus_one)
    return verdicts


def prime_psi_stats(count: int) -> PrimeStats:
    """How many of the first `count` primes have psi(p) = p + 1.

    p = 2 is one of them (psi(2) = 3 = 2 + 1) and is counted, so the first
    10,000 primes give 3,970; the published 3,969 counts odd primes only.

    Each verdict is certified by prime_psi_matches: the bound check
    p | u_{B-1}, then p | u_p and one rank test per prime l of p + 1
    showing that no proper divisor (p + 1)/l is a zero index.
    """
    from fractions import Fraction  # deferred: most CLI calls never build a ratio

    matched = sum(prime_psi_matches(count))
    return PrimeStats(count, matched, Fraction(matched, count))


def first_usage_primes(count: int) -> list[int]:
    """First `count` primes p > 7 with psi(p) = p + 1.

    The sieve limit doubles until enough are found; each round gives the
    primes above the previous limit to the stats sweep's loop,
    _plus_one_verdicts, whole, and the first `count` that match are kept.
    """
    if count < 1:
        raise ValueError("prime count must be positive")
    out, done, limit = [], 7, 512
    while True:
        primes = zmod.primes_up_to(limit)
        fresh = primes[bisect.bisect_right(primes, done):]
        out += [p for p, plus_one in zip(fresh, _plus_one_verdicts(fresh, primes)) if plus_one]
        if len(out) >= count:
            return out[:count]
        done, limit = limit, 2 * limit
