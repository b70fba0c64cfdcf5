"""Modular and elementary number-theoretic arithmetic.

Residues are always stored canonically in [0, r); reduce on entry, so one
representation serves for equality tests everywhere else.
"""

from __future__ import annotations

import itertools
import math

from .config import BudgetExceededError

#: Largest limit primes_up_to and smallest_prime_factors sieve to.  The
#: prime sieve takes half a byte per number (a byte per odd number) plus a
#: Python int per prime found, about 0.28 GB at the ceiling (32 MB at 10^7,
#: measured by tracemalloc), and the least-prime-factor sieve 4 bytes per
#: number, 0.4 GB; larger limits are refused before anything is allocated.
SIEVE_CEILING = 10**8

#: Miller-Rabin on the first 13 primes as bases (2 to 41) proves primality
#: below this bound (Sorenson and Webster 2015); no fixed set of bases is
#: known to do so above it.
MILLER_RABIN_BOUND = 3317044064679887385961981

#: Steps of Pollard-Brent rho (evaluations of y -> y^2 + c, each weighted by
#: the 64-bit words of the modulus) that one factor() call may spend: 0.06 s
#: to 0.3 s from 40 to 1,500 digits (CPython 3.11, x86-64).  A prime factor
#: near 10^9 takes ~5 * 10^4 steps.
RHO_STEP_BUDGET = 2**18

#: The primes below 100: the trial divisors of is_prime and factor, whose
#: first 13 are the Miller-Rabin bases.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def check_modulus(r: int) -> int:
    """Validate a modulus (an integer >= 2) and return it."""
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError(f"modulus must be an integer, got {r!r}")
    if r < 2:
        raise ValueError(f"modulus must be >= 2, got {r}")
    return r


def decimal_digits(value: int) -> int:
    """Decimal digits of a positive integer, without converting it to a string."""
    # 2^(b-1) <= value < 2^b has floor((b-1) log10 2) + 1 digits, or one more
    digits = math.floor((value.bit_length() - 1) * math.log10(2)) + 1
    return digits + 1 if value >= 10**digits else digits


def mod_inverse(a: int, r: int) -> int:
    """Multiplicative inverse of a mod r; raises ValueError when none exists."""
    check_modulus(r)
    try:
        return pow(a % r, -1, r)
    except ValueError:
        raise ValueError(f"{a} has no inverse mod {r} (gcd is {math.gcd(a % r, r)})")


def is_prime(n: int) -> bool:
    """Whether n is prime, proven, never guessed.

    Trial division by the primes below 100 settles n below 97^2; above
    that, Miller-Rabin on the first 13 prime bases is a proof of primality
    below MILLER_RABIN_BOUND, and a failed base proves n composite at any
    size.
    An n from the bound on that passes every base raises BudgetExceededError.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    if not _passes_miller_rabin(n):
        return False
    if n < MILLER_RABIN_BOUND:
        return True
    raise BudgetExceededError(
        f"a {decimal_digits(n)}-digit number passes Miller-Rabin on the first 13 "
        f"prime bases, a proof of primality only below {MILLER_RABIN_BOUND}, and "
        f"trial division to its square root passes the sieve ceiling {SIEVE_CEILING}"
    )


def _passes_miller_rabin(n: int) -> bool:
    """Whether n, odd with no prime factor below 100, is a strong probable
    prime to each of the first 13 prime bases; False proves n composite."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending (empty for limit < 2).

    Raises BudgetExceededError above SIEVE_CEILING.
    """
    if limit < 2:
        return []
    if limit > SIEVE_CEILING:
        raise BudgetExceededError(
            f"sieving primes up to a {decimal_digits(limit)}-digit limit exceeds "
            f"the sieve ceiling {SIEVE_CEILING}"
        )
    # sieve[i] stands for the odd number 2i + 1, so an odd p strikes its odd
    # multiples from p^2 at index p^2 // 2 in steps of p
    size = (limit + 1) // 2
    sieve = bytearray(b"\x01") * size
    sieve[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = b"\x00" * ((size - 1 - start) // p + 1)
    return [2, *itertools.compress(range(1, limit + 1, 2), sieve)]


def smallest_prime_factors(limit: int):
    """spf with spf[m] the least prime of m for 2 <= m <= limit, m itself when prime.

    spf[0] = 0 and spf[1] = 1.  An array("i") of limit + 1 entries, 4 bytes
    each; raises BudgetExceededError above SIEVE_CEILING, before allocating.
    Each prime p <= isqrt(limit), the largest first, writes p over its
    multiples from p^2, so the least prime of each m is written last.
    """
    if limit > SIEVE_CEILING:
        raise BudgetExceededError(
            f"sieving least prime factors up to a {decimal_digits(limit)}-digit limit "
            f"exceeds the sieve ceiling {SIEVE_CEILING}"
        )
    from array import array  # deferred: `import turkshead.cli` does not load it

    spf = array("i", range(limit + 1))
    for p in reversed(primes_up_to(math.isqrt(limit))):
        start = p * p
        spf[start::p] = array("i", [p]) * ((limit - start) // p + 1)
    return spf


def first_primes(count: int) -> list[int]:
    """The first `count` primes, ascending."""
    if count <= 0:
        return []
    # overshooting upper bound for the count-th prime, then trim
    if count < 6:
        limit = 15
    else:
        n = float(count)
        limit = int(n * (math.log(n) + math.log(math.log(n)))) + 10
    primes = primes_up_to(limit)
    while len(primes) < count:
        limit *= 2
        primes = primes_up_to(limit)
    return primes[:count]


def least_prime_factors(m: int, primes: list[int]) -> dict[int, int]:
    """Factorization of m >= 1 as {prime: exponent} ascending.

    `primes` are shared trial divisors: all primes up to at least isqrt(m),
    in ascending order, for a caller that factors many numbers below one
    bound.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}")
    factors: dict[int, int] = {}
    x = m
    for p in primes:
        if p * p > x:
            break
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    return factors


def factor(m: int) -> dict[int, int]:
    """Factorization of m >= 1 as {prime: exponent} ascending, every prime proven.

    Trial division by the primes below 100; then each cofactor that
    Miller-Rabin proves prime (below MILLER_RABIN_BOUND, as in is_prime) is
    kept, and any other is split by Pollard-Brent rho, all rho rounds of the
    call sharing
    RHO_STEP_BUDGET.  A cofactor the budget cannot split is trial-divided up
    to its square root, which stops at the sieve ceiling: BudgetExceededError
    past it.  So a cofactor above MILLER_RABIN_BOUND, which nothing here can
    prove prime, ends in that error unless rho splits it.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    pending, steps = ([m] if m > 1 else []), RHO_STEP_BUDGET
    while pending:
        c = pending.pop()
        # no prime factor below 100 is left, so below 101^2 c is prime
        if c < 101 * 101 or (c < MILLER_RABIN_BOUND and _passes_miller_rabin(c)):
            factors[c] = factors.get(c, 0) + 1
            continue
        d, steps = _pollard_brent(c, steps)
        if d:
            pending += [d, c // d]
            continue
        if c > SIEVE_CEILING**2:
            raise BudgetExceededError(
                f"Pollard-Brent rho split no {decimal_digits(c)}-digit cofactor "
                f"within its budget of {RHO_STEP_BUDGET} steps, and trial division "
                f"to its square root passes the sieve ceiling {SIEVE_CEILING}"
            )
        for p, e in least_prime_factors(c, primes_up_to(math.isqrt(c))).items():
            factors[p] = factors.get(p, 0) + e
    return dict(sorted(factors.items()))


def _pollard_brent(n: int, steps: int) -> tuple[int, int]:
    """(d, steps left): a proper divisor d of n, or d = 0 once `steps` are spent.

    Brent's cycle search (Brent 1980) for y -> y^2 + c mod n from y = 2,
    with c = 1, 2, ... in turn, so the divisor found is deterministic.  Each
    evaluation costs one step per 64-bit word of n, so that a budget bounds
    time whatever the size of n; the budget is checked between doublings of
    the cycle length, so the last doubling may overrun it.  Differences are
    multiplied in batches of 128 between gcds; a batch whose gcd reaches n
    is replayed one step at a time, and a replay that also reaches n moves
    on to the next c.  A prime n is never split and spends the whole budget.
    """
    words, c = n.bit_length() // 64 + 1, 0
    while steps > 0:
        c += 1
        y, power, product, g = 2, 1, 1, 1
        while g == 1 and steps > 0:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and g == 1:
                saved, batch = y, min(128, power - done)
                for _ in range(batch):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                g = math.gcd(product, n)
                done += batch
            steps -= (power + done) * words
            power *= 2
        if g == n:
            y, g = saved, 1
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
        if 1 < g < n:
            return g, steps
    return 0, 0
