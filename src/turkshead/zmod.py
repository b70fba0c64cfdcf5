"""Modular and elementary number-theoretic arithmetic.

Residues are always stored canonically in [0, r); reduce on entry, so one
representation serves for equality tests everywhere else.
"""

from __future__ import annotations

import math

from .config import BudgetExceededError

#: Largest limit primes_up_to sieves to.  The sieve takes a byte per number
#: plus a Python int per prime found, about 0.3 GB at the ceiling; larger
#: limits are refused before anything is allocated.
SIEVE_CEILING = 10**8


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
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for f in range(3, math.isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


def legendre5(p: int) -> int:
    """5^((p-1)/2) mod p reduced to +1 or -1, for an odd prime p != 5.

    Computed by binary exponentiation; Fermat's little theorem guarantees the
    value is one of the two square roots of 1 mod p.
    """
    if p == 5 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"legendre5 requires an odd prime != 5, got {p}")
    t = pow(5, (p - 1) // 2, p)
    if t == 1:
        return 1
    if t == p - 1:
        return -1
    raise AssertionError(f"5^((p-1)/2) mod {p} = {t}, so {p} is not prime")


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
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


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


def least_prime_factors(m: int, primes: list[int] | None = None) -> dict[int, int]:
    """Factorization of m >= 1 by trial division, as {prime: exponent} ascending.

    `primes` are the trial divisors: all primes up to at least isqrt(m), in
    ascending order.  When omitted they are sieved for this call; a caller
    that factors many numbers passes one shared list instead.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}")
    factors: dict[int, int] = {}
    x = m
    for p in primes_up_to(math.isqrt(m)) if primes is None else primes:
        if p * p > x:
            break
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    return factors

