"""The integer sequences u_n and v_n and their arithmetic.

Both satisfy the four-term recurrence s_n = 3*s_{n-2} - s_{n-4}:

    u_{-3} = -1, u_{-2} = -1, u_{-1} = 0, u_0 = 1
    v_{-3} =  7, v_{-2} =  2, v_{-1} = 3, v_0 = 1

Both interleave the Fibonacci numbers F and the Lucas numbers L:

    u_{2k-1} = F_{2k}      u_{2k} = L_{2k+1}
    v_{2k}   = F_{2k-1}    v_{2k+1} = L_{2k}

So u extends to every integer index through the reflection u_n = -u_{-n-2},
and v satisfies v_n = v_{2-n}; v is only defined from its seeds
onward, and indices below -3 are rejected.

One ladder serves every term, exact or modular, and every rank test.  It
climbs V_k = L_{2k}, the even Lucas numbers, by

    V_{2k} = V_k^2 - 2      V_{2k+1} = V_k V_{k+1} - 3

from (V_0, V_1) = (2, 3): two products per bit of k, in O(log k) steps and
with no cache of earlier terms.  u_{q-1} is F_q for even q and L_q for odd
q, and with k = q // 2 the pair (V_k, V_{k+1}) gives

    5 F_{2k} = 2 V_{k+1} - 3 V_k
    L_{2k+1} = V_{k+1} - V_k
    F_{2k-1} = (4 V_k - V_{k+1}) / 5

`u`/`v` run the ladder over the plain integers.  `u_mod` and `rank_test`
run it mod 5r, not mod r: then r | F_{2k} exactly when 5r divides
2 V_{k+1} - 3 V_k, for every r >= 2 with 5 | r or not, and the class of
F_{2k} mod r is the exact quotient ((2 V_{k+1} - 3 V_k) mod 5r) / 5.  The
recurrence itself drives only `u_mod_stream`, the O(1)-state residue
stream, which the tests and turkshead.verify hold the ladder against.  The
identities u and v satisfy (reflection, sums, products, the u/v
factorization of block powers, the closed form) are checked in one place,
the `identities` suite of turkshead.verify.
"""

from __future__ import annotations

from collections.abc import Iterator

from .zmod import check_modulus


def _ladder(bits: str, m: int | None, a: int = 2, b: int = 3) -> tuple[int, int]:
    """Climb from (a, b) = (V_j, V_{j+1}), exact (m=None) or mod m.

    Each bit c takes j to 2j + c, so from the default j = 0 the bits of
    k, bin(k)[2:], give (V_k, V_{k+1}) for any k >= 0.
    """
    if m is None:
        for bit in bits:
            if bit == "1":
                a, b = a * b - 3, b * b - 2
            else:
                a, b = a * a - 2, a * b - 3
        return a, b
    for bit in bits:
        if bit == "1":
            a, b = (a * b - 3) % m, (b * b - 2) % m
        else:
            a, b = (a * a - 2) % m, (a * b - 3) % m
    return a, b


def rank_test(q: int, r: int) -> bool:
    """Whether r | u_{q-1}, for q >= 0 and a modulus r the caller has checked.

    The zero indices q are the multiples of psi(r), so this is the test of
    the order algorithm; it compares the ladder's residues (V_k, V_{k+1})
    mod 5r, k = q // 2, and never forms the term.
    """
    m = 5 * r
    a, b = _ladder(bin(q // 2)[2:], m)
    if q % 2:
        return (b - a) % r == 0  # L_q = V_{k+1} - V_k
    return (2 * b - 3 * a) % m == 0  # 5 F_q = 2 V_{k+1} - 3 V_k


def rank_tests_halving(q: int, r: int) -> tuple[bool, bool]:
    """(r | u_{q/2-1}, r | u_{q-1}) for q divisible by 2, from one ladder.

    The ladder climbs every bit of q/2 but the last, to q // 4, for the
    test at q/2, then the last bit, to q/2, for the test at q, which is
    even and so reads 5 F_q.  The zero tests are rank_test's.
    """
    m, half = 5 * r, q // 2
    bits = bin(half)[2:]
    a, b = _ladder(bits[:-1], m)
    at_half = (b - a) % r == 0 if half % 2 else (2 * b - 3 * a) % m == 0
    a, b = _ladder(bits[-1], m, a, b)
    return at_half, (2 * b - 3 * a) % m == 0


def _u_term(n: int, r: int | None) -> int:
    """u_n exactly (r=None), or a representative of its class mod r."""
    if n < -1:
        return -_u_term(-n - 2, r)  # u_n = -u_{-n-2}
    q = n + 1
    m = None if r is None else 5 * r
    a, b = _ladder(bin(q // 2)[2:], m)
    if q % 2:
        return b - a  # u_{q-1} = L_q
    f5 = 2 * b - 3 * a  # 5 F_q
    return (f5 if m is None else f5 % m) // 5


def u(n: int) -> int:
    """Exact value of u_n for any integer n."""
    return _u_term(n, None)


def v(n: int) -> int:
    """Exact value of v_n for n >= -3 (indices below the seeds are undefined)."""
    if n < -3:
        raise ValueError(f"v_n is only defined for n >= -3, got {n}")
    if n < 1:
        n = 2 - n  # v_n = v_{2-n}
    a, b = _ladder(bin(n // 2)[2:], None)
    if n % 2:
        return a  # v_n = L_{n-1} = V_{(n-1)/2}
    return (4 * a - b) // 5  # 5 v_n = 5 F_{n-1}


def u_mod(n: int, r: int) -> int:
    """u_n mod r in O(log |n|) time, for any integer n."""
    return _u_term(n, check_modulus(r)) % r


def u_mod_stream(r: int) -> Iterator[int]:
    """Yield u_0 mod r, u_1 mod r, ... keeping only the last four residues."""
    check_modulus(r)
    w0, w1, w2, w3 = (-1) % r, (-1) % r, 0, 1 % r
    while True:
        yield w3
        w0, w1, w2, w3 = w1, w2, w3, (3 * w2 - w0) % r

