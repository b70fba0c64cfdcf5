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

One Fibonacci fast-doubling core serves exact and modular terms alike:
`u`/`v` run it over the plain integers, `u_mod`/`v_mod` mod r, each in
O(log |n|) steps and with no cache of earlier terms.  The recurrence itself
drives only `u_mod_stream`, the O(1)-state residue stream.  `binet_u`
evaluates the four-term closed form in floating point, as a cross-check
only.  The identities u and v satisfy (reflection, sums, products, the u/v
factorization of block powers) are checked in one place, the `identities`
suite of turkshead.verify.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .zmod import check_modulus


def _fib_pair(m: int, r: int | None) -> tuple[int, int]:
    """(F_m, F_{m+1}) for m >= 0 by fast doubling, exact (r=None) or mod r.

    F_{2k} = F_k (2 F_{k+1} - F_k) and F_{2k+1} = F_k^2 + F_{k+1}^2.
    The leading bit of m takes (F_0, F_1) to (F_1, F_2) = (1, 1), so the
    loop starts there.
    """
    if m == 0:
        return 0, 1
    a, b = 1, 1
    if r is None:
        for bit in bin(m)[3:]:
            a, b = a * (2 * b - a), a * a + b * b
            if bit == "1":
                a, b = b, a + b
        return a, b
    for bit in bin(m)[3:]:
        a, b = a * (2 * b - a) % r, (a * a + b * b) % r
        if bit == "1":
            a, b = b, (a + b) % r
    return a, b


def _u_term(n: int, r: int | None) -> int:
    """u_n exactly (r=None), or a representative of its class mod r."""
    if n < -1:
        return -_u_term(-n - 2, r)  # u_n = -u_{-n-2}
    f_next, f_after = _fib_pair(n + 1, r)
    if n % 2:
        return f_next  # u_n = F_{n+1}
    return 2 * f_after - f_next  # u_n = L_{n+1} = F_n + F_{n+2}


def _v_term(n: int, r: int | None) -> int:
    """v_n exactly (r=None), or a representative of its class mod r."""
    if n < -3:
        raise ValueError(f"v_n is only defined for n >= -3, got {n}")
    if n < 1:
        n = 2 - n  # v_n = v_{2-n}
    f_prev, f_n = _fib_pair(n - 1, r)
    if n % 2:
        return 2 * f_n - f_prev  # v_n = L_{n-1} = F_{n-2} + F_n
    return f_prev  # v_n = F_{n-1}


def u(n: int) -> int:
    """Exact value of u_n for any integer n."""
    return _u_term(n, None)


def v(n: int) -> int:
    """Exact value of v_n for n >= -3 (indices below the seeds are undefined)."""
    return _v_term(n, None)


def u_mod(n: int, r: int) -> int:
    """u_n mod r in O(log |n|) time, for any integer n."""
    return _u_term(n, check_modulus(r)) % r


def v_mod(n: int, r: int) -> int:
    """v_n mod r in O(log n) time, n >= -3."""
    return _v_term(n, check_modulus(r)) % r


def u_mod_stream(r: int) -> Iterator[int]:
    """Yield u_0 mod r, u_1 mod r, ... keeping only the last four residues."""
    check_modulus(r)
    w0, w1, w2, w3 = (-1) % r, (-1) % r, 0, 1 % r
    while True:
        yield w3
        w0, w1, w2, w3 = w1, w2, w3, (3 * w2 - w0) % r


# -- closed form --------------------------------------------------------------

_BINET_MAX_INDEX = 60


def binet_u(n: int) -> float:
    """Floating evaluation of the four-term closed form for u_n.

    Only a cross-check against the exact path; |n| is capped to stay well
    inside double range.
    """
    if abs(n) > _BINET_MAX_INDEX:
        raise ValueError(f"binet_u limited to |n| <= {_BINET_MAX_INDEX}, got {n}")
    s5 = math.sqrt(5.0)
    phi = (1.0 + s5) / 2.0
    phi_inv = (-1.0 + s5) / 2.0
    psi = (1.0 - s5) / 2.0
    psi_neg = (-1.0 - s5) / 2.0
    return (phi ** (n + 2) - phi_inv**n - psi ** (n + 2) + psi_neg**n) / s5
