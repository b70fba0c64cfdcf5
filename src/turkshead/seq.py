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
drives only `u_mod_stream`, the O(1)-state residue stream.
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


# -- closed form and identity checks -----------------------------------------

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


def check_sum_identity(n: int) -> bool:
    """u_{2n} = u_{2n+1} + u_{2n-1} and 5*u_{2n+1} = u_{2n+2} + u_{2n}, exactly."""
    first = u(2 * n) == u(2 * n + 1) + u(2 * n - 1)
    total = u(2 * n + 2) + u(2 * n)
    second = total % 5 == 0 and u(2 * n + 1) == total // 5
    return first and second


def check_product_identity(m: int, n: int) -> bool | None:
    """Check the index-addition product identities at (m, n).

    Case one applies when m is even or n is odd:
        u_{m+n} = u_{m+1} u_n - u_{m-1} u_{n-2}
    Case two applies when m is even and n is odd:
        u_{m+n} = u_m u_n - u_{m-1} u_{n-1}

    Returns None when neither case applies (m odd, n even), else whether all
    applicable cases hold exactly.
    """
    case_one = m % 2 == 0 or n % 2 == 1
    case_two = m % 2 == 0 and n % 2 == 1
    if not case_one and not case_two:
        return None
    ok = True
    if case_one:
        ok = ok and u(m + n) == u(m + 1) * u(n) - u(m - 1) * u(n - 2)
    if case_two:
        ok = ok and u(m + n) == u(m) * u(n) - u(m - 1) * u(n - 1)
    return ok


def check_uv_factorization(n: int) -> bool:
    """Verify the u/v factorization of block-power entries at n >= 0.

    The leading entries a_n, b_n of the n-fold product of the one-block
    transfer matrix (computed by plain repeated multiplication, independent
    of any closed form) must satisfy

        a_n = u_n v_n          a_n - 1 = u_{n-1} v_{n+1}
        b_n = u_{n-2} u_{n-1}  b_n - 1 = u_n u_{n-3}
    """
    if n < 0:
        raise ValueError(f"factorization check needs n >= 0, got {n}")
    from .thk import c_power_iterated

    power = c_power_iterated(n)
    a_n, b_n = power[0][0], power[0][1]
    return (
        a_n == u(n) * v(n)
        and a_n - 1 == u(n - 1) * v(n + 1)
        and b_n == u(n - 2) * u(n - 1)
        and b_n - 1 == u(n) * u(n - 3)
    )
