"""Coloring counts, determinants, and minimum-color verdicts for THK(3, n).

Exact minimum-color values are declared only where the divisibility rules
and the least-common-prime classification pin them (palette sizes 2 through
5); everywhere else verdicts are honest bound pairs, because the true
minimum ranges over every diagram of the knot and no finite search can
cover that.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import seq, thk, zmod
from .psi import _prime_power_psi, psi_of_prime
from .config import DEFAULT_BRUTE_FORCE_BUDGET
from .thk import (
    Coloring,
    distinct_colors,
    is_circular_shift,
    lift_coloring,
    min_colors_standard,
    stack_coloring,
)
from .zmod import check_modulus


def count_colorings(n: int, r: int) -> int:
    """Number of colorings of THK(3, n) mod r, by the gcd formula.

    (u_{n-1}, r)^2 r for odd n and (5 u_{n-1}, r)(u_{n-1}, r) r for even n;
    the exhaustive oracle must agree wherever it runs.
    """
    if n < 1:
        raise ValueError("diagram needs at least one block")
    check_modulus(r)
    gu, g5 = thk._reduced_system_params(n, r)
    return r * gu * g5


class Determinant(namedtuple("Determinant", "n value")):
    __slots__ = ()


def determinant(n: int) -> Determinant:
    """Knot determinant of THK(3, n): u_{n-1}^2, with an extra factor 5 for even n."""
    if n < 1:
        raise ValueError("diagram needs at least one block")
    um = seq.u(n - 1)
    return Determinant(n, um * um if n % 2 == 1 else 5 * um * um)


def determinant_digits(n: int) -> int:
    """Decimal digits of det THK(3, n), from n alone, for n >= 1.

    The determinant is L_{2n} - 2 = phi^{2n} + phi^{-2n} - 2, just below
    phi^{2n}, so it has floor(2n log10(phi)) + 1 digits (checked against the
    exact value in the tests).
    """
    return math.floor(2 * n * math.log10((1 + math.sqrt(5)) / 2)) + 1


# -- classification by the least common prime ---------------------------------

def _common_primes(gu: int, g5: int) -> list[int]:
    """Primes dividing both r and det THK(3, n), ascending, from
    (gu, g5) = thk._reduced_system_params(n, r).

    The determinant is u_{n-1}^2, times 5 for even n, so these are the
    primes of gu = gcd(u_{n-1} mod r, r), with 5 added when n is even and
    5 | r (exactly when 5 divides g5 = gcd(5 u_{n-1} mod r, r)).  Only that
    gcd is factored, by zmod.factor, never r itself.
    """
    primes = set(zmod.factor(gu))
    if g5 % 5 == 0:
        primes.add(5)
    return sorted(primes)


def _constraint(lcp: int) -> tuple[str, int]:
    """The mincol constraint a least common prime forces."""
    if lcp in (2, 3):
        return "exact", lcp
    if lcp in (5, 7):
        return "exact", 4
    return "lower", 5


# -- explicit constructions ----------------------------------------------------

def _odd_psi_coloring(p: int, q: int) -> Coloring:
    """construct(p) for a prime p > 5 whose psi q is odd.

    Solves the 2x2 kernel system that forces the right strand sequence to be
    a circular shift of the left one: with k = (q - 1) / 2 the matrix
    [[u_{2k+1}+1, -u_{2k-1}-1], [u_{2k-1}+1, -u_{2k-3}-2]] has determinant
    -u_{q-1} == 0 mod p, its kernel vectors have distinct coordinates, and
    normalizing one to difference 1 yields the middle input color s so that
    (1, s, 0) closes with the shift property.  Uses at most q colors.
    """
    m00 = (seq.u_mod(q, p) + 1) % p
    m01 = (-seq.u_mod(q - 2, p) - 1) % p
    m10 = (seq.u_mod(q - 2, p) + 1) % p
    m11 = (-seq.u_mod(q - 4, p) - 2) % p
    if (m00 * m11 - m01 * m10) % p != 0:
        raise AssertionError(f"kernel system invertible mod {p}; construction impossible")
    if (m00, m01) != (0, 0):
        w = (m01, (-m00) % p)
        other = (m10, m11)
    elif (m10, m11) != (0, 0):
        w = (m11, (-m10) % p)
        other = (m00, m01)
    else:
        raise AssertionError(f"kernel system vanished mod {p}")
    if (other[0] * w[0] + other[1] * w[1]) % p != 0:
        raise AssertionError(f"kernel system has full rank mod {p}")
    if w == (0, 0) or (w[0] - w[1]) % p == 0:
        raise AssertionError(f"kernel vector mod {p} lacks distinct coordinates")
    scale = zmod.mod_inverse(w[0] - w[1], p)
    s = scale * w[1] % p
    col = Coloring.from_input(q, p, (1, s, 0))
    if col.is_trivial:
        raise AssertionError(f"construction degenerated to trivial at p = {p}")
    if not is_circular_shift(col.x_sequence, col.z_sequence):
        raise AssertionError(f"shift property failed at p = {p}")
    if distinct_colors(col) > q:
        raise AssertionError(f"palette exceeded psi({p}) = {q}")
    return col


def _even_psi_coloring(p: int, q: int) -> Coloring:
    """construct(p) for a prime p > 5 whose psi q is even: input (0, 1, 0).

    Uses at most q - 1 colors when 4 | q and q - 5 otherwise; the trace
    folds back on itself, which also fixes a handful of boundary colors
    that are asserted here.
    """
    col = Coloring.from_input(q, p, (0, 1, 0))
    if col.is_trivial:
        raise AssertionError(f"probe input degenerated to trivial at p = {p}")
    bound = q - 1 if q % 4 == 0 else q - 5
    if distinct_colors(col) > bound:
        raise AssertionError(
            f"palette {distinct_colors(col)} exceeds the bound {bound} at p = {p}"
        )
    xs = [t[0] for t in col.trace]
    zs = [t[2] for t in col.trace]
    schema = (
        xs[1] == 0
        and xs[2] == 1
        and zs[1] == p - 1
        and zs[2] == p - 2
        and xs[q // 2] == p - 2
        and xs[q // 2 + 1] == p - 2
        and zs[q - 1] == 2
    )
    if not schema:
        raise AssertionError(f"boundary colors off-schema at p = {p}")
    return col


def construct(p: int) -> Coloring:
    """The explicit low-color coloring of THK(3, psi(p)) mod p, prime p > 5.

    Odd psi(p) takes the kernel construction, even psi(p) the probe
    (0, 1, 0); either way col.n is psi(p).  p <= 5 is refused before any
    work, and psi_of_prime makes the one primality test.
    """
    refusal = f"need a prime greater than 5, got {p}"
    if p <= 5:
        raise ValueError(refusal)
    try:
        q = psi_of_prime(p).psi
    except ValueError:  # p is not prime
        raise ValueError(refusal) from None
    return _construction(p, q)


def _construction(p: int, q: int) -> Coloring:
    """construct(p) for a prime p > 5 with psi(p) = q."""
    return _odd_psi_coloring(p, q) if q % 2 else _even_psi_coloring(p, q)


def estimate(p: int) -> int:
    """Upper bound for mincol_p THK(3, psi(p)), for a prime p > 11.

    Odd psi(p): (p+1)/2 or (p-1)/2 according to the sign of 5^((p-1)/2);
    even psi(p): psi(p) - 1 when divisible by 4, else psi(p) - 5.  Always
    cross-checked against the palette the matching construction realizes.
    """
    if not zmod.is_prime(p) or p <= 11:
        raise ValueError(f"need a prime greater than 11, got {p}")
    return _checked_estimate(p, _construction(p, _prime_power_psi(p)[0]))


def _checked_estimate(p: int, col: Coloring) -> int:
    """estimate(p), asserted against the palette of construct(p) = col."""
    q = col.n
    if q % 2 == 1:
        # Euler's criterion; p is known prime, so legendre5's primality test is skipped
        bound = (p + 1) // 2 if pow(5, (p - 1) // 2, p) == p - 1 else (p - 1) // 2
    else:
        bound = q - 1 if q % 4 == 0 else q - 5
    if distinct_colors(col) > bound:
        raise AssertionError(f"construction beat its own bound at p = {p}")
    return bound


# -- verdicts ------------------------------------------------------------------

class MincolVerdict(
    namedtuple("MincolVerdict", "n r kind lower upper witness provenance")
):
    """Outcome of the minimum-color analysis for THK(3, n) mod r.

    kind is 'exact' (lower == upper == the minimum over all diagrams),
    'bounds' (the minimum lies in [lower, upper]), or 'only-trivial'.
    The witness, when present, is a valid nontrivial coloring of the
    standard diagram certifying upper-bound territory; its palette equals
    an exact verdict whenever the standard diagram attains it.  The one
    exception is the 7 | r, 8 | n rule: the standard diagrams provably
    need 7 colors there, while the classification still pins the
    all-diagrams minimum at 4.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "kind": self.kind,
            "lower": self.lower,
            "upper": self.upper,
            "provenance": list(self.provenance),
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


# The exact divisibility rules, in the order they are tried: s | r and
# n0 | n pin mincol at `value`.  Each carries a frozen witness on THK(3, n0)
# mod s, transported by stacking and lifting: the least input realizing the
# standard diagram's minimum palette, except the 11-rule's, which is the
# odd-psi construction at p = 11.
_EXACT_RULES: tuple[tuple[int, int, int, tuple[int, int, int]], ...] = (
    (2, 3, 2, (0, 0, 1)),    # 2 colors
    (3, 4, 3, (0, 0, 1)),    # 3 colors
    (5, 2, 4, (0, 1, 4)),    # 4 colors
    (7, 8, 4, (0, 0, 1)),    # 7 colors; 4 is unreachable on standard diagrams
    (11, 5, 5, (1, 7, 0)),   # 5 colors
)


def _construction_prime(primes: list[int]) -> tuple[int, int] | None:
    """(p, psi(p)) for the prime p above 5 of least psi among `primes`, ties
    to the smaller one.

    Its construction is the shortest braid to stack; None when every prime
    is 2, 3 or 5.
    """
    return min(
        ((p, psi_of_prime(p).psi) for p in primes if p > 5),
        key=lambda pq: (pq[1], pq[0]),
        default=None,
    )


def _transport(col: Coloring, n: int, r: int) -> tuple[Coloring, list[str]]:
    """Stack col up to n levels and lift it to modulus r, naming each step."""
    n0, s = col.n, col.r
    steps = []
    if n > n0:
        col = stack_coloring(col, n // n0)
        steps.append(f"stack(k={n // n0})")
    if r > s:
        col = lift_coloring(col, r)
        steps.append(f"lift({s}->{r})")
    return col, steps


def mincol_exact(
    n: int, r: int, budget: int = DEFAULT_BRUTE_FORCE_BUDGET
) -> MincolVerdict:
    """Exact minimum-color verdict where the rules allow, else honest bounds."""
    if n < 1:
        raise ValueError("diagram needs at least one block")
    check_modulus(r)
    gu, g5 = thk._reduced_system_params(n, r)
    primes = _common_primes(gu, g5)
    if not primes:
        return MincolVerdict(
            n, r, "only-trivial", None, None, None, ("no-nontrivial-colorings",)
        )
    constraint = _constraint(primes[0])
    provenance = [f"classification-lcpf-{primes[0]}"]
    for s, n0, value, probe in _EXACT_RULES:
        if r % s or n % n0:
            continue
        tag = f"{s}|r,{n0}|n"
        witness, steps = _transport(Coloring.from_input(n0, s, probe), n, r)
        if value == 5:
            # the classification alone gives >= 5 here; the witness closes it
            if constraint != ("lower", 5) or distinct_colors(witness) != 5:
                raise AssertionError(f"rule {tag} lost its dual certificate at ({n}, {r})")
        elif constraint != ("exact", value):
            raise AssertionError(
                f"rule {tag} disagrees with the classification at ({n}, {r})"
            )
        steps = [f"witness-base({n0},{s})", *(f"witness-{step}" for step in steps)]
        provenance = [f"exact-rule({tag})", *provenance, *steps]
        return MincolVerdict(n, r, "exact", value, value, witness, tuple(provenance))

    if constraint != ("lower", 5):
        raise AssertionError(
            f"no rule fired yet classification says {constraint} at ({n}, {r})"
        )
    provenance.append("lower-bound-5")
    routes: list[tuple[int, int, Coloring, str]] = []
    found = _construction_prime(primes)
    if found is not None:
        p_star, q = found
        col = _construction(p_star, q)
        if n % q != 0:
            raise AssertionError(f"psi({p_star}) = {q} must divide n = {n}")
        label = f"construction(p={p_star},estimate-bound={_checked_estimate(p_star, col)})"
        col, steps = _transport(col, n, r)
        label += "".join(f"+{step}" for step in steps)
        routes.append((distinct_colors(col), 0, col, label))
    if r**3 <= budget and r * gu * g5 * n <= budget:  # r * gu * g5 = count_colorings(n, r)
        found = min_colors_standard(n, r, budget, (gu, g5))
        if found is None:
            raise AssertionError(f"nontrivial colorings vanished at ({n}, {r})")
        routes.append((found[0], 1, found[1], "standard-diagram-search"))
    if not routes:
        provenance.append("generic-arc-bound")
        return MincolVerdict(n, r, "bounds", 5, 2 * n, None, tuple(provenance))
    provenance.extend(f"upper-route-{label}({colors})" for colors, _, _, label in routes)
    colors, _, witness, label = min(routes, key=lambda item: (item[0], item[1]))
    provenance.append(f"upper-from-{label}")
    if colors == 5:
        return MincolVerdict(n, r, "exact", 5, 5, witness, tuple(provenance))
    return MincolVerdict(n, r, "bounds", 5, colors, witness, tuple(provenance))

