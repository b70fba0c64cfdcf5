"""Standard diagrams of THK(3, n): the block map, closed colorings and the
standard-diagram palette search.

A coloring state is a triple (a, b, c) of residues read left-to-right across
the three strands at one horizontal level of the braid; one crossing block
sends it to (2a - c, a, 2c - b).  Convention used throughout: the first
coordinate is the strand whose level sequence we call L (the "x" sequence),
the second is the middle strand M ("y", which always trails L by one level),
the third is R ("z").  All rotation checks between L and R are symmetric in
the two sides, so no result depends on which side is drawn on the left.

The standard diagram with n blocks has 2n crossings and 2n arcs; the arc
colors are exactly the first and third coordinates over levels 0..n-1, since
the middle strand only repeats first-coordinate colors.  The block matrices
and the exhaustive enumeration that these paths are checked against live in
turkshead.verify.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from . import seq
from .config import DEFAULT_BRUTE_FORCE_BUDGET, BudgetExceededError
from .zmod import check_modulus

Triple = tuple[int, int, int]


class Coloring(namedtuple("Coloring", "n r period palette")):
    """A closed coloring of the standard diagram of THK(3, n) mod r.

    `period` holds the strand-color levels 0..m-1 for some m dividing n;
    level i is period[i % m], so level n equals level 0 (the braid closure
    condition).  Juxtaposing copies of THK(3, m) thus needs no new levels.
    `palette` holds the arc colors, the x and z values over the period, in
    ascending order.  `from_input` stores the least period and sorts its
    palette once, and `mincol._transport` keeps both (multiplying by r/s is
    injective from Z_s into Z_r and keeps the order), so two colorings of
    one diagram compare and hash equal exactly when their levels agree.
    """

    __slots__ = ()

    @classmethod
    def from_input(cls, n: int, r: int, t: Triple) -> "Coloring":
        """The coloring with input t, stepped from t to its first return.

        The block map has determinant 1, so it is invertible mod r and every
        orbit is purely periodic: t closes after n blocks exactly when its
        least period m divides n.  So at most n steps are taken, only the
        m levels of one period are kept, and the palette is sorted from them.
        """
        if n < 1:
            raise ValueError("diagram needs at least one block")
        check_modulus(r)
        start = (t[0] % r, t[1] % r, t[2] % r)
        levels = [start]
        a, b, c = start
        for _ in range(n):
            a, b, c = (2 * a - c) % r, a, (2 * c - b) % r
            if (a, b, c) == start:
                break
            levels.append((a, b, c))
        if len(levels) > n or n % len(levels):
            raise ValueError(
                f"input {t} does not close after {n} blocks mod {r}"
            )
        levels = tuple(levels)
        return cls(n, r, levels, tuple(sorted({t[0] for t in levels} | {t[2] for t in levels})))

    @property
    def input_triple(self) -> Triple:
        return self.period[0]

    def validate(self) -> bool:
        """Check that the period length m divides n, then every block step
        around the period, from level m - 1 back to level 0 included."""
        m = len(self.period)
        if not 0 < m <= self.n or self.n % m:
            return False
        r = check_modulus(self.r)
        previous = self.period[-1:] + self.period[:-1]
        return all(
            level == ((2 * a - c) % r, a % r, (2 * c - b) % r)
            for (a, b, c), level in zip(previous, self.period)
        )


def _reduced_system_params(n: int, r: int) -> tuple[int, int]:
    """Solution-class sizes (gu, g5) of the reduced closure system mod r.

    After factoring u_{n-1} out of the closure equations, the system row
    reduces to  a - c = 0, b - c = 0  (odd n) and  a + 2b - 3c = 0,
    5(c - b) = 0  (even n), each scaled by u_{n-1}; the class counts are the
    gcds of the scaled coefficients with r.
    """
    um = seq.u_mod(n - 1, r)
    gu = math.gcd(um, r)
    if n % 2 == 1:
        return gu, gu
    return gu, math.gcd(5 * um % r, r)


def _translation_representatives(n: int, r: int, gu: int, g5: int) -> Iterator[Triple]:
    """The gu * g5 coloring inputs (a, b, 0) of the reduced closure system,
    given its class sizes (gu, g5) = _reduced_system_params(n, r).

    The block map fixes every constant state and is linear, so the inputs
    are closed under (a, b, c) -> (a + t, b + t, c + t); each input is the
    translate by c of exactly one of these.  With c = 0 the reduced system
    leaves a in (r/gu)Z and b in (r/gu)Z (odd n), or b in (r/g5)Z and
    a + 2b in (r/gu)Z (even n).
    """
    step_u, step_5 = r // gu, r // g5
    for j in range(g5):
        b = j * step_5
        base = 0 if n % 2 == 1 else -2 * b
        for i in range(gu):
            yield ((base + i * step_u) % r, b, 0)


def min_colors_standard(
    n: int, r: int, budget: int = DEFAULT_BRUTE_FORCE_BUDGET
) -> Coloring | None:
    """Minimum palette over nontrivial colorings of the standard diagram.

    Returns the lexicographically least witness, whose palette has the
    minimum size, or None when only trivial colorings exist.  This is an
    upper bound for the diagram-free minimum, which ranges over all
    diagrams of the knot.

    Translating every color by t maps colorings to colorings and keeps the
    palette size, so only the gu * g5 representatives (a, b, 0) matter, not
    all r * gu * g5 inputs.  Every level (x, y, z) of a coloring is itself an
    input with the same arc-color set, and its translate to third color 0 is
    the representative (x - z, y - z, 0).  So the representatives fall into
    orbits of the block map, and each orbit is walked once, from its first
    unseen representative.  The lex-least input among the translates of a
    level is (0, (y - x) mod r, (z - x) mod r); the witness is the least of
    these over the levels of the optimal orbits.  BudgetExceededError when
    the r * gu * g5 colorings exceed `budget`.
    """
    if n < 1:
        raise ValueError("diagram needs at least one block")
    check_modulus(r)
    gu, g5 = _reduced_system_params(n, r)
    total = r * gu * g5
    if total > budget:
        raise BudgetExceededError(
            f"{total} colorings exceed the enumeration limit {budget}"
        )
    best: tuple[int, Triple] | None = None
    seen: set[tuple[int, int]] = set()
    for a, b, _ in _translation_representatives(n, r, gu, g5):
        if a == b == 0 or (a, b) in seen:
            continue
        col = Coloring.from_input(n, r, (a, b, 0))
        seen.update(((x - z) % r, (y - z) % r) for x, y, z in col.period)
        k = len(col.palette)
        if best is not None and k > best[0]:
            continue
        key = (k, min((0, (y - x) % r, (z - x) % r) for x, y, z in col.period))
        if best is None or key < best:
            best = key
    return None if best is None else Coloring.from_input(n, r, best[1])
