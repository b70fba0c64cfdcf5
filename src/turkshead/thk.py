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


class Coloring(namedtuple("Coloring", "n r left right palette")):
    """A closed coloring of the standard diagram of THK(3, n) mod r.

    `left` and `right` hold the x and z colors of levels 0..m-1 for some m
    dividing n, so level i is (left[i % m], left[(i - 1) % m], right[i % m]):
    the middle color of a level is the left color of the level before, and
    at level 0 it is left[m - 1].  Level n equals level 0 (the braid closure
    condition), so juxtaposing copies of THK(3, m) needs no new levels.
    `palette` holds the arc colors, the values of both columns, in
    ascending order.  `from_input` stores the least period and sorts its
    palette once, and `mincol._transport` keeps both (multiplying by r/s is
    injective from Z_s into Z_r and keeps the order).  The columns of the
    least period fix every level, and the levels fix the columns and the
    palette, so two colorings of one diagram compare and hash equal exactly
    when their levels agree.
    """

    __slots__ = ()

    @classmethod
    def from_input(cls, n: int, r: int, t: Triple) -> "Coloring":
        """The coloring with input t, stepped from t to its first return.

        The block map has determinant 1, so it is invertible mod r and every
        orbit is purely periodic: t closes after n blocks exactly when its
        least period m divides n.  So at most n steps are taken, only the
        two columns of one period are kept, and the palette is sorted from
        them.  A return compares all three colors with t, the middle one
        included.
        """
        if n < 1:
            raise ValueError("diagram needs at least one block")
        check_modulus(r)
        a, b, c = x, y, z = t[0] % r, t[1] % r, t[2] % r
        left, right = [x], [z]
        for _ in range(n):
            x, y, z = (2 * x - z) % r, x, (2 * z - y) % r
            if x == a and z == c and y == b:
                break
            left.append(x)
            right.append(z)
        m = len(left)
        if m > n or n % m:
            raise ValueError(
                f"input {t} does not close after {n} blocks mod {r}"
            )
        left, right = tuple(left), tuple(right)
        return cls(n, r, left, right, tuple(sorted({*left, *right})))

    @property
    def middle(self) -> tuple[int, ...]:
        """The y colors of levels 0..m-1, each the left color of the level before."""
        left = self.left
        return left[-1:] + left[:-1]

    @property
    def input_triple(self) -> Triple:
        return self.left[0], self.left[-1], self.right[0]

    def validate(self) -> bool:
        """Check that both columns have one length m dividing n, then every
        block step around the period, from level m - 1 back to level 0
        included: x' = 2x - z and z' = 2z - w mod r, where w is the left
        color of the level before (x, z)."""
        left, right = self.left, self.right
        m = len(left)
        if not 0 < m <= self.n or self.n % m or len(right) != m:
            return False
        r = check_modulus(self.r)
        w, x, z = left[m - 2], left[-1], right[-1]
        for x1, z1 in zip(left, right):
            if x1 != (2 * x - z) % r or z1 != (2 * z - w) % r:
                return False
            w, x, z = x, x1, z1
        return True


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
    these over the levels of the optimal orbits.  A pair (u, v) of residues
    is kept as the int u * r + v, which orders as the pair does, so the
    marks and keys are read off the columns with no tuple per level.
    BudgetExceededError when the r * gu * g5 colorings exceed `budget`.
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
    best: tuple[int, int] | None = None
    seen: set[int] = set()
    for a, b, _ in _translation_representatives(n, r, gu, g5):
        if a == b == 0 or a * r + b in seen:
            continue
        col = Coloring.from_input(n, r, (a, b, 0))
        left, middle, right = col.left, col.middle, col.right
        seen.update([(x - z) % r * r + (y - z) % r for x, y, z in zip(left, middle, right)])
        k = len(col.palette)
        if best is not None and k > best[0]:
            continue
        key = (k, min([(y - x) % r * r + (z - x) % r for x, y, z in zip(left, middle, right)]))
        if best is None or key < best:
            best = key
    return None if best is None else Coloring.from_input(n, r, (0, *divmod(best[1], r)))
