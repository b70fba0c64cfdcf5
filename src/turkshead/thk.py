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

from collections import namedtuple

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


def min_colors_standard(n: int, r: int) -> Coloring:
    """Minimum palette over nontrivial colorings of the standard diagram,
    mod an r at which every input closes after n blocks, such as a prime p
    at n = psi(p), whose witness mincol carries to (n, r).  Any other
    modulus raises ValueError at a class that does not close.

    Returns the lexicographically least witness, whose palette has the
    minimum size.  This is an upper bound for the diagram-free minimum,
    which ranges over all diagrams of the knot.

    Translating every color by t maps colorings to colorings and keeps the
    palette size, so only the classes (a, b, 0) matter, each marked by the
    int a * r + b, which orders as the pair does (mark 0 is trivial).
    Every level (x, y, z) of a coloring is itself an input with the same
    arc-color set, in the class (x - z, y - z, 0).  So the classes fall into
    orbits of the block map, and each orbit is walked once, from its first
    unseen mark.  The lex-least input among the translates of a level is
    (0, (y - x) mod r, (z - x) mod r); the witness is the least of these
    over the levels of the optimal orbits, read off the columns as marks.
    """
    if n < 1:
        raise ValueError("diagram needs at least one block")
    check_modulus(r)
    best: tuple[int, int] | None = None
    seen: set[int] = set()
    for mark in range(1, r * r):
        if mark in seen:
            continue
        col = Coloring.from_input(n, r, (*divmod(mark, r), 0))
        left, middle, right = col.left, col.middle, col.right
        seen.update([(x - z) % r * r + (y - z) % r for x, y, z in zip(left, middle, right)])
        k = len(col.palette)
        if best is not None and k > best[0]:
            continue
        key = (k, min([(y - x) % r * r + (z - x) % r for x, y, z in zip(left, middle, right)]))
        if best is None or key < best:
            best = key
    return Coloring.from_input(n, r, (0, *divmod(best[1], r)))
