"""Standard diagrams of THK(3, n): color propagation, transfer matrices,
exhaustive coloring enumeration, and coloring transformations.

A coloring state is a triple (a, b, c) of residues read left-to-right across
the three strands at one horizontal level of the braid; one crossing block
sends it to (2a - c, a, 2c - b).  Convention used throughout: the first
coordinate is the strand whose level sequence we call L (the "x" sequence),
the second is the middle strand M ("y", which always trails L by one level),
the third is R ("z").  All rotation checks between L and R are symmetric in
the two sides, so no result depends on which side is drawn on the left.

The standard diagram with n blocks has 2n crossings and 2n arcs; the arc
colors are exactly the first and third coordinates over levels 0..n-1, since
the middle strand only repeats first-coordinate colors.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from . import seq
from .config import DEFAULT_BRUTE_FORCE_BUDGET, BudgetExceededError
from .zmod import check_modulus

Triple = tuple[int, int, int]
Matrix = tuple[tuple[int, int, int], ...]

#: One sigma2 * sigma1^{-1} block as a linear map on strand colors.
C_BLOCK: Matrix = ((2, 0, -1), (1, 0, 0), (0, -1, 2))

#: Exact inverse of C_BLOCK (its determinant is 1).
C_BLOCK_INV: Matrix = ((0, 1, 0), (-2, 4, -1), (-1, 2, 0))


def reduce_triple(t: Triple, r: int) -> Triple:
    check_modulus(r)
    return (t[0] % r, t[1] % r, t[2] % r)


def _block_step(t: Triple, r: int | None) -> Triple:
    """One block step with r already checked (or None for the integers)."""
    a, b, c = t
    if r is None:
        return (2 * a - c, a, 2 * c - b)
    return ((2 * a - c) % r, a % r, (2 * c - b) % r)


def propagate_block(t: Triple, r: int | None = None) -> Triple:
    """Push colors (a, b, c) through one block: (2a - c, a, 2c - b).

    With r=None the update is over the plain integers (used by exact
    identity checks); otherwise entries are reduced mod r.
    """
    if r is not None:
        check_modulus(r)
    return _block_step(t, r)


def propagate(t: Triple, r: int | None, n: int) -> list[Triple]:
    """Trace of n block steps: n+1 levels starting from t."""
    if n < 0:
        raise ValueError("trace length must be nonnegative")
    if r is None:
        out = [t]
        for _ in range(n):
            out.append(_block_step(out[-1], None))
        return out
    # the block step inlined: the standard-diagram search spends its time here
    a, b, c = reduce_triple(t, r)
    out = [(a, b, c)]
    for _ in range(n):
        a, b, c = (2 * a - c) % r, a, (2 * c - b) % r
        out.append((a, b, c))
    return out


# -- transfer matrices --------------------------------------------------------

def _mat_mul(a: Matrix, b: Matrix, r: int | None = None) -> Matrix:
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            s = a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
            row.append(s if r is None else s % r)
        rows.append(tuple(row))
    return tuple(rows)


def _mat_apply(m: Matrix, t: Triple, r: int | None = None) -> Triple:
    out = tuple(
        m[i][0] * t[0] + m[i][1] * t[1] + m[i][2] * t[2] for i in range(3)
    )
    if r is None:
        return out  # type: ignore[return-value]
    return (out[0] % r, out[1] % r, out[2] % r)


def c_power_iterated(n: int, r: int | None = None) -> Matrix:
    """n-th power of the block matrix by plain repeated multiplication.

    This is the oracle-side path: it never touches the closed-form entries,
    so the two can be checked against each other.  Negative powers fold in
    the exact integer inverse.
    """
    base = C_BLOCK if n >= 0 else C_BLOCK_INV
    result: Matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(abs(n)):
        result = _mat_mul(result, base, r)
    if r is not None:
        result = tuple(tuple(x % r for x in row) for row in result)
    return result


def matrix_entry_a(n: int, r: int | None = None) -> int:
    """Top-left entry a_n of the n-th block-matrix power, exact or mod r.

    a_n = u_n v_n for n >= -3.  Below the v seeds, a_{-m} is the top-left
    cofactor of the m-th power (its determinant is 1, so its inverse is its
    adjugate): a_{-m} = a_m b_{m-1} - a_{m-1} b_m.
    """
    if n >= -3:
        if r is None:
            return seq.u(n) * seq.v(n)
        return seq.u_mod(n, r) * seq.v_mod(n, r) % r
    m = -n
    value = (
        matrix_entry_a(m, r) * matrix_entry_b(m - 1, r)
        - matrix_entry_a(m - 1, r) * matrix_entry_b(m, r)
    )
    return value if r is None else value % r


def matrix_entry_b(n: int, r: int | None = None) -> int:
    """Entry b_n = u_{n-2} u_{n-1} of the n-th block-matrix power, exact or mod r."""
    if r is None:
        return seq.u(n - 2) * seq.u(n - 1)
    return seq.u_mod(n - 2, r) * seq.u_mod(n - 1, r) % r


class TransferMatrix(namedtuple("TransferMatrix", "n r entries")):
    """The n-th power of the block matrix, stored via its closed form.

    Entries are [[a_n, b_n, -b_{n+1}], [a_{n-1}, b_{n-1}, -b_n],
    [-b_n, -a_{n-1}, a_n]]; with r=None they are exact integers, otherwise
    residues mod r.  The row vector (1, -1, 1) is a left fixed vector and
    the determinant is 1 for every n.
    """

    __slots__ = ()

    def apply(self, t: Triple) -> Triple:
        return _mat_apply(self.entries, t, self.r)


def transfer_matrix(n: int, r: int | None = None) -> TransferMatrix:
    """Closed-form block-matrix power, exact (r=None) or mod r."""
    a_n, a_prev = matrix_entry_a(n, r), matrix_entry_a(n - 1, r)
    b_prev, b_n, b_next = (matrix_entry_b(n + k, r) for k in (-1, 0, 1))
    entries: Matrix = (
        (a_n, b_n, -b_next),
        (a_prev, b_prev, -b_n),
        (-b_n, -a_prev, a_n),
    )
    if r is not None:
        entries = tuple(tuple(x % r for x in row) for row in entries)
    return TransferMatrix(n, r, entries)


def is_coloring(n: int, r: int, t: Triple) -> bool:
    """True iff the color input t survives n blocks unchanged mod r."""
    check_modulus(r)
    t = reduce_triple(t, r)
    return transfer_matrix(n, r).apply(t) == t


# -- colorings ----------------------------------------------------------------

class Coloring(namedtuple("Coloring", "n r trace")):
    """A closed coloring of the standard diagram of THK(3, n) mod r.

    `trace` holds the n+1 strand-color levels; the last level equals the
    first (the braid closure condition).
    """

    __slots__ = ()

    @classmethod
    def from_input(cls, n: int, r: int, t: Triple) -> "Coloring":
        if n < 1:
            raise ValueError("diagram needs at least one block")
        check_modulus(r)
        levels = propagate(t, r, n)
        if levels[n] != levels[0]:
            raise ValueError(
                f"input {t} does not close after {n} blocks mod {r}"
            )
        return cls(n, r, tuple(levels))

    @property
    def input_triple(self) -> Triple:
        return self.trace[0]

    @property
    def x_sequence(self) -> list[int]:
        """Left strand colors over levels 0..n-1 (the L sequence)."""
        return [t[0] for t in self.trace[: self.n]]

    @property
    def y_sequence(self) -> list[int]:
        """Middle strand colors (the M sequence); a circular shift of L."""
        return [t[1] for t in self.trace[: self.n]]

    @property
    def z_sequence(self) -> list[int]:
        """Right strand colors over levels 0..n-1 (the R sequence)."""
        return [t[2] for t in self.trace[: self.n]]

    @property
    def colors_used(self) -> list[int]:
        """Sorted distinct arc colors: the x and z values over one period."""
        return sorted(set(self.x_sequence) | set(self.z_sequence))

    @property
    def is_trivial(self) -> bool:
        return len(self.colors_used) == 1

    def validate(self) -> bool:
        """Recheck every propagation step and the closure condition."""
        if len(self.trace) != self.n + 1 or self.trace[-1] != self.trace[0]:
            return False
        r = check_modulus(self.r)
        return all(
            _block_step(self.trace[i], r) == self.trace[i + 1] for i in range(self.n)
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "input": list(self.input_triple),
            "trace": [list(t) for t in self.trace],
            "colors_used": self.colors_used,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Coloring":
        col = cls(data["n"], data["r"], tuple(tuple(t) for t in data["trace"]))
        if not col.validate():
            raise ValueError("serialized coloring fails validation")
        if data.get("colors_used") not in (None, col.colors_used):
            raise ValueError("serialized colors_used does not match trace")
        return col


def distinct_colors(coloring: Coloring) -> int:
    """Number of distinct colors on the 2n arcs of the standard diagram."""
    return len(coloring.colors_used)


def is_circular_shift(a: list[int], b: list[int]) -> bool:
    if len(a) != len(b):
        return False
    return any(b == a[i:] + a[:i] for i in range(len(a)))


# -- enumeration --------------------------------------------------------------

def enumerate_colorings(
    n: int, r: int, budget: int = DEFAULT_BRUTE_FORCE_BUDGET
) -> list[Coloring]:
    """All colorings of THK(3, n) mod r, by scanning every input triple.

    Deliberately dumb: the fixed-point test uses the iterated matrix power,
    and each hit is re-expanded by stepwise propagation, so this is the
    oracle the counting formula is checked against.  Inputs come back in
    lexicographic (a, b, c) order.
    """
    if n < 1:
        raise ValueError("diagram needs at least one block")
    check_modulus(r)
    if r**3 > budget:
        raise BudgetExceededError(
            f"{r}^3 = {r**3} triples exceed the oracle budget {budget}"
        )
    power = c_power_iterated(n, r)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = power
    found = []
    for a in range(r):
        for b in range(r):
            for c in range(r):
                if (
                    (m00 * a + m01 * b + m02 * c) % r == a
                    and (m10 * a + m11 * b + m12 * c) % r == b
                    and (m20 * a + m21 * b + m22 * c) % r == c
                ):
                    found.append(Coloring.from_input(n, r, (a, b, c)))
    return found


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
    n: int,
    r: int,
    budget: int = DEFAULT_BRUTE_FORCE_BUDGET,
    params: tuple[int, int] | None = None,
) -> tuple[int, Coloring] | None:
    """Minimum palette over nontrivial colorings of the standard diagram.

    Returns (count, lexicographically least witness), or None when only
    trivial colorings exist.  This is an upper bound for the diagram-free
    minimum, which ranges over all diagrams of the knot.

    Translating every color by t maps colorings to colorings and keeps the
    palette size, so only the gu * g5 representatives (a, b, 0) are
    propagated, not all r * gu * g5 inputs.  The lex-least input of the
    class of (a, b, 0) is its translate with first color 0,
    (0, (b - a) mod r, (-a) mod r); the witness is the least of these over
    the optimal representatives.  BudgetExceededError when the r * gu * g5
    colorings exceed `budget`.  A caller that already holds
    (gu, g5) = _reduced_system_params(n, r) passes it as `params`.
    """
    if n < 1:
        raise ValueError("diagram needs at least one block")
    check_modulus(r)
    gu, g5 = params or _reduced_system_params(n, r)
    total = r * gu * g5
    if total > budget:
        raise BudgetExceededError(
            f"{total} colorings exceed the enumeration limit {budget}"
        )
    best: tuple[int, Triple] | None = None
    for a, b, _ in _translation_representatives(n, r, gu, g5):
        if a == b == 0:
            continue
        k = distinct_colors(Coloring.from_input(n, r, (a, b, 0)))
        key = (k, (0, (b - a) % r, -a % r))
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[0], Coloring.from_input(n, r, best[1])


# -- transformations ----------------------------------------------------------

def lift_coloring(coloring: Coloring, r: int) -> Coloring:
    """Rescale a coloring mod s to one mod r, where s divides r.

    Every color i becomes i * (r // s); validity, nontriviality, and the
    distinct-color count all carry over.
    """
    s = coloring.r
    check_modulus(r)
    if r % s != 0:
        raise ValueError(f"lift needs the old modulus {s} to divide {r}")
    factor = r // s
    lifted = Coloring(
        coloring.n,
        r,
        tuple((a * factor, b * factor, c * factor) for a, b, c in coloring.trace),
    )
    if not lifted.validate():
        raise AssertionError("lifted coloring failed revalidation")
    return lifted


def stack_coloring(coloring: Coloring, k: int) -> Coloring:
    """Juxtapose k copies of a closed coloring: THK(3, n) -> THK(3, k*n).

    The trace is periodic, so the stacked trace repeats it k times; the
    palette is unchanged.
    """
    if k < 1:
        raise ValueError("stacking count must be >= 1")
    n = coloring.n
    trace = tuple(
        coloring.trace[i % n] for i in range(k * n)
    ) + (coloring.trace[0],)
    stacked = Coloring(k * n, coloring.r, trace)
    if not stacked.validate():
        raise AssertionError("stacked coloring failed revalidation")
    return stacked
