"""Named verification suites.

Each suite re-derives a slice of the library's behavior from an independent
direction (exhaustive enumeration, exact big-integer identities, frozen
reference data) and reports one CheckResult per logical check.  The CLI
`verify` subcommand and the acceptance tests both run these same functions.
The identities of u, v and the transfer matrices are checked here and
nowhere else, by the `identities` suite; the unit tests keep only edge cases.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import mincol, seq, thk, zmod
from .psi import color_usage_ratio, first_usage_primes, prime_psi_matches, psi_table
from .config import RunConfig

#: Frozen reference values for psi(r), 2 <= r <= 185, kept verbatim from the
#: source table this build reproduces, including its one misprinted cell
#: (psi(162) = 28; see PSI_REFERENCE_ERRATA).
PSI_REFERENCE: dict[int, int] = {
    2: 3, 3: 4, 4: 3, 5: 10, 6: 12, 7: 8, 8: 6, 9: 12, 10: 30, 11: 5,
    12: 12, 13: 14, 14: 24, 15: 20, 16: 12, 17: 18, 18: 12, 19: 9, 20: 30,
    21: 8, 22: 15, 23: 24, 24: 12, 25: 50, 26: 42, 27: 36, 28: 24, 29: 7,
    30: 60, 31: 15, 32: 24, 33: 20, 34: 18, 35: 40, 36: 12, 37: 38, 38: 9,
    39: 28, 40: 30, 41: 20, 42: 24, 43: 44, 44: 15, 45: 60, 46: 24, 47: 16,
    48: 12, 49: 56, 50: 150, 51: 36, 52: 42, 53: 54, 54: 36, 55: 10, 56: 24,
    57: 36, 58: 21, 59: 29, 60: 60, 61: 30, 62: 15, 63: 24, 64: 48, 65: 70,
    66: 60, 67: 68, 68: 18, 69: 24, 70: 120, 71: 35, 72: 12, 73: 74,
    74: 114, 75: 100, 76: 9, 77: 40, 78: 84, 79: 39, 80: 60, 81: 108,
    82: 60, 83: 84, 84: 24, 85: 90, 86: 132, 87: 28, 88: 30, 89: 22,
    90: 60, 91: 56, 92: 24, 93: 60, 94: 48, 95: 90, 96: 24, 97: 98,
    98: 168, 99: 60, 100: 150, 101: 25, 102: 36, 103: 104, 104: 42,
    105: 40, 106: 54, 107: 36, 108: 36, 109: 54, 110: 30, 111: 76,
    112: 24, 113: 38, 114: 36, 115: 120, 116: 21, 117: 84, 118: 87,
    119: 72, 120: 60, 121: 55, 122: 30, 123: 20, 124: 15, 125: 250,
    126: 24, 127: 128, 128: 96, 129: 44, 130: 210, 131: 65, 132: 60,
    133: 72, 134: 204, 135: 180, 136: 18, 137: 138, 138: 24, 139: 23,
    140: 120, 141: 16, 142: 105, 143: 70, 144: 12, 145: 70, 146: 222,
    147: 56, 148: 114, 149: 74, 150: 300, 151: 25, 152: 18, 153: 36,
    154: 120, 155: 30, 156: 84, 157: 158, 158: 39, 159: 108, 160: 120,
    161: 24, 162: 28, 163: 164, 164: 60, 165: 20, 166: 84, 167: 168,
    168: 24, 169: 182, 170: 90, 171: 36, 172: 132, 173: 174, 174: 84,
    175: 200, 176: 60, 177: 116, 178: 66, 179: 89, 180: 60, 181: 45,
    182: 168, 183: 60, 184: 24, 185: 190,
}

#: Corrections to misprinted cells of PSI_REFERENCE, as {r: corrected psi}.
#: The published psi(162) = 28 cannot hold: u_27 = 317811 is odd, so 162 does
#: not divide it, and 28 is not even a multiple of the table's own
#: psi(2) = 3.  Ranks of apparition combine by lcm over prime-power parts
#: (Wall, "Fibonacci series modulo m", 1960), so the table's psi(2) = 3 and
#: psi(81) = 108 give psi(162) = lcm(3, 108) = 108.  suite_psi_table checks
#: each erratum at run time with exact integers (check "errata-refuted").
PSI_REFERENCE_ERRATA: dict[int, int] = {162: 108}

#: Reference aggregate for the prime sweep: reported count of primes with
#: psi(p) = p + 1 among the first 10,000.  It counts odd primes only: the
#: p + 1 versus (p - 1)/2 dichotomy behind the count covers odd primes, and
#: leaving out p = 2 (psi(2) = 3 = 2 + 1) is the one reading that gives 3,969.
#: prime_psi_stats counts p = 2 as well and reports 3,970.
PRIME_STATS_REFERENCE_10000 = 3969

#: Reference envelope for the color-usage probe ratios.
USAGE_WINDOW = (Fraction(69, 100), Fraction(76, 100))


class CheckResult(namedtuple("CheckResult", "suite name passed detail")):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.suite}/{self.name}: {self.detail}"


def _result(suite: str, name: str, failures: list[str], detail_ok: str) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:6])
        more = f" (+{len(failures) - 6} more)" if len(failures) > 6 else ""
        return CheckResult(suite, name, False, shown + more)
    return CheckResult(suite, name, True, detail_ok)


# -- suite 1: counting formula vs exhaustive oracle ----------------------------

def suite_formula_oracle(config: RunConfig) -> list[CheckResult]:
    failures = []
    pairs = 0
    for n in range(1, 13):
        for r in range(2, 17):
            pairs += 1
            expected = mincol.count_colorings(n, r)
            actual = len(thk.enumerate_colorings(n, r, config.brute_force_budget))
            if expected != actual:
                failures.append(f"(n={n}, r={r}): formula {expected} != oracle {actual}")
    return [
        _result(
            "formula-oracle",
            "count-grid",
            failures,
            f"{pairs} (n, r) pairs agree with exhaustive enumeration",
        )
    ]


# -- suite 2: psi reference table ----------------------------------------------

def suite_psi_table(config: RunConfig) -> list[CheckResult]:
    # the table psi-table prints, one row per reference cell
    computed = dict(psi_table(max(PSI_REFERENCE), config.psi_scan_cap))
    failures = []
    for r, published in sorted(PSI_REFERENCE.items()):
        expected = PSI_REFERENCE_ERRATA.get(r, published)
        actual = computed[r]
        if actual != expected:
            failures.append(f"psi({r}) computed {actual}, reference {expected}")
    return [
        _result(
            "psi-table",
            "reference-2-to-185",
            failures,
            f"all {len(PSI_REFERENCE)} reference values reproduced, "
            f"{len(PSI_REFERENCE_ERRATA)} of them as corrected by errata",
        ),
        _check_psi_errata(),
    ]


def _check_psi_errata() -> CheckResult:
    """Prove each erratum with exact terms of u, independently of psi().

    For r with published value q0 and corrected value q: r must not divide
    u_{q0-1}; q must be the first index with r | u_{q-1}; and q must equal
    the lcm of the table's own entries at the prime-power parts of r.
    """
    failures = []
    proofs = []
    for r, corrected in sorted(PSI_REFERENCE_ERRATA.items()):
        published = PSI_REFERENCE[r]
        if seq.u(published - 1) % r == 0:
            failures.append(f"psi({r}): published {published} passes {r} | u_{published - 1}")
        first = next(
            (q for q in range(1, corrected + 1) if seq.u(q - 1) % r == 0), None
        )
        if first is None:
            failures.append(f"psi({r}): no q <= {corrected} has {r} | u_{{q-1}}")
        elif first != corrected:
            failures.append(f"psi({r}): first q with {r} | u_{{q-1}} is {first}, not {corrected}")
        parts = [p**e for p, e in zmod.least_prime_factors(r).items()]
        combined = math.lcm(*(PSI_REFERENCE[part] for part in parts))
        if combined != corrected:
            failures.append(
                f"psi({r}): lcm of the table at {parts} is {combined}, not {corrected}"
            )
        shown = ", ".join(f"psi({part})={PSI_REFERENCE[part]}" for part in parts)
        proofs.append(
            f"psi({r}): {r} does not divide u_{published - 1}; first q with "
            f"{r} | u_{{q-1}} is {corrected} = lcm({shown})"
        )
    return _result("psi-table", "errata-refuted", failures, "; ".join(proofs))


# -- suite 3: prime statistics ---------------------------------------------------

def suite_prime_stats(config: RunConfig) -> list[CheckResult]:
    # one sweep serves both checks: matches[i] is psi(p) = p + 1 at the
    # (i+1)-th prime, so matches[0] is p = 2
    matches = prime_psi_matches(10000)
    small_matched = sum(matches[:1000])
    small_ratio = Fraction(small_matched, 1000)
    window_ok = 0.37 <= small_ratio <= 0.42
    small_check = CheckResult(
        "prime-stats",
        "first-1000-window",
        window_ok,
        f"matched {small_matched}/1000, ratio {float(small_ratio):.4f} "
        f"{'inside' if window_ok else 'outside'} [0.37, 0.42]",
    )
    # the reference counts odd primes only; leave p = 2 out
    odd_matched = sum(matches[1:])
    exact_ok = odd_matched == PRIME_STATS_REFERENCE_10000
    detail = (
        f"odd primes: matched {odd_matched} vs reference {PRIME_STATS_REFERENCE_10000}; "
        f"all primes: matched {sum(matches)}/10000"
    )
    full_check = CheckResult("prime-stats", "first-10000-exact", exact_ok, detail)
    return [small_check, full_check]


# -- suite 4: exact mincol verdicts with certificates ---------------------------

_EXACT_CASES = (
    # (n, r, exact value, witness palette attainable on the standard diagram)
    (3, 2, 2, 2),
    (4, 3, 3, 3),
    (2, 5, 4, 4),
    (8, 7, 4, 7),
    (5, 11, 5, 5),
    (85, 143, 5, 5),
)


def suite_mincol_exact(config: RunConfig) -> list[CheckResult]:
    failures = []
    for n, r, expected, witness_palette in _EXACT_CASES:
        verdict = mincol.mincol_exact(n, r, config.brute_force_budget)
        if verdict.kind != "exact" or verdict.lower != expected or verdict.upper != expected:
            failures.append(f"({n}, {r}): verdict {verdict.kind} [{verdict.lower}, {verdict.upper}]")
            continue
        witness = verdict.witness
        if witness is None or not witness.validate() or witness.is_trivial:
            failures.append(f"({n}, {r}): witness missing or invalid")
            continue
        if not thk.is_coloring(witness.n, witness.r, witness.input_triple):
            failures.append(f"({n}, {r}): witness fails the closure test")
            continue
        if thk.distinct_colors(witness) != witness_palette:
            failures.append(
                f"({n}, {r}): witness uses {thk.distinct_colors(witness)} colors, "
                f"expected {witness_palette}"
            )
    # the one case whose witness exceeds the verdict: confirm the standard
    # diagram truly cannot do better than 7 there
    best = thk.min_colors_standard(8, 7, config.brute_force_budget)
    if best is None or best[0] != 7:
        failures.append(f"standard-diagram minimum for (8, 7) is {best and best[0]}, expected 7")
    return [
        _result(
            "mincol-exact",
            "dual-certificates",
            failures,
            "6 exact verdicts certified; (8, 7) witness floor on standard "
            "diagrams confirmed at 7",
        )
    ]


# -- suites 5 and 6: explicit constructions -------------------------------------

def _constructions(limit: int, want_odd: bool, failures: list[str]) -> list[thk.Coloring]:
    """construct(p) for each prime 5 < p <= limit whose psi(p) = col.n has
    the wanted parity.

    A construction that fails one of its own invariants has no coloring to
    read the parity from, so its failure is recorded in both suites.
    """
    out = []
    for p in zmod.primes_up_to(limit):
        if p <= 5:
            continue
        try:
            col = mincol.construct(p)
        except AssertionError as exc:
            failures.append(f"p={p}: {exc}")
            continue
        if (col.n % 2 == 1) == want_odd:
            out.append(col)
    return out


def suite_odd_constructions(config: RunConfig) -> list[CheckResult]:
    failures: list[str] = []
    cases = _constructions(200, True, failures)
    for col in cases:
        p, q = col.r, col.n
        palette = thk.distinct_colors(col)
        if not col.validate() or col.is_trivial:
            failures.append(f"p={p}: invalid or trivial coloring")
        if not thk.is_circular_shift(col.x_sequence, col.z_sequence):
            failures.append(f"p={p}: right side is not a shift of the left")
        if palette > q:
            failures.append(f"p={p}: palette {palette} exceeds psi = {q}")
        if p > 11:
            branch = (p + 1) // 2 if zmod.legendre5(p) == -1 else (p - 1) // 2
            if palette > branch:
                failures.append(f"p={p}: palette {palette} exceeds branch bound {branch}")
        if p == 11 and col.colors_used != [0, 1, 2, 4, 7]:
            failures.append(f"p=11: palette {col.colors_used} != [0, 1, 2, 4, 7]")
    return [
        _result(
            "odd-constructions",
            "primes-to-200",
            failures,
            f"{len(cases)} odd-psi primes certified",
        )
    ]


def suite_even_constructions(config: RunConfig) -> list[CheckResult]:
    failures: list[str] = []
    cases = _constructions(200, False, failures)
    for col in cases:
        p, q = col.r, col.n
        palette = thk.distinct_colors(col)
        bound = q - 1 if q % 4 == 0 else q - 5
        if not col.validate() or col.is_trivial:
            failures.append(f"p={p}: invalid or trivial coloring")
        if palette > bound:
            failures.append(f"p={p}: palette {palette} exceeds bound {bound}")
        if p == 7 and palette != 7:
            failures.append(f"p=7: palette {palette} != 7")
    return [
        _result(
            "even-constructions",
            "primes-to-200",
            failures,
            f"{len(cases)} even-psi primes certified",
        )
    ]


# -- suite 7: identity battery ---------------------------------------------------

def _check_sum_identity(n: int) -> bool:
    """u_{2n} = u_{2n+1} + u_{2n-1} and 5*u_{2n+1} = u_{2n+2} + u_{2n}, exactly."""
    total = seq.u(2 * n + 2) + seq.u(2 * n)
    return (
        seq.u(2 * n) == seq.u(2 * n + 1) + seq.u(2 * n - 1)
        and total % 5 == 0
        and seq.u(2 * n + 1) == total // 5
    )


def _check_product_identity(m: int, n: int) -> bool:
    """The index-addition product identities that apply at (m, n), exactly.

    When m is even or n is odd:  u_{m+n} = u_{m+1} u_n - u_{m-1} u_{n-2}
    When m is even and n is odd: u_{m+n} = u_m u_n - u_{m-1} u_{n-1}
    Neither applies for m odd and n even, which passes vacuously.
    """
    u = seq.u
    if m % 2 == 1 and n % 2 == 0:
        return True
    ok = u(m + n) == u(m + 1) * u(n) - u(m - 1) * u(n - 2)
    if m % 2 == 0 and n % 2 == 1:
        ok = ok and u(m + n) == u(m) * u(n) - u(m - 1) * u(n - 1)
    return ok


def _check_uv_factorization(n: int) -> bool:
    """The u/v factorization of block-power entries at n >= 0.

    The leading entries a_n, b_n of the n-fold product of the one-block
    transfer matrix (computed by plain repeated multiplication, independent
    of any closed form) must satisfy

        a_n = u_n v_n          a_n - 1 = u_{n-1} v_{n+1}
        b_n = u_{n-2} u_{n-1}  b_n - 1 = u_n u_{n-3}
    """
    u, v = seq.u, seq.v
    power = thk.c_power_iterated(n)
    a_n, b_n = power[0][0], power[0][1]
    return (
        a_n == u(n) * v(n)
        and a_n - 1 == u(n - 1) * v(n + 1)
        and b_n == u(n - 2) * u(n - 1)
        and b_n - 1 == u(n) * u(n - 3)
    )


def suite_identities(config: RunConfig) -> list[CheckResult]:
    results = []

    failures = [f"n={n}" for n in range(-300, 301) if seq.u(n) != -seq.u(-n - 2)]
    results.append(_result("identities", "u-reflection", failures, "n in [-300, 300]"))

    failures = []
    for n in range(0, 61):
        exact = seq.u(n)
        approx = seq.binet_u(n)
        tol = 1e-9 if n <= 40 else 1e-7
        if abs(approx - exact) > tol * max(1.0, abs(exact)):
            failures.append(f"n={n}: {approx} vs {exact}")
    results.append(_result("identities", "binet-closed-form", failures, "n in [0, 60]"))

    failures = [f"n={n}" for n in range(-15, 31) if not _check_sum_identity(n)]
    results.append(_result("identities", "sum-identities", failures, "indices in [-31, 62]"))

    failures = []
    for m in range(-30, 31):
        for n in range(-30, 31):
            if not _check_product_identity(m, n):
                failures.append(f"(m={m}, n={n})")
    results.append(_result("identities", "product-identities", failures, "|m|, |n| <= 30"))

    failures = [f"n={n}" for n in range(0, 61) if not _check_uv_factorization(n)]
    results.append(_result("identities", "uv-factorization", failures, "n in [0, 60]"))

    failures = []
    for n in range(-20, 61):
        a_n, a_prev = thk.matrix_entry_a(n), thk.matrix_entry_a(n - 1)
        b_n, b_prev = thk.matrix_entry_b(n), thk.matrix_entry_b(n - 1)
        if a_n - a_prev - b_n != 1 or b_n - b_prev - a_prev != -1:
            failures.append(f"n={n}")
    results.append(_result("identities", "index-identities", failures, "n in [-20, 60]"))

    failures = []
    for n in range(-60, 41):  # below n = -3, a_n comes from its cofactor form
        if thk.transfer_matrix(n).entries != thk.c_power_iterated(n):
            failures.append(f"n={n}")
    results.append(
        _result("identities", "closed-form-exact", failures, "integer powers, n in [-60, 40]")
    )

    failures = []
    for r in (2, 3, 5, 7, 16, 50):
        power = ((1 % r, 0, 0), (0, 1 % r, 0), (0, 0, 1 % r))
        block = tuple(tuple(x % r for x in row) for row in thk.C_BLOCK)
        for n in range(0, 501):
            if thk.transfer_matrix(n, r).entries != power:
                failures.append(f"(n={n}, r={r})")
                break
            power = thk._mat_mul(power, block, r)
    results.append(
        _result("identities", "closed-form-mod", failures, "n in [0, 500], six moduli")
    )

    failures = []
    cache = {k: thk.transfer_matrix(k).entries for k in range(-60, 61)}
    for a in range(-30, 31):
        for b in range(-30, 31):
            if thk._mat_mul(cache[a], cache[b]) != cache[a + b]:
                failures.append(f"(a={a}, b={b})")
    results.append(_result("identities", "power-group-law", failures, "a, b in [-30, 30]"))

    failures = []
    for n in range(-20, 61):
        m = thk.transfer_matrix(n).entries
        fixed = tuple(m[0][j] - m[1][j] + m[2][j] for j in range(3))
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if fixed != (1, -1, 1) or det != 1:
            failures.append(f"n={n}")
    results.append(
        _result("identities", "fixed-vector-and-determinant", failures, "n in [-20, 60]")
    )

    failures = []
    probes = [(0, 1, 0), (1, 2, 0), (1, 7, 0), (3, 1, 4), (0, 0, 1)]
    for r in (None, 2, 3, 5, 7, 11, 16, 50):
        for probe in probes:
            levels = thk.propagate(probe, r, 60)
            a, b, c = levels[0]
            invariant = a - b + c if r is None else (a - b + c) % r
            for k, (x, y, z) in enumerate(levels):
                value = x - y + z if r is None else (x - y + z) % r
                if value != invariant:
                    failures.append(f"(r={r}, probe={probe}, level={k}): level invariant")
                    break
                if k >= 1 and y != levels[k - 1][0]:
                    failures.append(f"(r={r}, probe={probe}, level={k}): middle strand lag")
                    break
                if k >= 2:
                    rhs = 3 * levels[k - 1][0] - levels[k - 2][0] - a + b - c
                    ok = (x - rhs) % r == 0 if r else x == rhs
                    if not ok:
                        failures.append(f"(r={r}, probe={probe}, level={k}): three-term")
                        break
                if k >= 3:
                    rhs = (
                        4 * levels[k - 1][0]
                        - 4 * levels[k - 2][0]
                        + levels[k - 3][0]
                    )
                    ok = (x - rhs) % r == 0 if r else x == rhs
                    if not ok:
                        failures.append(f"(r={r}, probe={probe}, level={k}): four-term")
                        break
    results.append(
        _result("identities", "trace-recurrences", failures, "five probes, eight moduli, 60 levels")
    )

    failures = []
    for r in range(2, 51):
        stream = seq.u_mod_stream(r)
        for n in range(0, 501):
            got = next(stream)
            if got != seq.u(n) % r or got != seq.u_mod(n, r):
                failures.append(f"(n={n}, r={r})")
                break
    results.append(
        _result("identities", "mod-stream-agreement", failures, "n in [0, 500], r in [2, 50]")
    )

    return results


# -- suite 8: determinants -------------------------------------------------------

def suite_determinants(config: RunConfig) -> list[CheckResult]:
    failures = []
    expected = {1: 1, 2: 5, 3: 16, 4: 45}
    for n, value in expected.items():
        got = mincol.determinant(n).value
        if got != value:
            failures.append(f"det(n={n}) = {got}, expected {value}")
    for n in range(1, 201):
        if mincol.determinant(n).value == 0:
            failures.append(f"det(n={n}) vanished")
    for n in range(3, 201):
        if not (seq.u(n) > 0 and seq.u(n) > seq.u(n - 2)):
            failures.append(f"monotonicity broken at n={n}")
    # the check keeps its name so that verify output stays stable; the float
    # closed form is checked once, by identities/binet-closed-form
    return [
        _result(
            "determinants",
            "values-positivity-binet",
            failures,
            "n in {1..4} pinned; nonzero and monotone to n = 200",
        )
    ]


# -- suite 9: non-splitness counting consequence ---------------------------------

def suite_nonsplit(config: RunConfig) -> list[CheckResult]:
    failures = []
    for n in range(1, 9):
        floor = max(5, seq.u(n - 1))
        r = floor + 1
        while not zmod.is_prime(r):
            r += 1
        count = mincol.count_colorings(n, r)
        if count != r:
            failures.append(f"(n={n}, r={r}): formula count {count} != {r}")
            continue
        colorings = thk.enumerate_colorings(n, r, config.brute_force_budget)
        if len(colorings) != r or any(not col.is_trivial for col in colorings):
            failures.append(f"(n={n}, r={r}): oracle found nontrivial colorings")
    return [
        _result(
            "nonsplit",
            "minimal-count-at-large-prime",
            failures,
            "n in [1, 8]: smallest prime above max(5, u_{n-1}) yields exactly r trivial colorings",
        )
    ]


# -- suite 10: color-usage ratios -------------------------------------------------

def suite_color_usage(config: RunConfig) -> list[CheckResult]:
    lo, hi = USAGE_WINDOW
    failures = []
    ratios = []
    for p in first_usage_primes(25):
        ratio = color_usage_ratio(p)
        ratios.append(ratio)
        if not lo <= ratio <= hi:
            failures.append(f"p={p}: ratio {float(ratio):.4f} outside [{float(lo)}, {float(hi)}]")
    spread = f"observed range [{float(min(ratios)):.4f}, {float(max(ratios)):.4f}]"
    return [
        _result(
            "color-usage",
            "first-25-window",
            failures,
            f"25 ratios inside [{float(lo)}, {float(hi)}]; {spread}",
        )
    ]


SUITES = {
    "formula-oracle": suite_formula_oracle,
    "psi-table": suite_psi_table,
    "prime-stats": suite_prime_stats,
    "mincol-exact": suite_mincol_exact,
    "odd-constructions": suite_odd_constructions,
    "even-constructions": suite_even_constructions,
    "identities": suite_identities,
    "determinants": suite_determinants,
    "nonsplit": suite_nonsplit,
    "color-usage": suite_color_usage,
}


def run_suite(name: str, config: RunConfig | None = None) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](config or RunConfig())
