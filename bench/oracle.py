"""Arithmetic the benchmark checks answers with, written apart from the program.

Nothing here imports `turkshead`.  The methods differ from the program's on
purpose, so that one fault cannot hide in both:

* u_m mod r comes from Fibonacci fast doubling, through u_{2k-1} = F_{2k}
  and u_{2k} = L_{2k+1}; the program uses powers of a 2x2 matrix.  The
  self-tests tie it to the exact recurrence s_n = 3 s_{n-2} - s_{n-4}.
* psi(r) = q is accepted when r | u_{q-1} and r does not divide
  u_{q/l-1} for any prime l | q.  That settles the least q because the
  indices q with r | u_{q-1} are exactly the multiples of psi(r) (a
  self-test confirms it for r <= 300, q < 4000).  The program scans.
* Primes come from Miller-Rabin with fixed bases and from a plain sieve.
"""

from __future__ import annotations

import math

#: psi(r) for 2 <= r <= 185 as published, verbatim, misprint included.
PSI_PUBLISHED: dict[int, int] = {
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

#: Proven misprints of PSI_PUBLISHED.  u_27 = 317811 is odd, so 162 does not
#: divide it and psi(162) != 28; the lcm of the table's psi(2) = 3 and
#: psi(81) = 108 gives 108 (Wall, "Fibonacci series modulo m", 1960).
PSI_ERRATA: dict[int, int] = {162: 108}

#: Published count of odd primes p with psi(p) = p + 1 among the first 10,000.
ODD_FULL_PERIOD_PRIMES_10000 = 3969

#: Published window for the share of such primes among the first 1,000.
FIRST_1000_WINDOW = (0.37, 0.42)

#: Published exact minimum numbers of colors, {(n, r): mincol}.
PUBLISHED_MINCOL = {(3, 2): 2, (4, 3): 3, (2, 5): 4, (8, 7): 4, (5, 11): 5, (85, 143): 5}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# -- the sequence u ------------------------------------------------------------

def fib_pair(k: int, r: int) -> tuple[int, int]:
    """(F_k mod r, F_{k+1} mod r) for k >= 0, by fast doubling."""
    a, b = 0, 1 % r
    for bit in bin(k)[2:]:
        c = a * (2 * b - a) % r
        d = (a * a + b * b) % r
        a, b = (d, (c + d) % r) if bit == "1" else (c, d)
    return a, b


def u_mod(m: int, r: int) -> int:
    """u_m mod r for m >= 0: F_{m+1} for odd m, L_{m+1} for even m."""
    f, f_next = fib_pair(m + 1, r)
    return f if m % 2 else (2 * f_next - f) % r


def u_exact_terms(count: int) -> list[int]:
    """[u_0, ..., u_{count-1}] from s_n = 3 s_{n-2} - s_{n-4}, seeds u_{-3..0} = -1, -1, 0, 1."""
    s = [-1, -1, 0, 1]
    while len(s) < count + 3:
        s.append(3 * s[-2] - s[-4])
    return s[3 : count + 3]


def u_exact(m: int) -> int:
    return u_exact_terms(m + 1)[m]


# -- primes ---------------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(limit: int) -> list[int]:
    """Primes <= limit."""
    flags = [True] * (limit + 1)
    flags[0:2] = [False, False]
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return [i for i, f in enumerate(flags) if f]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- psi ------------------------------------------------------------------------

def psi_holds(r: int, q: int) -> bool:
    """Whether q is the least index with r | u_{q-1}."""
    if q < 1 or u_mod(q - 1, r) != 0:
        return False
    return all(u_mod(q // ell - 1, r) != 0 for ell in prime_factors(q))


def psi_of_prime(p: int) -> int:
    """psi(p) for a prime p: reduce a known multiple one prime factor at a time.

    psi(p) divides p + 1 or (p - 1) / 2 for odd p != 5, so it divides their
    lcm; 2 and 5 fall in a multiple of 30.
    """
    m = 30 if p in (2, 5) else math.lcm(p + 1, (p - 1) // 2)
    if u_mod(m - 1, p) != 0:
        raise ArithmeticError(f"{p} does not divide u_{m - 1}")
    for ell in prime_factors(m):
        while m % ell == 0 and u_mod(m // ell - 1, p) == 0:
            m //= ell
    return m


def full_period(p: int) -> bool:
    """psi(p) = p + 1: p | u_p and p does not divide u_{(p+1)/l - 1} for any prime l | p + 1."""
    return psi_holds(p, p + 1)


def estimate_bound(p: int) -> int:
    """The paper's upper estimate for mincol_p THK(3, psi(p)), prime p > 11."""
    q = psi_of_prime(p)
    if q % 2:
        return (p + 1) // 2 if pow(5, (p - 1) // 2, p) == p - 1 else (p - 1) // 2
    return q - 1 if q % 4 == 0 else q - 5


# -- colorings ------------------------------------------------------------------

def step(t, r: int):
    a, b, c = t
    return ((2 * a - c) % r, a, (2 * c - b) % r)


def count_formula(n: int, r: int) -> int:
    """(u_{n-1}, r)^2 r for odd n, (5 u_{n-1}, r)(u_{n-1}, r) r for even n."""
    um = u_mod(n - 1, r)
    g = math.gcd(um, r)
    return g * g * r if n % 2 else math.gcd(5 * um, r) * g * r


def count_brute_force(n: int, r: int) -> int:
    """Inputs (a, b, c) mod r that come back to themselves after n steps."""
    total = 0
    for t0 in ((a, b, c) for a in range(r) for b in range(r) for c in range(r)):
        t = t0
        for _ in range(n):
            t = step(t, r)
        total += t == t0
    return total


def coloring_problems(col, n: int, r: int) -> list[str]:
    """Why a serialized coloring is not a nontrivial coloring of THK(3, n) mod r."""
    try:
        trace = [tuple(t) for t in col["trace"]]
        if (col["n"], col["r"]) != (n, r):
            return [f"coloring is for ({col['n']}, {col['r']})"]
        if len(trace) != n + 1 or list(trace[0]) != list(col["input"]):
            return ["trace length or input does not match"]
        if any(not 0 <= x < r for t in trace for x in t):
            return ["colors outside [0, r)"]
        if any(step(trace[i], r) != trace[i + 1] for i in range(n)) or trace[n] != trace[0]:
            return ["trace does not follow (a, b, c) -> (2a - c, a, 2c - b) and close"]
        palette = sorted({t[0] for t in trace[:n]} | {t[2] for t in trace[:n]})
        if col["colors_used"] != palette:
            return ["colors_used is not the set of arc colors"]
        if len(palette) < 2:
            return ["coloring is trivial"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed coloring: {exc!r}"]
    return []


# -- checkers, one per command ----------------------------------------------------

class Checker:
    """Checks each command's JSON answer.  Memoizes what repeats across commands."""

    def __init__(self) -> None:
        self._psi_ok: dict[tuple[int, int], bool] = {}
        self._full_prefix: list[int] | None = None
        self._brute: dict[tuple[int, int], int] = {}

    def full_period_prefix(self, count: int) -> list[int]:
        """prefix[k] = number of the first k primes with psi(p) = p + 1."""
        if self._full_prefix is None or len(self._full_prefix) <= count:
            limit = 15
            while True:
                primes = sieve(limit)
                if len(primes) >= count:
                    break
                limit *= 2
            prefix = [0]
            for p in primes[:count]:
                prefix.append(prefix[-1] + full_period(p))
            self._full_prefix = prefix
        return self._full_prefix

    def psi_value_ok(self, r: int, q: int) -> bool:
        key = (r, q)
        if key not in self._psi_ok:
            expected = PSI_ERRATA.get(r, PSI_PUBLISHED.get(r, q))
            self._psi_ok[key] = q == expected and psi_holds(r, q)
        return self._psi_ok[key]

    def check(self, argv: list[str], out: dict) -> list[str]:
        command, args = argv[0], argv[1:]
        if command == "stats":
            return self.stats(int(args[0]), out)
        if command == "psi":
            return self.psi(int(args[0]), out)
        if command == "psi-table":
            return self.psi_table(int(args[1]), out)
        if command == "count":
            return self.count(int(args[0]), int(args[1]), out)
        if command == "det":
            return self.det(int(args[0]), out)
        if command == "construct":
            return self.construct(int(args[0]), out)
        if command == "mincol":
            return self.mincol(int(args[0]), int(args[1]), out)
        return [f"no checker for {command}"]

    def stats(self, count: int, out: dict) -> list[str]:
        prefix = self.full_period_prefix(count)
        problems = []
        if out.get("count") != count:
            problems.append(f"count {out.get('count')} != {count}")
        if out.get("matched") != prefix[count]:
            problems.append(f"matched {out.get('matched')} != {prefix[count]}")
        matched = out.get("matched", 0)
        if out.get("ratio") != matched / count:
            problems.append(f"ratio {out.get('ratio')} != {matched}/{count}")
        if count == 10000:
            odd = matched - full_period(2)
            if odd != ODD_FULL_PERIOD_PRIMES_10000:
                problems.append(f"odd primes {odd} != published {ODD_FULL_PERIOD_PRIMES_10000}")
        if count == 1000:
            low, high = FIRST_1000_WINDOW
            if not low <= out.get("ratio", -1) <= high:
                problems.append(f"ratio {out.get('ratio')} outside [{low}, {high}]")
        return problems

    def psi(self, r: int, out: dict) -> list[str]:
        if out.get("r") != r or not isinstance(out.get("psi"), int):
            return [f"answer is not psi({r}): {out}"]
        return [] if self.psi_value_ok(r, out["psi"]) else [f"psi({r}) = {out['psi']} is wrong"]

    def psi_table(self, max_r: int, out: dict) -> list[str]:
        table = out.get("psi", {})
        if out.get("max") != max_r or list(table) != [str(r) for r in range(2, max_r + 1)]:
            return [f"table does not cover 2..{max_r}"]
        return [f"psi({r}) = {q} is wrong" for r, q in table.items() if not self.psi_value_ok(int(r), q)]

    def count(self, n: int, r: int, out: dict) -> list[str]:
        expected = count_formula(n, r)
        if r**3 * n <= 10**4:
            brute = self._brute.get((n, r))
            if brute is None:
                brute = self._brute[(n, r)] = count_brute_force(n, r)
            if brute != expected:
                return [f"benchmark formula {expected} != brute force {brute} at ({n}, {r})"]
        if (out.get("n"), out.get("r"), out.get("count")) != (n, r, expected):
            return [f"count({n}, {r}) = {out.get('count')} != {expected}"]
        return []

    def det(self, n: int, out: dict) -> list[str]:
        um = u_exact(n - 1)
        expected = um * um * (5 if n % 2 == 0 else 1)
        if (out.get("n"), out.get("determinant")) != (n, expected):
            return [f"det({n}) is wrong"]
        return []

    def construct(self, p: int, out: dict) -> list[str]:
        """A coloring of THK(3, psi(p)) mod p within the estimate; p > 11."""
        q = psi_of_prime(p)
        problems = coloring_problems(out, q, p)
        if problems:
            return problems
        bound = estimate_bound(p)
        if len(out["colors_used"]) > bound:
            return [f"construction for {p} uses {len(out['colors_used'])} > {bound} colors"]
        return []

    def mincol(self, n: int, r: int, out: dict) -> list[str]:
        if (out.get("n"), out.get("r")) != (n, r):
            return [f"verdict is for ({out.get('n')}, {out.get('r')})"]
        kind, lower, upper, witness = out.get("kind"), out.get("lower"), out.get("upper"), out.get("witness")
        trivial = count_formula(n, r) == r
        if trivial or kind == "only-trivial":
            if not (trivial and kind == "only-trivial" and lower is None and upper is None and witness is None):
                return [f"only-trivial verdict {kind!r} disagrees with the count formula"]
            return []
        if kind not in ("exact", "bounds") or not isinstance(lower, int) or not isinstance(upper, int):
            return [f"malformed verdict {kind!r} [{lower}, {upper}]"]
        if not 2 <= lower <= upper:
            return [f"bounds [{lower}, {upper}] are not ordered"]
        if kind == "exact" and lower != upper:
            return [f"exact verdict with bounds [{lower}, {upper}]"]
        published = PUBLISHED_MINCOL.get((n, r))
        if published is not None and (kind, lower) != ("exact", published):
            return [f"published mincol {published}, got {kind} {lower}"]
        if witness is None:
            if kind == "exact" or upper > 2 * n:
                return ["verdict lacks a witness for its upper bound"]
            return []
        problems = coloring_problems(witness, n, r)
        if problems:
            return problems
        palette = len(witness["colors_used"])
        if kind == "bounds" and palette != upper:
            return [f"upper bound {upper} != witness palette {palette}"]
        if kind == "exact" and palette != upper:
            if not (r % 7 == 0 and n % 8 == 0 and upper == 4 and palette == 7):
                return [f"exact value {upper} != witness palette {palette}"]
        return []
