import json
import sys
from pathlib import Path

import pytest

from turkshead import cli, mincol, psi, thk, verify, zmod

# the benchmark's answer checker, arithmetic written apart from the program
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import oracle  # noqa: E402

# the 7-coloring of THK(3, 8) induced by (0, 1, 0)
SEVEN_COLORING_TRACE = [
    (0, 1, 0), (0, 0, 6), (1, 0, 5), (4, 1, 3), (5, 4, 5),
    (5, 5, 6), (4, 5, 0), (1, 4, 2), (0, 1, 0),
]


def period_levels(col):
    """The levels 0..m-1 of col's period, each middle color read off the left column a level back."""
    left, right = col.left, col.right
    return tuple((left[i], left[i - 1], right[i]) for i in range(len(left)))


def reduced_classes(n, r):
    """The gu * g5 coloring inputs (a, b, 0) of the reduced closure system
    mod r, with (gu, g5) = mincol._reduced_system_params(n, r).

    The block map fixes every constant state and is linear, so the inputs
    are closed under (a, b, c) -> (a + t, b + t, c + t); each input is the
    translate by c of exactly one of these.  With c = 0 the reduced system
    leaves a in (r/gu)Z and b in (r/gu)Z (odd n), or b in (r/g5)Z and
    a + 2b in (r/gu)Z (even n).
    """
    gu, g5 = mincol._reduced_system_params(n, r)
    step_u, step_5 = r // gu, r // g5
    for j in range(g5):
        b = j * step_5
        base = 0 if n % 2 == 1 else -2 * b
        for i in range(gu):
            yield ((base + i * step_u) % r, b, 0)


class TestEnumeration:
    # the classes that composite_search walks are the colorings up to
    # translation, and mincol's class sizes count them
    @staticmethod
    def translates_of_representatives(n, r):
        gu, g5 = mincol._reduced_system_params(n, r)
        reps = list(reduced_classes(n, r))
        assert len(reps) == gu * g5 and all(t[2] == 0 for t in reps)
        return sorted(((a + t) % r, (b + t) % r, t) for a, b, _ in reps for t in range(r))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("r", range(2, 10))
    def test_reduced_path_agrees_with_oracle(self, n, r):
        oracle = verify.enumerate_colorings(n, r)
        assert self.translates_of_representatives(n, r) == oracle

    @pytest.mark.parametrize("n, r", [(8, 7), (10, 11), (12, 16), (9, 15)])
    def test_reduced_path_agrees_on_resonant_cases(self, n, r):
        oracle = verify.enumerate_colorings(n, r)
        assert self.translates_of_representatives(n, r) == oracle


class TestColoring:
    def test_from_input_rejects_non_closing(self):
        with pytest.raises(ValueError, match="does not close"):
            thk.Coloring.from_input(2, 5, (0, 1, 0))

    def test_from_input_keeps_the_least_period(self):
        # (0, 1, 0) mod 13 first returns after 14 blocks
        col = thk.Coloring.from_input(42, 13, (0, 1, 0))
        assert len(col.left) == len(col.right) == 14
        assert period_levels(col) == tuple(verify.propagate((0, 1, 0), 13, 13))
        for n in (7, 21):
            with pytest.raises(ValueError, match="does not close"):
                thk.Coloring.from_input(n, 13, (0, 1, 0))

    def test_known_five_color_palette(self):
        col = thk.Coloring.from_input(5, 11, (1, 7, 0))
        assert col.palette == (0, 1, 2, 4, 7)

    def test_trivial_palette(self):
        col = thk.Coloring.from_input(4, 9, (2, 2, 2))
        assert col.palette == (2,)

    def test_stored_palette_is_the_propagated_one(self):
        for n in range(1, 13):
            for r in range(2, 13):
                for t in verify.enumerate_colorings(n, r):
                    col = thk.Coloring.from_input(n, r, t)
                    assert col.palette == tuple(verify.arc_colors(t, r, n)), (n, r, t)
                    a, b, c = t
                    unreduced = thk.Coloring.from_input(n, r, (a + r, b - r, c + 2 * r))
                    assert unreduced == col and unreduced.input_triple == t, (n, r, t)

    def test_seven_coloring_palette(self):
        col = thk.Coloring.from_input(8, 7, (0, 1, 0))
        assert len(col.palette) == 7
        assert period_levels(col) == tuple(SEVEN_COLORING_TRACE[:-1])

    def test_sequences_and_shift_structure(self):
        col = thk.Coloring.from_input(5, 11, (1, 7, 0))
        xs, ys, zs = ([level[j] for level in period_levels(col)] for j in range(3))
        assert xs == [1, 2, 0, 4, 7]
        assert ys == [7, 1, 2, 0, 4]
        assert zs == [0, 4, 7, 1, 2]
        assert verify.is_circular_shift(xs, ys)
        assert verify.is_circular_shift(xs, zs)

    def test_middle_is_always_shift_of_left(self):
        for n, r, t in [(3, 2, (0, 0, 1)), (8, 7, (0, 1, 0)), (2, 5, (3, 1, 0))]:
            col = thk.Coloring.from_input(n, r, t)
            levels = verify.propagate(col.input_triple, col.r, col.n)[:-1]
            assert verify.is_circular_shift([x for x, _, _ in levels], [y for _, y, _ in levels])

    def test_json_round_trip(self):
        col = thk.Coloring.from_input(5, 11, (1, 7, 0))
        out = []
        cli.write_json(col, out.append)
        data = json.loads("".join(out))
        assert data == {
            "n": 5,
            "r": 11,
            "input": [1, 7, 0],
            "trace": [[1, 7, 0], [2, 1, 4], [0, 2, 7], [4, 0, 1], [7, 4, 2], [1, 7, 0]],
            "colors_used": [0, 1, 2, 4, 7],
        }

    def test_validate_rejects_corrupt_trace(self):
        col = thk.Coloring.from_input(5, 11, (1, 7, 0))
        assert col.validate()
        left = list(col.left)
        left[2] = 9
        assert not col._replace(left=tuple(left)).validate()
        # every step holds but the last, back to level 0
        (x0, _, z0), (x1, _, z1) = verify.propagate((0, 6, 1), 7, 1)
        assert not thk.Coloring(2, 7, (x0, x1), (z0, z1), (0, 1, 3, 6)).validate()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: mincol.construct(13),
            lambda: mincol.mincol_exact(5, 143).witness,  # the 11-rule witness lifted
            lambda: mincol.mincol_exact(24, 7).witness,  # the 7-rule witness stacked
        ],
        ids=["construct-13", "lifted-5-143", "stacked-24-7"],
    )
    def test_validate_rejects_every_single_change(self, make):
        col = make()
        assert col.validate()
        r = col.r
        for field in ("left", "right"):
            column = getattr(col, field)
            for i, color in enumerate(column):
                # every other residue, and the same residue unreduced
                for other in [*range(color), *range(color + 1, r), color + r]:
                    changed = column[:i] + (other,) + column[i + 1:]
                    assert not col._replace(**{field: changed}).validate(), (field, i, other)
            assert not col._replace(**{field: column[:-1]}).validate()

    def test_from_input_refuses_a_changed_middle_color(self):
        # every input that differs from a closing one only in its middle color
        closing = verify.enumerate_colorings(2, 5)
        changed = {(a, y, c) for a, _, c in closing for y in range(5)} - set(closing)
        assert changed
        for t in sorted(changed):
            with pytest.raises(ValueError, match="does not close"):
                thk.Coloring.from_input(2, 5, t)

    def test_validate_rejects_period_not_dividing_n(self):
        col = thk.Coloring.from_input(5, 11, (1, 7, 0))
        assert col._replace(n=10).validate()
        assert not col._replace(n=7).validate()
        assert not col._replace(n=0).validate()
        assert not col._replace(left=(), right=()).validate()

    def test_trace_follows_the_period_rule(self):
        # level i is (left[i % m], left[(i - 1) % m], right[i % m]), for the
        # n levels of from_input and for a period repeated over twice as many
        # blocks; the input is level 0
        for n in range(1, 31):
            for r in range(2, 21):
                for t in verify.enumerate_colorings(n, r):
                    col = thk.Coloring.from_input(n, r, t)
                    left, right = col.left, col.right
                    m = len(left)
                    assert len(right) == m and col.input_triple == t
                    assert col.middle == tuple(y for _, y, _ in verify.propagate(t, r, m - 1))
                    doubled = col._replace(n=2 * n)
                    assert doubled.validate()
                    for i, level in enumerate(verify.propagate(t, r, 2 * n)):
                        assert (left[i % m], left[(i - 1) % m], right[i % m]) == level, (n, r, t, i)


class TestMinColorsStandard:
    @pytest.mark.parametrize(
        "n, r, expected, witness",
        [(3, 2, 2, (0, 0, 1)), (2, 5, 4, (0, 1, 4)), (4, 3, 3, (0, 0, 1)), (8, 7, 7, (0, 0, 1))],
    )
    def test_minima_and_lex_least_witness(self, n, r, expected, witness):
        if mincol.count_colorings(n, r) == r**3:
            coloring = thk.min_colors_standard(n, r)
        else:
            # psi(5) = 10, so only 25 of the 125 inputs close at (2, 5) and
            # the search does not run there; the 5-rule's frozen input is
            # the oracle's least minimal one
            assert self.oracle_minimum(n, r) == (expected, witness)
            assert mincol._EXACT_RULES[r] == (n, expected, witness)
            coloring = thk.Coloring.from_input(n, r, witness)
        assert len(coloring.palette) == expected and coloring.input_triple == witness

    @staticmethod
    def oracle_minimum(n, r):
        # the least palette over all nontrivial colorings, read off their
        # propagated levels, paired with the lex-least input reaching it
        # (enumerate_colorings is lex ordered)
        expected = None
        for t in verify.enumerate_colorings(n, r):
            xs, _, zs = zip(*verify.propagate(t, r, n))
            pair = (len(set(xs).union(zs)), t)
            if pair[0] > 1 and (expected is None or pair < expected):
                expected = pair
        return expected

    def test_agrees_with_the_oracle_for_small_n_and_r(self):
        searched = 0
        for n in range(1, 31):
            for r in range(2, 21):
                expected = self.oracle_minimum(n, r)
                if not zmod.is_prime(r):
                    # refused before any walk
                    with pytest.raises(ValueError, match="prime modulus"):
                        thk.min_colors_standard(n, r)
                elif mincol.count_colorings(n, r) < r**3:
                    # some input does not close, so the search refuses the modulus
                    with pytest.raises(ValueError, match="does not close"):
                        thk.min_colors_standard(n, r)
                else:
                    found = thk.min_colors_standard(n, r)
                    assert (len(found.palette), found.input_triple) == expected, (n, r)
                    assert found == thk.Coloring.from_input(n, r, expected[1])
                # where mincol's gate runs the search, the verdict reports its minimum
                verdict = mincol.mincol_exact(n, r)
                if f"upper-route-standard-diagram-search({expected and expected[0]})" in verdict.provenance:
                    searched += 1
                    if verdict.provenance[-1] == "upper-from-standard-diagram-search":
                        assert verdict.witness == thk.Coloring.from_input(n, r, expected[1])
                else:
                    assert not any("standard-diagram-search" in step for step in verdict.provenance)
        # psi(13) = 14, psi(17) = 18 and psi(19) = 9: their multiples up to 30
        assert searched == 6

    @pytest.mark.parametrize("n, r, period", [(42, 13, 14), (54, 17, 18), (48, 23, 24)])
    def test_agrees_with_the_oracle_beyond_one_period(self, n, r, period):
        # n is several times the orbit length of the witness
        expected = self.oracle_minimum(n, r)
        witness = thk.min_colors_standard(n, r)
        assert (len(witness.palette), witness.input_triple) == expected
        assert len(witness.left) == period
        assert period_levels(witness) == tuple(verify.propagate(expected[1], r, period - 1))

    def test_propagates_one_input_per_translation_class(self, monkeypatch):
        calls = []
        from_input = thk.Coloring.from_input
        monkeypatch.setattr(
            thk.Coloring,
            "from_input",
            classmethod(lambda cls, *args: calls.append(args) or from_input(*args)),
        )
        for n, p, palette in [(7, 29, 7), (196, 13, 9)]:
            calls.clear()
            assert len(thk.min_colors_standard(n, p).palette) == palette
            # every input closes here, and up to translation and units the
            # nontrivial levels are the p + 1 points of the projective line,
            # (0, 0, 1) and (0, 1, c); the levels of one orbit are its points
            assert mincol.count_colorings(n, p) == p**3
            points = [(0, 0, 1)] + [(0, 1, c) for c in range(p)]

            def point(level):
                x, y, z = level
                return (0, 0, 1) if y == x else (0, 1, (z - x) * pow(y - x, -1, p) % p)

            orbits = {frozenset(map(point, verify.propagate(t, p, n))) for t in points}
            assert set().union(*orbits) == set(points)
            # one walk per orbit, from its least point, plus the witness
            walked = [args[2] for args in calls]
            assert walked[:-1] == sorted(min(orbit) for orbit in orbits), (n, p)

    def test_matches_exhaustive_minimum(self):
        for n, r in [(5, 11), (7, 29)]:
            best = len(thk.min_colors_standard(n, r).palette)
            palettes = [
                thk.Coloring.from_input(n, r, t).palette for t in verify.enumerate_colorings(n, r)
            ]
            brute = min(len(palette) for palette in palettes if len(palette) > 1)
            assert best == brute


def composite_search(n, r):
    """The standard-diagram search run at the modulus r itself, as it was
    before the search moved to the primes: each block-map orbit of the
    reduced classes walked once, keyed by (palette size, lex-least translate
    of a level), a pair (u, v) marked as u * r + v.  The reference that the
    search carried from each common prime is checked against; None when
    only trivial colorings exist.
    """
    best, seen = None, set()
    for a, b, _ in reduced_classes(n, r):
        if a == b == 0 or a * r + b in seen:
            continue
        col = thk.Coloring.from_input(n, r, (a, b, 0))
        levels = list(zip(col.left, col.middle, col.right))
        seen.update([(x - z) % r * r + (y - z) % r for x, y, z in levels])
        key = (len(col.palette), min([(y - x) % r * r + (z - x) % r for x, y, z in levels]))
        if best is None or key < best:
            best = key
    return best and thk.Coloring.from_input(n, r, (0, *divmod(best[1], r)))


def search_gated(n, r, budget):
    """Whether mincol_exact(n, r, budget) runs the search: a least common
    prime p past the rules, with p**3 within the budget."""
    primes = mincol._common_primes(*mincol._reduced_system_params(n, r))
    return bool(primes) and 13 <= primes[0] and primes[0] ** 3 <= budget


class TestCarriedSearch:
    # the search runs at each common prime p on THK(3, psi(p)) mod p and its
    # witness is carried to (n, r); it must find what the search at r did
    @staticmethod
    def check(n, r, budget):
        expected = composite_search(n, r)
        verdict = mincol.mincol_exact(n, r, budget)
        size = len(expected.palette)
        assert f"upper-route-standard-diagram-search({size})" in verdict.provenance, (n, r)
        if verdict.provenance[-1] == "upper-from-standard-diagram-search":
            assert verdict.witness == expected, (n, r)
            return
        # a tie keeps the construction, so compare the carried witnesses themselves
        carried = [
            mincol._transport(thk.min_colors_standard(psi.psi_of_prime(p), p), n, r)[0]
            for p in mincol._common_primes(*mincol._reduced_system_params(n, r))
        ]
        assert min(carried, key=lambda col: (len(col.palette), col.input_triple)) == expected, (n, r)
        assert len(verdict.witness.palette) == size, (n, r)

    def test_default_budget_up_to_r_100(self):
        budget = mincol.DEFAULT_BRUTE_FORCE_BUDGET
        cases = [(n, r) for r in range(2, 101) for n in range(1, 401) if search_gated(n, r, budget)]
        assert len(cases) == 640 and 101**3 > budget  # so the gate admits no prime past 100
        for n, r in cases:
            self.check(n, r, budget)

    def test_a_raised_budget_lets_the_search_answer_38_37(self):
        # 37^3 is within the default budget, and the search beats the
        # construction's 29 colors; its witness is the exhaustive minimum
        verdict = mincol.mincol_exact(38, 37)
        assert (verdict.lower, verdict.upper) == (5, 28)
        assert verdict.provenance[-1] == "upper-from-standard-diagram-search"
        assert verdict.witness.input_triple == (0, 1, 4)
        assert TestMinColorsStandard.oracle_minimum(38, 37) == (28, (0, 1, 4))
        assert verdict.witness == composite_search(38, 37)
        # the gate is p^3 <= budget: one triple short of 37^3 the search does not run
        assert mincol.mincol_exact(38, 37, 37**3) == verdict
        below = mincol.mincol_exact(38, 37, 37**3 - 1)
        assert (below.lower, below.upper) == (5, 29)
        assert not any("standard-diagram-search" in step for step in below.provenance)

    @pytest.mark.parametrize(
        "n, r", [(182, 169), (126, 221), (126, 247), (306, 289), (182, 338), (98, 377), (266, 481)]
    )
    def test_raised_budget_at_composite_moduli(self, n, r):
        # two common primes, or a squared one; the gate reads only the primes,
        # so a raised budget answers as the default does
        assert search_gated(n, r, mincol.DEFAULT_BRUTE_FORCE_BUDGET)
        self.check(n, r, 10**11)
        assert mincol.mincol_exact(n, r, 10**11) == mincol.mincol_exact(n, r)

    def test_searched_verdicts_pass_the_benchmark_oracle(self):
        # every verdict with n <= 400, 13 <= r <= 300 that runs the search at
        # the default budget, checked by bench/oracle.py from its JSON line;
        # the searched size is the search at r itself, and so is a taken witness
        checker, sizes, taken, squared, two = oracle.Checker(), 0, 0, 0, 0
        pairs = {
            (n, r)
            for p in zmod.primes_up_to(97)[5:]
            for r in range(p, 301, p)
            for n in range(psi.psi_of_prime(p), 401, psi.psi_of_prime(p))
        }
        for n, r in sorted(pairs):
            if not search_gated(n, r, mincol.DEFAULT_BRUTE_FORCE_BUDGET):
                continue
            verdict, out = mincol.mincol_exact(n, r), []
            cli.write_json(verdict, out.append)
            assert checker.mincol(n, r, json.loads("".join(out))) == [], (n, r)
            expected = composite_search(n, r)
            assert f"upper-route-standard-diagram-search({len(expected.palette)})" in verdict.provenance
            sizes += 1
            if verdict.provenance[-1] == "upper-from-standard-diagram-search":
                assert verdict.witness == expected, (n, r)
                taken += 1
            primes = mincol._common_primes(*mincol._reduced_system_params(n, r))
            squared += r % primes[0] ** 2 == 0
            two += len(primes) == 2
        assert (sizes, taken, squared, two) == (1675, 63, 50, 8)

    def test_matches_the_search_over_all_classes_at_each_prime(self):
        # the projective-line walk finds the witness of the search over
        # all p^2 classes (a, b, 0), on one period and on two
        for p in zmod.primes_up_to(99)[3:]:
            q = psi.psi_of_prime(p)
            for n in (q, 2 * q):
                assert thk.min_colors_standard(n, p) == composite_search(n, p), (n, p)
