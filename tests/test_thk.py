import json

import pytest

from turkshead import cli, mincol, thk, verify
from turkshead.config import BudgetExceededError

# the 7-coloring of THK(3, 8) induced by (0, 1, 0)
SEVEN_COLORING_TRACE = [
    (0, 1, 0), (0, 0, 6), (1, 0, 5), (4, 1, 3), (5, 4, 5),
    (5, 5, 6), (4, 5, 0), (1, 4, 2), (0, 1, 0),
]


def period_levels(col):
    """The levels 0..m-1 of col's period, each middle color read off the left column a level back."""
    left, right = col.left, col.right
    return tuple((left[i], left[i - 1], right[i]) for i in range(len(left)))


class TestEnumeration:
    @staticmethod
    def translates_of_representatives(n, r):
        gu, g5 = thk._reduced_system_params(n, r)
        reps = list(thk._translation_representatives(n, r, gu, g5))
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
        coloring = thk.min_colors_standard(n, r)
        assert coloring is not None
        assert len(coloring.palette) == expected and coloring.input_triple == witness

    def test_only_trivial_returns_none(self):
        assert thk.min_colors_standard(5, 7) is None

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            thk.min_colors_standard(5, 11, budget=100)

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
        for n in range(1, 31):
            for r in range(2, 21):
                expected = self.oracle_minimum(n, r)
                found = thk.min_colors_standard(n, r)
                got = found and (len(found.palette), found.input_triple)
                assert got == expected, (n, r)
                if found is not None:
                    assert found == thk.Coloring.from_input(n, r, expected[1])

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
        for n, r, palette in [(7, 29, 7), (196, 13, 9)]:
            calls.clear()
            assert len(thk.min_colors_standard(n, r).palette) == palette
            # the levels of one orbit, translated to third color 0, are the
            # nontrivial representatives of one class each
            gu, g5 = thk._reduced_system_params(n, r)
            reps = {(a, b) for a, b, _ in thk._translation_representatives(n, r, gu, g5)}
            reps.discard((0, 0))
            orbits = {
                frozenset(((x - z) % r, (y - z) % r) for x, y, z in verify.propagate((a, b, 0), r, n))
                for a, b in reps
            }
            assert set().union(*orbits) == reps
            # one walk per orbit, plus the witness
            assert len(calls) == len(orbits) + 1, (n, r)

    def test_matches_exhaustive_minimum(self):
        for n, r in [(5, 11), (7, 29)]:
            best = len(thk.min_colors_standard(n, r).palette)
            palettes = [
                thk.Coloring.from_input(n, r, t).palette for t in verify.enumerate_colorings(n, r)
            ]
            brute = min(len(palette) for palette in palettes if len(palette) > 1)
            assert best == brute
