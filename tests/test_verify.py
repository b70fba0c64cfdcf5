import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from turkshead import cli, mincol, psi, seq, thk, verify
from turkshead.config import BudgetExceededError, RunConfig

#: sha256 of `turkshead verify <suite>` stdout, check ids and details included
SUITE_DIGESTS = {
    "formula-oracle": "3935737899d653219273119452d2f8ee71f4e4bfea6edde25941399022c50fb4",
    "mincol-exact": "21cb01c98e8e942a398a851070cb5bd5cf9dc7adf8bf7e6677a973b9bdf94c34",
    "odd-constructions": "16323a48783abc79b16b4b64c3fe0a0b9c355269ed39a673b4691f2a92bff8c1",
    "even-constructions": "356cb6bd106721bcd3eb6429c9bb6afeb4ff17914643be2c9cf534a7c678f1a1",
    "identities": "9ac3c3bfd939ee024457757798160d38d5764bbb8a34e7d23fce67ef13173cb8",
    "nonsplit": "ee5a822e59dfb7f622cc2dcd5ca8d7df0813802791e3b13a2242c08ee32ee029",
}


@pytest.mark.parametrize("suite", SUITE_DIGESTS)
def test_suite_stdout_digest(capsys, suite):
    # Byte-identity guard on the suites that run on the oracles; a change
    # that means to alter a check updates its digest and says so in
    # CHANGES.md.
    assert cli.main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_DIGESTS[suite]


class TestColorUsage:
    def test_more_tail_counts_failing_primes_only(self):
        # the observed-range note is not a failure, so with 19 primes outside
        # the window, 6 are shown and 13 more are counted
        lo, hi = verify.USAGE_WINDOW
        outside = [p for p, ratio in mincol.usage_ratios(25) if not lo <= ratio <= hi]
        (result,) = verify.suite_color_usage(RunConfig())
        assert len(outside) == 19 and not result.passed
        assert result.detail.count("outside [") == 6
        assert result.detail.endswith(" (+13 more)")


class TestPrimeStats:
    def test_one_sweep_serves_both_checks(self):
        small, full = verify.suite_prime_stats(RunConfig())
        assert small.passed and small.detail.startswith("matched 403/1000, ratio 0.4030 inside")
        assert full.passed and full.detail.startswith(
            "odd primes: matched 3969 vs reference 3969; all primes: matched 3970/10000"
        )


class TestPsiTable:
    def test_single_value_route_reproduces_the_reference(self):
        # the suite checks psi_table; psi(r) answers `turkshead psi r`
        for r, published in verify.PSI_REFERENCE.items():
            assert psi.psi(r).psi == verify.PSI_REFERENCE_ERRATA.get(r, published), r


class TestPropagation:
    def test_block_example_mod_11(self):
        assert verify.propagate((1, 7, 0), 11, 1)[1] == (2, 1, 4)

    def test_constant_triple_is_fixed(self):
        for t in range(5):
            assert verify.propagate((t, t, t), 5, 1)[1] == (t % 5,) * 3

    def test_block_example_mod_7(self):
        assert verify.propagate((0, 1, 0), 7, 1)[1] == (0, 0, 6)

    def test_trace_of_seven_coloring(self):
        # the 7-coloring of THK(3, 8) induced by (0, 1, 0)
        assert verify.propagate((0, 1, 0), 7, 8) == [
            (0, 1, 0), (0, 0, 6), (1, 0, 5), (4, 1, 3), (5, 4, 5),
            (5, 5, 6), (4, 5, 0), (1, 4, 2), (0, 1, 0),
        ]


class TestTransferMatrix:
    def test_one_block(self):
        assert verify.transfer_matrix(1) == ((2, 0, -1), (1, 0, 0), (0, -1, 2))

    def test_zero_is_identity(self):
        assert verify.transfer_matrix(0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_three_blocks(self):
        assert verify.transfer_matrix(3) == ((9, 4, -12), (4, 1, -4), (-4, -4, 9))

    @given(st.integers(-40, 200), st.integers(2, 97))
    @settings(max_examples=150)
    def test_closed_form_equals_iterated_mod(self, n, r):
        closed = tuple(tuple(x % r for x in row) for row in verify.transfer_matrix(n))
        assert closed == verify.c_power_iterated(n, r)

    def test_inverse_matrix_constant(self):
        assert verify._mat_mul(verify.C_BLOCK, verify.C_BLOCK_INV) == (
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
        )

    def test_apply_respects_modulus(self):
        m = verify.c_power_iterated(5, 11)
        assert all(0 <= x < 11 for row in m for x in row)
        assert verify.is_fixed_point(m, 11, (12, 18, -11))  # (1, 7, 0) mod 11


class TestIsFixedPoint:
    @staticmethod
    def closes(n, r, t):
        return verify.is_fixed_point(verify.c_power_iterated(n, r), r, t)

    def test_known_five_color_input(self):
        assert self.closes(5, 11, (1, 7, 0))

    def test_trivial_always_colors(self):
        for n in (1, 2, 7):
            for r in (2, 9):
                assert self.closes(n, r, (3, 3, 3))

    def test_probe_not_a_coloring_of_2_5(self):
        # the closure condition for even n is a + 2b - 3c == 0 mod r when
        # u_{n-1} is a unit; (0, 1, 0) gives 2, so it does not color
        assert not self.closes(2, 5, (0, 1, 0))

    def test_valid_coloring_of_2_5(self):
        assert self.closes(2, 5, (3, 1, 0))


class TestEnumeration:
    def test_unknot_case_only_trivial(self):
        inputs = verify.enumerate_colorings(1, 5)
        assert len(inputs) == 5
        assert all(len(thk.Coloring.from_input(1, 5, t).palette) == 1 for t in inputs)

    def test_count_3_2(self):
        assert len(verify.enumerate_colorings(3, 2)) == 8

    def test_count_2_5(self):
        assert len(verify.enumerate_colorings(2, 5)) == 25

    def test_lexicographic_order(self):
        inputs = verify.enumerate_colorings(3, 3)
        assert inputs == sorted(inputs)

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError, match="budget"):
            verify.enumerate_colorings(3, 101, budget=10**6)


class TestOracleIndependence:
    def test_exhaustive_suites_walk_no_coloring_of_thk(self, monkeypatch):
        # the exhaustive oracle checks the coloring walks, so it runs none
        def refuse(cls, *args):
            raise AssertionError("the exhaustive oracle walked a coloring")

        monkeypatch.setattr(thk.Coloring, "from_input", classmethod(refuse))
        assert len(verify.enumerate_colorings(4, 3)) == mincol.count_colorings(4, 3)
        for suite in (verify.suite_formula_oracle, verify.suite_nonsplit):
            results = suite(RunConfig())
            assert results and all(result.passed for result in results), suite.__name__

    def test_mincol_floor_is_not_the_search_under_test(self, monkeypatch):
        # the (8, 7) standard-diagram floor comes from the exhaustive oracle,
        # not from the standard-diagram search it would confirm
        def refuse(*args):
            raise AssertionError("the mincol-exact suite ran the standard-diagram search")

        monkeypatch.setattr(thk, "min_colors_standard", refuse)
        (result,) = verify.suite_mincol_exact(RunConfig())
        assert result.passed, result.detail


class TestBinet:
    @pytest.mark.parametrize("n, expected, tol", [(0, 1.0, 1e-9), (2, 4.0, 1e-9), (9, 55.0, 1e-7)])
    def test_examples(self, n, expected, tol):
        assert verify.binet_u(n) == pytest.approx(expected, abs=tol)

    def test_negative_indices(self):
        for n in range(-20, 0):
            assert verify.binet_u(n) == pytest.approx(seq.u(n), abs=1e-7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            verify.binet_u(61)
