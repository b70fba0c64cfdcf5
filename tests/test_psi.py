from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from turkshead import psi, seq, zmod
from turkshead.config import BudgetExceededError


class TestPsi:
    @pytest.mark.parametrize(
        "r, expected",
        [(2, 3), (3, 4), (4, 3), (5, 10), (7, 8), (11, 5), (29, 7), (150, 300), (185, 190)],
    )
    def test_values(self, r, expected):
        result = psi.psi(r)
        assert result.psi == expected
        assert result.steps_scanned == expected

    def test_divisibility_of_result(self):
        for r in range(2, 80):
            q = psi.psi(r).psi
            assert seq.u_mod(q - 1, r) == 0
            assert all(seq.u_mod(m - 1, r) != 0 for m in range(1, q))

    def test_scan_cap(self):
        with pytest.raises(BudgetExceededError):
            psi.psi(150, cap=100)

    def test_rejects_r_below_2(self):
        with pytest.raises(ValueError):
            psi.psi(1)


class TestPsiOfPrime:
    def test_agrees_with_scan_for_all_primes_to_500(self):
        for p in zmod.primes_up_to(500):
            assert psi.psi_of_prime(p).psi == psi.psi(p).psi

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            psi.psi_of_prime(6)

    def test_handles_special_primes(self):
        assert psi.psi_of_prime(2).psi == 3
        assert psi.psi_of_prime(5).psi == 10

    def test_agrees_with_scan_for_all_primes_to_3000(self):
        for p in zmod.primes_up_to(3000):
            assert psi.psi_of_prime(p).psi == psi.psi(p).psi

    def test_no_scan_cap_on_the_prime_route(self):
        # 10,000,103 is prime and its bound p + 1 exceeds the default scan cap
        assert psi.psi_of_prime(10000103).psi == 10000104

    def test_steps_count_rank_tests(self):
        # 37: bound 38 = 2 * 19; the test at 38 passes, those at 19 and 2 fail
        assert psi.psi_of_prime(37) == psi.PsiValue(37, 38, 3)

    @given(st.integers(2, 9_999_991))  # 9,999,991 is the largest prime below 10^7
    @settings(max_examples=200, deadline=None)
    def test_result_is_the_rank_of_apparition(self, n):
        p = next(m for m in range(n, n + 200) if zmod.is_prime(m))
        q = psi.psi_of_prime(p).psi
        assert seq.u_mod(q - 1, p) == 0
        for ell in zmod.least_prime_factors(q):
            assert seq.u_mod(q // ell - 1, p) != 0


class TestPsiDivides:
    def test_examples(self):
        assert psi.psi_divides(2, 6) and seq.u(5) % 2 == 0
        assert not psi.psi_divides(11, 7) and seq.u(6) % 11 != 0
        assert psi.psi_divides(5, 10)

    def test_equivalence_exact_small_indices(self):
        for r in range(2, 101):
            q = psi.psi(r).psi
            for m in range(1, 121):
                assert (m % q == 0) == (seq.u(m - 1) % r == 0)

    @given(st.integers(2, 100), st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_equivalence_with_direct_divisibility(self, r, m):
        assert psi.psi_divides(r, m) == (seq.u_mod(m - 1, r) == 0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            psi.psi_divides(7, 0)


class TestPrimeBranch:
    def test_branch_examples(self):
        assert psi.psi_prime_bound(11) == psi.DIVIDES_HALF_P_MINUS_1
        assert psi.psi_prime_bound(37) == psi.DIVIDES_P_PLUS_1
        assert psi.psi_prime_bound(29) == psi.DIVIDES_HALF_P_MINUS_1

    def test_branch_divisibility_all_primes_to_500(self):
        for p in zmod.primes_up_to(500):
            if p in (2, 5):
                continue
            branch = psi.psi_prime_bound(p)
            value = psi.psi_of_prime(p).psi
            target = p + 1 if branch == psi.DIVIDES_P_PLUS_1 else (p - 1) // 2
            assert target % value == 0

    def test_psi_bounded_by_p_plus_1_to_1e4(self):
        for p in zmod.primes_up_to(10**4):
            if p == 5:
                continue
            assert psi.psi_of_prime(p).psi <= p + 1

    def test_divisibility_pair_examples(self):
        assert psi.p_divides_u(11) == (False, True)   # 11 | u_4
        assert psi.p_divides_u(37) == (True, False)   # 37 | u_37
        assert psi.p_divides_u(3) == (True, False)    # 3 | u_3, not u_0

    def test_pair_consistent_with_legendre(self):
        for p in zmod.primes_up_to(300):
            if p in (2, 5):
                continue
            at_p, at_half = psi.p_divides_u(p)
            assert at_p != at_half
            assert at_p == (zmod.legendre5(p) == -1)


class TestMinCommonPrime:
    def test_examples(self):
        assert psi.min_common_prime_psi(5, 11) == 11
        assert psi.min_common_prime_psi(5, 22) == 11
        assert psi.min_common_prime_psi(7, 29) == 29

    def test_requires_common_factor(self):
        with pytest.raises(ValueError):
            psi.min_common_prime_psi(5, 7)

    def test_none_when_only_small_primes_shared(self):
        # u_2 = 4 shares only the prime 2 with r = 4
        assert psi.min_common_prime_psi(3, 4) is None

    def test_minimizes_psi_not_size(self):
        # 13 and 29 both divide u_13 (psi 14 and 7 divide 14); the larger
        # prime wins because psi(29) = 7 beats psi(13) = 14
        assert psi.min_common_prime_psi(14, 13 * 29) == 29


class TestPrimeStats:
    def test_single_prime(self):
        stats = psi.prime_psi_stats(1)
        assert stats.matched == 1 and stats.ratio == Fraction(1, 1)

    def test_first_five(self):
        # psi over {2, 3, 5, 7, 11} is {3, 4, 10, 8, 5}: matches at 2, 3, 7
        stats = psi.prime_psi_stats(5)
        assert stats.matched == 3

    def test_first_1000_frozen(self):
        stats = psi.prime_psi_stats(1000)
        assert stats.matched == 403
        assert stats.ratio == Fraction(403, 1000)

    @pytest.mark.parametrize("count, matched", [(1, 1), (2, 2), (3, 2)])
    def test_sweeps_through_the_special_primes(self, count, matched):
        # the sweep's shared trial divisors must cover the bound 30 of p = 2, 5
        assert psi.prime_psi_stats(count).matched == matched

    def test_matches_flag_each_prime(self):
        primes = zmod.first_primes(300)
        expected = [psi.psi(p).psi == p + 1 for p in primes]
        assert psi.prime_psi_matches(300) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            psi.prime_psi_stats(0)


class TestColorUsage:
    def test_first_qualifying_prime(self):
        # palettes from (0,1,0) and (1,2,0) on THK(3, 14) mod 13 are 9 and 12
        assert psi.color_usage_ratio(13) == Fraction(12, 13)

    def test_p_37(self):
        assert psi.color_usage_ratio(37) == Fraction(29, 37)

    def test_guards(self):
        with pytest.raises(ValueError):
            psi.color_usage_ratio(7)       # at the boundary, excluded
        with pytest.raises(ValueError):
            psi.color_usage_ratio(11)      # psi(11) = 5 != 12
        with pytest.raises(ValueError):
            psi.color_usage_ratio(15)      # not prime
