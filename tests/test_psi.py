import hashlib
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from turkshead import mincol, psi, seq, thk, zmod
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


def outcome(route, r, cap):
    try:
        return route(r, cap)
    except BudgetExceededError as exc:
        return str(exc)


def sieve_limits(monkeypatch):
    # the limits asked of zmod.smallest_prime_factors, in order
    limits = []
    sieve = zmod.smallest_prime_factors
    monkeypatch.setattr(zmod, "smallest_prime_factors", lambda limit: limits.append(limit) or sieve(limit))
    return limits


def is_rank_of_apparition(r, q):
    # r | u_{q-1} and no q / l with l a prime of q works; the zero indices
    # are the multiples of psi(r), so q is the least
    return seq.u_mod(q - 1, r) == 0 and all(
        seq.u_mod(q // ell - 1, r) != 0 for ell in zmod.factor(q)
    )


class TestOrderRoute:
    # psi.psi factors r and descends from a multiple of psi(r); psi_scan,
    # the residue scan, is the oracle

    def test_agrees_with_scan_for_every_modulus_to_4000(self):
        for r in range(2, 4001):
            assert psi.psi(r) == psi.psi_scan(r), r

    def test_prime_powers(self):
        # psi(p^k) = psi(p) p^(k-1) here: psi(2) = 3 (from 2^3 on), psi(3) = 4,
        # psi(5) = 10, psi(7) = 8
        assert psi.psi(5**9, cap=10**7) == psi.psi_scan(5**9, cap=10**7)
        for r, expected in ((2**40, 3 * 2**38), (3**20 * 7, 8 * 3**19), (5**9, 10 * 5**8)):
            assert psi.psi(r, cap=10**13).psi == expected
            assert is_rank_of_apparition(r, expected)

    def test_beyond_any_scan(self, monkeypatch):
        def no_scan(r, cap):
            raise AssertionError(f"scanned the residues of {r}")

        monkeypatch.setattr(psi, "psi_scan", no_scan)
        r = 1299709 * 1000003
        assert psi.psi(r, cap=10**11) == psi.PsiValue(r, 36103144412, 36103144412)
        assert is_rank_of_apparition(r, 36103144412)

    def test_unfactorable_modulus_falls_back_to_the_scan(self, monkeypatch):
        # u_1000 has 209 digits and a cofactor rho cannot split, yet it
        # divides u_1000 itself, so the scan stops after 1001 residues
        r = seq.u(1000)
        with pytest.raises(BudgetExceededError):
            zmod.factor(r)
        scans = []
        scan = psi.psi_scan
        monkeypatch.setattr(psi, "psi_scan", lambda r, cap: scans.append(r) or scan(r, cap))
        assert psi.psi(r) == psi.PsiValue(r, 1001, 1001)
        assert scans == [r]

    @pytest.mark.parametrize(
        "r, cap", [(150, 100), (13, 10), (150, 300), (13, 14), (150, 299), (13, 13), (2, 3), (2, 2)]
    )
    def test_cap_raises_exactly_when_the_scan_does(self, r, cap):
        # psi(150) = 300 and psi(13) = 14: a psi equal to the cap is returned
        assert outcome(psi.psi, r, cap) == outcome(psi.psi_scan, r, cap)

    def test_table_agrees_with_scan_for_every_modulus_to_4000(self):
        table = psi.psi_table(4000)
        assert list(table[:2]) == [0, 1]
        assert list(table)[2:] == [psi.psi_scan(r).psi for r in range(2, 4001)]

    @pytest.mark.parametrize("cap", [2, 3, 4, 10, 100, 299, 300, 1000, 8000])
    def test_table_raises_exactly_when_the_loop_does(self, cap):
        # the table stops at the first r whose psi exceeds the cap, with the
        # error psi(r, cap) raises there
        def loop(max_r, cap):
            return [psi.psi(r, cap).psi for r in range(2, max_r + 1)]

        def table(max_r, cap):
            return list(psi.psi_table(max_r, cap))[2:]

        assert outcome(table, 4000, cap) == outcome(loop, 4000, cap)

    def test_table_sieves_only_as_far_as_it_walks(self):
        # psi(625) = 1250 stops the walk; a sieve to isqrt(10^30) would
        # pass the sieve ceiling before the walk began
        with pytest.raises(BudgetExceededError, match=r"^psi\(625\) not found within the scan cap 1000$"):
            psi.psi_table(10**30, 1000)

    def test_table_peak_is_one_array_and_the_sieve(self):
        # 8 bytes per modulus for the table, as it grows, and 4 per entry
        # for the sieve; a second array of 8 bytes per modulus reads 24
        tracemalloc.start()
        try:
            psi.psi_table(300000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 300000 < 20

    def test_table_descends_each_prime_power_once(self, monkeypatch):
        # 589 prime powers below 4000 take 1,780 ladders, 2,224 when the
        # bound check of an even bound had a ladder of its own; one descent
        # per modulus takes 18,486
        assert count_rank_tests(monkeypatch, psi.psi_table, 4000) <= 1800

    def test_psi_shares_the_ladder_of_an_even_bound(self, monkeypatch):
        # psi(r) for every r <= 3000 takes 17,414 ladders, 23,237 when the
        # bound check had a ladder of its own
        def run():
            for r in range(2, 3001):
                psi.psi(r)

        assert count_rank_tests(monkeypatch, run) <= 17500

    @pytest.mark.parametrize("route", [psi.psi_of_prime, psi.psi_table])
    def test_shared_ladder_asserts_an_even_bound(self, monkeypatch, route):
        # 7 = 2 mod 5 has the even bound 8, checked on the shared ladder
        halving = seq.rank_tests_halving
        monkeypatch.setattr(
            seq, "rank_tests_halving", lambda q, r: (False, False) if r == 7 else halving(q, r)
        )
        with pytest.raises(AssertionError, match="^7 does not divide u_7$"):
            route(7)

    def test_table_reads_every_factorization_off_the_sieve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"factored {args[0]} by trial division")

        monkeypatch.setattr(zmod, "factor", refuse)
        monkeypatch.setattr(zmod, "least_prime_factors", refuse)
        assert len(psi.psi_table(4000)) == 4001

    @pytest.mark.parametrize("max_r, cap, r_last", [(4000, 10**7, 4000), (10**30, 1000, 625)])
    def test_table_sieve_grows_with_the_walk(self, monkeypatch, max_r, cap, r_last):
        # the sieve must reach r + 1, and once r + 1 passes it, it is
        # rebuilt to at most 2r: twice its old end
        limits = sieve_limits(monkeypatch)
        outcome(psi.psi_table, max_r, cap)
        assert limits[0] == 64 and limits == sorted(set(limits))
        assert all(new <= 2 * old for old, new in zip(limits, limits[1:]))
        assert limits[-1] >= r_last + 1
        assert max(limits) <= max(64, 2 * r_last + 2)

    def test_table_past_the_sieve_ceiling_agrees_with_scan(self, monkeypatch):
        # beyond the ceiling zmod.factor splits r and the order bounds, and
        # the sieve, built up to the ceiling once, is not rebuilt
        monkeypatch.setattr(zmod, "SIEVE_CEILING", 1000)
        limits = sieve_limits(monkeypatch)
        assert list(psi.psi_table(4000))[2:] == [psi.psi_scan(r).psi for r in range(2, 4001)]
        assert limits == [64, 128, 256, 512, 1000]
        # psi(1250) = 3750 stops a walk that has passed the ceiling
        with pytest.raises(BudgetExceededError, match=r"^psi\(1250\) not found within the scan cap 3000$"):
            psi.psi_table(10**30, 3000)


class TestPsiOfPrime:
    def test_agrees_with_scan_for_all_primes_to_3000(self):
        for p in zmod.primes_up_to(3000):
            q = psi.psi_of_prime(p)
            assert q == psi.psi_scan(p).psi
            if p in (2, 5):
                continue
            # the dichotomy: psi(p) | p + 1 when 5^((p-1)/2) == -1 mod p, else
            # psi(p) | (p - 1)/2; exactly one of p | u_p and p | u_{(p-3)/2}
            minus = pow(5, (p - 1) // 2, p) == p - 1
            assert (p + 1 if minus else (p - 1) // 2) % q == 0
            at_p, at_half = seq.u_mod(p, p) == 0, seq.u_mod((p - 3) // 2, p) == 0
            assert (at_p, at_half) == (minus, not minus)

    def test_no_scan_cap_on_the_prime_route(self):
        # 10,000,103 is prime and its bound p + 1 exceeds the default scan cap
        assert psi.psi_of_prime(10000103) == 10000104

    def test_prime_powers_agree_with_scan(self):
        for p in zmod.primes_up_to(45):
            for k in range(2, 5):
                if p**k <= 3000:
                    assert psi.psi_of_prime(p, k) == psi.psi_scan(p**k).psi

    @given(st.integers(2, 9_999_991))  # 9,999,991 is the largest prime below 10^7
    @settings(max_examples=200, deadline=None)
    def test_result_is_the_rank_of_apparition(self, n):
        p = next(m for m in range(n, n + 200) if zmod.is_prime(m))
        q = psi.psi_of_prime(p)
        assert seq.u_mod(q - 1, p) == 0
        for ell in zmod.factor(q):
            assert seq.u_mod(q // ell - 1, p) != 0


class TestPsiDivides:
    # the indices m with r | u_{m-1} are exactly the multiples of psi(r)
    def test_examples(self):
        assert 6 % psi.psi(2).psi == 0 and seq.u(5) % 2 == 0
        assert 7 % psi.psi(11).psi != 0 and seq.u(6) % 11 != 0
        assert 10 % psi.psi(5).psi == 0

    def test_equivalence_exact_small_indices(self):
        for r in range(2, 101):
            q = psi.psi(r).psi
            for m in range(1, 121):
                assert (m % q == 0) == (seq.u(m - 1) % r == 0)

    @given(st.integers(2, 100), st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_equivalence_with_direct_divisibility(self, r, m):
        assert (m % psi.psi(r).psi == 0) == (seq.u_mod(m - 1, r) == 0)


class TestOrderBound:
    @pytest.mark.parametrize("p, expected", [(11, 5), (29, 14), (37, 38), (3, 4)])
    def test_examples(self, p, expected):
        assert psi._order_bound(p) == expected

    def test_bound_is_a_zero_index_for_all_primes_to_1e4(self):
        # psi(p) divides the bound, so p | u_{bound - 1}
        for p in zmod.primes_up_to(10**4):
            assert seq.u_mod(psi._order_bound(p) - 1, p) == 0

    def test_sign_is_eulers_criterion_for_every_prime_below_1e5(self):
        # the bound reads (5/p) off p mod 5; Euler's criterion takes it from
        # 5^((p-1)/2) mod p
        for p in zmod.primes_up_to(10**5):
            if p in (2, 5):
                continue
            residue = pow(5, (p - 1) // 2, p) == 1
            assert psi._order_bound(p) == ((p - 1) // 2 if residue else p + 1)


class TestPrimeBranch:
    def test_branch_examples(self):
        # psi(11) = 5 | (11 - 1)/2, psi(37) = 38 | 37 + 1, psi(29) = 7 | 14
        assert pow(5, 5, 11) == 1 and psi.psi_of_prime(11) == 5
        assert pow(5, 18, 37) == 36 and psi.psi_of_prime(37) == 38
        assert pow(5, 14, 29) == 1 and psi.psi_of_prime(29) == 7

    def test_psi_bounded_by_p_plus_1_to_1e4(self):
        for p in zmod.primes_up_to(10**4):
            if p == 5:
                continue
            assert psi.psi_of_prime(p) <= p + 1

    def test_divisibility_pair_examples(self):
        assert seq.u_mod(11, 11) != 0 and seq.u(4) % 11 == 0   # 11 | u_4
        assert seq.u(37) % 37 == 0 and seq.u(17) % 37 != 0     # 37 | u_37
        assert seq.u(3) % 3 == 0 and seq.u(0) % 3 != 0         # 3 | u_3, not u_0

    def test_pair_consistent_with_legendre(self):
        for p in zmod.primes_up_to(300):
            if p in (2, 5):
                continue
            at_p, at_half = seq.u_mod(p, p) == 0, seq.u_mod((p - 3) // 2, p) == 0
            assert at_p != at_half
            assert at_p == (pow(5, (p - 1) // 2, p) == p - 1)


def common_primes(n, r):
    return mincol._common_primes(*thk._reduced_system_params(n, r))


class TestMinCommonPrime:
    # mincol's construction prime: the common prime of u_{n-1} and r of
    # least psi, ties to the smaller prime; asked only when every common
    # prime is above 11, since each smaller one has an exact rule
    @staticmethod
    def select(n, r):
        p, q = mincol._construction_prime(common_primes(n, r))
        assert q == psi.psi_of_prime(p)
        return p

    @staticmethod
    def never_asked(monkeypatch):
        def refuse(primes):
            raise AssertionError(f"construction prime asked for {primes}")

        monkeypatch.setattr(mincol, "_construction_prime", refuse)

    def test_examples(self):
        assert self.select(5, 11) == 11
        assert self.select(5, 22) == 11
        assert self.select(7, 29) == 29

    def test_requires_common_factor(self, monkeypatch):
        assert common_primes(5, 7) == []
        self.never_asked(monkeypatch)
        assert mincol.mincol_exact(5, 7).kind == "only-trivial"

    def test_none_when_only_small_primes_shared(self, monkeypatch):
        # u_2 = 4 shares only the prime 2 with r = 4, and the 2-rule answers
        assert common_primes(3, 4) == [2]
        self.never_asked(monkeypatch)
        assert mincol.mincol_exact(3, 4).provenance[0] == "exact-rule(2|r,3|n)"

    def test_minimizes_psi_not_size(self):
        # 13 and 29 both divide u_13 (psi 14 and 7 divide 14); the larger
        # prime wins because psi(29) = 7 beats psi(13) = 14
        assert self.select(14, 13 * 29) == 29


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
        primes = zmod.primes_up_to(2999)
        expected = [psi.psi_scan(p).psi == p + 1 for p in primes]
        assert psi.prime_psi_matches(len(primes)) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            psi.prime_psi_stats(0)


def count_rank_tests(monkeypatch, run, *args):
    """Ladder runs of the rank tests: one per seq.rank_test or seq.rank_tests_halving."""
    calls = []
    for name in ("rank_test", "rank_tests_halving"):
        test = getattr(seq, name)

        def counted(q, r, test=test):
            calls.append((q, r))
            return test(q, r)

        monkeypatch.setattr(seq, name, counted)
    run(*args)
    return len(calls)


class TestPrimeSweepCertificate:
    # the sweep tests psi(p) = p + 1 directly: the bound check, then one
    # rank test per prime of p + 1, and none at all when the bound is
    # (p-1)/2; test_matches_flag_each_prime checks the verdicts against
    # the scan for every prime below 3,000

    def test_rank_tests_in_the_paper_sweep(self, monkeypatch):
        # 19,100 ladders: 14,077 single and 5,023 that share the bound check
        # with the test at l = 2; descending to psi(p) for every prime takes
        # 42,108
        assert count_rank_tests(monkeypatch, psi.prime_psi_matches, 10000) <= 19200

    def test_plus_one_sign_costs_only_the_bound_check(self, monkeypatch):
        # 11 is the fifth prime and 11 = 1 mod 5, so 5 is a square mod 11
        # and its bound is 5
        assert 11 % 5 == 1
        sweep = psi.prime_psi_matches
        assert count_rank_tests(monkeypatch, sweep, 5) - count_rank_tests(monkeypatch, sweep, 4) == 1

    def test_bound_check_is_kept(self, monkeypatch):
        # 7 does not divide u_6 (psi(7) = 8), so a bound of 7 must be refuted
        order_bound = psi._order_bound
        monkeypatch.setattr(
            psi, "_order_bound", lambda p: 7 if p == 7 else order_bound(p)
        )
        with pytest.raises(AssertionError, match="7 does not divide u_6"):
            psi.prime_psi_matches(10)

    def test_shared_ladder_asserts_the_bound(self, monkeypatch):
        # 7 = 2 mod 5 has the bound 8 = 7 + 1, checked on the shared ladder
        halving = seq.rank_tests_halving
        monkeypatch.setattr(
            seq, "rank_tests_halving", lambda q, r: (False, False) if r == 7 else halving(q, r)
        )
        with pytest.raises(AssertionError, match="^7 does not divide u_7$"):
            psi.prime_psi_matches(10)

    def test_usage_sweep_keeps_the_bound_check(self, monkeypatch):
        # 11 = 1 mod 5, the first prime the usage sweep tests, has the
        # bound 5 (the split branch); 11 does not divide u_6, so a bound of
        # 7 must be refuted
        order_bound = psi._order_bound
        monkeypatch.setattr(
            psi, "_order_bound", lambda p: 7 if p == 11 else order_bound(p)
        )
        with pytest.raises(AssertionError, match="^11 does not divide u_6$"):
            psi.first_usage_primes(1)

    def test_usage_sweep_asserts_the_shared_bound(self, monkeypatch):
        # 13 = 3 mod 5 has the bound 14 = 13 + 1 (the inert branch), checked
        # on the shared ladder
        halving = seq.rank_tests_halving
        monkeypatch.setattr(
            seq, "rank_tests_halving", lambda q, r: (False, False) if r == 13 else halving(q, r)
        )
        with pytest.raises(AssertionError, match="^13 does not divide u_13$"):
            psi.first_usage_primes(1)

    def test_verdicts_agree_with_the_descent_below_1e5(self):
        # the 9,592 primes below 10^5, each by the other route of the order
        # algorithm: psi_of_prime descends to psi(p)
        primes = zmod.primes_up_to(10**5)
        expected = [psi.psi_of_prime(p) == p + 1 for p in primes]
        assert psi.prime_psi_matches(len(primes)) == expected

    def test_paper_sweep_verdicts_frozen(self):
        # the count alone, 3,970, would not see two verdicts swapped
        digest = hashlib.sha256(bytes(psi.prime_psi_matches(10000))).hexdigest()
        assert digest == "b678d007ea24b68593afe2f96d716102288070e7477f864ccaed907640ffc77b"


class TestColorUsage:
    def test_first_qualifying_prime(self):
        # palettes from (0,1,0) and (1,2,0) on THK(3, 14) mod 13 are 9 and 12
        assert mincol.usage_ratios(1) == [(13, Fraction(12, 13))]

    def test_p_37(self):
        # 37 is the fourth prime p > 7 with psi(p) = p + 1, after 13, 17, 23
        assert mincol.usage_ratios(4)[3] == (37, Fraction(29, 37))


class TestUsagePrimes:
    def test_first_200_match_the_scan(self):
        primes = [p for p in zmod.primes_up_to(5000) if p > 7 and psi.psi_scan(p).psi == p + 1]
        assert psi.first_usage_primes(200) == primes[:200]
