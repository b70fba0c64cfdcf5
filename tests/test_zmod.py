import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from turkshead import zmod
from turkshead.config import BudgetExceededError


class TestModInverse:
    @pytest.mark.parametrize("a, r, expected", [(4, 11, 3), (1, 7, 1), (5, 11, 9)])
    def test_examples(self, a, r, expected):
        assert zmod.mod_inverse(a, r) == expected

    def test_non_invertible(self):
        with pytest.raises(ValueError, match="no inverse"):
            zmod.mod_inverse(2, 4)

    @given(st.integers(1, 500), st.integers(2, 100))
    def test_inverse_property(self, a, r):
        if math.gcd(a % r if a % r else r, r) != 1:
            return
        assert zmod.mod_inverse(a, r) * a % r == 1


class TestPrimesAndFactors:
    def test_primes_up_to_11(self):
        assert zmod.primes_up_to(11) == [2, 3, 5, 7, 11]

    def test_small_limits_empty(self):
        assert zmod.primes_up_to(1) == []
        assert zmod.primes_up_to(-3) == []

    def test_odd_only_sieve_agrees_with_is_prime_to_3000(self):
        # every limit from -1 to 3000, so each parity of the limit and each
        # square of an odd prime is an end of the sieve
        primes = [m for m in range(3001) if zmod.is_prime(m)]
        for limit in range(-1, 3001):
            assert zmod.primes_up_to(limit) == [m for m in primes if m <= limit], limit

    def test_sieve_ceiling(self):
        with pytest.raises(BudgetExceededError, match="9-digit limit"):
            zmod.primes_up_to(zmod.SIEVE_CEILING + 1)
        # factor() sieves nothing for a square above the ceiling that rho splits
        assert zmod.factor((zmod.SIEVE_CEILING + 1) ** 2) == {17: 2, 5882353: 2}

    @given(st.integers(1, 10**60))
    def test_decimal_digits(self, m):
        for value in (m, 10 ** len(str(m)) - 1, 10 ** len(str(m))):
            assert zmod.decimal_digits(value) == len(str(value))

    def test_first_primes(self):
        assert zmod.first_primes(5) == [2, 3, 5, 7, 11]
        assert len(zmod.first_primes(10000)) == 10000
        assert zmod.first_primes(10000)[-1] == 104729

    @pytest.mark.parametrize(
        "m, expected", [(45, {3: 2, 5: 1}), (1331, {11: 3}), (1, {}), (97, {97: 1})]
    )
    def test_factorizations(self, m, expected):
        assert zmod.factor(m) == expected

    def test_factor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zmod.factor(0)

    @given(st.integers(1, 5000))
    def test_factorization_reassembles(self, m):
        product = 1
        for p, e in zmod.factor(m).items():
            assert zmod.is_prime(p)
            product *= p**e
        assert product == m

    @given(st.integers(1, 5000))
    def test_shared_trial_divisors_give_the_same_factors(self, m):
        shared = zmod.primes_up_to(70)  # covers isqrt(5000)
        assert zmod.least_prime_factors(m, shared) == zmod.factor(m)


class TestSmallestPrimeFactors:
    def test_agrees_with_factor_to_5000(self):
        spf = zmod.smallest_prime_factors(5000)
        assert len(spf) == 5001
        for m in range(2, 5001):
            assert spf[m] == min(zmod.factor(m)), m

    @pytest.mark.parametrize("limit, expected", [(0, [0]), (1, [0, 1]), (2, [0, 1, 2]), (4, [0, 1, 2, 3, 2])])
    def test_small_limits(self, limit, expected):
        assert list(zmod.smallest_prime_factors(limit)) == expected

    def test_refused_above_the_ceiling_before_allocating(self, monkeypatch):
        monkeypatch.setattr(zmod, "SIEVE_CEILING", 1000)
        assert len(zmod.smallest_prime_factors(1000)) == 1001
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="7-digit limit exceeds the sieve ceiling 1000$"):
                zmod.smallest_prime_factors(10**6)  # 4 MB if it were built
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def is_prime_by_trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


#: 10^29 + 319 passes Miller-Rabin on all 13 bases but lies above
#: MILLER_RABIN_BOUND, where passing proves nothing
PROBABLE_PRIME_30_DIGITS = 10**29 + 319


class TestIsPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        assert [zmod.is_prime(n) for n in range(10**5)] == [
            is_prime_by_trial_division(n) for n in range(10**5)
        ]

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,           # strong pseudoprime to the bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to the bases 2 to 23
        ],
    )
    def test_rejects_strong_pseudoprimes(self, n):
        assert not zmod.is_prime(n)

    def test_proves_primes_below_the_bound(self):
        assert zmod.is_prime(10**18 + 3) and zmod.is_prime(10**20 + 39)
        assert not zmod.is_prime((10**9 + 7) * (10**9 + 9))

    def test_composites_above_the_bound_are_proven_composite(self):
        assert not zmod.is_prime(PROBABLE_PRIME_30_DIGITS * (10**20 + 39))

    @pytest.mark.parametrize(
        # the bound itself is the least composite that passes all 13 bases
        "n", [zmod.MILLER_RABIN_BOUND, PROBABLE_PRIME_30_DIGITS]
    )
    def test_refuses_to_guess_from_the_bound_on(self, n):
        with pytest.raises(BudgetExceededError, match="Miller-Rabin"):
            zmod.is_prime(n)


class TestFactor:
    @given(st.integers(1, 10**12 - 1))
    @settings(deadline=None)
    def test_multiplies_back_to_proven_primes(self, m):
        factors = zmod.factor(m)
        assert math.prod(p**e for p, e in factors.items()) == m
        assert list(factors) == sorted(factors)
        assert all(is_prime_by_trial_division(p) for p in factors)

    @pytest.mark.parametrize(
        "m, expected",
        [
            (1, {}),
            (2**40, {2: 40}),
            (3**20 * 7, {3: 20, 7: 1}),
            (1299709 * 1000003, {1000003: 1, 1299709: 1}),
            ((10**9 + 7) * (10**9 + 9), {10**9 + 7: 1, 10**9 + 9: 1}),
            (101**2 * 13 * (10**20 + 39), {13: 1, 101: 2, 10**20 + 39: 1}),
        ],
    )
    def test_examples(self, m, expected):
        assert zmod.factor(m) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zmod.factor(0)

    def test_unprovable_cofactor_raises(self):
        with pytest.raises(BudgetExceededError, match="sieve ceiling"):
            zmod.factor(2 * PROBABLE_PRIME_30_DIGITS)

    def test_exhausted_rho_budget_raises(self, monkeypatch):
        monkeypatch.setattr(zmod, "RHO_STEP_BUDGET", 1000)
        with pytest.raises(BudgetExceededError, match="rho split no 19-digit cofactor"):
            zmod.factor((10**9 + 7) * (10**9 + 9))

    def test_exhausted_rho_budget_falls_back_to_trial_division(self, monkeypatch):
        # below SIEVE_CEILING^2 trial division to the square root still fits
        monkeypatch.setattr(zmod, "RHO_STEP_BUDGET", 10)
        assert zmod.factor(1000003 * 1000033) == {1000003: 1, 1000033: 1}
