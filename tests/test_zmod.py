import math

import pytest
from hypothesis import given, strategies as st

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


class TestLegendre5:
    @pytest.mark.parametrize("p, expected", [(11, 1), (29, 1), (37, -1), (3, -1)])
    def test_examples(self, p, expected):
        assert zmod.legendre5(p) == expected

    def test_squares_to_one_for_all_odd_primes_to_1e4(self):
        for p in zmod.primes_up_to(10**4):
            if p in (2, 5):
                continue
            assert zmod.legendre5(p) ** 2 == 1

    @pytest.mark.parametrize("bad", [5, 2, 9, 1])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            zmod.legendre5(bad)


class TestPrimesAndFactors:
    def test_primes_up_to_11(self):
        assert zmod.primes_up_to(11) == [2, 3, 5, 7, 11]

    def test_small_limits_empty(self):
        assert zmod.primes_up_to(1) == []
        assert zmod.primes_up_to(-3) == []

    def test_sieve_ceiling(self):
        with pytest.raises(BudgetExceededError, match="9-digit limit"):
            zmod.primes_up_to(zmod.SIEVE_CEILING + 1)
        with pytest.raises(BudgetExceededError):
            zmod.least_prime_factors((zmod.SIEVE_CEILING + 1) ** 2)

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
        assert zmod.least_prime_factors(m) == expected

    def test_factor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zmod.least_prime_factors(0)

    @given(st.integers(1, 5000))
    def test_factorization_reassembles(self, m):
        product = 1
        for p, e in zmod.least_prime_factors(m).items():
            assert zmod.is_prime(p)
            product *= p**e
        assert product == m

    @given(st.integers(1, 5000))
    def test_shared_trial_divisors_give_the_same_factors(self, m):
        shared = zmod.primes_up_to(70)  # covers isqrt(5000)
        assert zmod.least_prime_factors(m, shared) == zmod.least_prime_factors(m)
