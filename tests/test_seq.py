import pytest
from hypothesis import given, settings, strategies as st

from turkshead import seq


class TestExactValues:
    def test_u_seeds(self):
        assert [seq.u(n) for n in (-3, -2, -1, 0)] == [-1, -1, 0, 1]

    def test_v_seeds(self):
        assert [seq.v(n) for n in (-3, -2, -1, 0)] == [7, 2, 3, 1]

    def test_u_first_values(self):
        assert [seq.u(n) for n in range(1, 10)] == [1, 4, 3, 11, 8, 29, 21, 76, 55]

    def test_v_first_values(self):
        assert [seq.v(n) for n in range(1, 6)] == [2, 1, 3, 2, 7]

    def test_recurrence_holds(self):
        # the doubling core against the four-term recurrence run from the seeds
        for seeds, term in (([-1, -1, 0, 1], seq.u), ([7, 2, 3, 1], seq.v)):
            values = list(seeds)
            while len(values) < 3004:
                values.append(3 * values[-2] - values[-4])
            assert [term(n) for n in range(-3, 3001)] == values

    @given(st.integers(-300, 300))
    def test_reflection(self, n):
        assert seq.u(n) == -seq.u(-n - 2)

    def test_v_rejects_below_seeds(self):
        with pytest.raises(ValueError):
            seq.v(-4)

    def test_monotone_growth(self):
        for n in range(3, 201):
            assert seq.u(n) > 0
            assert seq.u(n) > seq.u(n - 2)


class TestModular:
    @given(st.integers(-150, 400), st.integers(2, 10**6))
    def test_u_mod_matches_exact(self, n, r):
        assert seq.u_mod(n, r) == seq.u(n) % r

    @given(st.integers(-3, 400), st.integers(2, 10**6))
    def test_v_mod_matches_exact(self, n, r):
        assert seq.v_mod(n, r) == seq.v(n) % r

    @given(st.integers(-150, 400), st.integers(2**64 + 1, 2**96))
    def test_u_mod_matches_exact_above_64_bits(self, n, r):
        assert seq.u_mod(n, r) == seq.u(n) % r

    @given(st.integers(-3, 400), st.integers(2**64 + 1, 2**96))
    def test_v_mod_matches_exact_above_64_bits(self, n, r):
        assert seq.v_mod(n, r) == seq.v(n) % r

    def test_stream_mod_2(self):
        stream = seq.u_mod_stream(2)
        assert [next(stream) for _ in range(6)] == [1, 1, 0, 1, 1, 0]

    def test_stream_first_zero_mod_5_at_index_9(self):
        stream = seq.u_mod_stream(5)
        values = [next(stream) for _ in range(10)]
        assert values.index(0) == 9

    def test_stream_mod_11_hits_u4(self):
        stream = seq.u_mod_stream(11)
        values = [next(stream) for _ in range(5)]
        assert values[4] == 0 and 0 not in values[:4]

    def test_stream_agrees_with_exact(self):
        for r in (2, 3, 7, 50):
            stream = seq.u_mod_stream(r)
            for n in range(200):
                assert next(stream) == seq.u(n) % r


class TestBinet:
    @pytest.mark.parametrize("n, expected, tol", [(0, 1.0, 1e-9), (2, 4.0, 1e-9), (9, 55.0, 1e-7)])
    def test_examples(self, n, expected, tol):
        assert seq.binet_u(n) == pytest.approx(expected, abs=tol)

    def test_agrees_with_exact_across_range(self):
        for n in range(0, 61):
            tol = 1e-9 if n <= 40 else 1e-7
            assert abs(seq.binet_u(n) - seq.u(n)) <= tol * max(1, abs(seq.u(n)))

    def test_negative_indices(self):
        for n in range(-20, 0):
            assert seq.binet_u(n) == pytest.approx(seq.u(n), abs=1e-7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            seq.binet_u(61)


class TestIdentities:
    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_sum_identity_examples(self, n):
        assert seq.check_sum_identity(n)

    def test_sum_identity_range(self):
        assert all(seq.check_sum_identity(n) for n in range(-15, 31))

    def test_division_by_five_is_exact(self):
        for n in range(0, 31):
            assert (seq.u(2 * n + 2) + seq.u(2 * n)) % 5 == 0

    @pytest.mark.parametrize("m, n", [(2, 3), (2, 1), (0, 0)])
    def test_product_identity_examples(self, m, n):
        assert seq.check_product_identity(m, n) is True

    def test_product_identity_guard(self):
        # m odd with n even falls outside both cases
        assert seq.check_product_identity(1, 2) is None

    @settings(max_examples=200)
    @given(st.integers(-30, 30), st.integers(-30, 30))
    def test_product_identity_range(self, m, n):
        assert seq.check_product_identity(m, n) is not False

    def test_uv_factorization(self):
        assert all(seq.check_uv_factorization(n) for n in range(0, 61))

    def test_uv_factorization_examples(self):
        # a_3 = 9 = u_3 v_3, b_2 = 1 = u_0 u_1, a_0 = 1 = u_0 v_0
        assert seq.u(3) * seq.v(3) == 9
        assert seq.u(0) * seq.u(1) == 1
        assert seq.u(0) * seq.v(0) == 1

    def test_uv_factorization_rejects_negative(self):
        with pytest.raises(ValueError):
            seq.check_uv_factorization(-1)
