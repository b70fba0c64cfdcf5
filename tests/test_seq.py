import pytest
from hypothesis import given, strategies as st

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

    def test_v_rejects_below_seeds(self):
        with pytest.raises(ValueError):
            seq.v(-4)


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


class TestBinet:
    @pytest.mark.parametrize("n, expected, tol", [(0, 1.0, 1e-9), (2, 4.0, 1e-9), (9, 55.0, 1e-7)])
    def test_examples(self, n, expected, tol):
        assert seq.binet_u(n) == pytest.approx(expected, abs=tol)

    def test_negative_indices(self):
        for n in range(-20, 0):
            assert seq.binet_u(n) == pytest.approx(seq.u(n), abs=1e-7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            seq.binet_u(61)
