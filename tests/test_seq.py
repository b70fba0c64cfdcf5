from itertools import islice

import pytest
from hypothesis import given, strategies as st

from turkshead import seq


def stream_period(r):
    """Least period of u mod r: four consecutive residues fix the rest."""
    stream = seq.u_mod_stream(r)
    window = [next(stream) for _ in range(4)]
    start, n = list(window), 0
    while True:
        window = window[1:] + [next(stream)]
        n += 1
        if window == start:
            return n


def recurrence(seeds, count):
    """s_{-3} .. s_{count-4} by s_n = 3 s_{n-2} - s_{n-4} from s_{-3} .. s_0."""
    values = list(seeds)
    while len(values) < count:
        values.append(3 * values[-2] - values[-4])
    return values


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
        # the ladder against the four-term recurrence run from the seeds
        for seeds, term in (([-1, -1, 0, 1], seq.u), ([7, 2, 3, 1], seq.v)):
            assert [term(n) for n in range(-3, 3001)] == recurrence(seeds, 3004)

    def test_u_below_the_seeds(self):
        # the recurrence run backwards, s_{n-4} = 3 s_{n-2} - s_n, and the
        # reflection u_n = -u_{-n-2}
        values = [1, 0, -1, -1]  # u_0, u_{-1}, u_{-2}, u_{-3}
        while len(values) < 601:
            values.append(3 * values[-2] - values[-4])
        assert [seq.u(-n) for n in range(601)] == values
        assert all(seq.u(n) == -seq.u(-n - 2) for n in range(-600, 0))

    def test_v_rejects_below_seeds(self):
        with pytest.raises(ValueError):
            seq.v(-4)


class TestModular:
    @given(st.integers(-150, 400), st.integers(2, 10**6))
    def test_u_mod_matches_exact(self, n, r):
        assert seq.u_mod(n, r) == seq.u(n) % r

    @given(st.integers(-150, 400), st.integers(2**64 + 1, 2**96))
    def test_u_mod_matches_exact_above_64_bits(self, n, r):
        assert seq.u_mod(n, r) == seq.u(n) % r

    @pytest.mark.parametrize("r", range(2, 201))
    def test_ladder_matches_the_stream_over_two_periods(self, r):
        # every r <= 200: 2^k, 5^k, 10 and 50 among them
        residues = list(islice(seq.u_mod_stream(r), 2 * stream_period(r)))
        assert [seq.u_mod(n, r) for n in range(len(residues))] == residues
        zeros = [residue == 0 for residue in residues]
        assert [seq.rank_test(q, r) for q in range(1, len(residues) + 1)] == zeros
        assert seq.rank_test(0, r)  # u_{-1} = 0
        assert [seq.rank_tests_halving(q, r) for q in range(2, len(residues) + 1, 2)] == [
            (zeros[q // 2 - 1], zeros[q - 1]) for q in range(2, len(residues) + 1, 2)
        ]

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

