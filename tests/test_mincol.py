import hashlib
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import turkshead
from turkshead import cli, mincol, psi, seq, thk, verify, zmod


class TestCountColorings:
    @pytest.mark.parametrize(
        "n, r, expected", [(2, 5, 25), (3, 2, 8), (5, 11, 1331), (1, 7, 7), (12, 16, 4096)]
    )
    def test_examples(self, n, r, expected):
        assert mincol.count_colorings(n, r) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mincol.count_colorings(0, 5)
        with pytest.raises(ValueError):
            mincol.count_colorings(3, 1)

    def test_huge_index_stays_cheap(self):
        # the gcd formula runs off residues, never the exact huge terms
        n = 5 * 17**6
        assert mincol.count_colorings(n, 143) == 121 * 143


class TestDeterminant:
    def test_parity_structure(self):
        for n in range(1, 60):
            um = seq.u(n - 1)
            expected = um * um if n % 2 else 5 * um * um
            assert mincol.determinant(n).value == expected

    def test_digit_count_from_n(self):
        for n in [*range(1, 3001), 10287, 10288]:
            value = mincol.determinant(n).value
            digits = mincol.determinant_digits(n)
            assert 10 ** (digits - 1) <= value < 10**digits


def common_primes(n, r):
    return mincol._common_primes(*mincol._reduced_system_params(n, r))


class TestHasNontrivial:
    def test_examples(self):
        assert common_primes(2, 5) == [5]          # even n with 5 | r
        assert not any(common_primes(1, r) for r in range(2, 40))
        assert common_primes(5, 7) == []           # gcd(11, 7) = 1

    def test_equivalent_to_count_excess(self):
        for n in range(1, 31):
            for r in range(2, 51):
                trivial_only = mincol.count_colorings(n, r) == r
                assert (common_primes(n, r) == []) == trivial_only, (n, r)
                assert (mincol.mincol_exact(n, r).kind == "only-trivial") == trivial_only, (n, r)


class TestClassification:
    @pytest.mark.parametrize(
        "n, r, least, constraint",
        [
            (3, 2, 2, ("exact", 2, 2)),
            (2, 5, 5, ("exact", 4, 4)),
            (8, 7, 7, ("exact", 4, 4)),
            (5, 11, 11, ("exact", 5, 5)),
        ],
    )
    def test_least_prime_fixes_the_constraint(self, n, r, least, constraint):
        assert common_primes(n, r)[0] == least
        verdict = mincol.mincol_exact(n, r)
        assert (verdict.kind, verdict.lower, verdict.upper) == constraint
        assert f"classification-lcpf-{least}" in verdict.provenance

    def test_each_rule_fires_exactly_when_its_prime_divides_the_determinant(self):
        # so a least common prime up to 11 always finds its rule applicable
        assert sorted(mincol._EXACT_RULES) == zmod.primes_up_to(11)
        dets = [mincol.determinant(n).value for n in range(1, 301)]
        for p, (n0, _, _) in mincol._EXACT_RULES.items():
            for n, det in enumerate(dets, start=1):
                assert (det % p == 0) == (n % n0 == 0), (p, n)

    def test_beyond_the_rules_the_construction_answers(self):
        seen = 0
        for n in range(1, 121):
            for r in range(2, 121):
                primes = common_primes(n, r)
                if not primes or primes[0] < 13:
                    continue
                provenance = mincol.mincol_exact(n, r).provenance
                routes = [s for s in provenance if s.startswith("upper-route-construction(")]
                assert len(routes) == 1, (n, r, provenance)
                seen += 1
        assert seen > 0

    def test_least_prime_values(self):
        cases = [(3, 2), (4, 3), (85, 143), (5, 7)]
        assert [common_primes(n, r)[:1] for n, r in cases] == [[2], [3], [11], []]


class TestCommonPrimes:
    def test_equal_to_the_primes_of_r_dividing_the_determinant(self):
        primes_of = {r: [p for p in zmod.primes_up_to(r) if r % p == 0] for r in range(2, 301)}
        for n in range(1, 41):
            det = mincol.determinant(n).value
            for r, primes in primes_of.items():
                expected = [p for p in primes if det % p == 0]
                assert common_primes(n, r) == expected, (n, r)

    def test_gcd_of_two_large_primes_gets_a_verdict(self):
        # both primes divide u_122, so the gcd is r itself, about 2.7e18:
        # trial division would sieve to ~1.6e9, past the sieve ceiling
        r = 370248451 * 7188487771
        assert common_primes(123, r) == [370248451, 7188487771]
        verdict = mincol.mincol_exact(123, r)
        assert (verdict.kind, verdict.lower, verdict.upper) == ("bounds", 5, 41)

    def test_large_modulus_factors_only_the_gcd(self, monkeypatch):
        # r has a prime factor near 10^20, so factoring r itself would sieve
        # to ~10^10; gcd(u_{n-1}, r) is 13 and 2 here
        sieve = zmod.primes_up_to

        def small_sieve(limit):
            if limit > 10**4:
                raise AssertionError(f"sieved to {limit}")
            return sieve(limit)

        monkeypatch.setattr(zmod, "primes_up_to", small_sieve)
        verdict = mincol.mincol_exact(14, 13 * (10**20 + 39))
        assert (verdict.kind, verdict.lower, verdict.upper) == ("bounds", 5, 9)
        verdict = mincol.mincol_exact(3, 2 * (10**20 + 39))
        assert (verdict.kind, verdict.lower) == ("exact", 2)


class TestOddConstruction:
    def test_p11_matches_pinned_example(self):
        col = mincol.construct(11)
        assert col.n == 5
        assert col.input_triple == (1, 7, 0)
        assert col.palette == (0, 1, 2, 4, 7)

    def test_p29_within_bound(self):
        col = mincol.construct(29)
        assert col.n == 7 and len(col.palette) <= 7

    def test_p19_valid(self):
        col = mincol.construct(19)
        assert col.n == 9 and col.validate() and len(col.palette) <= 9

    def test_rotation_property(self):
        for p in (11, 19, 29, 31):
            col = mincol.construct(p)
            assert col.n % 2 == 1
            levels = verify.propagate(col.input_triple, col.r, col.n)[:-1]
            assert verify.is_circular_shift([x for x, _, _ in levels], [z for _, _, z in levels])

    def test_large_psi_builds_in_linear_time(self):
        # psi(200351) = 100175, so a shift check that tries every rotation,
        # quadratic in psi, would take ~13 s
        start = time.perf_counter()
        col = mincol.construct(200351)
        assert col.n == 100175
        assert time.perf_counter() - start < 2

    def test_large_psi_builds_in_bounded_memory(self):
        # two columns of ints per level, not a tuple of three: 13.6 MiB,
        # where a tuple per level took 33.0 MiB
        mincol.construct(13)  # the lazy imports of the first call are not counted
        tracemalloc.start()
        try:
            col = mincol.construct(200351)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, peak
        assert col.n == 100175

    def test_guards(self):
        for p in (1, 4, 9):  # not prime
            with pytest.raises(ValueError, match=f"^need a prime greater than 5, got {p}$"):
                mincol.construct(p)


def kernel_input(p, q):
    """The odd construction's input (1, s, 0), from the 2x2 kernel system
    that _odd_psi_coloring's closed form replaces, solved row by row: the
    reference the formula is checked against.
    """
    m00 = (seq.u_mod(q, p) + 1) % p
    m01 = (-seq.u_mod(q - 2, p) - 1) % p
    m10 = (seq.u_mod(q - 2, p) + 1) % p
    m11 = (-seq.u_mod(q - 4, p) - 2) % p
    assert (m00 * m11 - m01 * m10) % p == 0
    if (m00, m01) != (0, 0):
        w, other = (m01, (-m00) % p), (m10, m11)
    else:
        w, other = (m11, (-m10) % p), (m00, m01)
    assert w != (0, 0) and (other[0] * w[0] + other[1] * w[1]) % p == 0
    assert (w[0] - w[1]) % p != 0
    return (1, zmod.mod_inverse(w[0] - w[1], p) * w[1] % p, 0)


def test_odd_formula_matches_the_kernel_solve_below_5000():
    checked = 0
    for p in zmod.primes_up_to(5000):
        q = psi.psi_of_prime(p)
        if p <= 5 or q % 2 == 0:
            continue
        assert mincol.construct(p).input_triple == kernel_input(p, q), p
        checked += 1
    assert checked > 200


class TestEvenConstruction:
    def test_p7_matches_pinned_trace(self):
        col = mincol.construct(7)
        assert col.n == 8 and col.validate()
        assert tuple(verify.propagate(col.input_triple, col.r, col.n)) == (
            (0, 1, 0), (0, 0, 6), (1, 0, 5), (4, 1, 3), (5, 4, 5),
            (5, 5, 6), (4, 5, 0), (1, 4, 2), (0, 1, 0),
        )
        assert len(col.palette) == 7

    def test_p13_within_bound(self):
        col = mincol.construct(13)
        assert col.n == 14 and len(col.palette) <= 9

    def test_guards(self, monkeypatch):
        monkeypatch.setattr(mincol, "psi_of_prime", lambda p: pytest.fail(f"psi({p}) computed"))
        for p in (2, 3, 5):  # prime, but too small: refused before any work
            with pytest.raises(ValueError, match=f"^need a prime greater than 5, got {p}$"):
                mincol.construct(p)


class TestConstructionWork:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"psi_of_prime": 0, "is_prime": 0}
        psi_of_prime, is_prime = mincol.psi_of_prime, zmod.is_prime

        def counted_psi(*args):
            counts["psi_of_prime"] += 1
            return psi_of_prime(*args)

        def counted_is_prime(p):
            counts["is_prime"] += 1
            return is_prime(p)

        monkeypatch.setattr(mincol, "psi_of_prime", counted_psi)
        monkeypatch.setattr(zmod, "is_prime", counted_is_prime)
        return counts

    @pytest.mark.parametrize("p", [29, 13])  # odd psi(29) = 7, even psi(13) = 14
    def test_construct_computes_psi_and_primality_once(self, counts, p):
        mincol.construct(p)
        assert counts == {"psi_of_prime": 1, "is_prime": 1}

    def test_construction_route_reuses_the_psi_it_ranked_by(self, counts):
        # zmod.factor proved 29 prime, so the route makes no primality test
        verdict = mincol.mincol_exact(7, 29)
        assert "upper-from-construction(p=29,estimate-bound=14)" in verdict.provenance
        assert counts == {"psi_of_prime": 1, "is_prime": 0}


class TestEstimate:
    @pytest.mark.parametrize("p, expected", [(29, 14), (13, 9), (43, 43), (37, 33), (19, 9)])
    def test_examples(self, p, expected):
        # the construction route names the estimate for its prime
        verdict = mincol.mincol_exact(psi.psi(p).psi, p)
        tag = f"upper-route-construction(p={p},estimate-bound={expected})("
        assert any(step.startswith(tag) for step in verdict.provenance)

    def test_dominates_construction(self):
        for p in zmod.primes_up_to(200):
            if p <= 11:
                continue
            col = mincol.construct(p)
            assert mincol._estimate_bound(p, col.n) >= len(col.palette)

    def test_odd_bound_is_eulers_criterion_and_at_least_psi(self):
        # the proof in _estimate_bound's docstring, checked prime by prime
        checked = 0
        for p in zmod.primes_up_to(20000):
            q = psi.psi_of_prime(p)
            if p < 11 or q % 2 == 0:
                continue
            euler = (p + 1) // 2 if pow(5, (p - 1) // 2, p) == p - 1 else (p - 1) // 2
            assert q <= mincol._estimate_bound(p, q) == euler
            checked += 1
        assert checked > 700


class TestVerdicts:
    def test_exact_cases(self):
        for n, r, expected in [(3, 2, 2), (4, 3, 3), (2, 5, 4), (8, 7, 4), (5, 11, 5)]:
            verdict = mincol.mincol_exact(n, r)
            assert verdict.kind == "exact"
            assert verdict.lower == verdict.upper == expected

    def test_witness_of_5_11_is_the_construction(self):
        verdict = mincol.mincol_exact(5, 11)
        assert verdict.witness.input_triple == (1, 7, 0)
        assert verdict.witness.palette == (0, 1, 2, 4, 7)

    def test_85_143_via_transport(self):
        verdict = mincol.mincol_exact(85, 143)
        assert verdict.kind == "exact" and verdict.lower == 5
        witness = verdict.witness
        assert witness.n == 85 and witness.r == 143
        assert witness.validate() and len(witness.palette) == 5
        assert any("stack" in step for step in verdict.provenance)
        assert any("lift" in step for step in verdict.provenance)

    def test_stacked_lifted_exact_two(self):
        verdict = mincol.mincol_exact(6, 10)
        assert verdict.kind == "exact" and verdict.lower == 2
        assert verdict.witness.palette == (0, 5)

    def test_8_7_witness_floor(self):
        verdict = mincol.mincol_exact(8, 7)
        assert verdict.kind == "exact" and verdict.lower == 4
        # the standard diagram cannot realize 4 colors mod 7; the verdict
        # still carries the best standard witness, which needs 7
        assert len(verdict.witness.palette) == 7

    def test_only_trivial(self):
        verdict = mincol.mincol_exact(5, 7)
        assert verdict.kind == "only-trivial"
        assert verdict.witness is None

    def test_bounds_7_29(self, monkeypatch):
        calls = []
        build_odd = mincol._odd_psi_coloring
        monkeypatch.setattr(
            mincol, "_odd_psi_coloring", lambda p, q: calls.append((p, q)) or build_odd(p, q)
        )
        verdict = mincol.mincol_exact(7, 29)
        assert verdict.kind == "bounds"
        assert (verdict.lower, verdict.upper) == (5, 7)
        assert verdict.witness.input_triple == (1, 5, 0)
        assert any("construction" in step for step in verdict.provenance)
        assert calls == [(29, 7)]  # the witness is built once, from psi(29) = 7

    def test_bounds_of_10_11_close_to_exact(self):
        verdict = mincol.mincol_exact(10, 11)
        assert verdict.kind == "exact" and verdict.lower == 5
        assert len(verdict.witness.palette) == 5

    def test_verdict_json_schema(self):
        out = []
        cli.write_json(mincol.mincol_exact(5, 11), out.append)
        data = json.loads("".join(out))
        assert list(data) == ["n", "r", "kind", "lower", "upper", "provenance", "witness"]
        assert data["witness"]["input"] == [1, 7, 0]

    def test_exact_witnesses_validate(self):
        for n, r in [(3, 2), (4, 3), (2, 5), (8, 7), (5, 11), (85, 143), (6, 10), (16, 21)]:
            verdict = mincol.mincol_exact(n, r)
            witness = verdict.witness
            assert witness is not None and witness.validate() and len(witness.palette) > 1
            power = verify.c_power_iterated(witness.n, witness.r)
            assert verify.is_fixed_point(power, witness.r, witness.input_triple)

    def test_witness_palettes_are_the_propagated_ones(self):
        # lifted and stacked witnesses included: _transport scales the palette
        for n in range(1, 31):
            for r in range(2, 31):
                witness = mincol.mincol_exact(n, r).witness
                if witness is not None:
                    recount = verify.arc_colors(witness.input_triple, witness.r, witness.n)
                    assert witness.palette == tuple(recount), (n, r)

    def test_long_braid_verdict_in_bounded_memory(self):
        # the witness keeps one period however long the braid, so memory
        # does not grow with n; VmHWM is this process's own peak, while
        # ru_maxrss can carry over the peak of the process that started it
        src = str(Path(turkshead.__file__).resolve().parents[1])
        for n, value, limit_mb in ((90000, 2, 100), (100_000_000, 4, 40)):
            code = (
                "import resource\n"
                "from turkshead.mincol import mincol_exact\n"
                f"verdict = mincol_exact({n}, 14)\n"
                f"assert (verdict.kind, verdict.lower) == ('exact', {value})\n"
                "try:\n"
                "    status = open('/proc/self/status').read()\n"
                "    print(int(status.split('VmHWM:')[1].split()[0]) // 1024)\n"
                "except OSError:\n"
                "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)\n"
            )
            done = subprocess.run(
                [sys.executable, "-c", code],
                env={"PYTHONPATH": src},
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            assert int(done.stdout) < limit_mb, n


class TestTransport:
    def test_lift_two_coloring_to_four(self):
        col = thk.Coloring.from_input(3, 2, (0, 0, 1))
        lifted, steps = mincol._transport(col, 3, 4)
        assert steps == ["lift(2->4)"]
        assert lifted.r == 4 and lifted.palette == (0, 2)
        assert verify.is_fixed_point(verify.c_power_iterated(3, 4), 4, lifted.input_triple)

    def test_lift_trivial_stays_trivial(self):
        col = thk.Coloring.from_input(2, 5, (3, 3, 3))
        assert len(mincol._transport(col, 2, 10)[0].palette) == 1

    def test_lift_preserves_palette_size(self):
        col = thk.Coloring.from_input(2, 5, (3, 1, 0))
        assert len(col.palette) == 4
        lifted = mincol._transport(col, 2, 10)[0]
        assert len(lifted.palette) == 4

    def test_lift_rejects_non_divisor(self):
        col = thk.Coloring.from_input(3, 2, (0, 0, 1))
        with pytest.raises(AssertionError):
            mincol._transport(col, 3, 7)

    def test_stack_identity(self):
        col = thk.Coloring.from_input(5, 11, (1, 7, 0))
        assert mincol._transport(col, 5, 11) == (col, [])

    def test_stack_doubles_five_color_coloring(self):
        col = thk.Coloring.from_input(5, 11, (1, 7, 0))
        stacked, steps = mincol._transport(col, 10, 11)
        assert steps == ["stack(k=2)"]
        assert stacked.n == 10 and stacked.validate()
        assert len(stacked.palette) == 5
        levels = verify.propagate((1, 7, 0), 11, 4)
        assert stacked.left == tuple(x for x, _, _ in levels)
        assert stacked.right == tuple(z for _, _, z in levels)

    def test_equality_follows_the_levels(self):
        # from_input keeps the least period and stacking or lifting keeps it,
        # so a carried coloring equals the one propagated in place
        for base, n, r, t in [((5, 11, (1, 7, 0)), 10, 11, (1, 7, 0)), ((3, 2, (0, 0, 1)), 9, 6, (0, 0, 3))]:
            carried = mincol._transport(thk.Coloring.from_input(*base), n, r)[0]
            direct = thk.Coloring.from_input(n, r, t)
            assert carried == direct and hash(carried) == hash(direct)

    def test_stack_only_shares_the_period_and_revalidates(self, monkeypatch):
        col = thk.Coloring.from_input(5, 11, (1, 7, 0))
        checked = []
        validate = thk.Coloring.validate
        monkeypatch.setattr(
            thk.Coloring, "validate", lambda self: checked.append(self) or validate(self)
        )
        stacked, steps = mincol._transport(col, 15, 11)
        assert steps == ["stack(k=3)"] and stacked.n == 15
        assert stacked.left is col.left and stacked.right is col.right
        assert stacked.palette is col.palette
        assert checked == [stacked]
        corrupt = col._replace(right=(0, 4, 7, 1, 3))
        with pytest.raises(AssertionError, match="failed revalidation"):
            mincol._transport(corrupt, 15, 11)

    def test_stack_two_coloring(self):
        col = thk.Coloring.from_input(3, 2, (0, 0, 1))
        stacked = mincol._transport(col, 9, 6)[0]
        assert stacked.n == 9 and len(stacked.palette) == 2
        assert stacked == thk.Coloring.from_input(3, 6, (0, 0, 3))._replace(n=9)

    @pytest.mark.parametrize("n", [0, 7])
    def test_stack_rejects_zero_or_non_divisor(self, n):
        col = thk.Coloring.from_input(3, 2, (0, 0, 1))
        with pytest.raises(AssertionError):
            mincol._transport(col, n, 2)


def test_verdict_grid_digest():
    # Byte-identity guard on the verdicts of 1 <= n <= 60, 2 <= r <= 60, as
    # their JSON lines in n-then-r order.  A change that declares an output
    # change (a new lower end, say) updates this digest and says so in
    # CHANGES.md; any other change must leave it alone.
    digest = hashlib.sha256()
    for n in range(1, 61):
        for r in range(2, 61):
            out = []
            cli.write_json(mincol.mincol_exact(n, r), out.append)
            digest.update("".join(out).encode())
    assert digest.hexdigest() == (
        "be78e24967e1756cb7b58475433c7a8d3b4cf9b6afebc60a2e333090f968ba15"
    )


def test_construct_output_digest(capsys):
    # Byte-identity guard on both writers of a coloring: `-f json construct p`
    # and plain `construct p` for every prime 7 <= p < 1000, in that order.
    digest = hashlib.sha256()
    for p in zmod.primes_up_to(999):
        if p < 7:
            continue
        for argv in (["-f", "json", "construct", str(p)], ["construct", str(p)]):
            assert cli.main(argv) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "67a6b58de2d2d87277f09f3a0e2c166bca9c88f95e44fb8c635f3aef3eebab9c"
    )
