"""Self-tests of the benchmark's checkers: each must reject a corrupted answer.

    python3 -m pytest -q bench/test_oracle.py

The answers here are built by the benchmark's own arithmetic, not taken from
the program, so the tests run without `src/` on the path.
"""

from __future__ import annotations

import copy

import pytest

import oracle
import workloads


def coloring(n: int, r: int, t) -> dict:
    trace = [tuple(t)]
    for _ in range(n):
        trace.append(oracle.step(trace[-1], r))
    palette = sorted({x[0] for x in trace[:n]} | {x[2] for x in trace[:n]})
    return {"n": n, "r": r, "input": list(t), "trace": [list(x) for x in trace], "colors_used": palette}


@pytest.fixture(scope="module")
def checker():
    return oracle.Checker()


def test_u_mod_agrees_with_exact_recurrence():
    exact = oracle.u_exact_terms(200)
    assert exact[:6] == [1, 1, 4, 3, 11, 8]
    for r in (2, 3, 5, 7, 10, 97, 1000, 10**9 + 7):
        assert [oracle.u_mod(m, r) for m in range(200)] == [x % r for x in exact]


def test_psi_zero_indices_are_the_multiples_of_psi():
    for r in range(2, 301):
        w3, w2, w1, w0 = 1 % r, 0, (-1) % r, (-1) % r  # u_0, u_-1, u_-2, u_-3
        zeros = []
        for q in range(1, 4000):  # q - 1 = index of w3
            if w3 == 0:
                zeros.append(q)
            w3, w2, w1, w0 = (3 * w2 - w0) % r, w3, w2, w1
        assert zeros and zeros == list(range(zeros[0], 4000, zeros[0])), r
        assert oracle.psi_holds(r, zeros[0])


def test_published_table_holds_except_the_erratum():
    for r, q in oracle.PSI_PUBLISHED.items():
        assert oracle.psi_holds(r, q) == (r not in oracle.PSI_ERRATA), r
    assert oracle.psi_holds(162, 108) and oracle.u_exact(27) == 317811


def test_psi_checker_rejects_off_by_one(checker):
    assert checker.psi(185, {"r": 185, "psi": 190, "steps_scanned": 190}) == []
    assert checker.psi(162, {"r": 162, "psi": 108, "steps_scanned": 108}) == []
    for r, q in ((185, 190), (1000003, 1000004), (7919, 3959)):
        assert checker.psi(r, {"r": r, "psi": q, "steps_scanned": q}) == []
        assert checker.psi(r, {"r": r, "psi": q + 1, "steps_scanned": q}) != []
        assert checker.psi(r, {"r": r, "psi": q - 1, "steps_scanned": q}) != []
    table = {str(r): oracle.PSI_ERRATA.get(r, q) for r, q in oracle.PSI_PUBLISHED.items()}
    assert checker.psi_table(185, {"max": 185, "psi": table}) == []
    table["100"] += 1
    assert checker.psi_table(185, {"max": 185, "psi": table}) != []


def test_stats_checker_reads_3969_as_odd_primes(checker):
    prefix = checker.full_period_prefix(10000)
    assert prefix[10000] == 3970 and oracle.full_period(2) and prefix[1000] == 403
    assert checker.stats(10000, {"count": 10000, "matched": 3970, "ratio": 0.397}) == []
    # 3,970 read as the odd-prime count, i.e. an all-prime count of 3,971
    assert checker.stats(10000, {"count": 10000, "matched": 3971, "ratio": 0.3971}) != []
    assert checker.stats(10000, {"count": 10000, "matched": 3969, "ratio": 0.3969}) != []
    assert checker.stats(1000, {"count": 1000, "matched": 403, "ratio": 0.403}) == []
    assert checker.stats(1000, {"count": 1000, "matched": 403, "ratio": 0.43}) != []


def test_count_checker_rejects_a_factor_of_r(checker):
    for n, r in ((5, 11), (4, 5), (6, 2), (3, 4), (12, 7), (9, 19)):
        count = oracle.count_formula(n, r)
        if r**3 * n <= 10**4:
            assert count == oracle.count_brute_force(n, r)
        assert checker.count(n, r, {"n": n, "r": r, "count": count}) == []
        assert checker.count(n, r, {"n": n, "r": r, "count": count * r}) != []
        assert checker.count(n, r, {"n": n, "r": r, "count": count // r}) != []


def test_det_checker(checker):
    assert checker.det(4, {"n": 4, "determinant": 45}) == []
    assert checker.det(5, {"n": 5, "determinant": 121}) == []
    assert checker.det(5, {"n": 5, "determinant": 605}) != []


def test_witness_with_one_color_changed_is_rejected(checker):
    good = coloring(5, 11, (1, 7, 0))
    verdict = {"n": 5, "r": 11, "kind": "exact", "lower": 5, "upper": 5, "provenance": [], "witness": good}
    assert checker.mincol(5, 11, verdict) == []
    for level in (0, 2, 5):
        bad = copy.deepcopy(verdict)
        bad["witness"]["trace"][level][2] = (bad["witness"]["trace"][level][2] + 1) % 11
        assert checker.mincol(5, 11, bad) != []
    good = coloring(14, 13, (0, 1, 0))  # psi(13) = 14, within the estimate 14 - 5
    assert len(good["colors_used"]) == 9 and checker.construct(13, good) == []
    bad = copy.deepcopy(good)
    bad["trace"][3][0] = (bad["trace"][3][0] + 1) % 13
    assert checker.construct(13, bad) != []


def test_exact_verdict_with_unequal_bounds_is_rejected(checker):
    verdict = {"n": 3, "r": 2, "kind": "exact", "lower": 2, "upper": 2, "provenance": [],
               "witness": coloring(3, 2, (0, 0, 1))}
    assert checker.mincol(3, 2, verdict) == []
    assert checker.mincol(3, 2, dict(verdict, upper=3)) != []
    assert checker.mincol(3, 2, dict(verdict, kind="bounds", upper=3)) != []  # palette is 2
    seven = {"n": 8, "r": 7, "kind": "exact", "lower": 4, "upper": 4, "provenance": [],
             "witness": coloring(8, 7, (0, 0, 1))}
    assert len(seven["witness"]["colors_used"]) == 7 and checker.mincol(8, 7, seven) == []
    assert checker.mincol(8, 7, dict(seven, lower=7, upper=7)) != []  # published value is 4


def test_only_trivial_matches_the_count_formula(checker):
    trivial = {"n": 15, "r": 61, "kind": "only-trivial", "lower": None, "upper": None,
               "provenance": [], "witness": None}
    assert oracle.count_formula(15, 61) == 61 and checker.mincol(15, 61, trivial) == []
    assert checker.mincol(5, 11, dict(trivial, n=5, r=11)) != []


def test_rounds_are_seeded_and_keep_their_make_up():
    assert next(workloads.rounds("query-mix", 7)) == next(workloads.rounds("query-mix", 7))
    assert next(workloads.rounds("query-mix", 7)) != next(workloads.rounds("query-mix", 8))
    for workload, size in (("prime-sweep", 32), ("psi-table", 16), ("query-mix", 100)):
        stream = workloads.rounds(workload, 3)
        kinds = [sorted(cmd[0] for cmd in next(stream)) for _ in range(3)]
        assert len(kinds[0]) == size and kinds[0] == kinds[1] == kinds[2]
