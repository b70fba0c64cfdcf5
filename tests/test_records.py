"""The result records: repr, immutability, equality and hash, constructors."""

import pytest

from turkshead import mincol, psi, thk, verify
from turkshead.config import RunConfig

_WITNESS_5_11 = (
    "Coloring(n=5, r=11, trace=((1, 7, 0), (2, 1, 4), (0, 2, 7), (4, 0, 1), (7, 4, 2), (1, 7, 0)))"
)

RECORDS = [
    pytest.param(
        lambda: RunConfig(),
        "RunConfig(brute_force_budget=1000000, psi_scan_cap=10000000, output_format='plain')",
        id="RunConfig",
    ),
    pytest.param(lambda: psi.psi(7), "PsiValue(r=7, psi=8, steps_scanned=8)", id="PsiValue"),
    pytest.param(
        lambda: psi.prime_psi_stats(5),
        "PrimeStats(prime_count=5, matched=3, ratio=Fraction(3, 5))",
        id="PrimeStats",
    ),
    pytest.param(
        lambda: thk.transfer_matrix(2, 7),
        "TransferMatrix(n=2, r=7, entries=((4, 1, 3), (2, 0, 6), (6, 5, 4)))",
        id="TransferMatrix",
    ),
    pytest.param(lambda: thk.Coloring.from_input(5, 11, (1, 7, 0)), _WITNESS_5_11, id="Coloring"),
    pytest.param(lambda: mincol.determinant(4), "Determinant(n=4, value=45)", id="Determinant"),
    pytest.param(
        lambda: mincol.mincol_exact(5, 7),
        "MincolVerdict(n=5, r=7, kind='only-trivial', lower=None, upper=None, "
        "witness=None, provenance=('no-nontrivial-colorings',))",
        id="MincolVerdict-only-trivial",
    ),
    pytest.param(
        lambda: mincol.mincol_exact(5, 11),
        f"MincolVerdict(n=5, r=11, kind='exact', lower=5, upper=5, witness={_WITNESS_5_11}, "
        "provenance=('exact-rule(11|r,5|n)', 'classification-lcpf-11', 'witness-base(5,11)'))",
        id="MincolVerdict-exact",
    ),
    pytest.param(
        lambda: verify.CheckResult("s", "c", True, "ok"),
        "CheckResult(suite='s', name='c', passed=True, detail='ok')",
        id="CheckResult",
    ),
]


@pytest.mark.parametrize("make, text", RECORDS)
class TestRecords:
    def test_repr(self, make, text):
        assert repr(make()) == text

    def test_fields_are_read_only(self, make, text):
        record = make()
        for field in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0

    def test_equal_records_hash_equally(self, make, text):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)


def test_coloring_from_input_is_a_coloring():
    col = thk.Coloring.from_input(5, 11, (1, 7, 0))
    assert type(col) is thk.Coloring
    assert col.colors_used == [0, 1, 2, 4, 7]


class TestRunConfig:
    def test_defaults_and_keywords(self):
        config = RunConfig(psi_scan_cap=5)
        assert config == RunConfig(1000000, 5, "plain")
        assert config.psi_scan_cap == 5 and config.output_format == "plain"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"brute_force_budget": 0}, "brute_force_budget must be positive"),
            ({"psi_scan_cap": 0}, "psi_scan_cap must be positive"),
            ({"output_format": "xml"}, "output_format must be one of ('plain', 'json', 'csv')"),
        ],
        ids=["budget", "psi-cap", "format"],
    )
    def test_invalid_values_refused(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            RunConfig(**kwargs)
        assert str(info.value) == message
