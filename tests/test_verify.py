from turkshead import psi, verify
from turkshead.config import RunConfig


class TestColorUsage:
    def test_more_tail_counts_failing_primes_only(self):
        # the observed-range note is not a failure, so with 19 primes outside
        # the window, 6 are shown and 13 more are counted
        lo, hi = verify.USAGE_WINDOW
        outside = [p for p, ratio in psi.usage_ratios(25) if not lo <= ratio <= hi]
        (result,) = verify.suite_color_usage(RunConfig())
        assert len(outside) == 19 and not result.passed
        assert result.detail.count("outside [") == 6
        assert result.detail.endswith(" (+13 more)")


class TestPrimeStats:
    def test_one_sweep_serves_both_checks(self):
        small, full = verify.suite_prime_stats(RunConfig())
        assert small.passed and small.detail.startswith("matched 403/1000, ratio 0.4030 inside")
        assert full.passed and full.detail.startswith(
            "odd primes: matched 3969 vs reference 3969; all primes: matched 3970/10000"
        )


class TestPsiTable:
    def test_single_value_route_reproduces_the_reference(self):
        # the suite checks psi_table; psi(r) answers `turkshead psi r`
        for r, published in verify.PSI_REFERENCE.items():
            assert psi.psi(r).psi == verify.PSI_REFERENCE_ERRATA.get(r, published), r

