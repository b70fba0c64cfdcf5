import doctest
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import turkshead
from turkshead import psi, seq, zmod
from turkshead.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_count_plain(self, capsys):
        code, out, _ = run(capsys, "count", "5", "11")
        assert code == 0 and "1331" in out

    def test_count_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", "5", "11")
        assert code == 0
        assert json.loads(out) == {"n": 5, "r": 11, "count": 1331}

    def test_det(self, capsys):
        code, out, _ = run(capsys, "-f", "json", "det", "4")
        assert json.loads(out) == {"n": 4, "determinant": 45}

    def test_psi(self, capsys):
        code, out, _ = run(capsys, "-f", "json", "psi", "11")
        assert json.loads(out) == {"r": 11, "psi": 5, "steps_scanned": 5}

    def test_psi_table_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "psi-table", "--max", "11")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 10
        assert lines[0] == "2,3" and lines[-1] == "11,5"

    def test_psi_table_row_count_at_185(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "psi-table", "--max", "185")
        assert len(out.strip().splitlines()) == 184

    def test_mincol_json(self, capsys):
        code, out, _ = run(capsys, "-f", "json", "mincol", "5", "11")
        data = json.loads(out)
        assert data["kind"] == "exact" and data["lower"] == 5
        assert data["witness"]["input"] == [1, 7, 0]

    def test_mincol_plain_only_trivial(self, capsys):
        code, out, _ = run(capsys, "mincol", "5", "7")
        assert code == 0 and "only trivial" in out

    def test_construct(self, capsys):
        code, out, _ = run(capsys, "-f", "json", "construct", "11")
        data = json.loads(out)
        assert data["input"] == [1, 7, 0] and data["colors_used"] == [0, 1, 2, 4, 7]

    def test_stats(self, capsys):
        code, out, _ = run(capsys, "-f", "json", "stats", "5")
        assert json.loads(out) == {"count": 5, "matched": 3, "ratio": 0.6}

    def test_usage_csv(self, capsys):
        code, out, _ = run(capsys, "-f", "csv", "usage", "2")
        lines = out.strip().splitlines()
        assert code == 0 and lines[0].startswith("13,") and lines[1].startswith("17,")

    def test_usage_reuses_the_certificates(self, capsys, monkeypatch):
        # first_usage_primes has proved each prime and psi(p) = p + 1, so
        # the ratios neither retest primality nor descend to psi again
        expected = [float(psi.color_usage_ratio(p)) for p in psi.first_usage_primes(25)]

        def refuse(*args):
            raise AssertionError("usage re-proved a certified prime")

        monkeypatch.setattr(zmod, "is_prime", refuse)
        monkeypatch.setattr(psi, "_prime_power_psi", refuse)
        code, out, _ = run(capsys, "-f", "json", "usage", "25")
        assert code == 0
        assert [row["ratio"] for row in json.loads(out)["primes"]] == expected

    def test_verify_determinants(self, capsys):
        code, out, _ = run(capsys, "verify", "determinants")
        assert code == 0 and out.startswith("PASS determinants/")


class TestExitCodes:
    def test_invalid_arguments_exit_1(self, capsys):
        assert run(capsys, "count", "0", "5")[0] == 1
        assert run(capsys, "count", "3", "1")[0] == 1

    def test_unknown_command_exit_1(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_csv_rejected_for_verdicts(self, capsys):
        assert run(capsys, "-f", "csv", "mincol", "5", "11")[0] == 1

    def test_csv_rejected_before_computing(self, capsys):
        # the verdict alone takes seconds and hundreds of MB at this n
        started = time.perf_counter()
        code, out, err = run(capsys, "-f", "csv", "mincol", "3000000", "14")
        assert time.perf_counter() - started < 1
        assert code == 1 and out == "" and "no tabular form" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_usage_rejects_nonpositive_count(self, count):
        src = str(Path(turkshead.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "turkshead.cli", "usage", count],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "turkshead: error: prime count must be positive\n"

    def test_budget_exceeded_exit_2(self, capsys):
        code, _, err = run(capsys, "--psi-cap", "100", "psi", "150")
        assert code == 2 and "budget" in err

    def test_det_too_long_to_print_exits_2(self, capsys):
        # 4,300 digits is CPython's default integer string limit
        assert run(capsys, "det", "10287")[0] == 0
        code, out, err = run(capsys, "-f", "json", "det", "10288")
        assert code == 2 and out == "" and "4301 decimal digits" in err

    def test_count_too_long_to_print_exits_2(self, capsys):
        # r = u_7199 divides u_{n-1} at n = 7200, so the count is r^3, about
        # 4,514 digits against CPython's default limit of 4,300
        r = str(seq.u(7199))
        for fmt in ("plain", "json"):
            code, out, err = run(capsys, "-f", fmt, "count", "7200", r)
            assert code == 2 and out == "" and "4514 decimal digits" in err

    def test_sieves_above_the_ceiling_exit_2(self, capsys):
        # gcd(u_7199, r) = r has 1,505 digits, far beyond any sieve; the
        # first 10^7 primes run past 10^8
        for argv in (("mincol", "7200", str(seq.u(7199))), ("stats", str(10**7))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and "sieve ceiling" in err

    def test_construct_rejects_composite(self, capsys):
        for p in ("1", "4", "9"):
            code, out, err = run(capsys, "construct", p)
            assert code == 1 and out == ""
            assert err == f"turkshead: error: need a prime greater than 5, got {p}\n"

    def test_psi_cap_bounds_residue_scans_only(self, capsys):
        # stats takes the prime route, which scans no residues
        assert run(capsys, "--psi-cap", "10", "stats", "10")[0] == 0
        assert run(capsys, "--psi-cap", "10", "psi", "13")[0] == 2

    def test_removed_flags_are_usage_errors(self, capsys):
        assert run(capsys, "--workers", "2", "stats", "5")[0] == 1
        assert run(capsys, "--seed", "7", "det", "2")[0] == 1


class TestDeterminism:
    def test_psi_table_byte_identical(self, capsys):
        _, first, _ = run(capsys, "-f", "csv", "psi-table", "--max", "60")
        _, second, _ = run(capsys, "-f", "csv", "psi-table", "--max", "60")
        assert first == second

    def test_verify_stdout_byte_identical(self, capsys):
        code, first, err = run(capsys, "verify", "mincol-exact")
        _, second, _ = run(capsys, "verify", "mincol-exact")
        assert code == 0 and first == second and "s]" not in first
        assert err.startswith("turkshead: verify mincol-exact took ")


class TestPublicNames:
    def test_all_resolves_and_star_import_succeeds(self):
        assert all(hasattr(turkshead, name) for name in turkshead.__all__)
        namespace: dict = {}
        exec("from turkshead import *", namespace)
        assert set(turkshead.__all__) <= set(namespace)

    def test_readme_quick_tour_runs(self):
        # the python block of README.md runs as a doctest, and the package
        # root exports exactly the names it imports from turkshead
        readme = Path(__file__).resolve().parents[1] / "README.md"
        tour = readme.read_text().split("```python\n", 1)[1].split("```", 1)[0]
        test = doctest.DocTestParser().get_doctest(tour, {}, "README quick tour", str(readme), 0)
        report: list[str] = []
        results = doctest.DocTestRunner().run(test, out=report.append)
        assert results.attempted > 0 and results.failed == 0, "".join(report)
        (imported,) = re.findall(r"^>>> from turkshead import (.+)$", tour, re.M)
        assert sorted(imported.split(", ")) == sorted(turkshead.__all__)


class TestImportCost:
    # every CLI call pays for `import turkshead.cli`; these modules cost
    # milliseconds to import.  -S keeps a site .pth file from loading them
    # first and hiding them.
    HEAVY = {"dataclasses", "inspect", "typing", "ast", "dis"}

    def test_import_loads_no_heavy_module(self):
        src = str(Path(turkshead.__file__).resolve().parents[1])
        child = (
            f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
            "import turkshead.cli; print(' '.join(sorted(set(sys.modules) - before)))"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-E", "-c", child],
            capture_output=True, text=True, timeout=30, check=True,
        )
        added = set(done.stdout.split())
        assert "turkshead.cli" in added
        assert not added & self.HEAVY


class TestEnvironmentOverrides:
    def test_env_format(self, capsys, monkeypatch):
        monkeypatch.setenv("THK_FORMAT", "json")
        code, out, _ = run(capsys, "det", "2")
        assert json.loads(out) == {"n": 2, "determinant": 5}

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("THK_FORMAT", "json")
        code, out, _ = run(capsys, "--format", "plain", "det", "2")
        assert out.strip() == "det THK(3, 2) = 5"

    def test_env_psi_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("THK_PSI_CAP", "100")
        assert run(capsys, "psi", "150")[0] == 2

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("THK_BUDGET", "lots")
        assert run(capsys, "det", "2")[0] == 1


class TestHostileInput:
    # each run gets a clean exit (0, or 2 for a budget) within bounded time
    # and memory, never a traceback; VmHWM is the child's own peak
    CHILD = (
        "import resource, sys\n"
        "from turkshead.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "try:\n"
        "    peak = int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(f'peak_kb={peak}', file=sys.stderr)\n"
        "sys.exit(status)\n"
    )

    @pytest.mark.parametrize(
        "argv, code, said",
        [
            # a prime near 10^18: psi is far above the cap
            (("psi", str(10**18 + 3)), 2, "scan cap 10000"),
            # a 40-digit semiprime: rho cannot split it, so the scan runs to the cap
            (("psi", str((10**19 + 51) * (10**20 + 39))), 2, "scan cap 10000"),
            # u_1000 (209 digits) cannot be factored, but the scan finds psi at once
            (("psi", str(seq.u(1000))), 0, "= 1001 (1001 residues scanned)"),
            # a 30-digit probable prime: its primality cannot be proven
            (("construct", str(10**29 + 319)), 2, "Miller-Rabin"),
        ],
        ids=["prime-1e18", "semiprime-40-digits", "u1000", "construct-30-digits"],
    )
    def test_clean_exit_in_bounded_time_and_memory(self, argv, code, said):
        src = str(Path(turkshead.__file__).resolve().parents[1])
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", self.CHILD, "--psi-cap", "10000", *argv],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - started < 10
        assert done.returncode == code and "Traceback" not in done.stderr
        assert said in done.stdout + done.stderr
        assert int(done.stderr.split("peak_kb=")[1]) < 100 * 1024
