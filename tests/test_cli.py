import contextlib
import csv
import doctest
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import turkshead
from turkshead import cli, mincol, psi, seq, verify, zmod
from turkshead.config import BudgetExceededError
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
        expected = [float(ratio) for _, ratio in mincol.usage_ratios(25)]

        def refuse(*args):
            raise AssertionError("usage re-proved a certified prime")

        monkeypatch.setattr(zmod, "is_prime", refuse)
        monkeypatch.setattr(psi, "psi_of_prime", refuse)
        monkeypatch.setattr(mincol, "psi_of_prime", refuse)
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

    def test_closed_stdout_exits_141(self):
        # the table (about 530 kB) outgrows the pipe, so writes go on after
        # the reader has closed it
        src = str(Path(turkshead.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "turkshead.cli", "-f", "csv", "psi-table", "--max", "50000"],
            env={"PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert child.stdout.readline() == "2,3\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 141
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_budget_exceeded_exit_2(self, capsys):
        code, _, err = run(capsys, "--psi-cap", "100", "psi", "150")
        assert code == 2 and "budget" in err

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def exhaust(args, config):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "construct", (exhaust, *cli._COMMANDS["construct"][1:]))
        code, out, err = run(capsys, "construct", "7")
        assert code == 2 and out == "" and err == "turkshead: out of memory\n"
        assert "Traceback" not in err

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


@functools.cache
def _psi(r, cap):
    return psi.psi(r, cap).psi


def psi_table_the_old_way(fmt, max_r, cap):
    """(exit code, stdout, stderr) of psi-table as it was printed from a list of rows.

    Each row is psi(r, cap); the whole table was formatted by json.dumps
    of a dict, by csv.writer or by one f-string line per row, and a walk
    stopped by the cap printed nothing.
    """
    if max_r < 2:
        return 1, "", "turkshead: error: --max must be at least 2\n"
    rows = []
    for r in range(2, max_r + 1):
        try:
            rows.append((r, _psi(r, cap)))
        except BudgetExceededError as exc:
            return 2, "", f"turkshead: budget exceeded: {exc}\n"
    if fmt == "json":
        return 0, json.dumps({"max": max_r, "psi": {str(r): q for r, q in rows}}) + "\n", ""
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return 0, out.getvalue(), ""
    return 0, "".join(f"psi({r}) = {q}\n" for r, q in rows), ""


class TestPsiTableOutput:
    # the table is written in blocks of 2^14 rows straight from the array
    # psi.psi_table returns, with the bytes the old formatting gave

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_same_bytes_as_the_old_way(self, capsys, fmt):
        sizes = [*range(301), 4000, 2**14 - 1, 2**14, 2**14 + 1, 2**14 + 2]
        for max_r in sizes:
            got = run(capsys, "-f", fmt, "psi-table", "--max", str(max_r))
            assert got == psi_table_the_old_way(fmt, max_r, 10**7), max_r

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("max_r, cap", [(4000, 2), (4000, 299), (4000, 1000), (10**30, 3000)])
    def test_cap_stop_prints_nothing(self, capsys, fmt, max_r, cap):
        got = run(capsys, "-f", fmt, "--psi-cap", str(cap), "psi-table", "--max", str(max_r))
        assert got == psi_table_the_old_way(fmt, max_r, cap)
        assert got[0] == 2 and got[1] == ""

    def test_million_rows_in_bounded_memory(self):
        # the table is two arrays of 8 bytes per modulus and the sieve 4;
        # holding every row as a tuple and a string peaked at 157 MB
        src = str(Path(turkshead.__file__).resolve().parents[1])
        parent = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'turkshead.cli', *sys.argv[1:]], check=True)\n"
            "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(f'peak_kb={peak}', file=sys.stderr)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", parent, "-f", "csv", "psi-table", "--max", "1000000"],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0
        lines = done.stdout.splitlines()
        assert len(lines) == 999_999 and lines[0] == "2,3"
        assert lines[-1] == f"1000000,{psi.psi(10**6).psi}"
        assert int(done.stderr.split("peak_kb=")[1]) < 80 * 1024


def coloring_the_old_way(col):
    """The dict that json.dumps printed for a coloring, every level a list."""
    return {
        "n": col.n,
        "r": col.r,
        "input": list(col.input_triple),
        "trace": [list(level) for level in verify.propagate(col.input_triple, col.r, col.n)],
        "colors_used": list(col.palette),
    }


def json_the_old_way(command, *args):
    """stdout of `-f json mincol n r` or `-f json construct p` as it was
    printed, by json.dumps of a dict that held the whole trace."""
    if command == "construct":
        return json.dumps(coloring_the_old_way(mincol.construct(*args))) + "\n"
    verdict = mincol.mincol_exact(*args)
    witness = verdict.witness
    return json.dumps(
        {
            "n": verdict.n,
            "r": verdict.r,
            "kind": verdict.kind,
            "lower": verdict.lower,
            "upper": verdict.upper,
            "provenance": list(verdict.provenance),
            "witness": coloring_the_old_way(witness) if witness else None,
        }
    ) + "\n"


class TestColoringOutput:
    # a coloring's trace is written from its stored period, in blocks, with
    # the bytes the old formatting of every level gave

    @pytest.mark.parametrize(
        "command, args",
        [
            ("mincol", (5, 7)),  # only trivial: "witness": null
            ("mincol", (85, 143)),  # 11-rule witness stacked 17 times, lifted 11 -> 143
            ("mincol", (28, 26)),  # construction at 13 stacked twice, lifted 13 -> 26
            ("mincol", (14, 13)),  # the construction at 13 as it is, tied by the search
            ("mincol", (8 * (2 * 2048 + 1), 14)),  # period 8: two full blocks and a short one
            ("construct", (11,)),  # odd psi
            ("construct", (19,)),
            ("construct", (7,)),  # even psi
            ("construct", (13,)),
            ("construct", (200351,)),  # one period longer than a block
        ],
    )
    def test_json_same_bytes_as_the_old_way(self, capsys, command, args):
        code, out, _ = run(capsys, "-f", "json", command, *map(str, args))
        assert code == 0 and out == json_the_old_way(command, *args)

    @pytest.mark.parametrize("p", [7, 11, 13, 101, 983, 200351])
    def test_plain_construct_same_bytes_as_one_print_per_level(self, capsys, p):
        col = mincol.construct(p)
        expected = [
            f"p = {p}, psi = {col.n}: input {tuple(col.input_triple)} colors "
            f"THK(3, {col.n}) with {len(col.palette)} colors {list(col.palette)}\n"
        ]
        levels = verify.propagate(col.input_triple, col.r, col.n)
        expected += [f"  level {level}: {triple}\n" for level, triple in enumerate(levels)]
        assert run(capsys, "construct", str(p)) == (0, "".join(expected), "")

    def test_long_trace_in_bounded_memory(self):
        # about 11.6 MB of JSON, written from a period of 8 levels
        verdict = mincol.mincol_exact(10**6, 14)
        written = 0

        def sink(text):
            nonlocal written
            written += len(text)

        tracemalloc.start()
        try:
            cli.write_json(verdict, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written == 11_625_318
        assert peak < written // 20


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
    HEAVY = {
        "dataclasses", "inspect", "typing", "ast", "dis",
        "fractions", "decimal", "numbers", "csv", "turkshead.verify",
        "argparse", "gettext", "array",
        "json", "json.decoder", "json.encoder", "json.scanner", "_json",
    }

    @staticmethod
    def modules_added(code: str) -> set[str]:
        src = str(Path(turkshead.__file__).resolve().parents[1])
        child = (
            f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
            f"{code}; print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-E", "-c", child],
            capture_output=True, text=True, timeout=30, check=True,
        )
        return set(done.stderr.split())

    def test_import_loads_no_heavy_module(self):
        added = self.modules_added("import turkshead.cli")
        assert "turkshead.cli" in added
        assert not added & self.HEAVY

    @pytest.mark.parametrize(
        "argv",
        [["-f", "json", "psi", "7"], ["count", "5", "11"], ["mincol", "14", "13"], ["construct", "13"]],
        ids=" ".join,
    )
    def test_light_command_loads_no_ratio_or_verify_module(self, argv):
        # verify holds the exhaustive oracles, which no command may reach
        added = self.modules_added(f"from turkshead.cli import main; assert main({argv!r}) == 0")
        assert "turkshead.cli" in added
        assert not added & {"fractions", "turkshead.verify"}

    @pytest.mark.parametrize(
        "argv", [["-f", "json", "psi", "7"], ["count", "5", "11"], ["psi-table", "--max", "20"]],
        ids=" ".join,
    )
    def test_light_command_loads_no_argparse(self, argv):
        added = self.modules_added(f"from turkshead.cli import main; assert main({argv!r}) == 0")
        assert "turkshead.cli" in added
        assert not added & {"argparse", "gettext"}

    def test_help_lists_every_command(self, capsys):
        code, out, err = run(capsys, "-h")
        assert code == 0 and err == "" and out.startswith("usage: turkshead [-h]")
        assert all(f"    {name} " in out for name in cli._COMMANDS)


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr, with verify's timings masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), re.sub(r"took \d+\.\ds", "took Ts", err.getvalue())


def assert_exact_parity(argv: list[str]) -> None:
    """The exact parser declines argv or gives what the full parser gives, and
    main answers as it does with the full parser alone."""
    exact = cli._parse_exact(argv)
    if exact is not None:
        assert vars(exact) == vars(cli.build_parser().parse_args(argv))
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        seen = outcome(argv)
        with mock.patch.object(cli, "_parse_exact", lambda argv: None):
            assert outcome(argv) == seen


class TestOneCommandParser:
    # main parses argv naming one command in an exact shape without argparse;
    # every other argv, help and errors included, goes to the full parser
    BIG = "9" * 5000  # above CPython's integer string limit of 4,300 digits
    CORPUS = [
        ["-h"], ["--he"], ["-h", "psi"], ["psi", "-h"], ["verify", "-h"],
        ["--format=json", "det", "10"], ["-fjson", "det", "10"], ["--form", "json", "det", "10"],
        ["--budget=-5", "psi", "7"], ["psi", "abc"], ["psi"], ["psi", "1", "2"],
        ["-f", "xml", "psi", "5"], ["-f", "psi", "5"], ["--budget", "count", "psi", "5"],
        ["bogus"], ["-f", "json", "5", "psi"], ["psi", "5", "-f", "json"],
        ["psi-table", "--ma", "20"], ["verify", "nope"], ["--"],
        ["--psi-cap", "3", "psi", "7"], ["-f", "csv", "stats", "5"], ["mincol", "5", "11"],
        ["-f=json", "psi", "5"], ["-f", "json", "-f", "plain", "det", "3"],
        ["--budget", "-5", "psi", "7"], ["--budget", "-1_000", "psi", "7"], ["psi", "-5"],
        ["psi", "-1_000"], ["psi", ""], ["psi", " 7"],
        ["psi", "1_000"], ["psi", "\u0667"], ["psi", BIG], ["psi-table", "--max=40"],
        ["psi-table", "--max", "40", "--max", "50"], ["psi-table", "40"],
        ["--psi-cap=", "psi", "7"], ["verify", "identities"],
    ]

    @pytest.mark.parametrize(
        "argv", CORPUS, ids=lambda argv: " ".join(t if len(t) < 20 else f"<{len(t)} digits>" for t in argv),
    )
    def test_same_output_as_full_parser(self, argv):
        assert_exact_parity(argv)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(sorted({t for argv in CORPUS for t in argv})), max_size=6))
    def test_random_argv_same_as_full_parser(self, argv):
        assert_exact_parity(argv)

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["-f", "json", "psi", "7"], []),
            (["--budget=9", "--psi-cap", "5", "det", "3"], []),
            (["psi", "abc"], ["full"]),
            (["--form", "json", "det", "3"], ["full"]),
            (["-h"], ["full"]),
            (["psi-table", "--max=40"], []),
            (["verify", "determinants"], []),
            (["psi-table", "--max", "40", "--max", "50"], ["full"]),
            (["psi", "5", "-f", "json"], ["full"]),
        ],
    )
    def test_parsers_built(self, argv, built, capsys, monkeypatch):
        seen = []
        full = cli.build_parser

        def build():
            seen.append("full")
            return full()

        monkeypatch.setattr(cli, "build_parser", build)
        run(capsys, *argv)
        assert seen == built


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
            # the 7 | r, 8 | n witness stacked 12,500,000 times keeps one period
            (("mincol", "100000000", "14"), 0, "mincol THK(3, 100000000) mod 14 = 4\n"),
        ],
        ids=["prime-1e18", "semiprime-40-digits", "u1000", "construct-30-digits", "mincol-1e8"],
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

    def test_out_of_memory_under_real_pressure_exits_2(self):
        # construct's levels fill a 200 MB address space; the message must
        # wait until the failed frames that hold them are freed, or printing
        # it raises a second MemoryError (exit 1 and a traceback)
        src = str(Path(turkshead.__file__).resolve().parents[1])
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))\n"
            "from turkshead.cli import main\n"
            "sys.exit(main(['construct', '1000000007']))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "turkshead: out of memory\n")
