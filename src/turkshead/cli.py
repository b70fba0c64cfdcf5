"""Command-line front end.

Every computation the library offers is exposed as a subcommand, with one
output-format flag (`plain` for humans, `json` for structured results, `csv`
for tables).  Exit codes: 0 success, 1 invalid arguments, 2 work budget
exceeded, 3 verification failure.  THK_BUDGET, THK_PSI_CAP and THK_FORMAT
override the defaults; explicit flags win.

Each call pays for its own parser.  When argv is exact global options, each
with its value, and then a command name, `main` builds that command's
subparser alone; any other argv, and any parse error, goes through the full
parser, so help and error text always name every command.  Only the commands
that need them import `turkshead.verify` and `fractions`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import mincol, zmod
from .config import OUTPUT_FORMATS, BudgetExceededError, RunConfig, config_from_env
from .psi import _usage_ratio, first_usage_primes, prime_psi_stats, psi, psi_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage by default; 2 is taken by budget errors
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _NeedFullParser(Exception):
    pass


class _OneCommandParser(_Parser):
    # its usage line lists one command, so the full parser tells its errors
    def error(self, message):
        raise _NeedFullParser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, or with `command`'s alone.

    A one-command parser prints help as the full parser does, but raises
    instead of reporting an error; main then re-parses with the full one.
    """
    parser = (_Parser if command is None else _OneCommandParser)(
        prog="turkshead",
        description="Colorings, psi values, and minimum-color verdicts for THK(3, n).",
    )
    parser.add_argument("--format", "-f", choices=OUTPUT_FORMATS, default=None)
    parser.add_argument("--budget", type=int, default=None, help="max triples for exhaustive scans")
    parser.add_argument(
        "--psi-cap", type=int, default=None,
        help="cap on the psi that psi and psi-table report, and on the residues "
        "their fallback scan may visit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        _, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **(options() if callable(options) else options))
    return parser


def _emit_json(payload) -> None:
    print(json.dumps(payload))


def _emit_csv(rows: list[tuple]) -> None:
    import csv

    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _no_csv(fmt: str, command: str) -> None:
    if fmt == "csv":
        raise ValueError(f"the {command} command has no tabular form; use plain or json")


def _check_printable(digits: int, what: str) -> None:
    """Refuse, before formatting, an integer too long for the interpreter to print.

    The limit is sys.get_int_max_str_digits(), where 0 means no limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise BudgetExceededError(
            f"{what} has {digits} decimal digits, above the "
            f"interpreter's integer string limit of {limit}"
        )


def cmd_count(args, config: RunConfig) -> int:
    _no_csv(config.output_format, "count")
    value = mincol.count_colorings(args.n, args.r)
    _check_printable(zmod.decimal_digits(value), f"the coloring count of THK(3, {args.n})")
    if config.output_format == "json":
        _emit_json({"n": args.n, "r": args.r, "count": value})
    else:
        print(f"colorings of THK(3, {args.n}) mod {args.r}: {value}")
    return EXIT_OK


def cmd_det(args, config: RunConfig) -> int:
    _no_csv(config.output_format, "det")
    # decided from n: computing and printing a determinant too long to
    # convert to decimal would only fail after the work
    _check_printable(mincol.determinant_digits(args.n), f"det THK(3, {args.n})")
    value = mincol.determinant(args.n).value
    if config.output_format == "json":
        _emit_json({"n": args.n, "determinant": value})
    else:
        print(f"det THK(3, {args.n}) = {value}")
    return EXIT_OK


def cmd_psi(args, config: RunConfig) -> int:
    _no_csv(config.output_format, "psi")
    result = psi(args.r, config.psi_scan_cap)
    if config.output_format == "json":
        _emit_json(result.to_json_dict())
    else:
        print(f"psi({args.r}) = {result.psi} ({result.steps_scanned} residues scanned)")
    return EXIT_OK


def cmd_psi_table(args, config: RunConfig) -> int:
    if args.max_r < 2:
        raise ValueError("--max must be at least 2")
    values = psi_table(args.max_r, config.psi_scan_cap)
    if config.output_format == "json":
        _emit_json({"max": args.max_r, "psi": {str(r): q for r, q in values}})
    elif config.output_format == "csv":
        _emit_csv(values)
    else:
        for r, q in values:
            print(f"psi({r}) = {q}")
    return EXIT_OK


def cmd_mincol(args, config: RunConfig) -> int:
    _no_csv(config.output_format, "mincol")
    verdict = mincol.mincol_exact(args.n, args.r, config.brute_force_budget)
    if config.output_format == "json":
        _emit_json(verdict.to_json_dict())
        return EXIT_OK
    if verdict.kind == "only-trivial":
        print(f"THK(3, {args.n}) mod {args.r}: only trivial colorings")
    elif verdict.kind == "exact":
        print(f"mincol THK(3, {args.n}) mod {args.r} = {verdict.lower}")
    else:
        print(
            f"mincol THK(3, {args.n}) mod {args.r} in [{verdict.lower}, {verdict.upper}]"
        )
    if verdict.witness is not None:
        w = verdict.witness
        print(
            f"  witness input {tuple(w.input_triple)} uses {len(w.colors_used)} "
            f"colors {w.colors_used}"
        )
    print(f"  via: {', '.join(verdict.provenance)}")
    return EXIT_OK


def cmd_construct(args, config: RunConfig) -> int:
    _no_csv(config.output_format, "construct")
    coloring = mincol.construct(args.p)
    q = coloring.n
    if config.output_format == "json":
        _emit_json(coloring.to_json_dict())
    else:
        print(
            f"p = {args.p}, psi = {q}: input {tuple(coloring.input_triple)} colors "
            f"THK(3, {q}) with {len(coloring.colors_used)} colors {coloring.colors_used}"
        )
        for level, triple in enumerate(coloring.trace):
            print(f"  level {level}: {triple}")
    return EXIT_OK


def cmd_stats(args, config: RunConfig) -> int:
    stats = prime_psi_stats(args.prime_count)
    if config.output_format == "json":
        _emit_json(stats.to_json_dict())
    elif config.output_format == "csv":
        _emit_csv([(stats.prime_count, stats.matched, float(stats.ratio))])
    else:
        print(
            f"first {stats.prime_count} primes: {stats.matched} have psi(p) = p + 1 "
            f"(ratio {float(stats.ratio)})"
        )
    return EXIT_OK


def cmd_usage(args, config: RunConfig) -> int:
    # first_usage_primes certifies each prime and psi(p) = p + 1, so the
    # ratios skip color_usage_ratio's re-proof of both
    rows = [(p, _usage_ratio(p)) for p in first_usage_primes(args.prime_count)]
    if config.output_format == "json":
        _emit_json(
            {
                "primes": [{"p": p, "ratio": float(x)} for p, x in rows],
                "min_ratio": float(min(x for _, x in rows)),
                "max_ratio": float(max(x for _, x in rows)),
            }
        )
    elif config.output_format == "csv":
        _emit_csv([(p, float(x)) for p, x in rows])
    else:
        for p, x in rows:
            print(f"p = {p}: {float(x):.6f} of the {p} colors used")
        print(
            f"range over {len(rows)} primes: "
            f"[{float(min(x for _, x in rows)):.6f}, {float(max(x for _, x in rows)):.6f}]"
        )
    return EXIT_OK


def _suite_argument() -> dict:
    from . import verify

    return {"choices": sorted(verify.SUITES) + ["all"]}


def cmd_verify(args, config: RunConfig) -> int:
    from . import verify

    _no_csv(config.output_format, "verify")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        # timings go to stderr so that stdout stays byte-identical across runs
        started = time.perf_counter()
        results.extend(verify.run_suite(name, config))
        elapsed = time.perf_counter() - started
        print(f"turkshead: verify {name} took {elapsed:.1f}s", file=sys.stderr)
    if config.output_format == "json":
        _emit_json(
            [
                {
                    "suite": res.suite,
                    "check": res.name,
                    "passed": res.passed,
                    "detail": res.detail,
                }
                for res in results
            ]
        )
    else:
        for res in results:
            print(res.line())
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY


_INT = {"type": int}

#: name -> (handler, help, arguments), in the order help lists them; each
#: argument is (name or flag, add_argument options or a function giving them)
_COMMANDS = {
    "count": (cmd_count, "number of r-colorings of THK(3, n)", (("n", _INT), ("r", _INT))),
    "det": (cmd_det, "knot determinant of THK(3, n)", (("n", _INT),)),
    "psi": (cmd_psi, "least q with r dividing u_{q-1}", (("r", _INT),)),
    "psi-table": (
        cmd_psi_table, "psi(r) for 2 <= r <= max",
        (("--max", {"type": int, "default": 185, "dest": "max_r"}),),
    ),
    "mincol": (
        cmd_mincol, "minimum-color verdict for THK(3, n) mod r", (("n", _INT), ("r", _INT)),
    ),
    "construct": (cmd_construct, "explicit low-color coloring of THK(3, psi(p))", (("p", _INT),)),
    "stats": (cmd_stats, "count primes with psi(p) = p + 1", (("prime_count", _INT),)),
    "usage": (
        cmd_usage, "color-usage ratios over primes with psi(p) = p + 1",
        (("prime_count", _INT),),
    ),
    "verify": (cmd_verify, "run a named verification suite", (("suite", _suite_argument),)),
}

_LONG_OPTIONS = ("--format", "--budget", "--psi-cap")


def _named_command(argv: list[str]) -> str | None:
    """The command of argv if only exact global options come before it, else None.

    A global option is `-f` or a long option followed by its value, or
    `--option=value`.  Abbreviations, `-fjson`, help and anything unknown
    before the command give None, as does argv without a command.
    """
    args = iter(argv)
    for arg in args:
        if arg in _COMMANDS:
            return arg
        if arg in _LONG_OPTIONS or arg == "-f":
            next(args, None)  # its value
        elif arg.partition("=")[0] not in _LONG_OPTIONS:
            return None
    return None


def _parse(argv: list[str]) -> argparse.Namespace:
    command = _named_command(argv)
    if command is not None:
        try:
            return build_parser(command).parse_args(argv)
        except _NeedFullParser:
            pass
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code or 0)
    try:
        config = config_from_env(
            brute_force_budget=args.budget,
            psi_scan_cap=args.psi_cap,
            output_format=args.format,
        )
        return _COMMANDS[args.command][0](args, config)
    except BudgetExceededError as exc:
        print(f"turkshead: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"turkshead: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
