"""Command-line front end.

Every computation the library offers is exposed as a subcommand, with one
output-format flag (`plain` for humans, `json` for structured results, `csv`
for tables).  Exit codes: 0 success, 1 invalid arguments, 2 work budget
exceeded, 3 verification failure, 141 standard output closed by its reader
(128 + SIGPIPE).  THK_BUDGET, THK_PSI_CAP and THK_FORMAT override the
defaults; explicit flags win.

The grammar has one home, the tables `_GLOBAL_OPTIONS` and `_COMMANDS`, and
two readers.  `_parse_exact` reads argv of the exact shapes (global options,
then a command with its arguments) without argparse.  Any other argv, and
any argv that would fail to parse, goes to the full parser of
`build_parser`, the one source of help, usage and error text; only that path
imports `argparse`.  Only the commands that need them import
`turkshead.verify` and `fractions`, and only a JSON answer imports `json`.
"""

from __future__ import annotations

import os
import sys
import time
import itertools
from types import SimpleNamespace

from . import mincol, zmod
from .config import OUTPUT_FORMATS, BudgetExceededError, RunConfig, config_from_env
from .psi import prime_psi_stats, psi, psi_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3
EXIT_BROKEN_PIPE = 141


def build_parser():
    """The argparse parser of the whole CLI, every subcommand included."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits with 2 on bad usage by default; 2 is taken by budget errors
        def error(self, message):
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="turkshead",
        description="Colorings, psi values, and minimum-color verdicts for THK(3, n).",
    )
    for names, options in _GLOBAL_OPTIONS:
        parser.add_argument(*names.split(), **options)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, options in arguments:
            p.add_argument(*names.split(), **(options() if callable(options) else options))
    return parser


def _emit_json(payload) -> None:
    import json

    print(json.dumps(payload))


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
    value = mincol.count_colorings(args.n, args.r)
    _check_printable(zmod.decimal_digits(value), f"the coloring count of THK(3, {args.n})")
    if config.output_format == "json":
        _emit_json({"n": args.n, "r": args.r, "count": value})
    else:
        print(f"colorings of THK(3, {args.n}) mod {args.r}: {value}")
    return EXIT_OK


def cmd_det(args, config: RunConfig) -> int:
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
    result = psi(args.r, config.psi_scan_cap)
    if config.output_format == "json":
        _emit_json({"r": result.r, "psi": result.psi, "steps_scanned": result.steps_scanned})
    else:
        print(f"psi({args.r}) = {result.psi} ({result.steps_scanned} residues scanned)")
    return EXIT_OK


#: Rows of psi-table, or levels of a coloring, formatted by one `%` and
#: written by one call.
_BLOCK = 1 << 14

#: psi-table layout by output format: one row, the row separator, the tail.
#: Each gives the bytes of print(f"psi({r}) = {q}") per row, of csv.writer,
#: and of json.dumps({"max": max, "psi": {"2": ..., ...}}), in that order.
_PSI_LAYOUT = {
    "plain": ("psi(%d) = %d", "\n", "\n"),
    "csv": ("%d,%d", "\n", "\n"),
    "json": ('"%d": %d', ", ", "}}\n"),
}


def cmd_psi_table(args, config: RunConfig) -> int:
    if args.max_r < 2:
        raise ValueError("--max must be at least 2")
    table = psi_table(args.max_r, config.psi_scan_cap)
    row, sep, tail = _PSI_LAYOUT[config.output_format]
    write = sys.stdout.write
    if config.output_format == "json":
        write(f'{{"max": {args.max_r}, "psi": {{')
    end = len(table)
    size = min(_BLOCK, end - 2)
    flat = [0] * (2 * size)  # r, psi(r), r + 1, ... for one block
    block = sep.join([row] * size)
    for start in range(2, end, size):
        stop = min(start + size, end)
        if stop - start < size:  # the last block is short
            del flat[2 * (stop - start):]
            block = sep.join([row] * (stop - start))
        flat[::2] = range(start, stop)
        flat[1::2] = table[start:stop]
        if start > 2:
            write(sep)
        write(block % tuple(flat))
    write(tail)
    return EXIT_OK


def _palette_text(palette: tuple[int, ...]) -> str:
    """What the palette prints as a list, "[0, 1, 2]", formatted without building the list."""
    return ("[" + "%d, " * (len(palette) - 1) + "%d]") % palette


def write_json(record, write) -> None:
    """Write the JSON line of a thk.Coloring or a mincol.MincolVerdict.

    The bytes are those of print(json.dumps(...)) of the schema in the
    README.  The trace is written from the stored columns, interleaved by
    slice assignment.  A period of at most _BLOCK levels is formatted by one
    `%` and its copies go out in blocks of about _BLOCK levels; a longer one
    goes out _BLOCK levels per `%`, its middle column sliced off `left`.  So
    memory is O(block) beyond the stored columns, however long the braid.
    """
    tail = "}\n"
    if isinstance(record, mincol.MincolVerdict):
        import json

        head = json.dumps(
            {
                "n": record.n,
                "r": record.r,
                "kind": record.kind,
                "lower": record.lower,
                "upper": record.upper,
                "provenance": list(record.provenance),
            }
        )
        write(head[:-1] + ', "witness": ')
        if record.witness is None:
            write("null" + tail)
            return
        record, tail = record.witness, "}" + tail
    left, n, first = record.left, record.n, record.input_triple
    m = len(left)
    write('{"n": %d, "r": %d, "input": [%d, %d, %d], "trace": [' % (n, record.r, *first))
    level = "[%d, %d, %d], "
    if m > _BLOCK:
        right, full = record.right, level * _BLOCK
        for _ in range(n // m):
            for start in range(0, m, _BLOCK):
                stop = min(start + _BLOCK, m)
                size = stop - start
                flat = [0] * (3 * size)
                flat[::3], flat[2::3] = left[start:stop], right[start:stop]
                flat[1::3] = left[start - 1:stop - 1] if start else left[-1:] + left[:stop - 1]
                write((full if size == _BLOCK else level * size) % tuple(flat))
        text, rest = "", 0
    else:
        flat = [0] * (3 * m)
        flat[::3], flat[1::3], flat[2::3] = left, record.middle, record.right
        flat = tuple(flat)  # the list goes before the text is formatted
        text = level * m % flat
        per_block = min(n // m, max(1, _BLOCK // m))
        blocks, rest = divmod(n // m, per_block)
        block = text * per_block
        for _ in range(blocks):
            write(block)
    # a list of ints prints as its JSON
    palette = _palette_text(record.palette)
    write(text * rest + '[%d, %d, %d]], "colors_used": %s' % (*first, palette) + tail)


def cmd_mincol(args, config: RunConfig) -> int:
    verdict = mincol.mincol_exact(args.n, args.r, config.brute_force_budget)
    if config.output_format == "json":
        write_json(verdict, sys.stdout.write)
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
        palette = verdict.witness.palette
        print(
            f"  witness input {verdict.witness.input_triple} uses {len(palette)} "
            f"colors {_palette_text(palette)}"
        )
    print(f"  via: {', '.join(verdict.provenance)}")
    return EXIT_OK


def cmd_construct(args, config: RunConfig) -> int:
    coloring = mincol.construct(args.p)
    write = sys.stdout.write
    if config.output_format == "json":
        write_json(coloring, write)
        return EXIT_OK
    palette, end = coloring.palette, coloring.n + 1
    write(
        f"p = {args.p}, psi = {coloring.n}: input {coloring.input_triple} colors "
        f"THK(3, {coloring.n}) with {len(palette)} colors {_palette_text(palette)}\n"
    )
    # levels 0..n, each column of the period repeated, in blocks of _BLOCK
    row = "  level %d: (%d, %d, %d)\n"
    size = min(_BLOCK, end)
    flat, block = [0] * (4 * size), row * size
    columns = [itertools.cycle(column) for column in (coloring.left, coloring.middle, coloring.right)]
    for start in range(0, end, size):
        stop = min(start + size, end)
        if stop - start < size:  # the last block is short
            del flat[4 * (stop - start):]
            block = row * (stop - start)
        flat[::4] = range(start, stop)
        for j, column in enumerate(columns, 1):
            flat[j::4] = itertools.islice(column, stop - start)
        write(block % tuple(flat))
    return EXIT_OK


def cmd_stats(args, config: RunConfig) -> int:
    stats = prime_psi_stats(args.prime_count)
    if config.output_format == "json":
        _emit_json(
            {"count": stats.prime_count, "matched": stats.matched, "ratio": float(stats.ratio)}
        )
    elif config.output_format == "csv":
        print("%d,%d,%r" % (stats.prime_count, stats.matched, float(stats.ratio)))
    else:
        print(
            f"first {stats.prime_count} primes: {stats.matched} have psi(p) = p + 1 "
            f"(ratio {float(stats.ratio)})"
        )
    return EXIT_OK


def cmd_usage(args, config: RunConfig) -> int:
    rows = mincol.usage_ratios(args.prime_count)
    if config.output_format == "json":
        _emit_json(
            {
                "primes": [{"p": p, "ratio": float(x)} for p, x in rows],
                "min_ratio": float(min(x for _, x in rows)),
                "max_ratio": float(max(x for _, x in rows)),
            }
        )
    elif config.output_format == "csv":
        sys.stdout.write("".join(["%d,%r\n" % (p, float(x)) for p, x in rows]))
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

#: each argument is (its names, space-separated, and add_argument options or
#: a function giving them)
_GLOBAL_OPTIONS = (
    ("--format -f", {"choices": OUTPUT_FORMATS, "default": None}),
    ("--budget", {"type": int, "default": None, "help": "max triples a scan or a search settles"}),
    (
        "--psi-cap",
        {
            "type": int, "default": None,
            "help": "cap on the psi that psi and psi-table report, and on the residues "
            "their fallback scan may visit",
        },
    ),
)

#: the commands with a tabular form; `-f csv` is refused for every other one
_TABULAR = {"psi-table", "stats", "usage"}

#: name -> (handler, help, arguments), in the order help lists them
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


def _grammar(arguments) -> tuple[dict, list]:
    """Flag -> (dest, options), and the positionals' [(dest, options)] in order."""
    flags, positionals = {}, []
    for names, options in arguments:
        names = names.split()
        options = options() if callable(options) else options
        if names[0].startswith("-"):
            dest = options.get("dest", names[0].lstrip("-").replace("-", "_"))
            flags.update(dict.fromkeys(names, (dest, options)))
        else:
            positionals.append((names[0], options))
    return flags, positionals


_GLOBAL_FLAGS = _grammar(_GLOBAL_OPTIONS)[0]


def _parse_exact(argv: list[str]) -> SimpleNamespace | None:
    """argv's arguments as argparse would give them, if argv has an exact shape.

    The shape: global options, then a command, then its positionals and
    options.  Each option comes at most once, as `-f V`, `--flag V` or
    `--flag=V`.  A value or positional token may not start with `-`, and
    each value must convert with its argument's type and be one of its
    choices.  Any other argv (help, abbreviations, repeats, `--`, `-fjson`,
    an option after the command that is not the command's, a missing or
    extra argument, a bad value) gives None, and argparse takes it.
    """
    values = {dest: options.get("default") for dest, options in _GLOBAL_FLAGS.values()}
    flags, positionals = _GLOBAL_FLAGS, []
    seen = set()
    tokens = iter(argv)
    for token in tokens:
        flag, equals, text = token.partition("=")
        if token in flags:
            dest, options = flags[token]
            text = next(tokens, "-")  # a missing value is refused as a dash-led one
            if text.startswith("-"):
                return None
        elif equals and flag.startswith("--") and flag in flags:
            dest, options = flags[flag]
        elif token.startswith("-"):
            return None
        elif "command" not in values:
            if token not in _COMMANDS:
                return None
            values["command"] = token
            flags, positionals = _grammar(_COMMANDS[token][2])
            values.update((dest, options.get("default")) for dest, options in flags.values())
            continue
        elif positionals:
            (dest, options), text = positionals.pop(0), token
        else:
            return None
        try:
            value = options.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        if dest in seen:
            return None
        seen.add(dest)
        values[dest] = value
    if "command" not in values or positionals:
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_exact(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse help/usage paths
            return int(exc.code or 0)
    try:
        config = config_from_env(
            brute_force_budget=args.budget,
            psi_scan_cap=args.psi_cap,
            output_format=args.format,
        )
        if config.output_format == "csv" and args.command not in _TABULAR:
            raise ValueError(f"the {args.command} command has no tabular form; use plain or json")
        status = _COMMANDS[args.command][0](args, config)
        sys.stdout.flush()  # a reader that has gone shows here, not at shutdown
        return status
    except BudgetExceededError as exc:
        print(f"turkshead: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        # the last line of defence for an input whose cost no budget bounds;
        # reported below, since here the exception still holds the failed
        # frames and all they allocated
        pass
    except ValueError as exc:
        print(f"turkshead: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at shutdown cannot fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    # only a MemoryError gets here, after its frames are freed
    print("turkshead: out of memory", file=sys.stderr)
    return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
