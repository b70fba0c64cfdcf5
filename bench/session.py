"""One workload session: a single client issuing CLI commands in-process.

Started by run.py in a fresh interpreter with the program's `src` on the
path.  Each command goes through `turkshead.cli.main` with `-f json`, so it
pays the parser build and the JSON output a CLI invocation pays; only the
call to `main` is timed.  Each command's record goes to stdout as one JSON
line, written between commands.  The last line holds the session totals.

    python3 bench/session.py --workload W --seed S --seconds T --trace 0|1 [--dump FILE]

Untraced, the session attempts whole rounds until T seconds have passed.
Traced, it runs exactly TRACE_ROUNDS[W] rounds, so that its counts repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import turkshead.cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

#: Whole rounds in a traced run: 27,000 primes, 16,000 moduli, 400 commands.
TRACE_ROUNDS = {"prime-sweep": 1, "psi-table": 4, "query-mix": 4}


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), falling back to ru_maxrss."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_command(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = turkshead.cli.main(["-f", "json", *argv])
        except Exception:  # a crash is a failed operation, recorded with its traceback
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return {"argv": argv, "code": code, "seconds": elapsed, "out": out.getvalue(), "err": err.getvalue()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump", default=None, help="file for the span dump of a traced run")
    args = ap.parse_args()

    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.install()
    emit = sys.stdout.write
    rounds = workloads.rounds(args.workload, args.seed)
    done = 0
    started = time.perf_counter()
    while True:
        if trace and done == TRACE_ROUNDS[args.workload]:
            break
        if not trace and done and time.perf_counter() - started >= args.seconds:
            break
        for argv in next(rounds):
            emit(json.dumps(run_command(argv)) + "\n")
        done += 1
    summary = {"rounds": done, "peak_rss_mb": peak_rss_mb()}
    if trace:
        summary["per_layer"] = trace.per_layer()
        if args.dump:
            trace.dump(args.dump)
    emit(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
