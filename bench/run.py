"""The turkshead benchmark: run one workload (or all), check every answer, report.

    python3 bench/run.py --workload prime-sweep|psi-table|query-mix --seed N --seconds T --trace 0|1

Run from anywhere; it uses the checkout that holds this file.  Steps:

1. Start one fresh interpreter for the session (bench/session.py), with
   every THK_* variable cleared.  It times each command and writes records.
2. setup_s: before and after the session, launch SETUP_LAUNCHES fresh
   interpreters each, every one timing its own `import turkshead.cli`;
   report the median of all of them.
3. Check every answer with bench/oracle.py, which does not use the program.
4. Print each metric by name with its unit, then the result as one JSON line.

With --trace 1 the session runs a fixed number of rounds under the tracer
and the metrics are the per-layer ones.  Without --workload every workload
runs in turn, each printing its own result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import oracle
import workloads
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_LAUNCHES = 8  # before the session and again after it
SESSION_TIMEOUT_S = 170
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
LAYER_MODULES = {f"turkshead.{layer}": layer for layer in LAYERS}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import turkshead.cli; print(time.perf_counter() - t)"
)


def clean_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("THK_")}


def import_times(count: int) -> list[float]:
    """Seconds each of `count` fresh interpreters spends importing turkshead.cli."""
    cmd = [sys.executable, "-E", "-s", "-c", IMPORT_PROBE]
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def import_self_seconds(stderr: str) -> dict[str, float]:
    """Per layer, the self time of its module's import, from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if fields[-1] in LAYER_MODULES and fields[0].isdigit():
                out[LAYER_MODULES[fields[-1]]] = int(fields[0]) / 1e6
    return out


def run_session(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[dict], dict, str]:
    cmd = [sys.executable, "-E", "-s"]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "session.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--dump", str(OUT / f"trace-{workload}.tsv.gz")]
    done = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True, text=True, timeout=SESSION_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"session exited with {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    (OUT / f"records-{workload}.jsonl").write_text(done.stdout)
    return [json.loads(line) for line in lines[:-1]], json.loads(lines[-1])["summary"], done.stderr


def check_records(records: list[dict]) -> tuple[int, list[str]]:
    """Failed operations, and the problems found in the answers of the others."""
    checker = oracle.Checker()
    failed, problems = 0, []
    for rec in records:
        if rec["code"] != 0:
            failed += 1
            continue
        try:
            found = checker.check(rec["argv"], json.loads(rec["out"]))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            found = [f"unreadable answer: {exc!r}"]
        problems += [f"{' '.join(rec['argv'])}: {p}" for p in found]
    return failed, problems


def route_counts(records: list[dict]) -> dict[str, int]:
    """mincol verdicts by answering route, read from kind and the last provenance entry."""
    counts = dict.fromkeys(("exact-rule", "construction", "standard-search", "generic-bound", "only-trivial"), 0)
    for rec in records:
        if rec["argv"][0] != "mincol" or rec["code"] != 0:
            continue
        verdict = json.loads(rec["out"])
        last = verdict["provenance"][-1]
        if verdict["kind"] == "only-trivial":
            counts["only-trivial"] += 1
        elif last.startswith("upper-from-standard-diagram-search"):
            counts["standard-search"] += 1
        elif last.startswith("upper-from-construction"):
            counts["construction"] += 1
        elif last == "generic-arc-bound":
            counts["generic-bound"] += 1
        else:
            counts["exact-rule"] += 1
    return {f"mincol.route.{k}": v for k, v in counts.items()}


def quantile_ms(seconds: list[float], q: int) -> float:
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e3


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not trace:
        import_times(1)  # may compile bytecode; not counted
        setup = import_times(SETUP_LAUNCHES)
    records, summary, stderr = run_session(workload, seed, seconds, trace)
    if not trace:
        setup = statistics.median(setup + import_times(SETUP_LAUNCHES))
    failed, problems = check_records(records)
    for problem in problems[:20]:
        print(f"WRONG {problem}")
    busy = sum(rec["seconds"] for rec in records)
    work_per_s = sum(workloads.units(rec["argv"]) for rec in records) / busy
    print(f"{workload}: seed {seed}, {summary['rounds']} rounds, {len(records)} commands attempted, "
          f"{failed} failed, {len(problems)} wrong answers")
    if trace:
        values = dict(summary["per_layer"])
        for layer, s in import_self_seconds(stderr).items():
            values[f"{layer}.self_s"] += s
        values.update(route_counts(records))
        print(f"traced work_per_s = {work_per_s:.6g} 1/s (tracing on)")
    else:
        latencies = [rec["seconds"] for rec in records]
        values = {
            "setup_s": setup,
            "work_per_s": work_per_s,
            "op_p50_ms": quantile_ms(latencies, 50),
            "op_p99_ms": quantile_ms(latencies, 99),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {UNITS[name]}")
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default=None, help="default: all, in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "turkshead" / "cli.py").is_file():
        print(f"benchmark: no program source at {ROOT / 'src' / 'turkshead'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
