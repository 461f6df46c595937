"""Run the benchmark several times per workload and write one result file.

    python3 bench/series.py --runs 10 --out bench/results/BENCH_<label>.json

Every workload of BENCHMARK.json runs ``--runs`` times untraced for
``run_seconds``, with seeds 1, 2, ..., ``--runs``, one run after another,
then twice traced at seed 1.  The two traced runs must report identical counts and
hit ratios.  Tracing overhead is a traced run's round time minus the
time of the untraced rounds it interleaves with them.  The result file
records the commit, the Python version and the run count with every
run's figures, and is what ``compare.py`` reads.  A summary with the
spread of each end-to-end metric (quartile distance over median) against
its bound is printed; every spread, ``setup_s``'s too, must stay below a
third of the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "ratio"}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_once(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    *log, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["seed"] = seed
    result["log"] = log
    result["elapsed_s"] = elapsed
    if proc.stderr.strip():
        result["stderr"] = proc.stderr.strip().splitlines()
    return result


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True, help="result file to write")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {
        "commit": commit(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "run_seconds": seconds,
        "runs": args.runs,
        "workloads": {},
    }
    ok = True
    for name in names:
        seeds = list(range(1, args.runs + 1))
        runs = [run_once(bench["command"], name, s, seconds, 0) for s in seeds]
        entry = {"seeds": seeds, "runs": runs}
        print(f"\n{name}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"{statistics.median(r['elapsed_s'] for r in runs):.1f} s each (median)")
        shares = {r["failed"] / r["attempted"] for r in runs}
        if not all(r["correct"] for r in runs) or len(shares) != 1:
            ok = False
            print(f"  NOT CORRECT or unequal failed shares: {sorted(shares)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = "ok" if s < bound / 3 else "WIDE"
            if flag != "ok":
                ok = False
            print(f"  {metric:14s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {s:6.3f}  bound {bound}  {flag}")

        traced = [run_once(bench["command"], name, seeds[0], seconds, 1) for _ in range(2)]
        exact = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in EXACT_UNITS}
                 for t in traced]
        repeat = exact[0] == exact[1]
        traced_s = statistics.median(t["metrics"]["trace.round_s"]["value"] for t in traced)
        untraced_s = statistics.median(t["metrics"]["trace.untraced_round_s"]["value"] for t in traced)
        overhead = traced_s - untraced_s
        entry["traced"] = traced
        entry["trace_counts_repeat"] = repeat
        entry["trace_overhead_s"] = overhead
        entry["trace_overhead_share"] = overhead / untraced_s
        ok &= repeat and all(t["correct"] for t in traced)
        print(f"  traced: counts and hit ratios repeat exactly: {repeat}; overhead "
              f"{overhead:.3f} s per round ({100 * overhead / untraced_s:.1f}% of "
              f"round_s {untraced_s:.3f} s)")
        doc["workloads"][name] = entry

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {out}; {'all steady and correct' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
