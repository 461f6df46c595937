"""Compare two result files of ``series.py`` under the bounds in BENCHMARK.json.

    python3 bench/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both sides' medians
and quartiles and one verdict:

* ``unresolved`` - either side's spread (quartile distance over median)
  is wider than the metric's bound, unless every new run beats every
  base run by a clear gain (below);
* ``worse``      - the new median is worse than the base median by more
  than the bound;
* ``improved``   - the new median is better by more than the base's
  spread and by more than a quarter of the bound, and the new run wins
  at least nine in ten pairs (runs paired by seed);
* ``unchanged``  - otherwise.

It also prints each side's share of failed operations.  It refuses two
files whose runs measured for different ``run_seconds``.  The exit code
is 1 when any metric is worse or the new side fails a larger share.
"""

from __future__ import annotations

import argparse
import json
import sys

from series import load_benchmark, quartiles, spread


def _values(entry: dict, metric: str) -> dict:
    return {r["seed"]: r["metrics"][metric]["value"] for r in entry["runs"]}


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    b, n = list(base.values()), list(new.values())
    _, b_med, _ = quartiles(b)
    _, n_med, _ = quartiles(n)
    worse_by = sign * (n_med - b_med) / b_med
    # a gain must exceed the base's own spread and a quarter of the bound
    clear_gain = -worse_by > max(spread(b), bound / 4)
    if max(spread(b), spread(n)) > bound:
        beats_all = all(sign * (x - y) < 0 for x in n for y in b)
        return "improved" if beats_all and clear_gain else "unresolved"
    if worse_by > bound:
        return "worse"
    paired = [s for s in new if s in base]
    wins = sum(1 for s in paired if sign * (new[s] - base[s]) < 0)
    if clear_gain and paired and wins >= 0.9 * len(paired):
        return "improved"
    return "unchanged"


def failed_share(entry: dict) -> float:
    attempted = sum(r["attempted"] for r in entry["runs"])
    return sum(r["failed"] for r in entry["runs"]) / attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    metrics = load_benchmark()["end_to_end"]
    if base["run_seconds"] != new["run_seconds"]:
        print(f"error: run_seconds differ (base {base['run_seconds']}, new {new['run_seconds']})",
              file=sys.stderr)
        return 2

    print(f"base {base['commit'][:12]} (Python {base['python']}, {base['runs']} runs)  "
          f"new {new['commit'][:12]} (Python {new['python']}, {new['runs']} runs)")
    bad = False
    for name in base["workloads"]:
        if name not in new["workloads"]:
            print(f"\n{name}: missing from {args.new}")
            continue
        b_entry, n_entry = base["workloads"][name], new["workloads"][name]
        b_fail, n_fail = failed_share(b_entry), failed_share(n_entry)
        print(f"\n{name}: failed share base {b_fail:.4f}, new {n_fail:.4f}")
        bad |= n_fail > b_fail
        for m in metrics:
            b, n = _values(b_entry, m["name"]), _values(n_entry, m["name"])
            v = verdict(b, n, m["better"], m["bound"])
            bad |= v == "worse"
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            print(f"  {m['name']:14s} {v:10s} base {bq[1]:11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
                  f"new {nq[1]:11.5g} [{nq[0]:.5g}, {nq[2]:.5g}]  bound {m['bound']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
