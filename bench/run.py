"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload suite-mix --seed 1 --seconds 20 --trace 0

The workload's instances are drawn from ``--seed``, written with
``save_instance`` and read back with ``load_instance`` (set-up, repeated
and timed).  Then whole rounds of the workload's operations run, one call
after another in this one process, until ``--seconds`` have passed.
After the timed part, every result of the first round is checked by the
oracles in ``oracles.py``, and every later round must return the same
results.

Times are process CPU seconds (``time.process_time``).  ``setup_s`` is
the sum over the workload's instances of each one's median set-up time
across the set-up passes; ``round_s`` is the sum over the round's
operations of each one's median time across rounds (see README.md).

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` every library layer is wrapped (``tracer.py``) during
set-up and every other round, starting with the first; the untraced
rounds in between give the tracing overhead.  The spans of set-up and the
first round are written to ``.bench_out/trace-<workload>-<seed>.jsonl``
and the last line carries the per-layer metrics.  Run it from the repository root; it imports the
library from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, run_round, setup

import secalloc
import oracles
from tracer import Tracer

# Set-up runs at least SETUP_PASSES times and for at least SETUP_SECONDS
# CPU seconds in all, so that workloads with a quick set-up take more passes.
SETUP_PASSES = 15
SETUP_SECONDS = 3.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if SRC.resolve() not in Path(secalloc.__file__).resolve().parents:
        print(f"error: secalloc was imported from {secalloc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    problems: list = []

    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="instances-") as tmp:
        if tracer:
            tracer.install()
        try:
            setup_cpus = []
            while True:
                setup_cpus.append([])
                inp = setup(workload, args.seed, Path(tmp), setup_cpus[-1])
                if tracer or (len(setup_cpus) >= SETUP_PASSES
                              and sum(map(sum, setup_cpus)) >= SETUP_SECONDS):
                    break
            setup_agg = tracer.take() if tracer else None
            ops = workload.build_ops(inp)

            op_cpus, walls, traced, round_aggs = [], [], [], []
            failed = 0
            first = None
            mark = (lambda k: setattr(tracer, "op", k)) if tracer else None
            start = time.perf_counter()
            while True:
                traced.append(tracer is not None and len(op_cpus) % 2 == 0)
                results, failures, cpu, wall = run_round(ops, mark)
                failed += len(failures)
                for msg in failures:
                    print(f"failed operation: {msg}", file=sys.stderr)
                op_cpus.append(cpu)
                walls.append(wall)
                if traced[-1]:
                    round_aggs.append(tracer.take())
                    tracer.keep = False
                    tracer.uninstall()
                elif tracer:
                    tracer.install()
                if first is None:
                    first = results
                elif results != first:
                    problems.append(f"round {len(op_cpus)} returned other results than round 1")
                if time.perf_counter() - start >= args.seconds and len(op_cpus) >= (2 if tracer else 1):
                    break
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        checks, oracle_failures = oracles.verify(workload.name, inp, ops, first)
        problems += oracle_failures

    rounds = len(op_cpus)

    def op_medians(want_traced: bool) -> list:
        """Median CPU time of each operation over the (un)traced rounds."""
        picked = [cpu for cpu, t in zip(op_cpus, traced) if t == want_traced]
        return [statistics.median(cpu[k] for cpu in picked) for k in range(len(ops))]

    if tracer:
        for agg in round_aggs[1:]:
            if Tracer.exact_part(agg) != Tracer.exact_part(round_aggs[0]):
                problems.append("per-layer counts differ between rounds")
                break
        trace_path = out_dir / f"trace-{workload.name}-{args.seed}.jsonl"
        spans = tracer.write_spans(trace_path, [op.label for op in ops])
        metrics = tracer.metrics(setup_agg, round_aggs, sum(op_medians(True)))
        metrics["trace.untraced_round_s"] = (sum(op_medians(False)), "s")
        for name in tracer.absent:
            print(f"layer absent: {name}", file=sys.stderr)
        print(f"{workload.name}: {spans} spans written to {trace_path.relative_to(ROOT)}")
    else:
        orders = sum(op.orders for op in ops)
        op_s = op_medians(False)
        metrics = {
            "setup_s": (sum(statistics.median(col) for col in zip(*setup_cpus)), "s"),
            "round_s": (sum(op_s), "s"),
            "orders_per_s": (orders / sum(t for t, op in zip(op_s, ops) if op.orders), "orders/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print(f"{workload.name}: seed {args.seed}, {rounds} rounds of {len(ops)} operations, "
          f"{failed} failed, {checks} oracle checks, {len(oracle_failures)} oracle failures; "
          f"round CPU s: {' '.join(f'{sum(c):.3f}' for c in op_cpus)}; "
          f"round wall s: {' '.join(f'{w:.3f}' for w in walls)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
