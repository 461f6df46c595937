"""Command-line front end: generate, run, audit, check.

Exit codes: 0 all good, 1 usage or capability problem, 2 a verified
property was violated (the witness is printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import CapabilityError, ValidationError
from .harness import (
    ALGORITHMS,
    FAMILIES,
    ExperimentConfig,
    GeneratorParams,
    estimate_ratio,
    export_report,
    generate_instance,
)
from .instance_io import load_instance, save_instance
from .mechanism import _require_mechanism, check_epic, check_random_sampling_bound
from .secretary import (
    InstanceRuntime,
    _trial_orders,
    check_tail_harmonic_sum,
    random_valid_tail_sequence,
    sample_size,
    survival_probability,
)
from .structure_checks import (
    check_monotone,
    check_subadditive_over_signals,
    check_xos_over_items,
    check_xos_over_signals,
)
from .valuations import SeparableValuation, XOSValuation


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="secretary", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a random instance and write it to JSON")
    gen.add_argument("--n", type=int, required=True, help="agent count")
    gen.add_argument("--m", type=int, required=True, help="item count")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output path")

    run = sub.add_parser("run", help="estimate the competitive ratio of an algorithm")
    run.add_argument("--instance", required=True)
    run.add_argument("--alg", choices=ALGORITHMS, required=True)
    run.add_argument("--trials", type=int, default=10_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--exact", action="store_true", help="average over all n! orders")
    run.add_argument("--k", type=int, default=None, help="sample-size override")
    run.add_argument("--blackbox", choices=("auto", "match", "greedy"), default="auto")
    run.add_argument("--report", default=None, help="write stats to this file")
    run.add_argument("--format", choices=("csv", "json"), default="json")

    audit = sub.add_parser("audit", help="probe misreport incentives (separable instances)")
    audit.add_argument("--instance", required=True)
    audit.add_argument("--grid-points", type=int, default=21)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--orders", type=int, default=5, help="random orders to audit")

    chk = sub.add_parser("check", help="verify definitions and provable properties")
    chk.add_argument("--instance", required=True)
    chk.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_generate(args) -> int:
    inst = generate_instance(GeneratorParams(args.n, args.m, args.family), args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.family} instance (n={inst.n}, m={inst.m}) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    inst = load_instance(args.instance)
    config = ExperimentConfig(
        alg=args.alg,
        trials=args.trials,
        seed=args.seed,
        mode="exact_orders" if args.exact else "monte_carlo",
        blackbox=args.blackbox,
        k=args.k,
    )
    stats = estimate_ratio(inst, config)
    print(
        f"{args.alg}: mean ALG/OPT = {float(stats.mean):.6f} "
        f"(+/- {stats.ci95:.6f}, {stats.trials} orders, OPT = {stats.opt_value:.6f})"
    )
    if args.report:
        export_report(stats, args.report, args.format, config=config)
        print(f"report written to {args.report}")
    return 0


def _cmd_audit(args) -> int:
    if args.orders < 1:
        raise ValidationError("--orders must be >= 1")
    inst = load_instance(args.instance)
    _require_mechanism(inst)
    k_skip = inst.n // 2 + sample_size(inst.n, "n/2e")
    worst = 0.0
    for order in _trial_orders(args.seed, args.orders, inst.n):
        cache: dict = {}
        for pos in range(k_skip, inst.n):
            audit = check_epic(
                inst, order, order[pos],
                grid_points=args.grid_points, solver_cache=cache,
            )
            print(json.dumps(audit.to_json(), sort_keys=True))
            worst = max(worst, audit.violation)
    if worst > 1e-9:
        print(f"EPIC violated: worst utility gain from misreporting = {worst:.3e}")
        return 2
    print(f"EPIC holds on every audited order (worst violation {worst:.3e})")
    return 0


def _check_line(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    return ok


def _cmd_check(args) -> int:
    inst = load_instance(args.instance)
    failures = 0
    witnesses = []

    def record(name, result, detail=""):
        nonlocal failures
        ok = bool(result)
        if not _check_line(name, ok, detail):
            failures += 1
            if getattr(result, "witness", None) is not None:
                witnesses.append((name, result.witness))

    full_bundle = frozenset(range(inst.m))
    uncapped = True
    for spec in inst.specs:
        weights = []
        if isinstance(spec, XOSValuation):
            weights = [w for clause in spec.clauses for _, w in clause]
        elif isinstance(spec, SeparableValuation):
            weights = list(spec.own) + list(spec.others)
        else:
            weights = list(getattr(spec, "weights", ()))
        uncapped &= all(w.cap is None for w in weights)

    for i, spec in enumerate(inst.specs):
        record(f"agent {i} monotone", check_monotone(spec, inst.signals))
        if inst.n <= 14:
            record(f"agent {i} subadditive over signals",
                   check_subadditive_over_signals(spec, full_bundle, inst.signals))
        if uncapped and inst.n <= 10:
            record(f"agent {i} XOS over signals",
                   check_xos_over_signals(spec, full_bundle, inst.signals))
        if inst.m <= 6:
            record(f"agent {i} XOS over items",
                   check_xos_over_items(spec, inst.signals, range(inst.m)))

    if inst.n <= 6:
        k = sample_size(inst.n, "n/e")
        additive_positive = all(
            isinstance(s, XOSValuation)
            and len(s.clauses) == 1
            and len(s.clauses[0]) == inst.m
            and all(w.const > 0 for _, w in s.clauses[0])
            for s in inst.specs
        )
        runtime = InstanceRuntime(inst)
        ok = True
        detail = ""
        for t in range(max(k, 1), inst.n):
            bound = Fraction(k, t)
            for j in range(inst.m):
                p = survival_probability(inst, j, t, k, "exact", runtime=runtime)
                if p < bound or (additive_positive and p != bound):
                    ok = False
                    detail = f"item {j}, step {t}: survival {p} vs k/t = {bound}"
                    break
            if not ok:
                break
        name = "item survival " + ("equals k/t" if additive_positive else ">= k/t")
        record(name, ok, detail)

    if all(isinstance(s, SeparableValuation) for s in inst.specs) and inst.n <= 10:
        bound = check_random_sampling_bound(inst, "exact")
        record("random half-sample proxy optimum >= OPT/4", bound.passed,
               f"lhs={float(bound.lhs):.6f} rhs={float(bound.rhs):.6f}")

    rng = np.random.default_rng(args.seed)
    tail_ok = True
    for _ in range(200):
        seq = random_valid_tail_sequence(50, rng)
        res = check_tail_harmonic_sum(seq)
        if not res.passed:
            tail_ok = False
            break
    record("tail harmonic sum bound on 200 random valid sequences", tail_ok)

    for name, witness in witnesses:
        print(f"witness for {name}: {witness}")
    if failures:
        print(f"{failures} check(s) failed")
        return 2
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "audit": _cmd_audit,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (ValidationError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
