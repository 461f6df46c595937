"""Show that every oracle of the benchmark catches an injected fault.

    python3 bench/selftest.py

Each case runs one oracle twice on instances of the benchmark's own
workloads (seed 0): once on the library as it is, where it must pass,
and once with a fault wrapped around one library function at every
binding site, where it must report a failure.  Exits 0 when every case
behaves so, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import workloads as wl
from workloads import WORKLOADS, setup

import secalloc as sa
import oracles
from tracer import patched


# --- faults ----------------------------------------------------------------

def drop_bundle(original):
    """solve_from_tables / opt_matching that leaves one agent's items unallocated."""
    def faulty(*args, **kwargs):
        alloc = original(*args, **kwargs)
        if not alloc.bundles:
            return alloc
        victim = min(alloc.bundles)
        bundles = {i: b for i, b in alloc.bundles.items() if i != victim}
        per_agent = {i: v for i, v in alloc.per_agent_value.items() if i != victim}
        value = sum(per_agent[i] for i in sorted(per_agent)) if per_agent else 0.0
        return sa.Allocation(alloc.agents, alloc.items, bundles, per_agent, value)
    return faulty


def _unchecked(result, **changes):
    """Copy of a frozen result with fields replaced, skipping its own validation."""
    clone = object.__new__(type(result))
    for f in dataclasses.fields(result):
        object.__setattr__(clone, f.name, changes.get(f.name, getattr(result, f.name)))
    return clone


def overlap_bundles(original):
    """A run that also hands an allocated item to a second agent."""
    def faulty(inst, *args, **kwargs):
        res = original(inst, *args, **kwargs)
        if not res.bundles:
            return res
        item = min(next(iter(res.bundles.values())))
        other = next(a for a in range(inst.n) if a not in res.bundles)
        return _unchecked(res, bundles={**res.bundles, other: frozenset({item})})
    return faulty


def two_items(original):
    """A mechanism run that gives one matched agent a second item."""
    def faulty(inst, *args, **kwargs):
        res = original(inst, *args, **kwargs)
        taken = set().union(*res.bundles.values()) if res.bundles else set()
        spare = next((j for j in range(inst.m) if j not in taken), None)
        if not res.bundles or spare is None:
            return res
        agent = min(res.bundles)
        return _unchecked(res, bundles={**res.bundles, agent: res.bundles[agent] | {spare}})
    return faulty


def replace_result(**changes):
    def make(original):
        def faulty(*args, **kwargs):
            return _unchecked(original(*args, **kwargs), **changes)
        return faulty
    return make


def shift_survival(original):
    def faulty(*args, **kwargs):
        return original(*args, **kwargs) + Fraction(1, 720)
    return faulty


def failing_monotone(original):
    def faulty(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), passed=False)
    return faulty


# --- cases ----------------------------------------------------------------

def cases(inp: dict) -> list:
    """(oracle, fault, (module, function, fault factory), check returning failures)."""
    g, c1, c6, c7, c5 = inp["G"][0], inp["C1"][0], inp["C6"][0], inp["C7"][0], inp["C5"][0]
    c2, c3, c4, k_sep = inp["C2"][0], inp["C3"][0], inp["C4"][0], inp["K-sep-capped"][0]

    def opt_vs_milp():
        stats = sa.estimate_ratio(g.inst, sa.ExperimentConfig("alg1", trials=3, seed=1))
        return oracles.check_opt_value("G", stats.opt_value, oracles.xos_opt_milp(oracles.read_doc(g))[0])

    def opt_vs_lsa():
        stats = sa.estimate_ratio(c6.inst, sa.ExperimentConfig("rei19", trials=3, seed=1))
        lsa = oracles.matching_opt_lsa(oracles.unit_weights(oracles.read_doc(c6)))
        return oracles.check_opt_value("C6", stats.opt_value, lsa)

    def brute_force():
        calls = oracles.record_matchings(lambda: [sa.run_mechanism(c7.inst, o)
                                                  for o in oracles.sample_orders(c7.inst.n, 3, 3)])
        return oracles.check_matchings(calls)

    def greedy_runs():
        doc = oracles.read_doc(c1)
        return oracles.greedy_sample_runs("C1", c1, doc, oracles.xos_opt_milp(doc)[0])

    def mechanism_runs():
        w = oracles.unit_weights(oracles.read_doc(c7))
        return oracles.matching_sample_runs("C7", c7, w, oracles.matching_opt_lsa(w),
                                             mechanism=True, rei19=False)[0]

    def stats_check(item, alg, bound):
        def run():
            stats = sa.estimate_ratio(item.inst, sa.ExperimentConfig(alg, trials=20, seed=1))
            return oracles.check_stats(alg, stats, 20, bound)
        return run

    return [
        ("XOS optimum by milp", "solve_from_tables drops an agent's bundle",
         ("offline", "solve_from_tables", drop_bundle), opt_vs_milp),
        ("matching optimum by linear_sum_assignment", "solve_from_tables drops an agent's bundle",
         ("offline", "solve_from_tables", drop_bundle), opt_vs_lsa),
        ("brute-force small matchings", "opt_matching drops one agent's item",
         ("offline", "opt_matching", drop_bundle), brute_force),
        ("tie-break contract", "opt_matching drops one agent's item",
         ("offline", "opt_matching", drop_bundle), lambda: oracles.check_tie_break("C6", c6.inst)),
        ("disjoint bundles, ALG <= OPT", "greedy run hands an item to two agents",
         ("secretary", "run_sample_then_greedy", overlap_bundles), greedy_runs),
        ("one item per mechanism agent", "mechanism gives an agent two items",
         ("mechanism", "run_mechanism", two_items), mechanism_runs),
        ("ALG/OPT <= 1 in RatioStats", "estimate_ratio reports max ratio 1.01",
         ("harness", "estimate_ratio", replace_result(max_ratio=1.01)),
         stats_check(c1, "alg1", 1 / (2 * math.e) - 0.03)),
        ("C6 mean bound", "estimate_ratio reports mean 0.3",
         ("harness", "estimate_ratio", replace_result(mean=0.3)), stats_check(c6, "rei19", 1 / math.e - 0.03)),
        ("EPIC violation <= 1e-9", "check_epic reports a 1e-6 gain",
         ("mechanism", "check_epic", replace_result(violation=1e-6)),
         lambda: oracles.check_audits("C5", wl.audit_order(c5.inst, c5.seed, 0))),
        ("truthful utility >= -1e-9", "check_epic reports utility -1e-6",
         ("mechanism", "check_epic", replace_result(truth_utility=-1e-6)),
         lambda: oracles.check_audits("C5", wl.audit_order(c5.inst, c5.seed, 0))),
        ("C2 exact mean >= 3/10", "estimate_ratio reports mean 29/100",
         ("harness", "estimate_ratio", replace_result(mean=Fraction(29, 100))),
         lambda: oracles.check_c2("C2", sa.estimate_ratio(
             c2.inst, sa.ExperimentConfig("alg2", trials=1, mode="exact_orders")), 120)),
        ("C3 survival = k/t", "survival_probability is 1/720 too high",
         ("secretary", "survival_probability", shift_survival),
         lambda: oracles.check_survival("C3", wl.survival_table(c3.inst, 2), 2)),
        ("C4 half-sample >= OPT/4", "the bound's left side drops to 0",
         ("mechanism", "check_random_sampling_bound", replace_result(lhs=Fraction(0))),
         lambda: oracles.check_half_sample("C4", sa.check_random_sampling_bound(c4.inst, "exact"))),
        ("secretary check exit code", "check_monotone fails",
         ("structure_checks", "check_monotone", failing_monotone),
         lambda: oracles.check_secretary("check", *wl.secretary_check(k_sep.path, k_sep.seed))),
    ]


def main() -> int:
    out_dir = wl.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="selftest-") as tmp:
        inp = {}
        for name in ("suite-mix", "greedy-cold", "exact-check"):
            directory = Path(tmp) / name
            directory.mkdir()
            inp.update(setup(WORKLOADS[name], 0, directory))
        for oracle, fault, (module, function, factory), check in cases(inp):
            clean = check()
            with patched(module, function, factory):
                caught = check()
            passed = not clean and bool(caught)
            ok &= passed
            detail = caught[0] if caught else "fault not caught"
            if clean:
                detail = f"fails without a fault: {clean[0]}"
            print(f"{'PASS' if passed else 'FAIL'} {oracle}: injected '{fault}' -> {detail[:160]}")
    print("every oracle catches its fault" if ok else "SOME ORACLES MISSED THEIR FAULT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
