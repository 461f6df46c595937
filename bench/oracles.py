"""Correctness checks that run after the timed part of every workload.

The optimum oracles re-derive values from the instance JSON documents
with their own arithmetic and solvers, sharing no code with the library:
an XOS welfare optimum by ``scipy.optimize.milp``, a float max-weight
matching by ``scipy.optimize.linear_sum_assignment``, and brute-force
enumeration of small matchings with the library's tie-break (the
lexicographically smallest assignment vector among exact-rational
maximizers).  The tie-break contract between ``opt_matching`` and
``solve_from_tables`` is checked on every unit-demand instance, and the
properties the method guarantees are checked on the returned results.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp

import secalloc as sa
from secalloc.offline import solve_from_tables

import tracer

REL_TOL = 1e-9
FLOAT_TOL = 1e-9
MATCHING_SAMPLE = 12  # opt_matching calls replayed by brute force on suite-mix


# --- independent evaluation from the instance document -------------------

def weight_value(w: dict, signals) -> float:
    total = w.get("const", 0.0) + sum(c * s for c, s in zip(w["coeffs"], signals))
    cap = w.get("cap")
    return cap if cap is not None and total > cap else total


def xos_values(agent: dict, m: int, signals) -> list:
    """Value of every bundle (indexed by item bitmask) of one XOS agent."""
    clauses = [{e["item"]: weight_value(e["weight"], signals) for e in clause}
               for clause in agent["clauses"]]
    return [
        max(sum(c.get(j, 0.0) for j in range(m) if mask >> j & 1) for c in clauses)
        for mask in range(1 << m)
    ]


def unit_weights(doc: dict) -> list:
    """Per-item weights of every unit-demand or separable agent at the true signals."""
    s = doc["signals"]
    rows = []
    for agent in doc["agents"]:
        if agent["type"] == "unit_demand":
            rows.append([weight_value(w, s) for w in agent["weights"]])
        else:
            rows.append([weight_value(o, s) + weight_value(x, s)
                         for o, x in zip(agent["own"], agent["others"])])
    return rows


def read_doc(item) -> dict:
    with open(item.path, encoding="utf-8") as fh:
        return json.load(fh)


# --- optimum oracles -----------------------------------------------------

def xos_opt_milp(doc: dict) -> tuple:
    """XOS welfare optimum over (agent, bundle) binaries: (value, {agent: bundle})."""
    n, m, s = doc["n"], doc["m"], doc["signals"]
    values = [xos_values(agent, m, s) for agent in doc["agents"]]
    pairs = [(i, mask) for i in range(n) for mask in range(1, 1 << m)]
    a = np.zeros((n + m, len(pairs)))
    for col, (i, mask) in enumerate(pairs):
        a[i, col] = 1
        for j in range(m):
            if mask >> j & 1:
                a[n + j, col] = 1
    res = milp(
        c=-np.array([values[i][mask] for i, mask in pairs]),
        constraints=LinearConstraint(a, -np.inf, 1),
        integrality=np.ones(len(pairs)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    chosen = {i: mask for (i, mask), x in zip(pairs, res.x) if x > 0.5}
    used = 0
    for mask in chosen.values():
        if used & mask:
            raise RuntimeError("milp returned overlapping bundles")
        used |= mask
    value = sum(values[i][chosen[i]] for i in sorted(chosen))
    return value, {i: frozenset(j for j in range(m) if mask >> j & 1) for i, mask in chosen.items()}


def matching_opt_lsa(weights) -> float:
    w = np.array(weights, dtype=float)
    rows, cols = linear_sum_assignment(w, maximize=True)
    return float(sum(w[r, c] for r, c in zip(rows, cols)))


def brute_force_matching(agents, weights, items) -> tuple:
    """Max-weight matching by enumerating every partial injective assignment.

    Items are assigned in ascending order, each to "nobody" first and then
    to agents in ascending order, so the first exact maximizer met is the
    lexicographically smallest assignment vector.  Returns
    (value as the library sums it, {agent: frozenset({item})}).
    """
    agents = sorted(set(agents))
    items = sorted(set(items))
    exact = {(a, j): Fraction(weights[a][j]) for a in agents for j in items}
    best = [None, None]

    def walk(pos, used, total, vector):
        if pos == len(items):
            if best[0] is None or total > best[0]:
                best[0], best[1] = total, list(vector)
            return
        j = items[pos]
        vector.append(None)
        walk(pos + 1, used, total, vector)
        vector.pop()
        for a in agents:
            if a not in used:
                vector.append(a)
                used.add(a)
                walk(pos + 1, used, total + exact[(a, j)], vector)
                used.discard(a)
                vector.pop()

    walk(0, set(), Fraction(0), [])
    bundles = {a: frozenset({j}) for j, a in zip(items, best[1]) if a is not None}
    per_agent = {a: weights[a][next(iter(b))] for a, b in bundles.items()}
    value = sum(per_agent[a] for a in sorted(per_agent)) if per_agent else 0.0
    return value, bundles


# --- checks --------------------------------------------------------------

def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_opt_value(label: str, reported, oracle) -> list:
    if _close(float(reported), float(oracle)):
        return []
    return [f"{label}: reported OPT {float(reported)!r} != oracle {float(oracle)!r}"]


def check_matchings(calls: list) -> list:
    """Brute-force every recorded opt_matching call: exact value and allocation."""
    out = []
    for agents, weights, items, alloc in calls:
        value, bundles = brute_force_matching(agents, weights, items)
        if value != alloc.value or bundles != dict(alloc.bundles):
            out.append(f"opt_matching on {len(agents)}x{len(items)}: value {alloc.value!r} "
                       f"bundles {dict(alloc.bundles)} != brute force {value!r} {bundles}")
    return out


def check_tie_break(label: str, inst) -> list:
    """opt_matching and solve_from_tables pick the same allocation, ties included."""
    tables = [sa.bundle_value_table(spec, inst.signals) for spec in inst.specs]
    weights = {i: [tables[i][1 << j] for j in range(inst.m)] for i in range(inst.n)}
    via_matching = sa.opt_matching(range(inst.n), weights, range(inst.m))
    via_tables = solve_from_tables(range(inst.n), tables, range(inst.m))
    if via_matching.value == via_tables.value and dict(via_matching.bundles) == dict(via_tables.bundles):
        return []
    return [f"{label}: opt_matching {dict(via_matching.bundles)} = {via_matching.value!r} but "
            f"solve_from_tables {dict(via_tables.bundles)} = {via_tables.value!r}"]


def check_bundles(label: str, bundles, m: int, unit: bool = False) -> list:
    """Bundles are disjoint subsets of the items; unit demand gets at most one item."""
    out, seen = [], set()
    for agent, bundle in bundles.items():
        if seen & set(bundle):
            out.append(f"{label}: agent {agent}'s bundle {sorted(bundle)} overlaps another")
        if not set(bundle) <= set(range(m)):
            out.append(f"{label}: agent {agent} holds unknown items {sorted(bundle)}")
        if unit and len(bundle) > 1:
            out.append(f"{label}: agent {agent} holds {len(bundle)} items")
        seen |= set(bundle)
    return out


def check_alg_le_opt(label: str, alg, opt) -> list:
    if isinstance(alg, Fraction) and isinstance(opt, Fraction):
        ok = alg <= opt
    else:
        ok = alg <= opt * (1 + FLOAT_TOL) + FLOAT_TOL
    if ok:
        return []
    return [f"{label}: ALG {alg!r} exceeds OPT {opt!r}"]


def check_stats(label: str, stats, trials: int, mean_bound=None) -> list:
    out = []
    if stats.trials != trials:
        out.append(f"{label}: {stats.trials} orders, expected {trials}")
    if stats.max_ratio > 1 + FLOAT_TOL:
        out.append(f"{label}: ALG/OPT reached {stats.max_ratio!r} > 1")
    if mean_bound is not None and not stats.mean >= mean_bound:
        out.append(f"{label}: mean ratio {float(stats.mean):.4f} < bound {float(mean_bound):.4f}")
    return out


def check_audits(label: str, audits) -> list:
    out = []
    for audit in audits:
        if not audit.violation <= 1e-9:
            out.append(f"{label}: agent {audit.agent} gains {audit.violation:.3e} by misreporting")
        if not audit.truth_utility >= -1e-9:
            out.append(f"{label}: agent {audit.agent} has truthful utility {audit.truth_utility:.3e}")
    return out


def check_c2(label: str, stats, orders: int) -> list:
    """Exact mean over all orders >= k(n-k)/(n(n-1)) = 3/10, zero tolerance."""
    out = check_stats(label, stats, orders, Fraction(3, 10))
    if not isinstance(stats.mean, Fraction):
        out.append(f"{label}: mean {stats.mean!r} is not exact")
    return out


def check_survival(label: str, table: dict, k: int) -> list:
    """Item survival equals k/t exactly on positive additive instances."""
    return [f"{label}: item {j} survives step {t} with {p!r} != {k}/{t}"
            for (t, j), p in table.items() if not (isinstance(p, Fraction) and p == Fraction(k, t))]


def check_half_sample(label: str, bound) -> list:
    """E over half-samples of the proxy optimum >= OPT/4, exact."""
    if isinstance(bound.lhs, Fraction) and isinstance(bound.rhs, Fraction) and bound.lhs >= bound.rhs:
        return []
    return [f"{label}: E[proxy OPT] {bound.lhs!r} < OPT/4 {bound.rhs!r}"]


def check_secretary(label: str, code: int, text: str) -> list:
    if code == 0 and "[FAIL]" not in text:
        return []
    return [f"{label}: exit {code}: " + " | ".join(line for line in text.splitlines() if "FAIL" in line)]


def record_matchings(fn):
    """Run ``fn`` and return the opt_matching calls it made, with their inputs."""
    calls = []

    def make(original):
        def recorder(agents, weights, items):
            agents, items = list(agents), list(items)
            alloc = original(agents, weights, items)
            calls.append((agents, {a: weights[a] for a in agents}, items, alloc))
            return alloc
        return recorder

    with tracer.patched("offline", "opt_matching", make):
        fn()
    return calls


def sample_orders(n: int, seed: int, count: int) -> list:
    return [sa.ArrivalOrder.random(n, np.random.default_rng(np.random.SeedSequence((seed, 7, o))))
            for o in range(count)]


def greedy_sample_runs(label: str, item, doc, opt_value) -> list:
    """Disjointness and ALG <= OPT on a few individual greedy and framework runs."""
    inst, out = item.inst, []
    values = [xos_values(a, doc["m"], doc["signals"]) for a in doc["agents"]]
    k = sa.sample_size(inst.n, "n/e")
    for order in sample_orders(inst.n, item.seed, 2):
        for name, run in (
            ("greedy", lambda: sa.run_sample_then_greedy(inst, order, k)),
            ("framework", lambda: sa.run_proxy_framework(inst, order, sa.make_sample_then_greedy_blackbox())),
        ):
            res = run()
            out += check_bundles(f"{label} {name}", res.bundles, inst.m)
            alg = sum(values[i][sum(1 << j for j in b)] for i, b in sorted(res.bundles.items()))
            out += check_alg_le_opt(f"{label} {name}", alg, opt_value)
    return out


def matching_sample_runs(label: str, item, weights, opt_value, mechanism: bool, rei19: bool) -> tuple:
    """Rei19 and mechanism runs on one order: bundles, ALG <= OPT; returns (failures, matchings)."""
    inst, out = item.inst, []
    (order,) = sample_orders(inst.n, item.seed, 1)
    results = {}

    def go():
        if rei19:
            sigs = inst.signals.values
            w = {i: tuple(inst.specs[i].item_weight(j, sigs) for j in range(inst.m)) for i in range(inst.n)}
            results["rei19"] = sa.run_sample_then_match(w, inst.m, order, sa.sample_size(inst.n, "n/e"))
        if mechanism:
            results["mechanism"] = sa.run_mechanism(inst, order)

    calls = record_matchings(go)
    for name, res in results.items():
        out += check_bundles(f"{label} {name}", res.bundles, inst.m, unit=True)
        alg = sum(weights[i][next(iter(b))] for i, b in sorted(res.bundles.items()))
        out += check_alg_le_opt(f"{label} {name}", alg, opt_value)
    if "mechanism" in results:
        outcome = results["mechanism"]
        for i, p in outcome.payments.items():
            if i not in outcome.bundles and p != 0:
                out.append(f"{label} mechanism: agent {i} pays {p!r} for nothing")
    return out, calls


def _by_label(ops: list, results: list) -> dict:
    """label -> [(op, result)] in operation order; a failed operation's result is None."""
    out: dict = {}
    for op, res in zip(ops, results):
        out.setdefault(op.label, []).append((op, res))
    return out


def _done(items: list, pairs: list):
    """(instance, op, result) for each operation of a label that returned."""
    return [(item, op, res) for item, (op, res) in zip(items, pairs) if res is not None]


# --- per-workload verification --------------------------------------------

def verify(name: str, inp: dict, ops: list, results: list) -> tuple:
    """Run every oracle of a workload; returns (checks made, failure messages)."""
    fn = {
        "suite-mix": _verify_suite_mix,
        "greedy-cold": _verify_greedy_cold,
        "matching-large": _verify_matching_large,
        "exact-check": _verify_exact_check,
    }[name]
    checks = fn(inp, _by_label(ops, results))
    return len(checks), [msg for msgs in checks for msg in msgs]


def _verify_suite_mix(inp, res) -> list:
    checks = []
    bounds = {"C1 alg1": 1 / (2 * math.e) - 0.03, "C6 rei19": 1 / math.e - 0.03,
              "C7 mechanism": 1 / (4 * math.e) - 0.03}
    for label, key in (("C1 alg1", "C1"), ("C6 rei19", "C6"), ("C7 mechanism", "C7")):
        for item, op, stats in _done(inp[key], res[label]):
            checks.append(check_stats(label, stats, op.orders, bounds[label]))
            doc = read_doc(item)
            if key == "C1":
                checks.append(check_opt_value(label, stats.opt_value, xos_opt_milp(doc)[0]))
            else:
                checks.append(check_opt_value(label, stats.opt_value, matching_opt_lsa(unit_weights(doc))))
    for _, audits in res["C5 audit"]:
        if audits is not None:
            checks.append(check_audits("C5", audits))
    for key in ("C6", "C7", "C5"):
        for item in inp[key]:
            checks.append(check_tie_break(f"{key} seed {item.seed}", item.inst))

    c1 = inp["C1"][0]
    c1_doc = read_doc(c1)
    checks.append(greedy_sample_runs("C1", c1, c1_doc, xos_opt_milp(c1_doc)[0]))
    calls = []
    for key, mech in (("C6", False), ("C7", True)):
        item = inp[key][0]
        w = unit_weights(read_doc(item))
        msgs, rec = matching_sample_runs(key, item, w, matching_opt_lsa(w), mechanism=mech, rei19=not mech)
        checks.append(msgs)
        calls += rec
    checks.append(check_matchings(calls[:MATCHING_SAMPLE]))
    return checks


def _verify_greedy_cold(inp, res) -> list:
    checks = []
    for label in ("alg1", "framework greedy"):
        for item, op, stats in _done(inp["G"], res[label]):
            checks.append(check_stats(label, stats, op.orders))
            checks.append(check_opt_value(f"{label} seed {item.seed}", stats.opt_value,
                                          xos_opt_milp(read_doc(item))[0]))
    item = inp["G"][0]
    doc = read_doc(item)
    checks.append(greedy_sample_runs("G", item, doc, xos_opt_milp(doc)[0]))
    return checks


def _verify_matching_large(inp, res) -> list:
    checks = []
    for label in ("rei19", "mechanism"):
        for item, op, stats in _done(inp["L"], res[label]):
            checks.append(check_stats(label, stats, op.orders))
            checks.append(check_opt_value(f"{label} seed {item.seed}", stats.opt_value,
                                          matching_opt_lsa(unit_weights(read_doc(item)))))
    for item in inp["L"]:
        checks.append(check_tie_break(f"L seed {item.seed}", item.inst))
    item = inp["L"][0]
    w = unit_weights(read_doc(item))
    msgs, _ = matching_sample_runs("L", item, w, matching_opt_lsa(w), mechanism=True, rei19=True)
    checks.append(msgs)
    return checks


def _verify_exact_check(inp, res) -> list:
    checks = []
    for item, op, stats in _done(inp["C2"], res["C2 alg2 exact"]):
        checks.append(check_c2(f"C2 seed {item.seed}", stats, op.orders))
    for item, _, table in _done(inp["C3"], res["C3 survival"]):
        checks.append(check_survival(f"C3 seed {item.seed}", table, 2))
    for item, _, bound in _done(inp["C4"], res["C4 half-sample"]):
        checks.append(check_half_sample(f"C4 seed {item.seed}", bound))
    for label, pairs in res.items():
        if label.startswith("check "):
            for code, text in (r for _, r in pairs if r is not None):
                checks.append(check_secretary(label, code, text))
    for key in ("C4", "K-sep-capped", "K-sep-linear"):
        for item in inp[key]:
            checks.append(check_tie_break(f"{key} seed {item.seed}", item.inst))
    return checks
