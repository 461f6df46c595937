"""From-scratch reference implementations used as independent oracles.

These deliberately re-derive everything from the definitions by literal
enumeration, sharing no code with the library paths they check, or keep
the slower algorithm a fast path replaced (such as the padded square
Hungarian behind ``ref_opt_matching_padded``, the all-layers subset DP
behind ``ref_solve_from_tables`` and the point-by-point monotonicity
loop behind ``ref_check_monotone``).  The tie-break notion matches the
library contract: among exact-rational welfare maximizers, the
lexicographically smallest assignment vector (items in ascending order,
"unassigned" before agent ids ascending).

:func:`assert_invariants` holds the structural checks that the library's
result records no longer run on themselves; the properties call it on
every record they produce.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from secalloc._util import set_of
from secalloc.errors import ValidationError
from secalloc.mechanism import MechanismOutcome
from secalloc.offline import Allocation
from secalloc.structure_checks import VALUE_TOL, CheckResult
from secalloc.valuations import SignalProfile, ValuationSpec, eval_valuation, mask_signals


@dataclass(frozen=True)
class WeightOracle:
    """One agent's bundle valuation at a fixed signal profile, called on a bundle."""

    agent: int
    fn: Callable[[frozenset], object]

    def __call__(self, bundle):
        return self.fn(frozenset(bundle))

    @classmethod
    def from_item_weights(cls, agent, weights):
        """Unit-demand oracle over a dense per-item weight vector."""
        ws = tuple(weights)
        return cls(agent, lambda bundle: max((ws[j] for j in bundle), default=0))


def assert_invariants(record):
    """Assert what every library-built result record holds by construction.

    For an ``Allocation``, a ``RunResult`` or a ``MechanismOutcome``:

    * bundles are nonempty and pairwise disjoint;
    * a run's trace gives each agent its bundle, out of the items still
      available at its step;
    * an ``Allocation``'s bundles go to its agents, lie in its items and
      have positive values, and ``value`` is ``per_agent_value`` summed in
      agent order (0.0 when nothing is allocated), repr for repr;
    * a ``MechanismOutcome`` gives one item per winner, and every agent
      without a bundle pays exactly 0.
    """
    seen = set()
    for i, bundle in record.bundles.items():
        assert bundle, f"agent {i} has an empty bundle entry"
        assert not seen & bundle, f"agent {i} overlaps another agent's bundle"
        seen |= bundle
    if isinstance(record, Allocation):
        per_agent = record.per_agent_value
        assert set(record.bundles) <= record.agents
        assert seen <= record.items
        assert set(per_agent) == set(record.bundles)
        assert all(v > 0 for v in per_agent.values())
        total = sum(per_agent[i] for i in sorted(per_agent)) if per_agent else 0.0
        assert repr(record.value) == repr(total)
        return
    for step in record.trace:
        assert step.bundle <= step.available, f"step {step.t} takes an unavailable item"
    assert {s.agent: s.bundle for s in record.trace if s.bundle} == dict(record.bundles)
    if isinstance(record, MechanismOutcome):
        assert all(len(b) == 1 for b in record.bundles.values())
        assert all(p == 0 for i, p in record.payments.items() if i not in record.bundles)


def ref_integerize(values):
    """Scale exact Fractions by the lcm of their denominators.

    NumPy integers become Python ints first: a Fraction keeps a NumPy
    numerator, whose fixed-width products overflow.
    """
    fracs = [Fraction(int(v)) if isinstance(v, np.integer) else Fraction(v) for v in values]
    if not fracs:
        return [], 1
    denom = math.lcm(*(f.denominator for f in fracs))
    return [int(f * denom) for f in fracs], denom


def ref_mask_signals(profile, agents):
    """Zero the signals outside ``agents`` in a freshly validated profile."""
    keep = set(agents)
    zero = 0 * profile.values[0] if len(profile) else 0
    return SignalProfile(v if i in keep else zero for i, v in enumerate(profile.values))


def ref_opt_brute(agents, value_of, items):
    """Enumerate every assignment vector; first exact maximizer wins.

    ``value_of(agent, frozenset)`` returns that agent's bundle value.
    Returns (bundles, per_agent, value) with value summed in ascending
    agent order, like the library does.
    """
    agents = sorted(agents)
    items = sorted(items)
    best_welfare = None
    best_assignment = None
    for assignment in itertools.product([None] + agents, repeat=len(items)):
        bundles = {a: set() for a in agents}
        for j, owner in zip(items, assignment):
            if owner is not None:
                bundles[owner].add(j)
        welfare = sum(
            Fraction(value_of(a, frozenset(bundles[a]))) for a in agents
        )
        if best_welfare is None or welfare > best_welfare:
            best_welfare = welfare
            best_assignment = assignment
    bundles = {}
    for j, owner in zip(items, best_assignment):
        if owner is not None:
            bundles.setdefault(owner, set()).add(j)
    bundles = {a: frozenset(b) for a, b in bundles.items()}
    per_agent = {a: value_of(a, bundles[a]) for a in bundles}
    value = sum(per_agent[a] for a in sorted(per_agent)) if per_agent else 0.0
    return bundles, per_agent, value


def ref_matching_brute(agents, weights, items):
    """Max-weight matching by enumerating all partial injective maps."""
    agents = sorted(agents)
    items = sorted(items)

    def value_of(agent, bundle):
        return max((weights[agent][j] for j in bundle), default=0)

    best_welfare = None
    best_assignment = None
    # Assignment vectors over items, at most one item per agent.
    for assignment in itertools.product([None] + agents, repeat=len(items)):
        owners = [a for a in assignment if a is not None]
        if len(owners) != len(set(owners)):
            continue
        welfare = sum(
            Fraction(weights[a][j]) for j, a in zip(items, assignment) if a is not None
        )
        if best_welfare is None or welfare > best_welfare:
            best_welfare = welfare
            best_assignment = assignment
    bundles = {
        a: frozenset({j}) for j, a in zip(items, best_assignment) if a is not None
    }
    per_agent = {a: weights[a][next(iter(b))] for a, b in bundles.items()}
    value = sum(per_agent[a] for a in sorted(per_agent)) if per_agent else 0.0
    return bundles, per_agent, value


def _ref_min_cost_assignment_square(cost):
    """Exact square assignment (Hungarian with potentials), O(N^3).

    Works on arbitrary exact integers; returns the column of each row.
    """
    n = len(cost)
    inf = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            ui = u[i0]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [0] * n
    for j in range(1, n + 1):
        if p[j]:
            col_of_row[p[j] - 1] = j - 1
    return col_of_row


def ref_opt_matching_padded(agents, weights, items):
    """Max-weight matching on the (t+q) x (t+q) square padded with zeros.

    t agents and q items are padded so that every agent may stay
    unmatched (a dummy item) and every item unsold (a dummy agent); the
    square Hungarian then solves the lex-perturbed gains exactly.  Weights
    are scaled with :func:`ref_integerize`, which equals the library's
    integerization.
    """
    ag = sorted(set(agents))
    it = sorted(set(items))
    t, q = len(ag), len(it)
    if t == 0 or q == 0:
        return Allocation(frozenset(ag), frozenset(it), {}, {}, 0.0)

    w_rows = []
    for i in ag:
        row = []
        for j in it:
            w = weights[i][j]
            if not (0 <= w < float("inf")):
                raise ValidationError(f"weight for agent {i}, item {j} must be finite nonnegative")
            row.append(w)
        w_rows.append(row)

    ints, _ = ref_integerize([w for row in w_rows for w in row])
    base = t + 2
    big_k = base ** q
    powers = [base ** (q - 1 - b) for b in range(q)]

    size = t + q
    gains = [[0] * size for _ in range(size)]
    for r in range(t):
        for b in range(q):
            gains[r][b] = ints[r * q + b] * big_k - (r + 1) * powers[b]

    cols = _ref_min_cost_assignment_square([[-g for g in row] for row in gains])

    bundles = {}
    per_agent = {}
    for r in range(t):
        b = cols[r]
        if b < q and gains[r][b] > 0:
            bundles[ag[r]] = frozenset({it[b]})
            per_agent[ag[r]] = w_rows[r][b]
    value = sum(per_agent[i] for i in sorted(per_agent)) if per_agent else 0.0
    return Allocation(frozenset(ag), frozenset(it), bundles, per_agent, value)


def _ref_submasks(mask):
    """Yield every submask of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def ref_solve_from_tables(agent_ids, tables, item_ids):
    """The subset DP with every agent's layer over all t * 3^q (set, submask) pairs.

    ``tables[r]`` is indexed by bitmask over ``item_ids``, as for the
    library's ``solve_from_tables``; weights are scaled with
    :func:`ref_integerize` and perturbed by the same lex code.
    """
    agents = list(agent_ids)
    items = list(item_ids)
    q = len(items)
    t = len(agents)
    full = (1 << q) - 1

    if t == 0:
        return Allocation(frozenset(), frozenset(items), {}, {}, 0.0)

    for r, tab in enumerate(tables):
        if tab[0] != 0:
            raise ValidationError(f"oracle for agent {agents[r]} must value the empty bundle at 0")

    flat = [v for tab in tables for v in tab]
    ints, _ = ref_integerize(flat)
    size = 1 << q
    base = t + 2
    big_k = base ** q
    codes = [sum(base ** (q - 1 - b) for b in range(q) if mask >> b & 1) for mask in range(size)]

    combined = []
    for r in range(t):
        off = r * size
        rank_w = r + 1
        combined.append([ints[off + mask] * big_k - rank_w * codes[mask] for mask in range(size)])

    f = [0] * size
    choices = []
    for r in range(t):
        comb = combined[r]
        g = [0] * size
        choice = [0] * size
        for s_mask in range(size):
            best = f[s_mask]  # agent r takes nothing
            best_x = 0
            for x in _ref_submasks(s_mask):
                if x == 0:
                    continue
                cand = f[s_mask ^ x] + comb[x]
                if cand > best:
                    best = cand
                    best_x = x
            g[s_mask] = best
            choice[s_mask] = best_x
        f = g
        choices.append(choice)

    bundles = {}
    per_agent = {}
    s_mask = full
    for r in range(t - 1, -1, -1):
        x = choices[r][s_mask]
        s_mask ^= x
        if x:
            bundles[agents[r]] = frozenset(items[b] for b in range(q) if x >> b & 1)
            per_agent[agents[r]] = tables[r][x]

    value = sum(per_agent[i] for i in sorted(per_agent)) if per_agent else 0.0
    return Allocation(frozenset(agents), frozenset(items), bundles, per_agent, value)


def ref_run_sample_then_greedy(inst, order, k):
    """Step the sample-then-greedy algorithm literally from its description."""
    available = set(range(inst.m))
    arrived = []
    bundles = {}
    for t, agent in enumerate(order, start=1):
        arrived.append(agent)
        if t <= k:
            continue
        masked = mask_signals(inst.signals, arrived)

        def value_of(a, bundle, _masked=masked):
            return eval_valuation(inst.specs[a], bundle, _masked)

        step_bundles, _, _ = ref_opt_brute(arrived, value_of, range(inst.m))
        mine = set(step_bundles.get(agent, frozenset())) & available
        if mine:
            bundles[agent] = frozenset(mine)
            available -= mine
    welfare = sum(
        eval_valuation(inst.specs[a], bundles[a], inst.signals) for a in sorted(bundles)
    )
    return bundles, welfare


def ref_run_sample_then_match(weights, num_items, order, k):
    """Step the available-items matching secretary literally, on sets.

    Returns (trace, bundles, welfare): trace lists (t, agent, available,
    bundle) per arrival, bundles are in arrival order and welfare sums
    the matched weights in arrival order.
    """
    available = frozenset(range(num_items))
    arrived = []
    trace, bundles, welfare = [], {}, 0
    for t, agent in enumerate(order, start=1):
        arrived.append(agent)
        mine = frozenset()
        if t > k and available:
            step_bundles, _, _ = ref_matching_brute(arrived, weights, available)
            mine = step_bundles.get(agent, frozenset())
        trace.append((t, agent, available, mine))
        if mine:
            (j,) = mine
            bundles[agent] = mine
            welfare += weights[agent][j]
            available = available - mine
    return trace, bundles, welfare


def ref_check_monotone(spec, signals, *, num_items=None):
    """The exhaustive monotonicity check that evaluates every point per use.

    Each (bundle, profile) point is evaluated once as a base, once more
    per single-item extension and once more per single-signal unmasking,
    in the order (agent mask, bundle mask, items, agents); the first
    violation found is the witness.
    """
    s = signals if isinstance(signals, SignalProfile) else SignalProfile(signals)
    if isinstance(spec, ValuationSpec):
        n, m = spec.num_agents, spec.num_items
    else:
        n, m = len(s), num_items

    def val(bundle, prof):
        return eval_valuation(spec, bundle, prof)

    profiles = [mask_signals(s, set_of(a_mask)) for a_mask in range(1 << n)]
    for a_mask in range(1 << n):
        prof = profiles[a_mask]
        for x_mask in range(1 << m):
            bundle = set_of(x_mask)
            base = val(bundle, prof)
            for j in range(m):
                if x_mask >> j & 1:
                    continue
                bigger = val(bundle | {j}, prof)
                if bigger < base - VALUE_TOL:
                    return CheckResult(False, {
                        "kind": "items",
                        "bundle": sorted(bundle),
                        "bundle_sup": sorted(bundle | {j}),
                        "value": base,
                        "value_sup": bigger,
                    })
            for i in range(n):
                if a_mask >> i & 1:
                    continue
                richer = val(bundle, profiles[a_mask | (1 << i)])
                if richer < base - VALUE_TOL:
                    return CheckResult(False, {
                        "kind": "signals",
                        "bundle": sorted(bundle),
                        "profile": prof.values,
                        "profile_sup": profiles[a_mask | (1 << i)].values,
                        "value": base,
                        "value_sup": richer,
                    })
    return CheckResult(True)
