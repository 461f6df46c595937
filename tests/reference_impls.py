"""From-scratch reference implementations used as independent oracles.

These deliberately re-derive everything from the definitions by literal
enumeration, sharing no code with the library paths they check, or keep
the slower algorithm a fast path replaced (such as the padded square
Hungarian behind ``ref_opt_matching_padded``, the all-layers subset DP
behind ``ref_solve_from_tables``, the point-by-point monotonicity
loop behind ``ref_check_monotone`` and the per-order, priced-mechanism
ratio loop behind ``ref_estimate_ratio``), or keep the earlier code of a
path that was restructured, verbatim (the two-pass proxy framework, its
whole-allocation blackboxes, the mechanism's own sample split, the
table-only step optimum, and weights and bundle tables in plain Python
arithmetic).  The tie-break notion matches the library contract: among
exact-rational welfare maximizers, the lexicographically smallest
assignment vector (items in ascending order, "unassigned" before agent
ids ascending).

:func:`assert_invariants` holds the structural checks that the library's
result records no longer run on themselves; the properties call it on
every record they produce.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from secalloc._util import bits_of, mask_of, set_of, trial_rng
from secalloc.errors import CapabilityError, ValidationError
from secalloc.harness import RatioStats
from secalloc.mechanism import MechanismOutcome, MechStep, _require_mechanism, run_mechanism
from secalloc.offline import Allocation, opt_dispatch, solve_from_tables
from secalloc.secretary import (
    ArrivalOrder,
    InstanceRuntime,
    RunResult,
    _arrive,
    _check_order,
    _check_sample_size,
    _memo_matching,
    _run_result,
    make_sample_then_greedy_blackbox,
    make_sample_then_match_blackbox,
    run_proxy_framework,
    run_sample_then_greedy,
    run_sample_then_match,
    sample_size,
)
from secalloc.structure_checks import VALUE_TOL, CheckResult
from secalloc.valuations import (
    Instance,
    SeparableValuation,
    SignalProfile,
    ValuationSpec,
    XOSValuation,
    _UnitDemand,
    bundle_value_table,
    eval_valuation,
    mask_signals,
)


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


def _ref_make_order_source(inst, config):
    if config.mode == "exact_orders":
        if inst.n > 7:
            raise CapabilityError(f"exact order enumeration needs n <= 7, got n={inst.n}")
        return [ArrivalOrder(p) for p in itertools.permutations(range(inst.n))]
    return None  # drawn lazily per trial


def ref_estimate_ratio(inst, config) -> RatioStats:
    """``estimate_ratio`` as it stood with the priced mechanism in its loop.

    Every order re-picks its algorithm and runs it through the public
    run function, which validates the order, builds its own runtime or
    matching memo and records a whole :class:`RunResult`; the mechanism
    row runs the full :func:`run_mechanism` and scores its bundles.
    Only the mechanism's memo is shared, as ``solver_cache``: no result
    depends on memo sharing.
    """
    unit_demand = all(isinstance(spec, _UnitDemand) for spec in inst.specs)
    match = config.blackbox == "match" or (config.blackbox == "auto" and unit_demand)
    if not unit_demand and (config.alg == "rei19" or config.alg == "framework" and match):
        user = "rei19" if config.alg == "rei19" else "the match blackbox"
        raise ValidationError(f"{user} needs unit-demand (or separable) valuations")
    if config.alg == "mechanism":
        _require_mechanism(inst)

    runtime = InstanceRuntime(inst)
    matchings: dict = {}
    opt_true = opt_dispatch(
        inst, range(inst.n), lambda i: inst.signals, table=runtime.true_table
    ).value

    if config.alg == "rei19":
        weights = {i: runtime.true_weights(i) for i in range(inst.n)}

    def welfare(order: ArrivalOrder):
        if config.alg == "alg1":
            k = config.k if config.k is not None else sample_size(inst.n, "n/e")
            return run_sample_then_greedy(inst, order, k).welfare
        if config.alg == "alg2":
            k = config.k if config.k is not None else sample_size(inst.n, "n/2")
            return run_sample_then_greedy(inst, order, k).welfare
        if config.alg == "rei19":
            k = config.k if config.k is not None else sample_size(inst.n, "n/e")
            res = run_sample_then_match(weights, inst.m, order, k)
            return res.welfare
        if config.alg == "framework":
            make = make_sample_then_match_blackbox if match else make_sample_then_greedy_blackbox
            return run_proxy_framework(inst, order, make(config.k)).welfare
        outcome = run_mechanism(inst, order, solver_cache=matchings)
        return runtime.true_welfare({i: mask_of(b) for i, b in outcome.bundles.items()})

    orders = _ref_make_order_source(inst, config)
    if orders is None:
        orders = (
            ArrivalOrder.random(inst.n, trial_rng(config.seed, t))
            for t in range(config.trials)
        )

    ratios = []
    for order in orders:
        alg_value = welfare(order)
        # An all-zero optimum makes every allocation trivially optimal.
        ratios.append(alg_value / opt_true if opt_true > 0 else 1.0)

    mean = sum(ratios) / len(ratios)
    as_float = np.array([float(r) for r in ratios])
    std = float(as_float.std(ddof=1)) if len(ratios) > 1 else 0.0
    se = std / math.sqrt(len(ratios))
    return RatioStats(
        mean=mean,
        std_err=se,
        ci95=1.96 * se,
        min_ratio=float(as_float.min()),
        max_ratio=float(as_float.max()),
        trials=len(ratios),
        opt_value=float(opt_true),
    )


# --- the proxy framework, its blackboxes and the mechanism, before each ran
# in one engine pass: a blackbox returned a whole allocation, which the
# framework replayed; the mechanism split off its own sample.  Verbatim
# apart from the names and the blackbox type.

def ref_make_sample_then_greedy_blackbox(k: Optional[int] = None) -> Callable:
    """Classical sample-then-greedy over all items, on frozen bundle tables."""

    def run(arrivals, num_items):
        tables = {agent: bundle_value_table(spec, sigs) for agent, spec, sigs in arrivals}

        def greedy_step(agent: int, amask: int, avail: int) -> int:
            agents = bits_of(amask)
            alloc = solve_from_tables(agents, [tables[a] for a in agents], range(num_items))
            return mask_of(alloc.bundle_of(agent)) & avail

        kk = sample_size(len(arrivals), "n/e") if k is None else k
        _check_sample_size(kk, len(arrivals))
        order = [agent for agent, *_ in arrivals]
        steps = _arrive(order, num_items, kk, greedy_step)
        return {agent: set_of(taken) for _, agent, _, taken in steps if taken}

    return run


def ref_make_sample_then_match_blackbox(k: Optional[int] = None) -> Callable:
    """Classical secretary matching on frozen item weights; agents must be unit-demand."""

    def run(arrivals, num_items):
        weights = {}
        for agent, spec, sigs in arrivals:
            if not isinstance(spec, _UnitDemand):
                raise ValidationError(
                    f"the match blackbox needs unit-demand agents; agent {agent} is not"
                )
            weights[agent] = spec.item_weights(sigs)
        order = ArrivalOrder(agent for agent, *_ in arrivals)
        return dict(run_sample_then_match(weights, num_items, order, k).bundles)

    return run


def ref_run_proxy_framework(
    inst: Instance,
    order,
    blackbox: Callable,
    *,
    runtime: Optional[InstanceRuntime] = None,
) -> RunResult:
    """Half the agents buy signal information; a classical algorithm runs on the rest.

    The first floor(n/2) agents are skipped and only their signals are
    kept.  Each remaining agent's valuation is frozen at (sample signals
    + her own), which removes interdependence, and the blackbox plays
    the residual instance over all items.  Welfare is still scored at
    the full true profile.
    """
    order = _check_order(order, inst.n)
    if inst.n < 2:
        raise ValidationError("the proxy framework needs at least 2 agents")
    rt = runtime if runtime is not None else InstanceRuntime(inst)
    k1 = inst.n // 2
    sample = order.agents[:k1]
    residual = order.agents[k1:]
    raw = blackbox(
        [(a, inst.specs[a], mask_signals(inst.signals, sample + (a,))) for a in residual], inst.m
    )

    given: dict[int, int] = {}
    for agent, bundle in raw.items():
        if agent not in residual:
            raise RuntimeError(f"blackbox allocated to non-residual agent {agent}")
        bm = mask_of(bundle)
        if bm & ~((1 << inst.m) - 1):
            raise RuntimeError(f"blackbox allocated unknown items to agent {agent}")
        given[agent] = bm

    def replay(agent: int, amask: int, avail: int) -> int:
        taken = given.get(agent, 0)
        if taken & ~avail:
            raise RuntimeError(f"blackbox gave agent {agent} an unavailable item")
        return taken

    return _run_result(_arrive(order, inst.m, k1, replay), rt.true_welfare)


def ref_run_mechanism(
    inst: Instance,
    order,
    reports=None,
    *,
    solver_cache: Optional[dict] = None,
) -> MechanismOutcome:
    """Run the truthful matching mechanism under the given reports.

    ``reports`` defaults to the true signals.  Payments follow
    p_t = OPT(prev agents; J^t) - OPT_others(cur agents; J^t)
          + g(bundle, all reports but own) - g(bundle, sample reports),
    finalized once all reports are known; agents with empty bundles pay
    exactly 0 (the formula evaluates to 0 there as well).  Matchings are
    memoized in ``solver_cache`` (see :func:`secalloc.secretary._memo_matching`).
    """
    _require_mechanism(inst)
    n = inst.n
    order = _check_order(order, n)
    if reports is None:
        reports = inst.signals
    elif not isinstance(reports, SignalProfile):
        reports = SignalProfile(reports)
    if len(reports) != n:
        raise ValidationError(f"{len(reports)} reports for {n} agents")

    memo = solver_cache if solver_cache is not None else {}
    k1 = n // 2
    k2 = sample_size(n, "n/2e")
    sample = order.agents[:k1]
    sample_set = frozenset(sample)
    sample_mask = mask_of(sample)
    all_agents = frozenset(range(n))

    # Proxy weight vectors: own report plus the first sample's reports.
    w_vec = {
        agent: inst.specs[agent].item_weights(mask_signals(reports, sample_set | {agent}))
        for agent in order.agents[k1:]
    }

    sample_reports = mask_signals(reports, sample_set).values
    # MechStep fields (opt_prev, opt_minus, g_full, g_sample, price) per priced agent.
    priced: dict[int, tuple] = {}

    def price_step(agent: int, amask: int, avail: int) -> int:
        cur = amask & ~sample_mask
        alloc = _memo_matching(memo, bits_of(cur), w_vec, avail)
        prev = _memo_matching(memo, bits_of(cur & ~(1 << agent)), w_vec, avail)
        bundle = alloc.bundle_of(agent)
        opt_minus = alloc.value - alloc.per_agent_value.get(agent, 0)
        spec = inst.specs[agent]
        g_full = spec.others_value(bundle, mask_signals(reports, all_agents - {agent}).values)
        g_sample = spec.others_value(bundle, sample_reports)
        formula = prev.value - opt_minus + g_full - g_sample
        priced[agent] = (prev.value, opt_minus, g_full, g_sample, formula if bundle else 0.0)
        return mask_of(bundle)

    trace = []
    bundles: dict[int, frozenset] = {}
    payments: dict[int, object] = {i: 0.0 for i in range(n)}
    for t, agent, avail, taken in _arrive(order, inst.m, k1 + k2, price_step):
        fields = priced.get(agent, ())
        if taken:
            bundles[agent] = set_of(taken)
            payments[agent] = fields[-1]
        trace.append(MechStep(t, agent, set_of(avail), set_of(taken), *fields))

    true_sigs = inst.signals.values
    utilities = {
        i: inst.specs[i].value(bundles.get(i, frozenset()), true_sigs) - payments[i]
        for i in range(n)
    }
    return MechanismOutcome(bundles, payments, utilities, tuple(trace), k1, k2)


class RefStepOptRuntime(InstanceRuntime):
    """An ``InstanceRuntime`` whose step optimum is always the subset DP on bundle tables."""

    def step_opt(self, amask: int):
        """Optimal allocation of all items to the arrived agents.

        Weights are each agent's valuation with unseen signals masked to
        zero.  Returns (Allocation, per-agent bundle bitmasks).
        """
        hit = self._step_opt.get(amask)
        if hit is None:
            agents = bits_of(amask)
            if amask == (1 << self.inst.n) - 1:
                # Nothing is masked: these are the true tables.
                tables = [self.true_table(i) for i in agents]
            else:
                masked = mask_signals(self.inst.signals, agents)
                tables = [bundle_value_table(self.inst.specs[i], masked) for i in agents]
            alloc = solve_from_tables(agents, tables, range(self.inst.m))
            masks = {i: mask_of(b) for i, b in alloc.bundles.items()}
            hit = (alloc, masks)
            self._step_opt[amask] = hit
        return hit


# --- weight evaluation and bundle tables before exact profiles were evaluated
# in integers: Python arithmetic on whatever the operands are, with ``sum``
# adding the dot product.  Verbatim apart from the names and the methods
# turned into functions of the weight or spec.

def ref_signal_weight(w, signals):
    """``SignalWeight.__call__``: ``w`` at ``signals``."""
    total = w.const + sum(c * s for c, s in zip(w.coeffs, signals))
    if w.cap is not None and total > w.cap:
        return w.cap
    return total


def _ref_item_weight(spec, j, signals):
    if isinstance(spec, SeparableValuation):
        return ref_signal_weight(spec.own[j], signals) + ref_signal_weight(spec.others[j], signals)
    return ref_signal_weight(spec.weights[j], signals)


def ref_item_weights(spec, signals) -> tuple:
    """``_UnitDemand.item_weights``."""
    if isinstance(signals, SignalProfile):
        signals = signals.values
    return tuple(_ref_item_weight(spec, j, signals) for j in range(spec.num_items))


def _ref_item_scalars(spec, signals) -> list:
    out = []
    for clause in spec.clauses:
        row = [0] * spec.num_items
        for j, w in clause:
            row[j] = ref_signal_weight(w, signals)
        out.append(row)
    return out


def _ref_additive_table(scalars) -> list:
    m = len(scalars)
    tab = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        tab[mask] = tab[mask ^ low] + scalars[low.bit_length() - 1]
    return tab


def _ref_max_table(scalars) -> list:
    m = len(scalars)
    tab = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        prev = tab[mask ^ low]
        cur = scalars[low.bit_length() - 1]
        tab[mask] = cur if cur > prev else prev
    return tab


def ref_bundle_value_table(spec, signals) -> list:
    """``bundle_value_table`` on a constructive spec within the table budget."""
    if isinstance(signals, SignalProfile):
        signals = signals.values
    if isinstance(spec, XOSValuation):
        per_clause = [_ref_additive_table(row) for row in _ref_item_scalars(spec, signals)]
        tab = per_clause[0]
        for other in per_clause[1:]:
            tab = [a if a > b else b for a, b in zip(tab, other)]
        return tab
    if isinstance(spec, _UnitDemand):
        return _ref_max_table(ref_item_weights(spec, signals))
    raise ValidationError(f"unsupported spec type {type(spec).__name__}")
