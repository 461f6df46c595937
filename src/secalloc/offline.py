"""Exact offline optima: the benchmark and the inner step of every online run.

Both solvers return *the* welfare-maximizing allocation with a fully
deterministic tie-break: among maximizers (in exact rational arithmetic),
the lexicographically smallest assignment vector wins, where the vector
lists each item's assignee in ascending item order and "unassigned"
sorts before every agent id.

The tie-break is implemented without tolerances by maximizing a single
integer objective ``welfare * K - lex_code``: weights become exact
integers over their least common denominator, taken from each value's
``as_integer_ratio`` (floats are dyadic rationals, so nothing is
rounded); ``lex_code`` encodes the assignment vector as a base-B
number, and K is large enough that any true welfare improvement
dominates every possible code difference.  That objective has a unique
maximizer, so the subset-DP solver and the matching solver cannot
disagree on ties.

The subset DP also takes its tables as the rows of one float64 array.
:func:`opt_dispatch` builds that array for float XOS agents in a single
numpy pass (``valuations._float_xos_tables``, bit for bit the entries of
``bundle_value_table``), and ``integerize`` reads it with ``np.frexp``:
each float is a 53-bit integer mantissa times a power of two, so the
common denominator is one power of two and the integers are the same as
from ``as_integer_ratio``.  The entries an allocation reports are read
back as Python floats.  Exact, int and mixed agents keep list tables.

:func:`opt_dispatch` is the one entry point for instance optima: it sends
unit-demand and separable agents to the polynomial matching solver and
everything else to the subset DP over bundle tables.  The matching is
solved on its t x q matrix of agents and items, from the shorter side, in
O(min(t, q)^2 * max(t, q)) exact integer steps.  The subset DP over t
agents and q items takes q * 2^q + (t - 2) * 3^q + 2^q steps for t >= 2
(2^q for one agent), at most t * 3^q: only its middle agents enumerate
every (set, submask) pair.  Every exponential step raises
:class:`CapabilityError` against an explicit budget before it allocates
anything; the subset DP's guard still counts t * 3^q.

Inputs are checked here, not outputs: a weight or bundle value that is
not finite raises :class:`ValidationError` naming its agent and items,
while the returned :class:`Allocation` is built valid and not checked
again.  Nothing converts to float on the way, so exact ints and
Fractions past the float range come back exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from ._util import integerize, left_sum, set_of
from .errors import CapabilityError, ValidationError
from .valuations import (Instance, _UnitDemand, _additive_table, _float_xos_tables,
                         bundle_value_table)

__all__ = ["Allocation", "opt_dispatch", "opt_general", "opt_matching"]

DEFAULT_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class Allocation:
    """An allocation of (some) items to agents, with its welfare split.

    ``bundles`` holds only agents that received something; ``agents`` and
    ``items`` record the sets the optimum was computed over.  Only the
    solvers below build one, valid by construction, so it is not re-checked.
    """

    agents: frozenset
    items: frozenset
    bundles: Mapping[int, frozenset]
    per_agent_value: Mapping[int, object]
    value: object

    def bundle_of(self, agent: int) -> frozenset:
        return self.bundles.get(agent, frozenset())


def solve_from_tables(
    agent_ids: Sequence[int],
    tables: Sequence[Sequence],
    item_ids: Sequence[int],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Allocation:
    """Exact optimum over bundle-value tables (one table per agent).

    ``tables[r]`` is indexed by bitmask over ``item_ids`` (ascending);
    ``tables`` is a list of such tables or a (t, 2^q) array, whose
    reported entries are converted with ``.item()``.  This is the shared
    engine behind :func:`opt_general`, :func:`opt_dispatch` and the
    per-step optima of the online algorithms.  Agent 0's layer is a
    subset-max pass (its submasks need no convolution with the empty
    layer before it), q * 2^q steps; agents 1..t-2 visit all 3^q (set,
    submask) pairs; and agent t-1 is solved at the full item set only,
    the one entry the reconstruction reads, in 2^q steps.  That is at
    most t * 3^q steps, the count the capability guard checks.
    """
    agents = list(agent_ids)
    items = list(item_ids)
    q = len(items)
    t = len(agents)
    work = t * 3 ** q
    if work > budget:
        raise CapabilityError(
            f"the subset DP over {t} agents and {q} items takes {work} steps, "
            f"over the enumeration budget {budget}"
        )
    full = (1 << q) - 1

    if t == 0:
        return Allocation(frozenset(), frozenset(items), {}, {}, 0)

    for r, tab in enumerate(tables):
        if tab[0] != 0:
            raise ValidationError(f"oracle for agent {agents[r]} must value the empty bundle at 0")

    is_array = isinstance(tables, np.ndarray)
    flat = tables.ravel() if is_array else [v for tab in tables for v in tab]
    size = 1 << q
    try:
        ints, _ = integerize(flat)
    except (OverflowError, ValueError):
        # Finite inputs can still overflow to inf (a huge coefficient times
        # a huge signal); find the first cell only now, off the hot path.
        for c, v in enumerate(flat.tolist() if is_array else flat):
            try:
                integerize([v])
            except (OverflowError, ValueError):
                r, mask = divmod(c, size)
                raise ValidationError(
                    f"bundle value for agent {agents[r]}, items "
                    f"{sorted(items[b] for b in set_of(mask))} must be finite, got {v!r}"
                ) from None
        raise
    base = t + 2
    big_k = base ** q
    # lex code of each item bitmask for one agent of rank weight 1
    codes = _additive_table([base ** (q - 1 - b) for b in range(q)])

    combined = []
    for r in range(t):
        off = r * size
        rank_w = r + 1
        combined.append([ints[off + mask] * big_k - rank_w * codes[mask] for mask in range(size)])

    # f[s] is the best objective of item set s over the agents before r,
    # and choices[r][s] is agent r's bundle in it.  Candidates of equal
    # value are the same assignment (the objective's maximizer is unique),
    # so the order they are visited in cannot change any argmax.
    f = [0] * size
    choices = []
    if t > 1:
        # Agent 0 follows an all-zero f: its layer is the best submask of
        # each set (comb[0] = 0 is taking nothing), one pass over s minus
        # each of its items.
        g = combined[0][:]
        choice = list(range(size))
        for s_mask in range(1, size):
            best = g[s_mask]
            best_x = s_mask
            rest = s_mask
            while rest:
                low = rest & -rest
                rest ^= low
                sub = s_mask ^ low
                if g[sub] > best:
                    best = g[sub]
                    best_x = choice[sub]
            g[s_mask] = best
            choice[s_mask] = best_x
        f = g
        choices.append(choice)
    for r in range(1, t - 1):
        comb = combined[r]
        g = [0] * size
        choice = [0] * size
        for s_mask in range(size):
            best = f[s_mask]  # agent r takes nothing
            best_x = 0
            x = s_mask
            while x:
                cand = f[s_mask ^ x] + comb[x]
                if cand > best:
                    best = cand
                    best_x = x
                x = (x - 1) & s_mask
            g[s_mask] = best
            choice[s_mask] = best_x
        f = g
        choices.append(choice)
    # The reconstruction reads the last layer at the full item set only.
    comb = combined[t - 1]
    choices.append({full: max(range(size), key=lambda x: f[full ^ x] + comb[x])})

    # Each choice is a submask of s_mask and leaves it: bundles are disjoint.
    bundles: dict[int, frozenset] = {}
    per_agent: dict[int, object] = {}
    s_mask = full
    for r in range(t - 1, -1, -1):
        x = choices[r][s_mask]
        s_mask ^= x
        if x:
            bundles[agents[r]] = frozenset(items[b] for b in set_of(x))
            per_agent[agents[r]] = tables[r, x].item() if is_array else tables[r][x]

    return Allocation(frozenset(agents), frozenset(items), bundles, per_agent, _welfare(per_agent))


def _welfare(per_agent: dict):
    """The per-agent values' :func:`left_sum` in agent order."""
    return left_sum(map(per_agent.get, sorted(per_agent)))


def opt_general(
    agents: Iterable[int],
    oracles: Mapping[int, Callable[[frozenset], object]],
    items: Iterable[int],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Allocation:
    """Welfare-maximizing partition of a subset of ``items`` among ``agents``.

    ``oracles[i]`` maps a frozenset of items to agent i's value.  Exact
    for arbitrary monotone bundle oracles; desk scale only.  The
    candidate-assignment count (|A|+1)^|J| is the capability guard.
    """
    ag = sorted(set(agents))
    it = sorted(set(items))
    count = (len(ag) + 1) ** len(it)
    if count > budget:
        raise CapabilityError(
            f"{count} candidate assignments exceed the enumeration budget {budget}"
        )
    tables = []
    for i in ag:
        fn = oracles[i]
        tab = [fn(frozenset(it[b] for b in set_of(mask))) for mask in range(1 << len(it))]
        tables.append(tab)
    return solve_from_tables(ag, tables, it, budget=budget)


def _min_cost_assignment(cost: list[list]) -> list[int]:
    """Exact rectangular assignment of R <= C rows to columns, O(R^2 * C).

    Every row gets a distinct column at least total cost; returns the
    column of each row.  Each row is added by one shortest augmenting
    path over the columns, keeping dual potentials (Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016),
    so O(min^2 * max) for a t x q matching solved from its shorter side.
    Works on arbitrary exact integers.  Ragged rows or R > C raise
    :class:`ValidationError`: with fewer columns than rows the last
    row's search would never reach a free column.
    """
    n = len(cost)
    m = len(cost[0]) if n else 0
    if any(len(row) != m for row in cost):
        raise ValidationError("cost rows must all have the same length")
    if n > m:
        raise ValidationError(f"{n} rows cannot take distinct columns out of {m}")
    inf = math.inf
    u = [0] * n
    v = [0] * m
    col4row = [-1] * n
    row4col = [-1] * m
    path = [0] * m
    for cur in range(n):
        dist = [inf] * m
        remaining = list(range(m))
        rows_seen = []
        cols_seen = []
        min_val = 0
        i = cur
        while True:
            # Relax the columns not yet reached from row i, then settle the
            # nearest one, preferring a free column on ties.
            rows_seen.append(i)
            row = cost[i]
            off = min_val - u[i]
            lowest = inf
            best = -1
            for idx, j in enumerate(remaining):
                d = off + row[j] - v[j]
                if d < dist[j]:
                    path[j] = i
                    dist[j] = d
                else:
                    d = dist[j]
                if d < lowest or (d == lowest and row4col[j] < 0):
                    lowest = d
                    best = idx
            min_val = lowest
            j = remaining[best]
            remaining[best] = remaining[-1]
            remaining.pop()
            cols_seen.append(j)
            i = row4col[j]
            if i < 0:
                break
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - dist[col4row[i]]
        for k in cols_seen:
            v[k] -= min_val - dist[k]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def opt_matching(
    agents: Iterable[int],
    weights: Mapping[int, Sequence],
    items: Iterable[int],
) -> Allocation:
    """Maximum-weight bipartite matching (each agent gets at most one item).

    Exact; agrees with :func:`opt_general` on unit-demand oracles, ties
    included.  Weights are read as ``weights[agent][item]`` and must be
    finite and nonnegative.
    """
    ag = sorted(set(agents))
    it = sorted(set(items))
    t, q = len(ag), len(it)
    if t == 0 or q == 0:
        return Allocation(frozenset(ag), frozenset(it), {}, {}, 0)

    # Cell r * q + b holds agent ag[r]'s weight for item it[b].
    flat = [weights[i][j] for i in ag for j in it]
    inf = math.inf
    bad = [c for c, w in enumerate(flat) if not (0 <= w < inf)]
    if bad:
        r, b = divmod(bad[0], q)
        raise ValidationError(f"weight for agent {ag[r]}, item {it[b]} must be finite nonnegative")

    ints, _ = integerize(flat)
    base = t + 2
    big_k = base ** q
    powers = [base ** (q - 1 - b) for b in range(q)]

    # Cost of a pair is minus its gain welfare * K - lex_code.  A pair of
    # weight 0 has a negative gain, so leaving both sides unmatched is
    # better: its cost is clamped to 0, and every other pair's gain is
    # positive.  The gains' maximizer is unique, so the positive pairs of
    # an optimal assignment on the t x q matrix are exactly the optimum.
    cost = [
        [rank * p - x * big_k if x else 0 for x, p in zip(ints[(rank - 1) * q : rank * q], powers)]
        for rank in range(1, t + 1)
    ]
    if t <= q:
        pairs = enumerate(_min_cost_assignment(cost))
    else:
        pairs = sorted((r, b) for b, r in enumerate(_min_cost_assignment(list(zip(*cost)))))

    # Distinct columns and positive weights: one item per winner, no overlap.
    bundles: dict[int, frozenset] = {}
    per_agent: dict[int, object] = {}
    for r, b in pairs:
        if ints[r * q + b]:
            bundles[ag[r]] = frozenset({it[b]})
            per_agent[ag[r]] = flat[r * q + b]
    return Allocation(frozenset(ag), frozenset(it), bundles, per_agent, _welfare(per_agent))


def opt_dispatch(
    inst: Instance,
    agents: Iterable[int],
    signals: Callable[[int], Sequence],
    *,
    table: Optional[Callable[[int], Sequence]] = None,
) -> Allocation:
    """Optimal allocation of all items to ``agents``, agent i valued at ``signals(i)``.

    Unit-demand and separable valuations need only per-item weights, so
    when every agent has one the optimum is :func:`opt_matching`,
    polynomial in n and m.  Otherwise the subset DP runs over 2^m bundle
    tables; ``table(i)`` supplies agent i's table when the caller caches
    them (it must equal ``bundle_value_table`` at ``signals(i)``).
    Without ``table``, float XOS agents' tables are built as one array.
    Both solvers share the tie-break, so the choice never changes the result.
    """
    ag = sorted(set(agents))
    items = range(inst.m)
    if all(isinstance(inst.specs[i], _UnitDemand) for i in ag):
        return opt_matching(ag, {i: inst.specs[i].item_weights(signals(i)) for i in ag}, items)
    if table:
        return solve_from_tables(ag, [table(i) for i in ag], items)
    specs, profiles = [inst.specs[i] for i in ag], [signals(i) for i in ag]
    tables = _float_xos_tables(specs, profiles)
    if tables is None:
        tables = list(map(bundle_value_table, specs, profiles))
    return solve_from_tables(ag, tables, items)

