"""Checkers for the structural definitions the algorithms rely on.

Each checker verifies one definition on a concrete (valuation, profile)
pair and either passes or returns a concrete witness of violation.  The
checkers accept either a constructive :class:`ValuationSpec` or a raw
oracle ``fn(bundle, signals)`` so that tests can inject adversarial set
functions that the constructive family cannot express.

Exhaustive modes have hard size caps; exceeding them raises
:class:`CapabilityError` rather than silently downgrading to sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from ._util import bits_of, check_seed, left_sum, mask_of, set_of
from .errors import CapabilityError, ValidationError
from .valuations import (
    SignalProfile,
    SpecLike,
    ValuationSpec,
    XOSValuation,
    _UnitDemand,
    bundle_value_table,
    eval_valuation,
    mask_signals,
)

__all__ = [
    "CheckResult",
    "check_monotone",
    "check_subadditive_over_signals",
    "check_xos_over_signals",
    "check_xos_over_items",
    "DEFAULT_PROBABILITY_GRID",
]

DEFAULT_PROBABILITY_GRID = tuple(i / 10 for i in range(11))

#: Absolute tolerance for value comparisons on O(1)-scaled inputs.
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a definition check; ``witness`` is set iff it failed."""

    passed: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.passed


def _profile(signals) -> SignalProfile:
    return signals if isinstance(signals, SignalProfile) else SignalProfile(signals)


def _dims(spec: SpecLike, signals: SignalProfile, num_items) -> tuple[int, int]:
    if isinstance(spec, ValuationSpec):
        spec._validate_signals(signals)
        return spec.num_agents, spec.num_items
    if num_items is None:
        raise ValidationError("num_items is required when checking a raw oracle")
    return len(signals), num_items


def _masked_value(spec: SpecLike, bundle: frozenset, s: SignalProfile):
    """The bundle's value at ``s`` masked to an agent bitmask, evaluated once per mask."""
    memo: dict = {}

    def value(agent_mask: int):
        if agent_mask not in memo:
            memo[agent_mask] = eval_valuation(spec, bundle, mask_signals(s, set_of(agent_mask)))
        return memo[agent_mask]

    return value


def check_monotone(
    spec: SpecLike,
    signals,
    sample_budget: int = 4096,
    *,
    num_items: Optional[int] = None,
    seed: int = 0,
) -> CheckResult:
    """Verify monotonicity in both bundles and signals.

    Exhaustive over single-item bundle extensions and single-agent signal
    unmaskings when 2^m * 2^n fits the budget (transitivity covers the
    rest of both partial orders): one bundle table per masked profile,
    so each (bundle, profile) point is evaluated once.  Otherwise checks
    that many sampled pairs, adding random upward signal bumps.
    """
    check_seed(seed)
    s = _profile(signals)
    n, m = _dims(spec, s, num_items)

    def val(bundle, prof):
        return eval_valuation(spec, bundle, prof)

    if (1 << m) * (1 << n) <= sample_budget:
        profiles = [mask_signals(s, set_of(a_mask)) for a_mask in range(1 << n)]
        if isinstance(spec, ValuationSpec):
            tables = [bundle_value_table(spec, prof) for prof in profiles]
        else:
            tables = [[val(set_of(x), prof) for x in range(1 << m)] for prof in profiles]
        for a_mask, tab in enumerate(tables):
            for x_mask, base in enumerate(tab):
                for j in range(m):
                    if x_mask >> j & 1:
                        continue
                    bigger = tab[x_mask | 1 << j]
                    if bigger < base - VALUE_TOL:
                        return CheckResult(False, {
                            "kind": "items",
                            "bundle": bits_of(x_mask),
                            "bundle_sup": bits_of(x_mask | 1 << j),
                            "value": base,
                            "value_sup": bigger,
                        })
                for i in range(n):
                    if a_mask >> i & 1:
                        continue
                    richer = tables[a_mask | 1 << i][x_mask]
                    if richer < base - VALUE_TOL:
                        return CheckResult(False, {
                            "kind": "signals",
                            "bundle": bits_of(x_mask),
                            "profile": profiles[a_mask].values,
                            "profile_sup": profiles[a_mask | 1 << i].values,
                            "value": base,
                            "value_sup": richer,
                        })
        return CheckResult(True)

    rng = np.random.default_rng(seed)
    scale = max([float(v) for v in s.values], default=1.0) or 1.0
    for _ in range(sample_budget):
        x = frozenset(int(j) for j in np.flatnonzero(rng.random(m) < 0.5))
        extra = frozenset(int(j) for j in np.flatnonzero(rng.random(m) < 0.3))
        lo, hi = val(x, s), val(x | extra, s)
        if hi < lo - VALUE_TOL:
            return CheckResult(False, {
                "kind": "items", "bundle": sorted(x), "bundle_sup": sorted(x | extra),
                "value": lo, "value_sup": hi,
            })
        bumped = SignalProfile(
            v + float(rng.random()) * scale * int(rng.random() < 0.5)
            for v in s.values
        )
        lo, hi = val(x, s), val(x, bumped)
        if hi < lo - VALUE_TOL:
            return CheckResult(False, {
                "kind": "signals", "bundle": sorted(x),
                "profile": s.values, "profile_sup": bumped.values,
                "value": lo, "value_sup": hi,
            })
    return CheckResult(True)


def check_subadditive_over_signals(
    spec: SpecLike,
    bundle,
    signals,
    *,
    samples: Optional[int] = None,
    seed: int = 0,
) -> CheckResult:
    """Check v(s) <= v(s_X) + v(s_complement) for every agent split X.

    Exhaustive over all 2^n splits for n <= 14; beyond that, pass
    ``samples`` to check that many random splits instead.
    """
    check_seed(seed)
    s = _profile(signals)
    n = len(s)
    value = _masked_value(spec, frozenset(bundle), s)
    everyone = (1 << n) - 1

    if samples is None:
        if n > 14:
            raise CapabilityError(
                f"exhaustive split check needs 2^{n} evaluations; "
                "pass samples= to check random splits instead"
            )
        subsets = range(1 << n)
    else:
        rng = np.random.default_rng(seed)
        subsets = (
            mask_of(int(i) for i in np.flatnonzero(rng.random(n) < 0.5))
            for _ in range(samples)
        )

    full = value(everyone)
    for keep in subsets:
        left, right = value(keep), value(everyone ^ keep)
        total = left + right
        if full > total + VALUE_TOL:
            return CheckResult(False, {
                "agents": bits_of(keep),
                "value": full,
                "split_sum": total,
                "left": left,
                "right": right,
            })
    return CheckResult(True)


def check_xos_over_signals(
    spec: SpecLike,
    bundle,
    signals,
    grid: Sequence[float] = DEFAULT_PROBABILITY_GRID,
) -> CheckResult:
    """Check the XOS-over-signals inequality on a grid of marginal floors.

    For each floor p the worst distribution over agent subsets with all
    inclusion marginals >= p is found by a linear program over all 2^n
    subset weights; the definition holds iff its optimum is at least
    p * v(s) at every p.  The grid is the documented resolution knob: the
    constraint family is monotone in p.
    """
    s = _profile(signals)
    n = len(s)
    if n > 10:
        raise CapabilityError(f"XOS-over-signals LP enumerates 2^{n} subsets; n <= 10 required")
    value = _masked_value(spec, frozenset(bundle), s)
    full = value((1 << n) - 1)

    vals = np.array([float(value(mask)) for mask in range(1 << n)])
    member = (np.arange(1 << n) >> np.arange(n)[:, None] & 1).astype(float)

    a_eq = np.ones((1, 1 << n))
    for p in grid:
        res = linprog(
            vals,
            A_ub=-member,
            b_ub=-np.full(n, float(p)),
            A_eq=a_eq,
            b_eq=[1.0],
            bounds=(0, None),
            method="highs",
        )
        if not res.success:
            raise RuntimeError(f"feasibility LP failed at p={p}: {res.message}")
        bound = float(p) * float(full)
        if res.fun < bound - VALUE_TOL:
            support = {
                tuple(sorted(set_of(mask))): q
                for mask, q in enumerate(res.x)
                if q > 1e-12
            }
            return CheckResult(False, {
                "p": float(p),
                "expectation": float(res.fun),
                "bound": bound,
                "distribution": support,
            })
    return CheckResult(True)


def check_xos_over_items(
    spec: SpecLike,
    signals,
    item_set,
    *,
    tol: float = VALUE_TOL,
) -> CheckResult:
    """Check that a supporting additive function exists for ``item_set``.

    Constructive specs pass structurally: the clause (or single item)
    achieving the set's value is itself a valid additive support.  Raw
    set functions are checked by an LP in the additive vector a:
    sum_{j in T} a_j <= v(T) for every T inside the set, and
    sum over the whole set >= v(set).
    """
    s = _profile(signals)
    items = sorted(frozenset(item_set))
    if len(items) > 6:
        raise CapabilityError(f"|S|={len(items)} exceeds the exhaustive cap of 6")

    if isinstance(spec, XOSValuation):
        best, support = 0, {}
        for clause in spec.clauses:
            weights = {j: w(s.values) for j, w in clause if j in items}
            tot = left_sum(weights.values())
            if tot >= best:
                best, support = tot, weights
        return CheckResult(True, {"support": support})
    if isinstance(spec, _UnitDemand):
        if not items:
            return CheckResult(True, {"support": {}})
        weights = spec.item_weights(s)
        j_best = max(items, key=weights.__getitem__)
        return CheckResult(True, {"support": {j_best: weights[j_best]}})

    # Oracle-given set function: solve the support LP.
    q = len(items)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(1, q + 1)
    ))
    values = {t: float(eval_valuation(spec, frozenset(t), s)) for t in subsets}
    v_full = values[tuple(items)] if items else 0.0
    col = {j: b for b, j in enumerate(items)}

    rows, rhs = [], []
    for t in subsets:
        row = [0.0] * q
        for j in t:
            row[col[j]] = 1.0
        rows.append(row)
        rhs.append(values[t])
    rows.append([-1.0] * q)
    rhs.append(-(v_full - tol))

    res = linprog(
        np.zeros(q),
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(None, None)] * q,
        method="highs",
    )
    if res.status == 2:  # infeasible: no additive support exists
        return CheckResult(False, {
            "items": items,
            "value": v_full,
            "subset_values": {t: values[t] for t in subsets},
        })
    if not res.success:
        raise RuntimeError(f"support LP did not converge: {res.message}")
    support = {j: float(res.x[col[j]]) for j in items}
    return CheckResult(True, {"support": support})
