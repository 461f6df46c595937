"""Truthful online matching with signal reports, plus its audit harness.

The mechanism splits the arrival sequence in three: the first floor(n/2)
agents are pure signal sample (no allocation, no payment), the next
floor(n/2e) agents are the matching subroutine's own sample, and every
later agent is matched against the *available* items under proxy
valuations frozen at (sample signals + own report).  Prices are a
difference of two step optima plus a correction that swaps the proxy's
others-part for the fully-informed one; own-signal terms cancel, which
is what makes truthful reporting a dominant choice once everyone else is
truthful, for every fixed arrival order.

Each run is the proxy framework's one engine pass with a match policy at
floor(n/2e) that also prices; the match is
:func:`secalloc.secretary._memo_matching` on the proxy weights, the same
memoized step rei19 runs on true weights.  Its memo is keyed by content,
so ``solver_cache`` may be shared across orders and report profiles.
Utilities are always scored at the *true* signals, whatever was reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ._util import bits_of, float_in_range, left_sum, mask_of, set_of
from .errors import CapabilityError, ValidationError
from .offline import opt_dispatch
from .secretary import _check_order, _memo_matching, _proxy_steps, _trial_orders, sample_size
from .valuations import (
    Instance,
    SeparableValuation,
    SignalProfile,
    mask_signals,
)

__all__ = [
    "MechStep",
    "MechanismOutcome",
    "run_mechanism",
    "EpicAudit",
    "check_epic",
    "SamplingBoundCheck",
    "check_random_sampling_bound",
]


@dataclass(frozen=True)
class MechStep:
    """One mechanism step with the ingredients of its price."""

    t: int
    agent: int
    available: frozenset
    bundle: frozenset
    opt_prev: Optional[object] = None
    opt_minus: Optional[object] = None
    g_full: Optional[object] = None
    g_sample: Optional[object] = None
    price: object = 0


@dataclass(frozen=True)
class MechanismOutcome:
    """Allocation, payments and true-signal utilities of one run."""

    bundles: Mapping[int, frozenset]
    payments: Mapping[int, object]
    utilities: Mapping[int, object]
    trace: tuple
    k1: int
    k2: int

    def __post_init__(self):
        for i, p in self.payments.items():
            if not abs(p) < math.inf:  # inf on finite reports, or NaN
                raise ValidationError(f"agent {i} has a non-finite payment {p!r}")

    def bundle_of(self, agent: int) -> frozenset:
        return self.bundles.get(agent, frozenset())


def _require_mechanism(inst: Instance) -> None:
    """The mechanism's precondition: separable unit-demand agents, at least 3 of them."""
    for i, spec in enumerate(inst.specs):
        if not isinstance(spec, SeparableValuation):
            raise ValidationError(f"agent {i}'s valuation is not separable unit-demand")
    if inst.n < 3:
        raise ValidationError("the mechanism needs n >= 3")


def run_mechanism(
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
    sample_reports = mask_signals(reports, order.agents[:k1]).values
    # MechStep fields (opt_prev, opt_minus, g_full, g_sample, price) per priced agent.
    priced: dict[int, tuple] = {}

    def priced_match(arrivals, num_items):  # the match blackbox at k2, writing prices
        w_vec = {agent: spec.item_weights(sigs) for agent, spec, sigs in arrivals}

        def price_step(agent: int, cur: int, avail: int) -> int:
            alloc = _memo_matching(memo, bits_of(cur), w_vec, avail)
            prev = _memo_matching(memo, bits_of(cur & ~(1 << agent)), w_vec, avail)
            bundle = alloc.bundle_of(agent)
            opt_minus = alloc.value - alloc.per_agent_value.get(agent, 0)
            spec = inst.specs[agent]
            others = [i for i in range(n) if i != agent]
            g_full = spec.others_value(bundle, mask_signals(reports, others).values)
            g_sample = spec.others_value(bundle, sample_reports)
            formula = prev.value - opt_minus + g_full - g_sample
            priced[agent] = (prev.value, opt_minus, g_full, g_sample, formula if bundle else 0)
            return mask_of(bundle)

        return k2, price_step

    trace = []
    bundles: dict[int, frozenset] = {}
    payments: dict[int, object] = dict.fromkeys(range(n), 0)
    steps = _proxy_steps(inst.specs, reports, order.agents, inst.m, priced_match)
    for t, agent, avail, taken in steps:
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


@dataclass(frozen=True)
class EpicAudit:
    """Result of probing one agent's misreport incentives on a fixed order."""

    agent: int
    truth_utility: float
    best_deviation: float
    best_utility: float
    violation: float
    passed: bool
    deviations_tested: int

    def to_json(self) -> dict:
        return {
            "agent": self.agent,
            "truth_utility": self.truth_utility,
            "best_deviation": self.best_deviation,
            "best_utility": self.best_utility,
            "violation": self.violation,
        }


def check_epic(
    inst: Instance,
    order,
    agent: int,
    grid: Optional[Sequence] = None,
    *,
    grid_points: int = 21,
    refine: bool = True,
    tol: float = 1e-9,
    solver_cache: Optional[dict] = None,
) -> EpicAudit:
    """Audit one agent's incentive to misreport under a fixed order.

    Runs the mechanism once truthfully and once per deviation on the
    grid (everyone else truthful), scoring the agent's utility at the
    true signals each time.  With ``refine`` a second, finer grid is
    laid around the best deviation found.  A float the audit reports, or a
    run at a float report, past the float range raises ValidationError
    naming the audit's field.
    """
    if not (0 <= agent < inst.n):
        raise ValidationError(f"agent {agent} out of range for n={inst.n}")
    if grid_points < 2:
        raise ValidationError("grid_points must be >= 2")
    memo = solver_cache if solver_cache is not None else {}

    def utility_of(report_value, field: str = "best_utility"):
        values = list(inst.signals.values)
        values[agent] = report_value
        try:
            outcome = run_mechanism(inst, order, SignalProfile(values), solver_cache=memo)
        except OverflowError:  # float arithmetic met a value past the float range
            raise ValidationError(f"{field}: the run at report {report_value!r} "
                                  "is beyond the float range") from None
        return outcome.utilities[agent]

    u_truth = utility_of(inst.signals[agent], "truth_utility")
    s_true = float_in_range(inst.signals[agent], "best_deviation: the true signal")
    if grid is None:
        hi = 2 * s_true if s_true > 0 else 1.0
        grid = [hi * i / (grid_points - 1) for i in range(grid_points)]

    def deviation(d) -> tuple:
        return float_in_range(d, "best_deviation: a report"), utility_of(d)

    tested = list(map(deviation, grid))
    best_dev, best_u = max(tested, key=lambda pair: pair[1])
    if refine and len(grid) > 1:
        spacing = max(grid) / (len(grid) - 1) if max(grid) > 0 else 1.0
        lo = max(0.0, best_dev - spacing)
        fine = [lo + (best_dev + spacing - lo) * i / 10 for i in range(11)]
        tested.extend(map(deviation, fine))
        best_dev, best_u = max(tested, key=lambda pair: pair[1])

    violation = best_u - u_truth
    return EpicAudit(
        agent=agent,
        truth_utility=float_in_range(u_truth, "truth_utility"),
        best_deviation=best_dev,
        best_utility=float_in_range(best_u, "best_utility"),
        violation=float_in_range(violation, "violation"),
        passed=violation <= tol,
        deviations_tested=len(tested),
    )


@dataclass(frozen=True)
class SamplingBoundCheck:
    lhs: object
    rhs: object
    passed: bool
    subsets: int


def check_random_sampling_bound(
    inst: Instance,
    mode: str = "exact",
    *,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> SamplingBoundCheck:
    """Check E over random half-samples of the proxy optimum >= OPT/4.

    The proxy optimum allocates all items to the agents *outside* the
    sample, each valued with her own signal plus the sample's signals
    only.  Exact mode averages over every floor(n/2)-subset.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    n = inst.n
    k1 = n // 2
    sigs = inst.signals

    def proxy_opt(sample: tuple) -> object:
        sample_set = frozenset(sample)
        rest = set(range(n)) - sample_set
        return opt_dispatch(inst, rest, lambda i: mask_signals(sigs, sample_set | {i})).value

    opt_true = opt_dispatch(inst, range(n), lambda i: sigs).value
    rhs = opt_true / 4

    if mode == "exact":
        if n > 12:
            raise CapabilityError(
                f"exact mode enumerates C({n},{k1}) subsets; n <= 12 required"
            )
        subsets = list(itertools.combinations(range(n), k1))
        lhs = left_sum(map(proxy_opt, subsets)) / len(subsets)
        return SamplingBoundCheck(lhs, rhs, lhs >= rhs - tol, len(subsets))
    if mode == "monte_carlo":
        vals = [proxy_opt(order.agents[:k1]) for order in _trial_orders(seed, trials, n)]
        lhs = left_sum(vals) / trials
        return SamplingBoundCheck(lhs, rhs, lhs >= rhs - tol, trials)
    raise ValidationError(f"unknown mode {mode!r}")
