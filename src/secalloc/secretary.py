"""Non-strategic online allocation under random arrival order.

Every online run here has one shape: agents arrive in order, the first k
only reveal their signals, and each later agent takes a bundle out of the
items still available.  One private engine, :func:`_arrive`, owns that
loop: it keeps the arrived-agent and available-item bitmasks, skips the
first k agents, asks a per-step policy ``decide(agent, arrived_mask,
avail_mask) -> taken_mask`` about each later one, and yields
``(t, agent, avail, taken)`` for every arrival.  The runs below differ
only in their policy:

* :func:`run_sample_then_greedy` — at each step recompute an optimal
  allocation of *all* items under the signals observed so far and hand
  the arriving agent the still-available part of her bundle.  The sample
  size k is a parameter: k = floor(n/e) for valuations subadditive over
  signals, k = floor(n/2) for valuations XOS over signals.
* :func:`run_sample_then_match` — the classical matching variant for
  fixed (non-interdependent) unit-demand weights: after the sample, each
  step matches the arrived agents to the *available* items only and the
  arriving agent keeps her matched item.  That matching step is
  :func:`_memo_matching`, which the truthful mechanism runs on frozen
  proxy weights too; its memo is keyed by content, so the match
  blackbox and an audit can share one across orders, reports and
  weight maps.
* :func:`run_proxy_framework` lifts any classical online algorithm to the
  interdependent setting by spending the first half of the agents purely
  on signal information and running the algorithm's policy on the
  residual agents with frozen proxy valuations, in the same pass.

A blackbox for the framework is called as ``blackbox(arrivals,
num_items)``.  ``arrivals`` lists ``(agent, spec, signals)`` in arrival
order: the agent's valuation and her frozen proxy profile (the sample's
signals and her own, all others zero).  It returns ``(k, decide)``: its
own sample size over those agents and its policy, whose arrived mask
holds only them.  The survival probabilities and the truthful mechanism
(:mod:`secalloc.mechanism`, the framework with a pricing match policy)
run on the same engine, and so does :func:`secalloc.harness.estimate_ratio`,
which scores each order's taken masks without recording a run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ._util import bits_of, mask_of, set_of, trial_rng
from .errors import CapabilityError, ValidationError
from .offline import opt_dispatch, opt_matching, solve_from_tables
from .valuations import Instance, _UnitDemand, _unchecked, bundle_value_table, mask_signals

__all__ = [
    "ArrivalOrder",
    "StepRecord",
    "RunResult",
    "run_sample_then_greedy",
    "run_sample_then_match",
    "run_proxy_framework",
    "make_sample_then_greedy_blackbox",
    "make_sample_then_match_blackbox",
    "survival_probability",
    "TailSumCheck",
    "check_tail_harmonic_sum",
    "random_valid_tail_sequence",
    "sample_size",
]


def sample_size(n: int, rule: str) -> int:
    """Sample-phase length: floor(n/e), floor(n/2) or floor(n/2e)."""
    if rule == "n/e":
        return int(n / math.e)
    if rule == "n/2":
        return n // 2
    if rule == "n/2e":
        return int(n / (2 * math.e))
    raise ValidationError(f"unknown sample rule {rule!r}")


@dataclass(frozen=True)
class ArrivalOrder:
    """The order agents arrive in: distinct nonnegative agent ids."""

    agents: tuple

    def __init__(self, agents: Sequence[int]):
        ag = tuple(int(a) for a in agents)
        if len(set(ag)) != len(ag):
            raise ValidationError("arrival order repeats an agent")
        if min(ag, default=0) < 0:
            raise ValidationError("agent ids must be nonnegative")
        object.__setattr__(self, "agents", ag)

    def __len__(self) -> int:
        return len(self.agents)

    def __iter__(self):
        return iter(self.agents)

    def __getitem__(self, t):
        return self.agents[t]

    @classmethod
    def identity(cls, n: int) -> "ArrivalOrder":
        return cls(range(n))

    @classmethod
    def random(cls, n: int, rng) -> "ArrivalOrder":
        # A drawn permutation is valid by construction.
        return _unchecked(cls, agents=tuple(rng.permutation(n).tolist()))


def _check_order(order: ArrivalOrder, n: int) -> ArrivalOrder:
    if not isinstance(order, ArrivalOrder):
        order = ArrivalOrder(order)
    if set(order.agents) != set(range(n)):
        raise ValidationError(f"order must be a permutation of 0..{n - 1}")
    return order


@dataclass(frozen=True)
class StepRecord:
    """One online step: arriving agent, items still available, bundle given."""

    t: int
    agent: int
    available: frozenset
    bundle: frozenset

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "agent": self.agent,
            "available": sorted(self.available),
            "bundle": sorted(self.bundle),
        }


@dataclass(frozen=True)
class RunResult:
    """Outcome of one online run, scored at the full true signal profile."""

    bundles: Mapping[int, frozenset]
    welfare: object
    trace: tuple

    def bundle_of(self, agent: int) -> frozenset:
        return self.bundles.get(agent, frozenset())

    def trace_json_lines(self) -> list[str]:
        import json

        return [json.dumps(rec.to_json(), sort_keys=True) for rec in self.trace]


def _arrive(
    order: Sequence[int], num_items: int, k: int, decide: Callable[[int, int, int], int]
) -> Iterator[tuple]:
    """The one arrival loop: yield ``(t, agent, avail, taken)`` per arrival.

    ``avail`` is the item bitmask still available when agent arrives at
    step t (1-based).  The first k agents take nothing; every later one
    takes ``decide(agent, arrived_mask, avail)``, which must be a submask
    of ``avail``; ``arrived_mask`` includes the agent itself.
    """
    avail = (1 << num_items) - 1
    amask = 0
    for t, agent in enumerate(order, start=1):
        amask |= 1 << agent
        taken = decide(agent, amask, avail) if t > k else 0
        yield t, agent, avail, taken
        avail &= ~taken


def _run_result(steps, welfare: Callable[[dict], object]) -> RunResult:
    """Record an engine run; ``welfare`` scores the agents' bundle masks."""
    trace = []
    taken_by: dict[int, int] = {}
    for t, agent, avail, taken in steps:
        trace.append(StepRecord(t, agent, set_of(avail), set_of(taken)))
        if taken:
            taken_by[agent] = taken
    bundles = {i: set_of(bm) for i, bm in taken_by.items()}
    return RunResult(bundles, welfare(taken_by), tuple(trace))


def _memo_matching(memo: dict, agents: Sequence[int], weights: Mapping[int, tuple], avail: int):
    """Optimal matching of ``agents`` to the items of bitmask ``avail``, memoized.

    The key is ``(tuple((a, weights[a]) for a in agents), avail)``: the
    agents with their weight tuples, and the items.  A hit is therefore
    the matching of the same input, whichever run, order, report or
    weight map stored it, and :func:`opt_matching` runs only on a miss.
    One dict must not mix the float and ``Fraction`` forms of an
    instance: ``0.5 == Fraction(1, 2)``, so a hit could return the other
    form's values.
    """
    key = (tuple((a, weights[a]) for a in agents), avail)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = opt_matching(agents, weights, bits_of(avail))
    return hit


def _check_sample_size(k: int, n: int) -> None:
    if not (0 <= k < n):
        raise ValidationError(f"sample size k={k} must satisfy 0 <= k < n={n}")


def _sample_k(k: Optional[int], n: int) -> int:
    """A secretary's sample size: floor(n/e) unless given, checked."""
    k = sample_size(n, "n/e") if k is None else k
    _check_sample_size(k, n)
    return k


def _trial_orders(seed: int, trials: int, n: int) -> Iterator[ArrivalOrder]:
    """The Monte Carlo order stream (seed checked at once): trial t uses ``trial_rng(seed, t)``."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return (ArrivalOrder.random(n, trial_rng(seed, t)) for t in range(trials))


class InstanceRuntime:
    """Per-instance caches shared across many runs (orders) of one instance.

    Step optima depend only on the *set* of arrived agents, so they are
    memoized by agent bitmask.  Per agent, only true-signal valuations
    are cached, on first use: ``true_table`` (2^m entries; also the step
    optimum's table once every agent has arrived) and, for
    unit-demand agents, ``true_weights``, so matching paths do no 2^m
    work.  All are exact in the numeric domain of the instance's
    signals.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._true_tables: dict = {}
        self._true_weights: dict = {}
        self._step_opt: dict = {}

    def true_table(self, agent: int) -> list:
        if agent not in self._true_tables:
            self._true_tables[agent] = bundle_value_table(self.inst.specs[agent], self.inst.signals)
        return self._true_tables[agent]

    def true_weights(self, agent: int) -> tuple:
        if agent not in self._true_weights:
            self._true_weights[agent] = self.inst.specs[agent].item_weights(self.inst.signals)
        return self._true_weights[agent]

    def step_opt(self, amask: int):
        """Optimal allocation of all items to the arrived agents, by :func:`opt_dispatch`.

        Weights are each agent's valuation with unseen signals masked to
        zero.  Returns (Allocation, per-agent bundle bitmasks).
        """
        hit = self._step_opt.get(amask)
        if hit is None:
            agents = bits_of(amask)
            masked = mask_signals(self.inst.signals, agents)
            # Once every agent has arrived nothing is masked: the true tables serve.
            table = self.true_table if amask == (1 << self.inst.n) - 1 else None
            alloc = opt_dispatch(self.inst, agents, lambda i: masked, table=table)
            masks = {i: mask_of(b) for i, b in alloc.bundles.items()}
            hit = (alloc, masks)
            self._step_opt[amask] = hit
        return hit

    def greedy_step(self, agent: int, amask: int, avail: int) -> int:
        """Sample-then-greedy's policy: the available part of the agent's step-optimal bundle."""
        return self.step_opt(amask)[1].get(agent, 0) & avail

    def true_welfare(self, bundle_masks: Mapping[int, int]):
        """Sum of true values, in agent order, of each agent's bundle bitmask."""
        total = 0
        for i in sorted(bundle_masks):
            bm = bundle_masks[i]
            if isinstance(self.inst.specs[i], _UnitDemand):
                # The bundle table's entry: its first best item from the top,
                # or 0 when no item is worth anything.
                ws = self.true_weights(i)
                best = max(ws[j] for j in reversed(bits_of(bm)))
                total += best if best > 0 else 0
            else:
                total += self.true_table(i)[bm]
        return total


def run_sample_then_greedy(inst: Instance, order, k: int) -> RunResult:
    """Skip k agents, then greedily hand out step-optimal bundles.

    Every step optimum is over *all* items (availability is applied only
    when the arriving agent's bundle is carved out); that asymmetry with
    :func:`run_sample_then_match` is deliberate and load-bearing.
    """
    order = _check_order(order, inst.n)
    _check_sample_size(k, inst.n)
    rt = InstanceRuntime(inst)
    return _run_result(_arrive(order, inst.m, k, rt.greedy_step), rt.true_welfare)


def _match_step(memo: dict, weights: Mapping[int, tuple]) -> Callable[[int, int, int], int]:
    """The matching secretary's policy: the agent's item in a memoized step matching."""

    def match_step(agent: int, amask: int, avail: int) -> int:
        if not avail:
            return 0
        return mask_of(_memo_matching(memo, bits_of(amask), weights, avail).bundle_of(agent))

    return match_step


def _matched_weight(weights: Mapping[int, tuple]) -> Callable[[dict], object]:
    """The matching secretary's welfare: each taken item's weight, summed in arrival order."""

    def score(taken_by: dict) -> object:
        return sum(weights[i][bm.bit_length() - 1] for i, bm in taken_by.items())

    return score


def run_sample_then_match(
    weights: Mapping[int, Sequence],
    num_items: int,
    order,
    k: Optional[int] = None,
) -> RunResult:
    """Secretary matching on fixed unit-demand weights, available items only.

    Welfare is the sum of matched weights (the weights are the final
    word here: there is no interdependence left at this layer).  Every
    agent of the order needs a weight vector of length ``num_items``.
    """
    if not isinstance(order, ArrivalOrder):
        order = ArrivalOrder(order)
    n = len(order)
    if n == 0:
        raise ValidationError("empty arrival order")
    k = _sample_k(k, n)
    weights = {a: tuple(ws) for a, ws in weights.items()}
    for a in order:
        if a not in weights:
            raise ValidationError(f"agent {a} has no weight vector")
        if len(weights[a]) != num_items:
            raise ValidationError(f"agent {a} has {len(weights[a])} weights for {num_items} items")
    steps = _arrive(order, num_items, k, _match_step({}, weights))
    return _run_result(steps, _matched_weight(weights))


Blackbox = Callable[[Sequence, int], tuple]


def make_sample_then_greedy_blackbox(k: Optional[int] = None) -> Blackbox:
    """Classical sample-then-greedy over all items, on frozen bundle tables, as a policy."""

    def start(arrivals, num_items):
        tables = {agent: bundle_value_table(spec, sigs) for agent, spec, sigs in arrivals}

        def greedy_step(agent: int, amask: int, avail: int) -> int:
            agents = bits_of(amask)
            alloc = solve_from_tables(agents, [tables[a] for a in agents], range(num_items))
            return mask_of(alloc.bundle_of(agent)) & avail

        return _sample_k(k, len(arrivals)), greedy_step

    return start


def make_sample_then_match_blackbox(k: Optional[int] = None) -> Blackbox:
    """Secretary matching on frozen unit-demand item weights; one memo serves every call."""
    memo: dict = {}

    def start(arrivals, num_items):
        weights = {}
        for agent, spec, sigs in arrivals:
            if not isinstance(spec, _UnitDemand):
                raise ValidationError(
                    f"the match blackbox needs unit-demand agents; agent {agent} is not"
                )
            weights[agent] = spec.item_weights(sigs)
        return _sample_k(k, len(arrivals)), _match_step(memo, weights)

    return start


def _proxy_steps(specs, signals, order: tuple, num_items: int, blackbox: Blackbox):
    """The proxy framework's one engine pass: floor(n/2) signal-sample agents,
    then the blackbox's sample k and its policy on the residual agents."""
    if len(order) < 2:
        raise ValidationError("the proxy framework needs at least 2 agents")
    k1 = len(order) // 2
    sample = order[:k1]
    sample_mask = mask_of(sample)
    arrivals = [(a, specs[a], mask_signals(signals, sample + (a,))) for a in order[k1:]]
    k, decide = blackbox(arrivals, num_items)
    _check_sample_size(k, len(arrivals))

    def step(agent: int, amask: int, avail: int) -> int:
        taken = decide(agent, amask & ~sample_mask, avail)
        if taken & ~avail:
            raise RuntimeError(f"blackbox gave agent {agent} an unavailable item")
        return taken

    return _arrive(order, num_items, k1 + k, step)


def run_proxy_framework(inst: Instance, order, blackbox: Blackbox) -> RunResult:
    """Half the agents buy signal information; a classical algorithm runs on the rest.

    The first floor(n/2) agents are skipped and only their signals are
    kept.  Each remaining agent's valuation is frozen at (sample signals
    + her own), which removes interdependence, and the blackbox's policy
    plays the residual agents over all items in the same engine pass.
    Welfare is still scored at the full true profile.
    """
    order = _check_order(order, inst.n)
    steps = _proxy_steps(inst.specs, inst.signals, order.agents, inst.m, blackbox)
    return _run_result(steps, InstanceRuntime(inst).true_welfare)


def survival_probability(
    inst: Instance,
    item: int,
    step: int,
    k: int,
    mode: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    runtime: Optional[InstanceRuntime] = None,
):
    """Probability that ``item`` is still unallocated after ``step`` steps.

    Runs the sample-then-greedy policy with sample size k for the first
    ``step`` arrivals of each order.  Exact mode enumerates the n!/(n-step)!
    ordered prefixes of that length, each standing for (n-step)! orders,
    and returns a Fraction; Monte Carlo returns a float over ``trials``
    seeded orders.
    """
    if not (0 <= item < inst.m):
        raise ValidationError(f"item {item} out of range for m={inst.m}")
    if not (1 <= step <= inst.n):
        raise ValidationError(f"step {step} out of range for n={inst.n}")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    _check_sample_size(k, inst.n)
    rt = runtime if runtime is not None else InstanceRuntime(inst)

    def survives(order_seq) -> bool:
        for t, _, avail, taken in _arrive(order_seq, inst.m, k, rt.greedy_step):
            if t == step:
                return bool((avail & ~taken) >> item & 1)

    if mode == "exact":
        if inst.n > 7:
            raise CapabilityError(f"exact mode enumerates {inst.n}! orders; n <= 7 required")
        count = sum(1 for prefix in itertools.permutations(range(inst.n), step) if survives(prefix))
        return Fraction(count * math.factorial(inst.n - step), math.factorial(inst.n))
    if mode == "monte_carlo":
        count = sum(1 for order in _trial_orders(seed, trials, inst.n) if survives(order))
        return count / trials
    raise ValidationError(f"unknown mode {mode!r}")


def random_valid_tail_sequence(n: int, rng) -> list[float]:
    """Random nonnegative, nondecreasing sequence with a_n <= a_t + a_{n-t}.

    Mixture of three families that each satisfy both constraints (which
    are preserved under addition): a concave cumulative sum, a constant,
    and a step function whose threshold stays in the first half.
    """
    concave = list(itertools.accumulate(sorted(rng.uniform(0, 1, n), reverse=True)))
    const = float(rng.uniform(0, 1))
    tau = int(rng.integers(1, max(2, n // 2 + 1)))
    step_height = float(rng.uniform(0, 1))
    w1, w2, w3 = rng.uniform(0, 1, 3)
    return [
        float(w1 * concave[t] + w2 * const + w3 * (step_height if t + 1 >= tau else 0.0))
        for t in range(n)
    ]


@dataclass(frozen=True)
class TailSumCheck:
    lhs: float
    rhs: float
    passed: bool


def check_tail_harmonic_sum(values: Sequence, slack_constant: float = 5.0) -> TailSumCheck:
    """Check sum_{t=ceil(n/e)}^n a_t/(t-1) >= (a_n/2) * (1 - c/n).

    The sequence must be nonnegative, nondecreasing, and satisfy
    a_n <= a_t + a_{n-t} for every t (a_0 reads as 0).  The c/n slack
    absorbs the finite-n correction term, whose sign is not pinned down
    at small n; c defaults to 5.
    """
    a = list(values)
    n = len(a)
    if n < 3:
        raise ValidationError("need a sequence of length >= 3")
    if a[0] < 0:
        raise ValidationError("sequence must be nonnegative (index 1)")
    for t in range(1, n):
        if a[t] < a[t - 1]:
            raise ValidationError(f"sequence must be nondecreasing (index {t + 1})")
    for t in range(1, n):
        if a[n - 1] > a[t - 1] + a[n - t - 1] + 1e-12:
            raise ValidationError(f"complement-sum bound fails at index {t}")

    start = math.ceil(n / math.e)
    lhs = sum(a[t - 1] / (t - 1) for t in range(start, n + 1))
    rhs = a[n - 1] / 2
    slack = slack_constant / n
    return TailSumCheck(lhs, rhs, lhs >= rhs * (1 - slack))
