"""Truthful matching mechanism: prices, utilities, incentive audits."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_impls import assert_invariants, ref_run_mechanism

from secalloc import (
    ArrivalOrder,
    SignalWeight,
    ValidationError,
    check_epic,
    check_random_sampling_bound,
    make_sample_then_match_blackbox,
    mask_signals,
    opt_matching,
    run_mechanism,
    run_proxy_framework,
)
from secalloc.valuations import Instance, SeparableValuation, SignalProfile
from secalloc.harness import GeneratorParams, generate_instance


# Deterministic and free of wall-clock checks, so tier-1 runs repeat exactly.
DERANDOMIZED = settings(derandomize=True, deadline=None, database=None,
                        suppress_health_check=[HealthCheck.too_slow])

WEIGHTS = st.one_of(st.floats(0.0, 1.0, allow_nan=False),
                    st.sampled_from([0.0, 0.25, 0.5, 1.0]))  # ties and zeros


def separable_instance(n, m, own_scale, other_rows, signals, caps=None):
    """Hand-built separable instance: own part = own_scale[i][j] * s_i."""
    specs = []
    for i in range(n):
        own, others = [], []
        for j in range(m):
            coeffs = [0.0] * n
            coeffs[i] = own_scale[i][j]
            own.append(SignalWeight(coeffs))
            oc = list(other_rows[i][j])
            oc[i] = 0.0
            cap = None if caps is None else caps[i][j]
            others.append(SignalWeight(oc, 0.0, cap))
        specs.append(SeparableValuation(i, own, others))
    return Instance(specs, signals)


def test_price_ledger_recomputes_from_first_principles():
    """4 agents, 2 items: re-derive every price from scratch."""
    n, m = 4, 2
    own_scale = [[1.0, 0.5], [0.6, 1.2], [0.8, 0.3], [0.4, 1.0]]
    other_rows = [
        [[0.2, 0.1, 0.3, 0.0], [0.1, 0.0, 0.2, 0.4]],
        [[0.0, 0.3, 0.1, 0.2], [0.5, 0.0, 0.1, 0.1]],
        [[0.3, 0.2, 0.0, 0.1], [0.2, 0.1, 0.0, 0.3]],
        [[0.1, 0.4, 0.2, 0.0], [0.0, 0.2, 0.3, 0.0]],
    ]
    signals = [0.9, 0.4, 0.7, 1.1]
    inst = separable_instance(n, m, own_scale, other_rows, signals)
    order = ArrivalOrder([2, 0, 3, 1])
    outcome = run_mechanism(inst, order)
    k1, k2 = outcome.k1, outcome.k2
    assert (k1, k2) == (2, 0)

    sample = set(order.agents[:k1])
    # Rebuild proxy weights independently from the definition.
    w = {}
    for agent in order.agents[k1:]:
        masked = mask_signals(inst.signals, sample | {agent})
        w[agent] = [inst.specs[agent].item_weight(j, masked.values) for j in range(m)]

    avail = frozenset(range(m))
    arrived = []
    for step in outcome.trace:
        if step.t <= k1 + k2:
            assert step.price == 0.0
            continue
        arrived.append(step.agent)
        cur = opt_matching(arrived, w, avail)
        prev = opt_matching([a for a in arrived if a != step.agent], w, avail)
        assert step.opt_prev == pytest.approx(prev.value, abs=1e-12)
        opt_minus = cur.value - cur.per_agent_value.get(step.agent, 0.0)
        assert step.opt_minus == pytest.approx(opt_minus, abs=1e-12)
        assert cur.bundle_of(step.agent) == step.bundle

        spec = inst.specs[step.agent]
        g_full = spec.others_value(step.bundle, inst.signals.values)
        g_sample = spec.others_value(
            step.bundle, mask_signals(inst.signals, sample).values
        )
        expected_price = prev.value - opt_minus + g_full - g_sample
        if step.bundle:
            assert outcome.payments[step.agent] == pytest.approx(expected_price, abs=1e-12)
        else:
            assert outcome.payments[step.agent] == 0.0
            assert expected_price == pytest.approx(0.0, abs=1e-9)
        avail -= step.bundle


def test_empty_bundle_pays_zero_and_formula_vanishes():
    inst = generate_instance(GeneratorParams(6, 2, "separable_capped"), seed=5)
    # Two items, three post-sample agents: someone must come away empty.
    outcome = run_mechanism(inst, ArrivalOrder.identity(6))
    empty_agents = [i for i in range(6) if i not in outcome.bundles]
    assert empty_agents
    for step in outcome.trace:
        if step.opt_prev is None or step.bundle:
            continue
        formula = step.opt_prev - step.opt_minus + step.g_full - step.g_sample
        assert outcome.payments[step.agent] == 0.0
        assert formula == pytest.approx(0.0, abs=1e-9)


def test_private_values_reduce_to_vcg_style_difference():
    # g identically zero: the price is exactly the two-optima difference.
    n, m = 4, 3
    own_scale = [[1.0, 0.4, 0.7], [0.3, 1.1, 0.2], [0.9, 0.8, 0.1], [0.5, 0.2, 1.3]]
    other_rows = [[[0.0] * n for _ in range(m)] for _ in range(n)]
    inst = separable_instance(n, m, own_scale, other_rows, [0.8, 1.2, 0.5, 1.0])
    outcome = run_mechanism(inst, ArrivalOrder([1, 3, 0, 2]))
    for step in outcome.trace:
        if step.opt_prev is None:
            continue
        assert step.g_full == 0.0 and step.g_sample == 0.0
        if step.bundle:
            assert outcome.payments[step.agent] == pytest.approx(
                step.opt_prev - step.opt_minus, abs=1e-12
            )


def test_sample_agents_have_zero_utility_and_payment():
    inst = generate_instance(GeneratorParams(7, 3, "separable_linear"), seed=2)
    order = ArrivalOrder([3, 5, 0, 6, 1, 2, 4])
    outcome = run_mechanism(inst, order)
    k_skip = outcome.k1 + outcome.k2
    for agent in order.agents[:k_skip]:
        assert outcome.payments[agent] == 0.0
        assert outcome.utilities[agent] == 0.0
        assert agent not in outcome.bundles


def test_agent_utility_recomputes_value_minus_price():
    inst = generate_instance(GeneratorParams(6, 4, "separable_capped"), seed=7)
    outcome = run_mechanism(inst, ArrivalOrder.identity(6))
    for i in range(6):
        expected = (
            inst.specs[i].value(outcome.bundle_of(i), inst.signals.values)
            - outcome.payments[i]
        )
        assert outcome.utilities[i] == pytest.approx(expected, abs=1e-12)


def test_mechanism_validations():
    xos = generate_instance(GeneratorParams(4, 2, "xos_linear"), seed=0)
    with pytest.raises(ValidationError):
        run_mechanism(xos, ArrivalOrder.identity(4))
    small = generate_instance(GeneratorParams(2, 2, "separable_linear"), seed=0)
    with pytest.raises(ValidationError):
        run_mechanism(small, ArrivalOrder.identity(2))


def test_audit_counts_are_validated_before_any_run():
    inst = generate_instance(GeneratorParams(4, 2, "separable_linear"), seed=0)
    order = ArrivalOrder.identity(4)
    for points in (1, 0):
        with pytest.raises(ValidationError, match="grid_points"):
            check_epic(inst, order, 3, grid_points=points)
    with pytest.raises(ValidationError, match="trials"):
        check_random_sampling_bound(inst, "monte_carlo", trials=0)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        check_random_sampling_bound(inst, "monte_carlo", trials=5, seed=-1)


def test_overflowing_payment_is_rejected():
    # Finite reports, but agent 0's others-part reads agent 1's signal at
    # 1e300 * 1e10: agent 0's g_full, and so its price, is inf.
    n = 3
    others_rows = [[[0.0, 1e300, 0.0]], [[0.0] * n], [[0.0, 1e300, 0.0]]]
    own_scale = [[1.0] for _ in range(n)]
    inst = separable_instance(n, 1, own_scale, others_rows, [0.5, 1e10, 0.5])
    with pytest.raises(ValidationError, match="agent 0 has a non-finite payment inf"):
        run_mechanism(inst, ArrivalOrder([2, 0, 1]))


GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def separable_instances(draw):
    """Generated separable instances, or hand-built ones on a 0.25 grid (ties)."""
    n = draw(st.integers(3, 11))
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        family = draw(st.sampled_from(["separable_capped", "separable_linear"]))
        return generate_instance(GeneratorParams(n, m, family), seed=draw(st.integers(0, 999)))
    own_scale = [[draw(GRID) for _ in range(m)] for _ in range(n)]
    other_rows = [[[draw(GRID) for _ in range(n)] for _ in range(m)] for _ in range(n)]
    caps = [[draw(st.one_of(st.none(), GRID)) for _ in range(m)] for _ in range(n)]
    signals = [draw(GRID) for _ in range(n)]
    return separable_instance(n, m, own_scale, other_rows, signals, caps)


@DERANDOMIZED
@given(inst=separable_instances(), data=st.data())
def test_allocation_identity_with_proxy_framework(inst, data):
    """The mechanism's allocation is the framework run with a matching blackbox.

    k2 = floor(n/2e) is passed explicitly: the framework's own default,
    floor((n - n//2)/e), differs from it at n = 5.
    """
    order = ArrivalOrder(data.draw(st.permutations(range(inst.n))))
    outcome = run_mechanism(inst, order)
    blackbox = make_sample_then_match_blackbox(k=outcome.k2)
    framework = run_proxy_framework(inst, order, blackbox)
    assert_invariants(outcome)
    assert_invariants(framework)
    assert dict(framework.bundles) == dict(outcome.bundles)


def test_epic_trivial_grid_and_private_values():
    inst = generate_instance(GeneratorParams(5, 3, "separable_linear"), seed=1)
    order = ArrivalOrder.identity(5)
    agent = 4
    audit = check_epic(inst, order, agent, grid=[float(inst.signals[agent])], refine=False)
    assert audit.passed and audit.violation <= 0

    # Private values: classical VCG-style truthfulness on a small sweep.
    n, m = 5, 3
    own_scale = [[1.0, 0.4, 0.7], [0.3, 1.1, 0.2], [0.9, 0.8, 0.1],
                 [0.5, 0.2, 1.3], [0.6, 0.9, 0.4]]
    other_rows = [[[0.0] * n for _ in range(m)] for _ in range(n)]
    private = separable_instance(n, m, own_scale, other_rows, [0.8, 1.2, 0.5, 1.0, 0.9])
    audit = check_epic(private, order, 3)
    assert audit.passed


def test_epic_private_values_over_many_random_instances():
    """g identically zero: classical truthfulness, swept across 100 instances."""
    n, m = 5, 3
    rng = np.random.default_rng(77)
    k_skip = n // 2 + int(n / (2 * np.e))
    for _ in range(100):
        own_scale = rng.uniform(0, 1.5, (n, m))
        other_rows = [[[0.0] * n for _ in range(m)] for _ in range(n)]
        inst = separable_instance(n, m, own_scale, other_rows,
                                  [float(s) for s in rng.uniform(0, 1, n)])
        order = ArrivalOrder.random(n, rng)
        pos = int(rng.integers(k_skip, n))
        audit = check_epic(inst, order, order[pos], grid_points=9, refine=False)
        assert audit.passed


def test_epic_holds_on_random_separable_instances():
    for seed in range(10):
        inst = generate_instance(GeneratorParams(6, 3, "separable_capped"), seed=seed)
        rng = np.random.default_rng(1000 + seed)
        order = ArrivalOrder.random(6, rng)
        cache = {}
        k_skip = 6 // 2 + int(6 / (2 * np.e))
        for pos in range(k_skip, 6):
            audit = check_epic(inst, order, order[pos], solver_cache=cache)
            assert audit.passed, (seed, pos, audit)
            # Equilibrium individual rationality.
            assert audit.truth_utility >= -1e-9


def test_random_sampling_bound_exact_on_separable():
    for seed in range(5):
        inst = generate_instance(GeneratorParams(6, 3, "separable_capped"), seed=seed).exact()
        res = check_random_sampling_bound(inst, "exact")
        assert res.passed and res.subsets == 20
        assert res.lhs >= res.rhs  # exact Fractions: no tolerance needed


def test_random_sampling_bound_single_valuable_agent():
    # Only agent 0 has value, constant across signals: the mean proxy
    # optimum is Pr[0 outside the sample] * its best item.
    n, m = 6, 3
    specs = []
    for i in range(n):
        own = [SignalWeight([0.0] * n) for _ in range(m)]
        others = [
            SignalWeight([0.0] * n, const=(2.0 + j if i == 0 else 0.0))
            for j in range(m)
        ]
        specs.append(SeparableValuation(i, own, others))
    inst = Instance(specs, [1.0] * n).exact()
    res = check_random_sampling_bound(inst, "exact")
    assert res.lhs == Fraction(1, 2) * 4  # Pr[0 not sampled] = 1/2, best item = 4
    assert res.rhs == Fraction(4, 4)
    assert res.passed


def test_random_sampling_bound_zero_instance():
    n, m = 4, 2
    specs = []
    for i in range(n):
        own = [SignalWeight([0.0] * n) for _ in range(m)]
        others = [SignalWeight([0.0] * n) for _ in range(m)]
        specs.append(SeparableValuation(i, own, others))
    inst = Instance(specs, [1.0] * n)
    res = check_random_sampling_bound(inst, "exact")
    assert res.lhs == 0 and res.rhs == 0 and res.passed


def test_random_sampling_bound_monte_carlo_mode():
    inst = generate_instance(GeneratorParams(6, 3, "separable_capped"), seed=0)
    res = check_random_sampling_bound(inst, "monte_carlo", trials=200, seed=1)
    assert res.passed


@DERANDOMIZED
@given(data=st.data())
def test_shared_solver_cache_equals_fresh_cache(data):
    n = data.draw(st.integers(3, 6))
    m = data.draw(st.integers(1, 3))
    own_scale = [[data.draw(WEIGHTS) for _ in range(m)] for _ in range(n)]
    other_rows = [[[data.draw(WEIGHTS) for _ in range(n)] for _ in range(m)] for _ in range(n)]
    inst = separable_instance(n, m, own_scale, other_rows, [data.draw(WEIGHTS) for _ in range(n)])
    cache: dict = {}  # one cache across orders and truthful and misreported profiles
    for _ in range(3):
        order = ArrivalOrder(data.draw(st.permutations(range(n))))
        for reports in (None, [data.draw(WEIGHTS) for _ in range(n)]):
            shared = run_mechanism(inst, order, reports, solver_cache=cache)
            assert_invariants(shared)
            assert repr(shared) == repr(run_mechanism(inst, order, reports))


# --- the mechanism against its own-sample-split reference --------------------

UNIFORM = st.floats(0.0, 1.0, allow_nan=False)
GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])  # ties and zeros


@st.composite
def mechanism_cases(draw):
    """(instance, orders, report profiles): float, 0.25-grid or Fraction values.

    m often falls short of the residual agents, so some priced steps find
    no item left and must still look both matchings up.
    """
    n = draw(st.integers(3, 8))
    m = draw(st.integers(1, 4))
    value = draw(st.sampled_from([UNIFORM, GRID]))

    def weight(readers, capped):
        coeffs = [draw(value) if r in readers else 0.0 for r in range(n)]
        return SignalWeight(coeffs, draw(value), draw(st.one_of(st.none(), value)) if capped else None)

    specs = [
        SeparableValuation(i, [weight({i}, False) for _ in range(m)],
                           [weight(set(range(n)) - {i}, True) for _ in range(m)])
        for i in range(n)
    ]
    inst = Instance(specs, [draw(value) for _ in range(n)])
    if draw(st.booleans()):
        inst = inst.exact()
    orders = [ArrivalOrder(o) for o in draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))]
    reports = [None]
    for _ in range(draw(st.integers(0, 2))):
        values = list(inst.signals.values)
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            values[i] = type(values[i])(draw(value))
        reports.append(SignalProfile(values))
    return inst, orders, reports


@DERANDOMIZED
@given(case=mechanism_cases())
def test_mechanism_equals_its_own_split_reference(case):
    inst, orders, reports = case
    shared, ref_shared = {}, {}
    for order in orders:
        for rep in reports:
            want = repr(ref_run_mechanism(inst, order, rep, solver_cache=ref_shared))
            for cache in (shared, {}):
                got = run_mechanism(inst, order, rep, solver_cache=cache)
                assert_invariants(got)
                assert repr(got) == want

