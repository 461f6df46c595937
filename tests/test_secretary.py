"""Online algorithms against a literal reference interpreter, plus checkers."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import secalloc.secretary
from reference_impls import (
    assert_invariants,
    ref_make_sample_then_greedy_blackbox,
    ref_make_sample_then_match_blackbox,
    ref_run_proxy_framework,
    ref_run_sample_then_greedy,
    ref_run_sample_then_match,
)

from secalloc import (
    ArrivalOrder,
    CapabilityError,
    SeparableValuation,
    SignalWeight,
    UnitDemandValuation,
    ValidationError,
    XOSValuation,
    check_tail_harmonic_sum,
    eval_valuation,
    make_sample_then_greedy_blackbox,
    make_sample_then_match_blackbox,
    opt_matching,
    run_proxy_framework,
    run_sample_then_greedy,
    run_sample_then_match,
    sample_size,
    survival_probability,
)
from secalloc._util import bits_of
from secalloc.secretary import InstanceRuntime, _arrive, random_valid_tail_sequence
from secalloc.valuations import Instance
from secalloc.harness import GeneratorParams, generate_instance


# Deterministic and free of wall-clock checks, so tier-1 runs repeat exactly.
DERANDOMIZED = settings(derandomize=True, deadline=None, database=None,
                        suppress_health_check=[HealthCheck.too_slow])


def signal_free_additive_instance(weight_rows):
    """Additive valuations that ignore signals entirely."""
    n = len(weight_rows)
    m = len(weight_rows[0])
    specs = [
        XOSValuation(
            [{j: SignalWeight([0.0] * n, row[j]) for j in range(m)}], num_items=m
        )
        for row in weight_rows
    ]
    return Instance(specs, [1.0] * n)


def test_all_orders_match_reference_interpreter_additive():
    inst = signal_free_additive_instance([[4.0, 1.0], [2.0, 3.0], [1.0, 5.0]])
    k = sample_size(3, "n/e")
    assert k == 1
    for perm in itertools.permutations(range(3)):
        res = run_sample_then_greedy(inst, ArrivalOrder(perm), k)
        assert_invariants(res)
        ref_bundles, ref_welfare = ref_run_sample_then_greedy(inst, perm, k)
        assert dict(res.bundles) == ref_bundles
        assert res.welfare == pytest.approx(ref_welfare, abs=1e-12)


@pytest.mark.parametrize("family", ["xos_linear", "xos_capped"])
def test_random_instances_match_reference_interpreter(family):
    rng = np.random.default_rng(17)
    for seed in range(6):
        inst = generate_instance(GeneratorParams(4, 3, family), seed=seed)
        k = int(rng.integers(0, 4))
        order = ArrivalOrder.random(4, rng)
        res = run_sample_then_greedy(inst, order, k)
        assert_invariants(res)
        ref_bundles, ref_welfare = ref_run_sample_then_greedy(inst, order.agents, k)
        assert dict(res.bundles) == ref_bundles
        assert res.welfare == pytest.approx(ref_welfare, abs=1e-9)


def test_sample_of_n_minus_one_only_serves_the_last_agent():
    inst = generate_instance(GeneratorParams(5, 3, "xos_linear"), seed=4)
    order = ArrivalOrder.identity(5)
    res = run_sample_then_greedy(inst, order, k=4)
    assert set(res.bundles) <= {order[4]}
    for record in res.trace[:4]:
        assert record.bundle == frozenset()


def test_single_agent_gets_its_optimal_bundle():
    inst = generate_instance(GeneratorParams(1, 3, "additive"), seed=0)
    res = run_sample_then_greedy(inst, ArrivalOrder.identity(1), k=0)
    runtime = InstanceRuntime(inst)
    alloc, _ = runtime.step_opt(1)
    assert res.bundles.get(0, frozenset()) == alloc.bundle_of(0)
    assert res.welfare == pytest.approx(alloc.value)


def test_run_validations():
    inst = generate_instance(GeneratorParams(3, 2, "xos_linear"), seed=0)
    with pytest.raises(ValidationError):
        run_sample_then_greedy(inst, ArrivalOrder([0, 1]), 1)  # not a permutation of [3]
    with pytest.raises(ValidationError):
        run_sample_then_greedy(inst, ArrivalOrder.identity(3), 3)  # k = n
    with pytest.raises(ValidationError):
        ArrivalOrder([0, 0, 1])


def test_negative_agent_ids_are_rejected_at_the_boundary():
    with pytest.raises(ValidationError, match="nonnegative"):
        ArrivalOrder([0, -1])
    with pytest.raises(ValidationError, match="nonnegative"):
        run_sample_then_match({-1: [1.0, 2.0], -2: [2.0, 1.0]}, 2, [-1, -2], 0)


def test_trace_serializes_to_json_lines():
    import json

    inst = generate_instance(GeneratorParams(4, 3, "xos_linear"), seed=6)
    res = run_sample_then_greedy(inst, ArrivalOrder.identity(4), k=1)
    lines = res.trace_json_lines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first == {"t": 1, "agent": 0, "available": [0, 1, 2], "bundle": []}


def test_trace_availability_shrinks_by_each_bundle():
    inst = generate_instance(GeneratorParams(5, 4, "xos_capped"), seed=9)
    res = run_sample_then_greedy(inst, ArrivalOrder.identity(5), k=1)
    avail = frozenset(range(4))
    for record in res.trace:
        assert record.available == avail
        assert record.bundle <= avail
        avail -= record.bundle
    welfare = sum(
        eval_valuation(inst.specs[i], res.bundles[i], inst.signals)
        for i in sorted(res.bundles)
    )
    assert res.welfare == pytest.approx(welfare, abs=1e-12)


def test_sample_then_match_two_agents_one_good_item():
    weights = {0: [5.0, 0.0], 1: [4.0, 0.0]}
    # k=0: the first arrival immediately takes item 0; the second gets nothing
    # (the remaining item is worthless and the optimum leaves it unassigned).
    for order in ([0, 1], [1, 0]):
        res = run_sample_then_match(weights, 2, ArrivalOrder(order), k=0)
        assert res.bundles == {order[0]: frozenset({0})}
        assert res.welfare == weights[order[0]][0]


def test_sample_then_match_all_zero_weights():
    weights = {0: [0.0, 0.0], 1: [0.0, 0.0]}
    res = run_sample_then_match(weights, 2, ArrivalOrder([0, 1]), k=0)
    assert res.bundles == {} and res.welfare == 0


def test_sample_then_match_single_agent_takes_best_item():
    res = run_sample_then_match({7: [1.0, 3.0, 2.0]}, 3, ArrivalOrder([7]), k=0)
    assert res.bundles == {7: frozenset({1})}
    assert res.welfare == 3.0


def test_sample_then_match_default_sample_size():
    weights = {i: [1.0] for i in range(6)}
    res = run_sample_then_match(weights, 1, ArrivalOrder.identity(6))
    sampled = [rec for rec in res.trace if rec.t <= sample_size(6, "n/e")]
    assert all(rec.bundle == frozenset() for rec in sampled)


def nothing_blackbox(arrivals, num_items):
    """Sample no one, then let every agent take nothing."""
    return 0, lambda agent, arrived, avail: 0


def play(blackbox, arrivals, num_items):
    """Drive a blackbox's policy over its own arrivals: {agent: taken item mask}."""
    k, decide = blackbox(arrivals, num_items)
    order = [agent for agent, *_ in arrivals]
    return {agent: taken for _, agent, _, taken in _arrive(order, num_items, k, decide) if taken}


def test_framework_with_nothing_blackbox():
    inst = generate_instance(GeneratorParams(4, 3, "xos_linear"), seed=1)
    res = run_proxy_framework(inst, ArrivalOrder.identity(4), nothing_blackbox)
    assert res.welfare == 0 and res.bundles == {}


def test_framework_reduces_to_blackbox_without_interdependence():
    # Signal-independent valuations: masking is a no-op, so the framework
    # must equal the blackbox run directly on the residual agents.
    inst = signal_free_additive_instance(
        [[4.0, 1.0, 0.5], [2.0, 3.0, 1.0], [1.0, 5.0, 2.0], [3.0, 2.0, 4.0]]
    )
    blackbox = make_sample_then_greedy_blackbox()
    for perm in itertools.permutations(range(4)):
        res = run_proxy_framework(inst, ArrivalOrder(perm), blackbox)
        residual = perm[2:]
        # Reference: step the classical algorithm by hand on the residual pair.
        expected = {}
        avail = set(range(3))
        arrived = []
        kk = sample_size(len(residual), "n/e")
        for t, agent in enumerate(residual, start=1):
            arrived.append(agent)
            if t <= kk:
                continue
            from reference_impls import ref_opt_brute

            bundles, _, _ = ref_opt_brute(
                arrived,
                lambda a, b: eval_valuation(inst.specs[a], b, inst.signals),
                range(3),
            )
            mine = set(bundles.get(agent, frozenset())) & avail
            if mine:
                expected[agent] = frozenset(mine)
                avail -= mine
        assert dict(res.bundles) == expected


def test_framework_rejects_overlapping_blackbox_output():
    inst = generate_instance(GeneratorParams(4, 2, "xos_linear"), seed=2)

    def greedy_overlap(arrivals, m):
        # Every residual agent takes item 0, the second after it is gone.
        return 0, lambda agent, arrived, avail: 1

    with pytest.raises(RuntimeError, match="blackbox gave agent 3 an unavailable item"):
        run_proxy_framework(inst, ArrivalOrder.identity(4), greedy_overlap)


def test_framework_rejects_a_policy_taking_an_unknown_item():
    inst = generate_instance(GeneratorParams(5, 2, "xos_linear"), seed=2)

    def beyond_the_items(arrivals, m):
        return 1, lambda agent, arrived, avail: 1 << m

    with pytest.raises(RuntimeError, match="blackbox gave agent 1 an unavailable item"):
        run_proxy_framework(inst, ArrivalOrder([4, 0, 3, 1, 2]), beyond_the_items)


def test_framework_checks_the_blackbox_sample_size():
    # A negative k would hand signal-sample agents to the policy.
    inst = generate_instance(GeneratorParams(5, 2, "xos_linear"), seed=2)
    for k in (-1, 3):
        with pytest.raises(ValidationError, match=rf"sample size k={k} must satisfy 0 <= k < n=3"):
            run_proxy_framework(inst, ArrivalOrder.identity(5), lambda arrivals, m: (k, None))


def test_framework_asks_the_policy_about_residual_agents_only():
    inst = generate_instance(GeneratorParams(7, 2, "xos_linear"), seed=2)
    order = ArrivalOrder([6, 2, 0, 5, 1, 4, 3])
    asked = []

    def recording(arrivals, m):
        def decide(agent, arrived, avail):
            asked.append((agent, bits_of(arrived)))
            return 0
        return 1, decide

    run_proxy_framework(inst, order, recording)
    # k1 = 3 signal-sample agents, then the blackbox's own sample of one.
    assert asked == [(1, [1, 5]), (4, [1, 4, 5]), (3, [1, 3, 4, 5])]


def test_blackboxes_check_their_sample_size():
    inst = generate_instance(GeneratorParams(4, 2, "separable_linear"), seed=0)
    arrivals = [(a, inst.specs[a], inst.signals) for a in (1, 3)]
    for make in (make_sample_then_greedy_blackbox, make_sample_then_match_blackbox):
        with pytest.raises(ValidationError, match=r"sample size k=2 must satisfy 0 <= k < n=2"):
            make(2)(arrivals, inst.m)


def test_match_blackbox_answers_a_repeated_call_from_its_memo(monkeypatch):
    inst = generate_instance(GeneratorParams(6, 3, "unit_demand_const"), seed=1)
    arrivals = [(a, inst.specs[a], inst.signals) for a in (4, 0, 5, 2)]
    calls = []

    def counting(*args):
        calls.append(args)
        return opt_matching(*args)

    monkeypatch.setattr(secalloc.secretary, "opt_matching", counting)
    blackbox = make_sample_then_match_blackbox(0)
    first = play(blackbox, arrivals, inst.m)
    assert calls
    calls.clear()
    assert play(blackbox, arrivals, inst.m) == first
    assert calls == []


def test_framework_needs_two_agents():
    inst = generate_instance(GeneratorParams(1, 2, "xos_linear"), seed=0)
    with pytest.raises(ValidationError):
        run_proxy_framework(inst, ArrivalOrder.identity(1), nothing_blackbox)


def test_random_order_is_the_generators_permutation():
    # Drawn orders skip validation; they must stay the generator's draw, as ints.
    for n in (0, 1, 6):
        drawn = ArrivalOrder.random(n, np.random.default_rng(n))
        assert drawn.agents == tuple(int(a) for a in np.random.default_rng(n).permutation(n))
        assert all(type(a) is int for a in drawn.agents)


def test_survival_is_one_during_the_sample_phase():
    inst = generate_instance(GeneratorParams(4, 2, "additive"), seed=3)
    assert survival_probability(inst, 0, step=2, k=2) == Fraction(1)


def test_survival_equals_k_over_t_on_positive_additive():
    inst = generate_instance(GeneratorParams(6, 3, "additive"), seed=0)
    runtime = InstanceRuntime(inst)
    assert survival_probability(inst, 1, 4, 2, runtime=runtime) == Fraction(2, 4)
    assert survival_probability(inst, 2, 5, 2, runtime=runtime) == Fraction(2, 5)


def test_survival_monte_carlo_agrees_with_exact():
    inst = generate_instance(GeneratorParams(5, 3, "additive"), seed=1)
    runtime = InstanceRuntime(inst)
    exact = survival_probability(inst, 0, 3, 1, runtime=runtime)
    mc = survival_probability(inst, 0, 3, 1, mode="monte_carlo", trials=4000, seed=0,
                              runtime=runtime)
    assert mc == pytest.approx(float(exact), abs=0.03)


def test_survival_capability_and_validation():
    inst = generate_instance(GeneratorParams(8, 2, "additive"), seed=0)
    with pytest.raises(CapabilityError):
        survival_probability(inst, 0, 3, 2)
    small = generate_instance(GeneratorParams(3, 2, "additive"), seed=0)
    with pytest.raises(ValidationError):
        survival_probability(small, 5, 2, 1)
    with pytest.raises(ValidationError, match="trials"):
        survival_probability(small, 0, 2, 1, mode="monte_carlo", trials=0)


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_survival_rejects_a_sample_size_out_of_range(mode):
    inst = generate_instance(GeneratorParams(5, 3, "additive"), seed=0)
    for k in (-1, inst.n, inst.n + 4):
        with pytest.raises(ValidationError, match=rf"sample size k={k} must satisfy 0 <= k < n=5"):
            survival_probability(inst, 0, 3, k, mode, trials=10)


# --- the arrival engine against literal references --------------------------

WEIGHTS = st.one_of(st.floats(0.0, 1.0, allow_nan=False),
                    st.sampled_from([0.0, 0.25, 0.5, 1.0]))  # ties and zeros


@DERANDOMIZED
@given(data=st.data())
def test_sample_then_match_equals_reference(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 3))
    ids = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True))
    weights = {a: [data.draw(WEIGHTS) for _ in range(m)] for a in ids}
    k = data.draw(st.integers(0, n - 1))
    cache: dict = {}  # shared across orders, as estimate_ratio shares it
    for _ in range(3):
        order = data.draw(st.permutations(ids))
        res = run_sample_then_match(weights, m, order, k, cache=cache)
        assert_invariants(res)
        trace, bundles, welfare = ref_run_sample_then_match(weights, m, order, k)
        assert [(r.t, r.agent, r.available, r.bundle) for r in res.trace] == trace
        assert repr(res.bundles) == repr(bundles)
        assert repr(res.welfare) == repr(welfare)


@DERANDOMIZED
@given(data=st.data())
@example(data=None)  # two crossed weight maps on order [0, 1], k=0
def test_match_cache_shared_across_weight_maps_equals_fresh_runs(data):
    if data is None:
        runs = [({0: [1.0, 0.0], 1: [0.0, 1.0]}, [0, 1], 0),
                ({0: [0.0, 1.0], 1: [1.0, 0.0]}, [0, 1], 0)]
        m = 2
    else:
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 3))
        ids = list(range(n))
        runs = [({a: [data.draw(WEIGHTS) for _ in range(m)] for a in ids},
                 data.draw(st.permutations(ids)), data.draw(st.integers(0, n - 1)))
                for _ in range(4)]
    cache: dict = {}  # one cache across every weight map
    for weights, order, k in runs:
        shared = run_sample_then_match(weights, m, order, k, cache=cache)
        fresh = run_sample_then_match(weights, m, order, k)
        assert_invariants(shared)
        assert repr(shared) == repr(fresh)
        trace, bundles, welfare = ref_run_sample_then_match(weights, m, order, k)
        assert [(r.t, r.agent, r.available, r.bundle) for r in shared.trace] == trace
        assert repr(shared.bundles) == repr(bundles)
        assert repr(shared.welfare) == repr(welfare)


@DERANDOMIZED
@given(family=st.sampled_from(["additive", "xos_linear", "xos_capped"]),
       n=st.integers(2, 4), m=st.integers(1, 3), seed=st.integers(0, 50), data=st.data())
def test_exact_survival_equals_reference_count(family, n, m, seed, data):
    inst = generate_instance(GeneratorParams(n, m, family), seed=seed)
    item = data.draw(st.integers(0, m - 1))
    step = data.draw(st.integers(1, n))
    k = data.draw(st.integers(0, n - 1))
    survived = 0
    for perm in itertools.permutations(range(n)):
        bundles, _ = ref_run_sample_then_greedy(inst, perm[:step], k)
        survived += not any(item in b for b in bundles.values())
    want = Fraction(survived, math.factorial(n))
    assert survival_probability(inst, item, step, k) == want


def test_prefix_sets_are_uniform_t_subsets():
    n, t = 5, 3
    counts = {}
    for perm in itertools.permutations(range(n)):
        counts[frozenset(perm[:t])] = counts.get(frozenset(perm[:t]), 0) + 1
    expected = math.factorial(t) * math.factorial(n - t)
    assert len(counts) == math.comb(n, t)
    assert all(c == expected for c in counts.values())


def test_tail_sum_constant_sequence():
    n = 200
    res = check_tail_harmonic_sum([1.0] * n)
    assert res.passed
    assert res.rhs == 0.5
    # Exact rational oracle for the same tail sum.
    start = math.ceil(n / math.e)
    exact = sum(Fraction(1, t - 1) for t in range(start, n + 1))
    assert res.lhs == pytest.approx(float(exact), abs=1e-12)
    assert res.lhs == pytest.approx(1.0, abs=0.02)  # ~ ln(e)


def test_tail_sum_linear_sequence():
    n = 200
    res = check_tail_harmonic_sum([t / n for t in range(1, n + 1)])
    assert res.passed
    start = math.ceil(n / math.e)
    exact = sum(Fraction(t, n) / (t - 1) for t in range(start, n + 1))
    assert res.lhs == pytest.approx(float(exact), abs=1e-9)
    assert res.lhs == pytest.approx(1 - 1 / math.e, abs=0.015)


def test_tail_sum_zero_sequence():
    res = check_tail_harmonic_sum([0.0] * 50)
    assert res == type(res)(0.0, 0.0, True)


def test_tail_sum_rejects_invalid_sequences():
    with pytest.raises(ValidationError, match="index 2"):
        check_tail_harmonic_sum([1.0, 0.5, 1.0])
    with pytest.raises(ValidationError, match="complement"):
        check_tail_harmonic_sum([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValidationError):
        check_tail_harmonic_sum([1.0, 2.0])


def test_generated_sequences_are_valid_and_pass():
    rng = np.random.default_rng(123)
    for n in (50, 100):
        for _ in range(50):
            seq = random_valid_tail_sequence(n, rng)
            assert check_tail_harmonic_sum(seq).passed


@pytest.mark.parametrize("n", [20, 50, 100])
def test_tail_sum_slack_covers_the_exact_worst_case(n):
    """The c=5 slack is safe: minimize the tail sum by LP over ALL valid
    sequences with a_n = 1 and confirm the minimum clears (1/2)(1 - 5/n)."""
    from scipy.optimize import linprog

    start = math.ceil(n / math.e)
    cost = [0.0] * n
    for t in range(start, n + 1):
        cost[t - 1] = 1.0 / (t - 1)
    rows, rhs = [], []
    for t in range(n - 1):  # nondecreasing
        row = [0.0] * n
        row[t], row[t + 1] = 1.0, -1.0
        rows.append(row)
        rhs.append(0.0)
    for t in range(1, n):  # a_n <= a_t + a_{n-t}
        row = [0.0] * n
        row[n - 1] += 1.0
        row[t - 1] -= 1.0
        row[n - t - 1] -= 1.0
        rows.append(row)
        rhs.append(0.0)
    a_eq = [[0.0] * (n - 1) + [1.0]]
    res = linprog(cost, A_ub=rows, b_ub=rhs, A_eq=a_eq, b_eq=[1.0],
                  bounds=(0, None), method="highs")
    assert res.success
    threshold = 0.5 * (1 - 5.0 / n)
    assert res.fun >= threshold, (n, res.fun, threshold)
    # The optimum really sits near 1/2: the bound is essentially tight.
    assert res.fun < 0.62


def test_half_constant_worst_case_still_passes():
    # a_t = 1/2 below n, a_n = 1 is the asymptotically tight sequence.
    n = 50
    seq = [0.5] * (n - 1) + [1.0]
    res = check_tail_harmonic_sum(seq)
    assert res.passed
    assert res.lhs < 0.56  # genuinely near the boundary


# --- the proxy framework against its two-pass reference ----------------------

UNIFORM = st.floats(0.0, 1.0, allow_nan=False)
GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])  # ties and zeros


@st.composite
def framework_cases(draw):
    """(instance, orders, blackbox kind, k): float, 0.25-grid or Fraction values."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 3))
    value = draw(st.sampled_from([UNIFORM, GRID]))
    kind = draw(st.sampled_from(["greedy", "match"]))

    def weight(readers, capped=True):
        coeffs = [draw(value) if r in readers else 0.0 for r in range(n)]
        return SignalWeight(coeffs, draw(value), draw(st.one_of(st.none(), value)) if capped else None)

    everyone = set(range(n))
    specs = []
    for i in range(n):
        shape = draw(st.sampled_from(["separable", "unit_demand"] + (["xos"] if kind == "greedy" else [])))
        if shape == "separable":
            specs.append(SeparableValuation(
                i, [weight({i}, capped=False) for _ in range(m)],
                [weight(everyone - {i}) for _ in range(m)],
            ))
        elif shape == "unit_demand":
            specs.append(UnitDemandValuation(weight(everyone) for _ in range(m)))
        else:
            clauses = [{j: weight(everyone) for j in range(m)} for _ in range(draw(st.integers(1, 2)))]
            specs.append(XOSValuation(clauses, num_items=m))
    inst = Instance(specs, [draw(value) for _ in range(n)])
    if draw(st.booleans()):
        inst = inst.exact()
    k = draw(st.one_of(st.none(), st.integers(0, n - n // 2 - 1)))
    orders = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return inst, [ArrivalOrder(o) for o in orders], kind, k


@DERANDOMIZED
@given(case=framework_cases())
def test_proxy_framework_equals_the_two_pass_reference(case):
    inst, orders, kind, k = case
    if kind == "match":
        blackbox, reference = make_sample_then_match_blackbox(k), ref_make_sample_then_match_blackbox(k)
    else:
        blackbox, reference = make_sample_then_greedy_blackbox(k), ref_make_sample_then_greedy_blackbox(k)
    # One blackbox per side serves every order, so the match memo is shared.
    for order in orders:
        got = run_proxy_framework(inst, order, blackbox)
        assert_invariants(got)
        assert repr(got) == repr(ref_run_proxy_framework(inst, order, reference))

