"""Online algorithms against a literal reference interpreter, plus checkers."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference_impls import (
    assert_invariants,
    ref_run_sample_then_greedy,
    ref_run_sample_then_match,
)

from secalloc import (
    ArrivalOrder,
    CapabilityError,
    SignalWeight,
    ValidationError,
    XOSValuation,
    check_tail_harmonic_sum,
    eval_valuation,
    make_sample_then_greedy_blackbox,
    run_proxy_framework,
    run_sample_then_greedy,
    run_sample_then_match,
    sample_size,
    survival_probability,
)
from secalloc.secretary import InstanceRuntime, random_valid_tail_sequence
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


def test_framework_with_nothing_blackbox():
    inst = generate_instance(GeneratorParams(4, 3, "xos_linear"), seed=1)
    res = run_proxy_framework(inst, ArrivalOrder.identity(4), lambda arrivals, m: {})
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
        return {agent: frozenset({0}) for agent, *_ in arrivals}

    with pytest.raises(RuntimeError):
        run_proxy_framework(inst, ArrivalOrder.identity(4), greedy_overlap)


def test_framework_needs_two_agents():
    inst = generate_instance(GeneratorParams(1, 2, "xos_linear"), seed=0)
    with pytest.raises(ValidationError):
        run_proxy_framework(inst, ArrivalOrder.identity(1), lambda arrivals, m: {})


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
