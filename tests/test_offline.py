"""Offline optima versus literal brute force, plus contract details."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference_impls import (
    WeightOracle,
    assert_invariants,
    ref_integerize,
    ref_matching_brute,
    ref_opt_brute,
    ref_opt_matching_padded,
    ref_solve_from_tables,
)

from secalloc import (
    CapabilityError,
    ValidationError,
    opt_general,
    opt_matching,
)
from secalloc._util import integerize
from secalloc.offline import solve_from_tables


def additive_oracle(agent, item_weights):
    return WeightOracle(agent, lambda b: sum(item_weights[j] for j in b))


def test_two_agent_crossed_weights():
    oracles = {0: additive_oracle(0, [5.0, 1.0]), 1: additive_oracle(1, [1.0, 5.0])}
    alloc = opt_general([0, 1], oracles, [0, 1])
    assert alloc.value == 10.0
    assert alloc.bundles == {0: frozenset({0}), 1: frozenset({1})}


def test_single_agent_takes_everything_valuable():
    oracles = {3: additive_oracle(3, [1.0, 2.0, 0.5])}
    alloc = opt_general([3], oracles, [0, 1, 2])
    assert alloc.bundles[3] == frozenset({0, 1, 2})
    assert alloc.value == 3.5


def test_empty_agent_set():
    alloc = opt_general([], {}, [0, 1])
    assert alloc.value == 0.0 and alloc.bundles == {}


def test_budget_error_names_the_count():
    oracles = {i: additive_oracle(i, [1.0] * 6) for i in range(9)}
    with pytest.raises(CapabilityError, match="1000000"):
        opt_general(range(9), oracles, range(6), budget=999_999)


def test_oracle_must_normalize_empty_bundle():
    bad = WeightOracle(0, lambda b: 1.0)
    with pytest.raises(ValidationError):
        opt_general([0], {0: bad}, [0])


def _random_tables(rng, n_agents, n_items, gridded):
    tables = []
    for _ in range(n_agents):
        if gridded:
            vals = rng.integers(0, 4, 1 << n_items) * 0.5
        else:
            vals = rng.uniform(0, 1, 1 << n_items)
        tab = [0.0] * (1 << n_items)
        # Monotone closure so the oracles look like valuations.
        for mask in range(1, 1 << n_items):
            best = float(vals[mask])
            sub = (mask - 1) & mask
            while True:
                best = max(best, tab[sub])
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            tab[mask] = best
        tables.append(tab)
    return tables


@pytest.mark.parametrize("gridded", [True, False])
def test_opt_general_matches_brute_force(gridded):
    rng = np.random.default_rng(11 if gridded else 12)
    for _ in range(30):
        n_agents = int(rng.integers(1, 4))
        n_items = int(rng.integers(1, 4))
        tables = _random_tables(rng, n_agents, n_items, gridded)
        oracles = {
            a: WeightOracle(a, lambda b, _t=tables[a]: _t[sum(1 << j for j in b)])
            for a in range(n_agents)
        }
        alloc = opt_general(range(n_agents), oracles, range(n_items))
        assert_invariants(alloc)
        bundles, per_agent, value = ref_opt_brute(
            range(n_agents),
            lambda a, b: tables[a][sum(1 << j for j in b)],
            range(n_items),
        )
        assert alloc.value == value
        assert dict(alloc.bundles) == bundles  # identical lex-min tie-break


def test_min_cost_assignment_handles_mixed_sign_costs():
    """Pin the internal Hungarian against brute force over injective maps."""
    import itertools

    from secalloc.offline import _min_cost_assignment

    rng = np.random.default_rng(77)
    for _ in range(300):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(rows, 8))
        cost = [[int(c) for c in row] for row in rng.integers(-10, 11, (rows, cols))]
        picked = _min_cost_assignment(cost)
        assert len(picked) == rows and len(set(picked)) == rows
        assert all(0 <= c < cols for c in picked)
        total = sum(cost[r][picked[r]] for r in range(rows))
        best = min(
            sum(cost[r][perm[r]] for r in range(rows))
            for perm in itertools.permutations(range(cols), rows)
        )
        assert total == best
    assert _min_cost_assignment([]) == []


@pytest.mark.parametrize("cost", [
    [[1], [2]],  # more rows than columns
    [[0, 1, 2], [3, 4]],  # ragged rows
    [[], [1]],
])
def test_min_cost_assignment_rejects_tall_and_ragged_costs(cost):
    from secalloc.offline import _min_cost_assignment

    with pytest.raises(ValidationError):
        _min_cost_assignment(cost)


WEIGHT_KINDS = {
    "uniform": st.floats(0, 1),
    "grid": st.integers(0, 4).map(lambda k: k * 0.25),
    "zero_heavy": st.sampled_from([0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 1.0]),
    "fraction": st.fractions(min_value=0, max_value=4, max_denominator=6),
    "extreme": st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300]),
}


def _padded_reference_case(agents, items, weights):
    alloc = opt_matching(agents, weights, items)
    assert_invariants(alloc)
    assert repr(alloc) == repr(ref_opt_matching_padded(agents, weights, items))


@pytest.mark.parametrize("agents, items, weights", [
    # Item 0 is worth nothing and item 1 ties across three agents: the lex
    # tie-break must give item 1 to agent 0 whatever an unmatched item costs.
    ([0, 1, 2], [0, 1], {a: [0.0, 1.0] for a in range(3)}),
    ([0, 1], [0, 1, 2], {0: [0.0, 0.0, 1.0], 1: [0.0, 0.0, 1.0]}),
    ([4, 7, 9], [2, 5], {4: [0, 0, 0.5, 0, 0, 0.0], 7: [0, 0, 0.0, 0, 0, 0.5],
                         9: [0, 0, 0.5, 0, 0, 0.5]}),
])
def test_matching_ties_equal_padded_reference(agents, items, weights):
    _padded_reference_case(agents, items, weights)


@settings(derandomize=True, deadline=None, database=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(t=st.integers(0, 9), q=st.integers(0, 9), kind=st.sampled_from(sorted(WEIGHT_KINDS)),
       data=st.data())
def test_matching_equals_padded_reference(t, q, kind, data):
    """The t x q solver equals the (t+q)^2 padded Hungarian, repr for repr."""
    agents = data.draw(st.lists(st.integers(0, 15), min_size=t, max_size=t, unique=True))
    items = data.draw(st.lists(st.integers(0, 12), min_size=q, max_size=q, unique=True))
    cell = WEIGHT_KINDS[kind]
    weights = {}
    for a in agents:
        if data.draw(st.booleans()):
            weights[a] = data.draw(st.lists(cell, min_size=13, max_size=13))
        else:  # a zero row but for at most one cell
            row = [0.0] * 13
            row[data.draw(st.integers(0, 12))] = data.draw(cell)
            weights[a] = row
    _padded_reference_case(agents, items, weights)


def test_matching_equals_scipy_at_200_by_100():
    """Continuous weights (ties have probability 0) against scipy's solver."""
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(2016)
    w = rng.uniform(0, 1, (200, 100))
    weights = {a: [float(x) for x in w[a]] for a in range(200)}
    alloc = opt_matching(range(200), weights, range(100))
    rows, cols = linear_sum_assignment(w, maximize=True)
    assert dict(alloc.bundles) == {int(r): frozenset({int(c)}) for r, c in zip(rows, cols)}
    expected = float(w[rows, cols].sum())
    assert abs(alloc.value - expected) <= 1e-9 * expected


def test_matching_diagonal_identity():
    weights = {i: [1.0 if j == i else 0.0 for j in range(3)] for i in range(3)}
    alloc = opt_matching(range(3), weights, range(3))
    assert alloc.value == 3.0
    assert alloc.bundles == {i: frozenset({i}) for i in range(3)}


def test_matching_anti_diagonal_beats_diagonal():
    alloc = opt_matching([0, 1], {0: [5.0, 4.0], 1: [4.0, 1.0]}, [0, 1])
    assert alloc.value == 8.0
    assert alloc.bundles == {0: frozenset({1}), 1: frozenset({0})}


def test_matching_all_zero_weights_allocates_nothing():
    alloc = opt_matching([0, 1], {0: [0.0, 0.0], 1: [0.0, 0.0]}, [0, 1])
    assert alloc.value == 0.0 and alloc.bundles == {}


def test_matching_rejects_bad_weights():
    with pytest.raises(ValidationError):
        opt_matching([0], {0: [-1.0]}, [0])
    with pytest.raises(ValidationError):
        opt_matching([0], {0: [float("nan")]}, [0])
    with pytest.raises(ValidationError):
        opt_matching([0], {0: [float("inf")]}, [0])
    # The message names the first bad cell, agents and items ascending.
    weights = {3: [0.0, 1.0, 2.0], 7: [0.5, -1.0, float("nan")]}
    with pytest.raises(ValidationError, match="agent 7, item 1 "):
        opt_matching([7, 3], weights, [2, 1, 0])


@pytest.mark.parametrize("gridded", [True, False])
def test_matching_matches_brute_force(gridded):
    rng = np.random.default_rng(21 if gridded else 22)
    for _ in range(40):
        n_agents = int(rng.integers(1, 5))
        n_items = int(rng.integers(1, 5))
        if gridded:
            w = rng.integers(0, 3, (n_agents, n_items)) * 0.5
        else:
            w = rng.uniform(0, 1, (n_agents, n_items))
        weights = {a: [float(x) for x in w[a]] for a in range(n_agents)}
        alloc = opt_matching(range(n_agents), weights, range(n_items))
        bundles, _, value = ref_matching_brute(range(n_agents), weights, range(n_items))
        assert alloc.value == value
        assert dict(alloc.bundles) == bundles


def test_matching_agrees_with_general_on_unit_demand():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n_agents = int(rng.integers(1, 5))
        n_items = int(rng.integers(1, 5))
        gridded = bool(rng.integers(0, 2))
        w = (rng.integers(0, 3, (n_agents, n_items)) * 0.5 if gridded
             else rng.uniform(0, 1, (n_agents, n_items)))
        weights = {a: [float(x) for x in w[a]] for a in range(n_agents)}
        oracles = {
            a: WeightOracle.from_item_weights(a, weights[a]) for a in range(n_agents)
        }
        via_matching = opt_matching(range(n_agents), weights, range(n_items))
        via_general = opt_general(range(n_agents), oracles, range(n_items))
        assert via_matching.value == via_general.value
        assert dict(via_matching.bundles) == dict(via_general.bundles)


def test_matching_scales_past_the_general_budget():
    rng = np.random.default_rng(9)
    n = 40
    w = rng.uniform(0, 1, (n, n))
    weights = {a: [float(x) for x in w[a]] for a in range(n)}
    alloc = opt_matching(range(n), weights, range(n))
    assert len(alloc.bundles) == n  # strictly positive weights: perfect matching
    assert alloc.value >= max(w.sum(axis=1).max(), float(np.trace(w)))


def test_opt_value_monotone_in_agents_and_items():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n_agents, n_items = 3, 3
        tables = _random_tables(rng, n_agents, n_items, gridded=False)
        oracles = {
            a: WeightOracle(a, lambda b, _t=tables[a]: _t[sum(1 << j for j in b)])
            for a in range(n_agents)
        }
        full = opt_general(range(n_agents), oracles, range(n_items))
        fewer_agents = opt_general(range(n_agents - 1), oracles, range(n_items))
        fewer_items = opt_general(range(n_agents), oracles, range(n_items - 1))
        assert full.value >= fewer_agents.value - 1e-12
        assert full.value >= fewer_items.value - 1e-12


def test_exact_optima_past_the_float_range():
    """Exact ints and Fractions beyond any float flow through every solver."""
    huge = 10**400
    matched = opt_matching([0, 1], {0: [huge, 1], 1: [huge + 1, 0]}, [0, 1])
    assert matched.bundles == {0: frozenset({1}), 1: frozenset({0})}
    assert matched.value == huge + 2
    single = solve_from_tables([0], [[0, huge]], [0])
    assert single.bundles == {0: frozenset({0})} and single.value == huge
    third = Fraction(huge, 3)
    oracles = {0: WeightOracle(0, lambda b: third * len(b)),
               1: WeightOracle(1, lambda b: Fraction(huge) if 1 in b else 0)}
    general = opt_general([0, 1], oracles, [0, 1])
    assert general.bundles == {0: frozenset({0}), 1: frozenset({1})}
    assert general.value == third + huge
    for alloc in (matched, single, general):
        assert_invariants(alloc)


def test_subset_dp_names_a_non_finite_bundle_value():
    # Finite weights can overflow: 1e200 * 1e200 is inf.
    tables = [[0, 0.5, 1.0, 1.5], [0, 1e200 * 1e200, 0.0, 1e200 * 1e200]]
    with pytest.raises(ValidationError, match=r"agent 9, items \[4\] must be finite, got inf"):
        solve_from_tables([3, 9], tables, [4, 8])
    with pytest.raises(ValidationError, match=r"agent 3, items \[4, 8\] .*nan"):
        solve_from_tables([3], [[0, 0.5, 1.0, float("nan")]], [4, 8])


DP_CELLS = {
    "float": st.floats(0, 1),
    "grid": st.integers(0, 8).map(lambda k: k * 0.25),
    "fraction": st.fractions(min_value=0, max_value=4, max_denominator=6),
    "zero": st.just(0.0),
}


@st.composite
def dp_cases(draw):
    """Agents, bundle tables and items; ids unsorted and non-contiguous."""
    t = draw(st.integers(0, 7))
    q = draw(st.integers(0, 6))
    agents = draw(st.lists(st.integers(0, 40), min_size=t, max_size=t, unique=True))
    items = draw(st.lists(st.integers(0, 20), min_size=q, max_size=q, unique=True))
    cell = DP_CELLS[draw(st.sampled_from(sorted(DP_CELLS)))]
    tables = []
    for _ in agents:
        if draw(st.integers(0, 4)) == 0:
            tables.append([0.0] * (1 << q))
        else:
            tables.append([0] + draw(st.lists(cell, min_size=(1 << q) - 1, max_size=(1 << q) - 1)))
    return agents, tables, items


@settings(derandomize=True, deadline=None, database=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=dp_cases())
@example(case=([5], [[0, 0.5, 0.25, 0.5]], [7, 2]))
@example(case=([3], [[0]], []))
@example(case=([9, 2, 4], [[0], [0], [0]], []))
def test_subset_dp_equals_all_layers_reference(case):
    """The DP with its first and last layers cut short equals the full 3^q DP."""
    agents, tables, items = case
    alloc = solve_from_tables(agents, tables, items)
    assert_invariants(alloc)
    assert repr(alloc) == repr(ref_solve_from_tables(agents, tables, items))


@settings(derandomize=True, deadline=None, database=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=dp_cases())
@example(case=([5, 1], [[0, 0.5, 0.25, 0.75], [0, 0.25, 0.5, 0.75]], [7, 2]))
@example(case=([3], [[0]], []))
@example(case=([4, 0, 2], [[0.0] * 4, [0, 0.25, 0.25, 0.5], [0, 0.25, 0.25, 0.5]], [1, 0]))
def test_subset_dp_on_a_float_array_equals_the_lists(case):
    """An array of tables gives the lists' allocation, with Python float entries."""
    agents, tables, items = case
    if any(type(v) is not float for tab in tables for v in tab[1:]):
        return
    array = np.array(tables, dtype=np.float64).reshape(len(agents), 1 << len(items))
    alloc = solve_from_tables(agents, array, items)
    assert repr(alloc) == repr(solve_from_tables(agents, tables, items))
    assert all(type(v) is float for v in alloc.per_agent_value.values())


def test_subset_dp_on_an_array_names_a_non_finite_bundle_value():
    tables = np.array([[0, 0.5, 1.0, 1.5], [0, np.inf, 0.0, np.inf]])
    with pytest.raises(ValidationError, match=r"agent 9, items \[4\] must be finite, got inf$"):
        solve_from_tables([3, 9], tables, [4, 8])
    with pytest.raises(ValidationError, match=r"agent 3, items \[4, 8\] .*got nan$"):
        solve_from_tables([3], np.array([[0, 0.5, 1.0, np.nan]]), [4, 8])


def test_allocation_value_is_a_left_fold():
    # Ten 0.1 weights: a compensated sum (Python 3.12's sum) would give 1.0.
    weights = {i: [0.1 if j == i else 0.0 for j in range(10)] for i in range(10)}
    alloc = opt_matching(range(10), weights, range(10))
    assert repr(alloc.value) == "0.9999999999999999"


# --- exact integerization ----------------------------------------------------

FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(
    FINITE_FLOATS,
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308]),
    st.integers(0, 400).map(lambda k: k * 0.25),
    st.integers(-(10**30), 10**30),
    st.fractions(),
    FINITE_FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.decimals(min_value=-(10**6), max_value=10**6, allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=st.lists(NUMBERS, max_size=30))
@example(values=[])
@example(values=[np.int64(2**62), 1e-300])
@example(values=[Decimal("0.1"), 0.1, Fraction(1, 3), 3])
def test_integerize_equals_fraction_reference(values):
    ints, denom = integerize(values)
    assert (ints, denom) == ref_integerize(values)
    assert type(denom) is int and all(type(x) is int for x in ints)


@pytest.mark.parametrize("bad, error", [
    (float("nan"), ValueError),
    (np.float64("nan"), ValueError),
    (float("inf"), OverflowError),
    (float("-inf"), OverflowError),
])
def test_integerize_rejects_nan_and_infinity(bad, error):
    with pytest.raises(error):
        integerize([1.0, bad])
    with pytest.raises(error):
        integerize([np.int64(1), bad])


FLOAT_ARRAY_VALUES = st.one_of(
    FINITE_FLOATS,
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.0**-1074 * 3,
                     2.0**53, 2.0**60, 2.0**60 + 2.0**8, 2.0**63, 1.7976931348623157e308]),
    st.integers(0, 400).map(lambda k: k * 0.25),
    st.integers(-(2**62), 2**62).map(float),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=st.lists(FLOAT_ARRAY_VALUES, max_size=40))
@example(values=[])
@example(values=[0.0, -0.0])
@example(values=[5e-324, 1.0])
@example(values=[2.0**60, 0.5, 3.0])
@example(values=[2.0**62, 0.1, -2.0**61])
@example(values=[0.001, 10.0, 0.25])
def test_integerize_of_a_float_array_equals_the_list_path(values):
    want = integerize(values)
    for shape in ((len(values),), (1, len(values))):
        ints, denom = integerize(np.array(values, dtype=np.float64).reshape(shape))
        assert (ints, denom) == want
        assert type(denom) is int and all(type(x) is int for x in ints)


@pytest.mark.parametrize("values", [
    [1.0, np.inf], [np.nan], [-np.inf, np.nan], [np.nan, np.inf], [0.5, 2.0**60, -np.inf],
])
def test_integerize_of_a_float_array_raises_as_the_list_path(values):
    with pytest.raises((OverflowError, ValueError)) as listed:
        integerize(values)
    with pytest.raises(listed.type, match=f"^{listed.value}$"):
        integerize(np.array(values))
