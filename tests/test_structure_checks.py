"""Definition checkers: passes on the constructive family, witnesses on injections."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_impls import ref_check_monotone

from secalloc import (
    CapabilityError,
    SeparableValuation,
    SignalProfile,
    SignalWeight,
    UnitDemandValuation,
    ValidationError,
    XOSValuation,
    check_monotone,
    check_subadditive_over_signals,
    check_xos_over_items,
    check_xos_over_signals,
)
from secalloc.harness import FAMILIES, GeneratorParams, generate_instance

# Deterministic and free of wall-clock checks, so tier-1 runs repeat exactly.
DERANDOMIZED = settings(derandomize=True, deadline=None, database=None,
                        suppress_health_check=[HealthCheck.too_slow])
GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])  # ties and zeros


@pytest.mark.parametrize("family", ["xos_linear", "xos_capped", "separable_capped"])
def test_monotone_passes_on_generated_specs(family):
    for seed in range(5):
        inst = generate_instance(GeneratorParams(3, 3, family), seed=seed)
        for spec in inst.specs:
            assert check_monotone(spec, inst.signals)


def test_monotone_catches_bundle_shrinking_oracle():
    def oracle(bundle, signals):
        return 3.0 - len(bundle) if bundle else 0.0

    result = check_monotone(oracle, SignalProfile([1.0, 1.0]), num_items=2)
    assert not result.passed
    assert result.witness["kind"] == "items"


def test_monotone_catches_signal_decreasing_oracle():
    def oracle(bundle, signals):
        return len(bundle) / (1.0 + signals[0])

    result = check_monotone(oracle, SignalProfile([2.0, 1.0]), num_items=2)
    assert not result.passed
    assert result.witness["kind"] == "signals"


def test_monotone_sampled_mode_also_catches():
    def oracle(bundle, signals):
        return 3.0 - len(bundle) if bundle else 0.0

    # Budget 1 forces the sampled path on any size.
    result = check_monotone(oracle, SignalProfile([1.0] * 8), sample_budget=200,
                            num_items=8, seed=1)
    assert not result.passed


def _on_grid(spec):
    """The same spec with every weight parameter rounded to the 0.25 grid."""
    def snap(w):
        q = lambda x: round(x * 4) / 4
        return SignalWeight([q(c) for c in w.coeffs], q(w.const),
                            None if w.cap is None else q(w.cap))

    if isinstance(spec, XOSValuation):
        return XOSValuation(({j: snap(w) for j, w in clause} for clause in spec.clauses),
                            num_items=spec.num_items)
    if isinstance(spec, SeparableValuation):
        return SeparableValuation(spec.agent, map(snap, spec.own), map(snap, spec.others))
    return UnitDemandValuation(map(snap, spec.weights))


@st.composite
def spec_cases(draw):
    """One generated agent of any family, as float, 0.25-grid or Fraction input."""
    family = draw(st.sampled_from(FAMILIES))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    inst = generate_instance(GeneratorParams(n, m, family), seed=draw(st.integers(0, 2**16)))
    spec, signals = inst.specs[draw(st.integers(0, n - 1))], inst.signals.values
    form = draw(st.sampled_from(["float", "grid", "fraction"]))
    if form == "grid":
        spec, signals = _on_grid(spec), draw(st.lists(GRID, min_size=n, max_size=n))
    elif form == "fraction":
        spec, signals = spec.exact(), [Fraction(v) for v in signals]
    return spec, SignalProfile(signals)


@st.composite
def raw_oracle_cases(draw):
    """A set function monotone in both orders, with an optional injected shrink.

    "items" drops the value once the bundle contains the set T; "signals"
    drops it once every agent of A has a nonzero signal; "both" needs both.
    "size" and "count" drop it once the bundle has |T| items or |A|
    agents have nonzero signals, so several extensions of one point
    violate at once and the search order picks the witness.
    """
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    item_w = draw(st.lists(GRID, min_size=m, max_size=m))
    sig_w = draw(st.lists(GRID, min_size=n, max_size=n))
    shrink = draw(st.sampled_from(["none", "items", "signals", "both", "size", "count"]))
    t_set = draw(st.frozensets(st.integers(0, m - 1), min_size=1))
    a_set = draw(st.frozensets(st.integers(0, n - 1), min_size=1))
    drop = draw(st.sampled_from([0.5, 1.0, 2.0]))

    def oracle(bundle, signals):
        value = sum(item_w[j] for j in bundle) * (1.0 + sum(w * x for w, x in zip(sig_w, signals)))
        in_t, all_a = t_set <= bundle, all(signals[k] for k in a_set)
        hit = {
            "none": False, "items": in_t, "signals": all_a, "both": in_t and all_a,
            "size": len(bundle) >= len(t_set),
            "count": sum(1 for x in signals if x) >= len(a_set),
        }[shrink]
        return value - drop if hit else value

    signals = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=n, max_size=n))
    return oracle, SignalProfile(signals), m


@DERANDOMIZED
@given(spec_cases())
def test_monotone_tables_agree_with_pointwise_reference_on_specs(case):
    spec, signals = case
    assert check_monotone(spec, signals).passed == ref_check_monotone(spec, signals).passed


@DERANDOMIZED
@given(raw_oracle_cases())
def test_monotone_tables_agree_with_pointwise_reference_on_oracles(case):
    oracle, signals, m = case
    got = check_monotone(oracle, signals, num_items=m)
    want = ref_check_monotone(oracle, signals, num_items=m)
    assert got.passed == want.passed
    assert got.witness == want.witness


def test_exhaustive_monotone_check_evaluates_each_point_once():
    calls = []

    def oracle(bundle, signals):
        calls.append((bundle, tuple(signals)))
        return len(bundle) * (1.0 + sum(signals))

    n, m = 3, 4
    assert check_monotone(oracle, SignalProfile([0.5, 1.0, 2.0]), num_items=m)
    assert len(calls) == (1 << m) * (1 << n)
    assert len(set(calls)) == len(calls)


def test_signal_checkers_evaluate_each_masked_profile_once():
    calls = []

    def oracle(bundle, signals):
        calls.append(tuple(signals))
        return len(bundle) * sum(signals)

    n = 4
    s = SignalProfile([0.5, 1.0, 2.0, 0.25])
    assert check_subadditive_over_signals(oracle, {0, 1}, s)
    assert len(calls) == len(set(calls)) == 1 << n
    calls.clear()
    assert check_xos_over_signals(oracle, {0, 1}, s)
    assert len(calls) == len(set(calls)) == 1 << n


def test_monotone_rejects_a_profile_of_the_wrong_length():
    # The tables would silently ignore the extra signal.
    spec = UnitDemandValuation([SignalWeight([1.0, 1.0])])
    for budget in (4096, 1):
        with pytest.raises(ValidationError, match="length 3"):
            check_monotone(spec, SignalProfile([1.0, 1.0, 1.0]), sample_budget=budget)


def test_empty_bundle_never_beats_any_bundle():
    inst = generate_instance(GeneratorParams(3, 3, "xos_linear"), seed=0)
    for spec in inst.specs:
        for mask in range(1 << inst.m):
            bundle = {j for j in range(inst.m) if mask >> j & 1}
            assert spec.value(bundle, inst.signals.values) >= 0


def test_subadditive_linear_splits_exactly():
    # Single additive clause, no caps, zero const: the split is an equality.
    n = 3
    clause = {j: SignalWeight([0.5 + 0.1 * j] * n) for j in range(2)}
    spec = XOSValuation([clause], num_items=2)
    s = SignalProfile([1.0, 2.0, 3.0])
    assert check_subadditive_over_signals(spec, {0, 1}, s)
    full = spec.value({0, 1}, s.values)
    half_a = spec.value({0, 1}, (1.0, 0.0, 0.0))
    half_b = spec.value({0, 1}, (0.0, 2.0, 3.0))
    assert full == pytest.approx(half_a + half_b, abs=1e-12)


def test_subadditive_capped_weights_pass_exhaustively():
    # Any fixed bundle, capped or uncapped weights, all 2^6 agent splits.
    import numpy as np

    rng = np.random.default_rng(8)
    for seed in range(5):
        for family in ("xos_capped", "xos_linear"):
            inst = generate_instance(GeneratorParams(6, 3, family), seed=seed)
            bundle = {int(j) for j in np.flatnonzero(rng.random(inst.m) < 0.6)}
            for spec in inst.specs:
                assert check_subadditive_over_signals(spec, bundle, inst.signals)


def test_xos_over_items_holds_on_every_small_subset():
    inst = generate_instance(GeneratorParams(3, 5, "xos_capped"), seed=4)
    from itertools import combinations

    for spec in inst.specs:
        for size in range(6):
            for subset in combinations(range(inst.m), size):
                assert check_xos_over_items(spec, inst.signals, subset)


def test_subadditive_catches_superadditive_square():
    def oracle(bundle, signals):
        return float(sum(signals)) ** 2 if bundle else 0.0

    result = check_subadditive_over_signals(oracle, {0}, SignalProfile([1.0, 1.0]))
    assert not result.passed
    # v(s) = 4 while each half gives 1: any singleton split is a witness.
    assert len(result.witness["agents"]) == 1


def test_subadditive_capability_error_mentions_sampling():
    spec = UnitDemandValuation([SignalWeight([1.0] * 15)])
    with pytest.raises(CapabilityError, match="samples"):
        check_subadditive_over_signals(spec, {0}, SignalProfile([1.0] * 15))
    # Sampled mode works at the same size.
    assert check_subadditive_over_signals(spec, {0}, SignalProfile([1.0] * 15), samples=50)


def test_xos_over_signals_linear_passes():
    for seed in range(3):
        inst = generate_instance(GeneratorParams(4, 3, "xos_linear"), seed=seed)
        for spec in inst.specs:
            assert check_xos_over_signals(spec, range(inst.m), inst.signals)


def test_xos_over_signals_constant_weight_passes():
    spec = UnitDemandValuation([SignalWeight([0.0, 0.0], const=3.0)])
    assert check_xos_over_signals(spec, {0}, SignalProfile([1.0, 2.0]))


def test_xos_over_signals_boundary_grid():
    spec = UnitDemandValuation([SignalWeight([1.0, 1.0])])
    assert check_xos_over_signals(spec, {0}, SignalProfile([1.0, 2.0]), grid=(0.0, 1.0))


def test_xos_over_signals_catches_min_oracle():
    # min(s_0, s_1) is subadditive over signals but not XOS over signals.
    def oracle(bundle, signals):
        return min(signals[0], signals[1]) if bundle else 0.0

    result = check_xos_over_signals(oracle, {0}, SignalProfile([1.0, 1.0]))
    assert not result.passed
    assert result.witness["expectation"] < result.witness["bound"] - 1e-6


def test_xos_over_signals_capability_cap():
    spec = UnitDemandValuation([SignalWeight([1.0] * 11)])
    with pytest.raises(CapabilityError):
        check_xos_over_signals(spec, {0}, SignalProfile([1.0] * 11))


def test_xos_over_items_clause_specs_pass_by_construction():
    for family in ("xos_linear", "xos_capped"):
        inst = generate_instance(GeneratorParams(3, 4, family), seed=2)
        for spec in inst.specs:
            result = check_xos_over_items(spec, inst.signals, range(inst.m))
            assert result.passed and "support" in result.witness


def test_xos_over_items_unit_demand_passes():
    inst = generate_instance(GeneratorParams(3, 4, "separable_linear"), seed=0)
    for spec in inst.specs:
        assert check_xos_over_items(spec, inst.signals, range(inst.m))


def test_xos_over_items_catches_superadditive_pair():
    def oracle(bundle, signals):
        return {0: 0.0, 1: 1.0, 2: 2.5}[len(bundle)]

    result = check_xos_over_items(oracle, SignalProfile([1.0]), {0, 1})
    assert not result.passed
    assert result.witness["items"] == [0, 1]


def test_xos_over_items_oracle_lp_accepts_additive():
    def oracle(bundle, signals):
        return float(sum(j + 1 for j in bundle))

    result = check_xos_over_items(oracle, SignalProfile([1.0]), {0, 1, 2})
    assert result.passed
    support = result.witness["support"]
    assert sum(support.values()) == pytest.approx(6.0, abs=1e-6)


def test_xos_over_items_size_cap():
    with pytest.raises(CapabilityError):
        check_xos_over_items(lambda b, s: 0.0, SignalProfile([1.0]), range(7))
