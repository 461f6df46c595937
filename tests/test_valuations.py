"""Valuation types: masking, evaluation, normalization, monotonicity."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from secalloc import (
    Instance,
    SeparableValuation,
    SignalProfile,
    SignalWeight,
    UnitDemandValuation,
    ValidationError,
    XOSValuation,
    bundle_value_table,
    eval_valuation,
    mask_signals,
)
from secalloc.harness import FAMILIES, GeneratorParams, generate_instance

from reference_impls import ref_mask_signals


def const_weight(n, c):
    return SignalWeight([0.0] * n, c)


def test_mask_identity_empty_and_single():
    s = SignalProfile([3.0, 5.0, 2.0])
    assert mask_signals(s, {0, 1, 2}).values == (3.0, 5.0, 2.0)
    assert mask_signals(s, set()).values == (0.0, 0.0, 0.0)
    assert mask_signals(s, {1}).values == (0.0, 5.0, 0.0)


def test_mask_rejects_out_of_range():
    s = SignalProfile([1.0, 2.0])
    with pytest.raises(ValidationError):
        mask_signals(s, {2})


def test_mask_idempotent_and_intersection():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = SignalProfile(rng.uniform(0, 5, n))
        a = {int(i) for i in np.flatnonzero(rng.random(n) < 0.5)}
        b = {int(i) for i in np.flatnonzero(rng.random(n) < 0.5)}
        assert mask_signals(mask_signals(s, a), a) == mask_signals(s, a)
        assert mask_signals(mask_signals(s, a), b) == mask_signals(s, a & b)


def test_mask_equals_validated_reference_for_floats_and_fractions():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        floats = rng.uniform(0, 5, n)
        keep = {int(i) for i in np.flatnonzero(rng.random(n) < 0.5)}
        for s in (SignalProfile(floats), SignalProfile(Fraction(v) for v in floats),
                  SignalProfile(float(v) for v in floats)):
            masked, ref = mask_signals(s, keep), ref_mask_signals(s, keep)
            assert type(masked) is SignalProfile
            assert masked == ref
            assert [type(v) for v in masked.values] == [type(v) for v in ref.values]
    assert mask_signals(SignalProfile([]), set()) == SignalProfile([])


def test_signal_profile_rejects_negative_and_nan():
    with pytest.raises(ValidationError):
        SignalProfile([1.0, -0.5])
    with pytest.raises(ValidationError):
        SignalProfile([float("nan")])


def test_infinite_inputs_are_rejected_at_the_boundary():
    inf = float("inf")
    for build in (
        lambda: SignalProfile([0.5, inf]),
        lambda: SignalWeight([1.0, inf]),
        lambda: SignalWeight([1.0], const=inf),
        lambda: SignalWeight([1.0], cap=inf),
    ):
        with pytest.raises(ValidationError, match="finite"):
            build()
    # An infinite signal would turn 0 * inf into NaN inside the solvers.
    specs = generate_instance(GeneratorParams(4, 2, "xos_linear"), seed=0).specs
    with pytest.raises(ValidationError, match="signal 0"):
        Instance(specs, [inf, 0.5, 0.5, 0.5])
    # Huge exact values stay valid: the check never casts them to float.
    huge = Fraction(10) ** 400
    assert SignalWeight([huge], const=huge, cap=huge)([huge]) == huge
    assert SignalProfile([huge]).values == (huge,)


def _lifted_by_constructors(inst):
    """``inst.exact()`` rebuilt through the validating constructors."""

    def lift(w):
        cap = None if w.cap is None else Fraction(w.cap)
        return SignalWeight([Fraction(c) for c in w.coeffs], Fraction(w.const), cap)

    specs = []
    for spec in inst.specs:
        if isinstance(spec, XOSValuation):
            specs.append(XOSValuation(
                ({j: lift(w) for j, w in clause} for clause in spec.clauses), spec.num_items))
        elif isinstance(spec, SeparableValuation):
            specs.append(SeparableValuation(
                spec.agent, map(lift, spec.own), map(lift, spec.others)))
        else:
            specs.append(UnitDemandValuation(map(lift, spec.weights)))
    signals = SignalProfile(Fraction(v) for v in inst.signals.values)
    return Instance(specs, signals, family=inst.family)


def _value_types(inst):
    weights = []
    for spec in inst.specs:
        if isinstance(spec, XOSValuation):
            weights += [w for clause in spec.clauses for _, w in clause]
        elif isinstance(spec, SeparableValuation):
            weights += [*spec.own, *spec.others]
        else:
            weights += list(spec.weights)
    params = [p for w in weights for p in (*w.coeffs, w.const, w.cap)]
    return [type(v) for v in (*params, *inst.signals.values)]


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_equals_validating_constructor_route(family):
    for seed in range(3):
        inst = generate_instance(GeneratorParams(5, 3, family), seed=seed)
        lifted, ref = inst.exact(), _lifted_by_constructors(inst)
        assert lifted == ref
        assert _value_types(lifted) == _value_types(ref)
        assert Fraction in _value_types(lifted) and float not in _value_types(lifted)
        assert lifted.exact() == lifted  # lifting Fractions is the identity


def test_signal_weight_still_validates_fractions_and_non_finite_values():
    for bad in (Fraction(-1), float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError):
            SignalWeight([bad])
        with pytest.raises(ValidationError):
            SignalWeight([Fraction(1)], const=bad)
        with pytest.raises(ValidationError):
            SignalProfile([Fraction(1), bad])


def test_single_clause_xos_is_additive():
    spec = XOSValuation([{0: const_weight(1, 2.0), 1: const_weight(1, 3.0)}], num_items=2)
    assert eval_valuation(spec, {0, 1}, SignalProfile([0.0])) == 5.0


def test_unit_demand_takes_the_max():
    spec = UnitDemandValuation([
        SignalWeight([1.0, 0.0]),
        SignalWeight([0.0, 2.0]),
    ])
    assert eval_valuation(spec, {0, 1}, SignalProfile([4.0, 1.0])) == 4.0


@pytest.mark.parametrize("family", ["additive", "xos_linear", "separable_capped", "unit_demand_const"])
def test_empty_bundle_is_worth_zero(family):
    inst = generate_instance(GeneratorParams(4, 3, family), seed=1)
    for spec in inst.specs:
        assert eval_valuation(spec, frozenset(), inst.signals) == 0


def test_eval_rejects_bad_bundle_and_profile():
    spec = UnitDemandValuation([SignalWeight([1.0]), SignalWeight([1.0])])
    with pytest.raises(ValidationError):
        eval_valuation(spec, {5}, SignalProfile([1.0]))
    with pytest.raises(ValidationError):
        eval_valuation(spec, {0}, SignalProfile([1.0, 2.0]))


def test_signal_weight_validation():
    with pytest.raises(ValidationError):
        SignalWeight([-1.0])
    with pytest.raises(ValidationError):
        SignalWeight([1.0], const=-0.1)
    with pytest.raises(ValidationError):
        SignalWeight([1.0], cap=-2.0)


def test_capped_weight_clamps():
    w = SignalWeight([1.0, 1.0], const=0.5, cap=1.2)
    assert w([0.25, 0.25]) == 1.0
    assert w([2.0, 2.0]) == 1.2


def test_separable_structure_is_enforced():
    n = 3
    own_ok = [SignalWeight([0.0, 1.0, 0.0])] * 2
    others_ok = [SignalWeight([1.0, 0.0, 1.0])] * 2
    SeparableValuation(1, own_ok, others_ok)
    with pytest.raises(ValidationError):  # own part reads someone else's signal
        SeparableValuation(1, [SignalWeight([1.0, 1.0, 0.0])] * 2, others_ok)
    with pytest.raises(ValidationError):  # others part reads the owner's signal
        SeparableValuation(1, own_ok, [SignalWeight([0.0, 1.0, 0.0])] * 2)
    with pytest.raises(ValidationError):  # own part must stay uncapped
        SeparableValuation(1, [SignalWeight([0.0, 1.0, 0.0], cap=1.0)] * 2, others_ok)


def test_instance_validation():
    spec = UnitDemandValuation([SignalWeight([1.0, 1.0])])
    with pytest.raises(ValidationError):
        Instance([spec, spec], [1.0])  # signal count mismatch
    one_agent_spec = UnitDemandValuation([SignalWeight([1.0])])
    with pytest.raises(ValidationError):
        Instance([one_agent_spec, one_agent_spec], [1.0, 1.0])  # agent-count mismatch


@pytest.mark.parametrize("family", ["xos_linear", "xos_capped", "separable_linear"])
def test_monotone_in_signals_componentwise(family):
    rng = np.random.default_rng(3)
    for seed in range(10):
        inst = generate_instance(GeneratorParams(4, 3, family), seed=seed)
        lo = inst.signals
        hi = SignalProfile([v + float(rng.uniform(0, 1)) for v in lo.values])
        for spec in inst.specs:
            for mask in range(1 << inst.m):
                bundle = {j for j in range(inst.m) if mask >> j & 1}
                assert eval_valuation(spec, bundle, lo) <= eval_valuation(spec, bundle, hi) + 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_bundle_table_matches_direct_evaluation(family):
    # Every agent mask, as check_monotone reads them; Fractions exactly.
    for seed, exact in itertools.product(range(5), (False, True)):
        inst = generate_instance(GeneratorParams(4, 4, family), seed=seed)
        if exact:
            inst = inst.exact()
        for agents in range(1 << inst.n):
            prof = mask_signals(inst.signals, {i for i in range(inst.n) if agents >> i & 1})
            for spec in inst.specs:
                table = bundle_value_table(spec, prof)
                for mask in range(1 << inst.m):
                    bundle = {j for j in range(inst.m) if mask >> j & 1}
                    direct = eval_valuation(spec, bundle, prof)
                    if exact:
                        assert table[mask] == direct
                    else:
                        assert table[mask] == pytest.approx(direct, abs=1e-12)
