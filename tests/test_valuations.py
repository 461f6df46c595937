"""Valuation types: masking, evaluation, normalization, monotonicity."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import secalloc
from secalloc import (
    CapabilityError,
    ExperimentConfig,
    Instance,
    SeparableValuation,
    SignalProfile,
    SignalWeight,
    UnitDemandValuation,
    ValidationError,
    XOSValuation,
    bundle_value_table,
    check_random_sampling_bound,
    estimate_ratio,
    eval_valuation,
    mask_signals,
    survival_probability,
)
from secalloc._util import left_sum
from secalloc.harness import FAMILIES, GeneratorParams, generate_instance
from secalloc.secretary import InstanceRuntime
from secalloc.valuations import _float_xos_tables

from reference_impls import (
    ref_bundle_value_table,
    ref_item_weights,
    ref_left_fold,
    ref_mask_signals,
    ref_signal_weight,
)


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


# --- weight arithmetic: left fold on floats, integers on exact operands ----

def test_left_sum_adds_left_to_right_from_int_zero():
    assert left_sum([1e16, 1.0, -1e16]) == 0.0  # a compensated sum gives 1.0
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum(iter([0.5, 0.25])) == 0.75
    total = left_sum([])
    assert total == 0 and type(total) is int
    total = left_sum([Fraction(1, 3), Fraction(1, 6)])
    assert total == Fraction(1, 2) and type(total) is Fraction


def test_the_library_calls_builtin_sum_only_to_count():
    # Builtin sum() compensates float rounding from Python 3.12 on, so every
    # library sum goes through left_sum; the two survival counts add ints.
    calls = [(path.name, ast.unparse(node.args[0])[:7])
             for path in sorted(Path(secalloc.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"]
    assert calls == [("secretary.py", "(1 for ")] * 2


def test_float_dot_product_is_a_left_fold():
    # A compensated sum would round this to 1.0.
    assert SignalWeight([0.1] * 10)([1.0] * 10) == 0.9999999999999999
    spec = XOSValuation([{j: SignalWeight([0.1], 0.0) for j in range(10)}], num_items=10)
    assert spec.value(range(10), [1.0]) == 0.9999999999999999


def test_float_weights_add_like_builtin_sum():
    # builtin sum() through Python 3.11, that is: an explicit left fold.
    rng = np.random.default_rng(7)
    cases = [([], []), ([0.0], [-0.0]), ([0.1] * 10, [1.0] * 10)]
    cases += [(list(rng.uniform(0, 3, 6)), list(rng.uniform(0, 3, 6))) for _ in range(20)]
    for const in (-0.0, 0.0, 0.3):
        for coeffs, sigs in cases:
            coeffs, sigs = [float(c) for c in coeffs], [float(s) for s in sigs]
            expected = const + ref_left_fold(c * s for c, s in zip(coeffs, sigs))
            assert repr(SignalWeight(coeffs, const)(sigs)) == repr(expected)
            if coeffs:
                spec = XOSValuation([{j: SignalWeight([c], const) for j, c in enumerate(coeffs)}],
                                    num_items=len(coeffs))
                want = ref_left_fold(w([1.0]) for _, w in spec.clauses[0])
                assert repr(spec.value(range(len(coeffs)), [1.0])) == repr(want if want > 0 else 0)


KINDS = ("fraction", "float", "int", "mixed")
HUGE = Fraction(10**400)


@st.composite
def numbers(draw, kind):
    """A nonnegative number of ``kind``; 10**400 only where no float meets it."""
    huge = kind != "mixed" and draw(st.integers(0, 4)) == 0
    if kind == "mixed":
        kind = draw(st.sampled_from(("fraction", "float", "int")))
    if kind == "float":
        return draw(st.sampled_from((0.0, -0.0, 0.1, 0.5, 1.0, 2.5, 1e-300)) | st.floats(0, 9))
    if kind == "int":
        return 10**400 if huge else draw(st.integers(0, 9))
    return HUGE if huge else Fraction(draw(st.integers(0, 60)), draw(st.integers(1, 12)))


def _capped(draw, coeffs, const, prof):
    """A weight capped below, at or above its affine value at ``prof``, or uncapped."""
    affine = ref_signal_weight(SignalWeight(coeffs, const), prof)
    mode = draw(st.sampled_from(("none", "below", "equal", "equal_as_fraction", "above")))
    if mode == "none":
        return SignalWeight(coeffs, const)
    cap = {
        "below": affine // 2 if type(affine) is int else affine / 2,
        "equal": affine,
        "equal_as_fraction": Fraction(affine),
        "above": affine + 1,
    }[mode]
    return SignalWeight(coeffs, const, cap)


@st.composite
def weight_cases(draw):
    """(spec, profile): an XOS, unit-demand or separable spec whose
    parameters and signals are all of one kind or mixed, at a profile that
    may be masked."""
    kind = draw(st.sampled_from(KINDS))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    num = numbers(kind)
    prof = SignalProfile([draw(num) for _ in range(n)])
    if draw(st.booleans()):
        prof = mask_signals(prof, draw(st.sets(st.integers(0, n - 1))))
    vals = prof.values

    def weight(reads=range(n), capped=True):
        if draw(st.integers(0, 4)) == 0:
            reads = ()  # a zero weight: zero sums tie between clauses
        coeffs = [draw(num) if k in reads else draw(num) * 0 for k in range(n)]
        const = draw(num) if reads else draw(num) * 0
        return _capped(draw, coeffs, const, vals) if capped else SignalWeight(coeffs, const)

    family = draw(st.sampled_from(("xos", "unit", "separable")))
    if family == "xos":
        clauses = []
        for _ in range(draw(st.integers(1, 3))):
            items = draw(st.sets(st.integers(0, m - 1)))  # a clause may omit items
            clauses.append({j: weight() for j in sorted(items)})
        spec = XOSValuation(clauses, num_items=m)
    elif family == "unit":
        spec = UnitDemandValuation([weight() for _ in range(m)])
    else:
        agent = draw(st.integers(0, n - 1))
        own = [weight(reads={agent}, capped=False) for _ in range(m)]
        others = [weight(reads=set(range(n)) - {agent}) for _ in range(m)]
        spec = SeparableValuation(agent, own, others)
    return spec, prof


def _spec_weights(spec):
    if isinstance(spec, XOSValuation):
        return [w for clause in spec.clauses for _, w in clause]
    if isinstance(spec, SeparableValuation):
        return [*spec.own, *spec.others]
    return list(spec.weights)


def _huge_exact_case():
    big = SignalWeight([HUGE, Fraction(1, 3)], HUGE, cap=HUGE * 3)
    spec = XOSValuation([{0: big, 1: SignalWeight([HUGE, HUGE], Fraction(0))}, {1: big}], num_items=2)
    return spec, SignalProfile([HUGE, Fraction(7, 5)])


@settings(derandomize=True, deadline=None, database=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=weight_cases())
@example(case=_huge_exact_case())
def test_weights_and_tables_equal_the_python_arithmetic_reference(case):
    spec, prof = case
    for w in _spec_weights(spec):
        assert repr(w(prof.values)) == repr(ref_signal_weight(w, prof.values))
    if not isinstance(spec, XOSValuation):
        assert repr(spec.item_weights(prof)) == repr(ref_item_weights(spec, prof))
    assert repr(bundle_value_table(spec, prof)) == repr(ref_bundle_value_table(spec, prof))


# --- float XOS tables in one numpy pass ------------------------------------

FLOAT_PARAMS = st.sampled_from((0.0, -0.0, 0.1, 0.5, 2.5, 1e-300, 1e200, 1.7e308)) | st.floats(0, 9)


@st.composite
def float_xos_cases(draw):
    """(specs, profiles): float XOS agents, each at its own profile, which
    may be masked, all zero or large enough to overflow."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    specs, profiles = [], []
    for _ in range(draw(st.integers(1, 4))):
        clauses = []
        for c in range(draw(st.integers(1, 3))):
            # Partial clauses; the first holds an item, so the spec knows n.
            items = draw(st.sets(st.integers(0, m - 1), min_size=1 if c == 0 else 0))
            clause = {}
            for j in sorted(items):
                coeffs = [draw(FLOAT_PARAMS) for _ in range(n)]
                cap = draw(st.none() | FLOAT_PARAMS)
                clause[j] = SignalWeight(coeffs, draw(FLOAT_PARAMS), cap)
            clauses.append(clause)
        specs.append(XOSValuation(clauses, num_items=m))
        kind = draw(st.sampled_from(("plain", "masked", "zero")))
        prof = SignalProfile([draw(FLOAT_PARAMS) for _ in range(n)])
        if kind != "plain":
            keep = draw(st.sets(st.integers(0, n - 1))) if kind == "masked" else ()
            prof = mask_signals(prof, keep)
        profiles.append(prof if draw(st.booleans()) else prof.values)
    return specs, profiles


def _overflow_case():
    huge = SignalWeight([1e200, 1e200], 0.0)
    capped = SignalWeight([1e200, 0.0], 1.0, cap=3.0)
    spec = XOSValuation([{0: huge, 2: capped}, {1: SignalWeight([0.0, 1.0], cap=None)}], num_items=3)
    return [spec, spec], [SignalProfile([1e200, 0.5]), mask_signals(SignalProfile([1e200, 0.5]), [1])]


@settings(derandomize=True, deadline=None, database=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=float_xos_cases())
@example(case=_overflow_case())
def test_float_xos_tables_equal_bundle_value_table_bit_for_bit(case):
    specs, profiles = case
    tables = _float_xos_tables(specs, profiles)
    assert tables.dtype == np.float64 and tables.shape == (len(specs), 1 << specs[0].num_items)
    for spec, prof, row in zip(specs, profiles, tables.tolist()):
        want = [float(v).hex() for v in bundle_value_table(spec, prof)]
        assert [v.hex() for v in row] == want


def test_float_xos_tables_overflow_to_inf_silently():
    specs, profiles = _overflow_case()
    with np.errstate(all="raise"):
        tables = _float_xos_tables(specs, profiles)
    assert tables.tolist() == [
        [0.0, np.inf, 0.5, np.inf, 3.0, np.inf, 3.0, np.inf],
        [0.0, 5e199, 0.5, 5e199, 1.0, 5e199, 1.0, 5e199],
    ]


def test_float_xos_tables_only_for_float_xos_agents():
    xos = generate_instance(GeneratorParams(3, 2, "xos_capped"), seed=1)
    sep = generate_instance(GeneratorParams(3, 2, "separable_linear"), seed=1)
    exact = xos.exact()
    with_int = XOSValuation([{0: SignalWeight([1.0, 0.0, 1.0], 1)}], num_items=2)
    floats = [xos.signals] * 3
    assert _float_xos_tables(xos.specs, floats).shape == (3, 4)
    assert _float_xos_tables([], []) is None
    assert _float_xos_tables([xos.specs[0], sep.specs[1]], floats[:2]) is None
    assert _float_xos_tables([xos.specs[0], exact.specs[1]], floats[:2]) is None
    assert _float_xos_tables([xos.specs[0], with_int], floats[:2]) is None
    assert _float_xos_tables(xos.specs, [xos.signals, exact.signals, xos.signals]) is None
    assert _float_xos_tables(xos.specs[:1], [(0.5, 1.0, 0)]) is None
    assert _float_xos_tables(xos.specs[:1], [(0.5, 1.0)]) is None


def test_float_xos_tables_check_the_table_budget_first():
    inst = generate_instance(GeneratorParams(2, 17, "xos_linear"), seed=0)
    with pytest.raises(CapabilityError) as listed:
        bundle_value_table(inst.specs[0], inst.signals)
    with pytest.raises(CapabilityError, match=f"^{listed.value}$"):
        _float_xos_tables(inst.specs, [inst.signals] * 2)


def test_exact_tables_and_item_weights_make_no_fraction_arithmetic(monkeypatch):
    calls = []
    xos = generate_instance(GeneratorParams(5, 4, "xos_capped"), seed=2).exact()
    sep = generate_instance(GeneratorParams(5, 4, "separable_capped"), seed=2).exact()
    profiles = [mask_signals(inst.signals, {0, 2, 3}) for inst in (xos, sep)]
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        original = getattr(Fraction, name)

        def counted(*args, _original=original):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    for spec in xos.specs:
        bundle_value_table(spec, profiles[0])
    for spec in sep.specs:
        bundle_value_table(spec, profiles[1])
        spec.item_weights(profiles[1])
    monkeypatch.undo()
    assert calls == []
    assert Fraction(1, 2) + 1 == Fraction(3, 2)


# Exact results through the whole stack, captured before weights and
# tables were evaluated in integers.  test_harness's ratio reference
# evaluates weights with the library's SignalWeight, so it cannot see a
# drift in weight arithmetic; these literals can.
GOLDEN_C2 = {
    0: "RatioStats(mean=Fraction(4100637934839995365155574034106283, 7310928974580670513063188445613260), "
       "std_err=0.01667313301833024, ci95=0.03267934071592727, min_ratio=0.0, "
       "max_ratio=0.9471699021670166, trials=120, opt_value=9.011415701397237)",
    1: "RatioStats(mean=Fraction(1090874493219818419127838891336533, 1894061145580805064260933881153125), "
       "std_err=0.019186052960633963, ci95=0.03760466380284257, min_ratio=0.20816294480793385, "
       "max_ratio=1.0, trials=120, opt_value=7.782035363785523)",
}
GOLDEN_C4 = (
    "SamplingBoundCheck(lhs=Fraction(4941771800647875679533127978179081, 811296384146066816957890051440640), "
    "rhs=Fraction(832389046788136214667850020751959, 324518553658426726783156020576256), "
    "passed=True, subsets=20)"
)


@pytest.mark.parametrize("seed", sorted(GOLDEN_C2))
def test_exact_order_ratio_is_golden(seed):
    inst = generate_instance(GeneratorParams(5, 4, "xos_linear"), seed=seed).exact()
    stats = estimate_ratio(inst, ExperimentConfig("alg2", trials=1, mode="exact_orders"))
    assert repr(stats) == GOLDEN_C2[seed]


def test_exact_survival_table_is_golden():
    inst = generate_instance(GeneratorParams(6, 3, "additive"), seed=0).exact()
    runtime = InstanceRuntime(inst)
    table = {(t, j): survival_probability(inst, j, t, 2, "exact", runtime=runtime)
             for t in range(2, 6) for j in range(3)}
    assert repr(table) == (
        "{(2, 0): Fraction(1, 1), (2, 1): Fraction(1, 1), (2, 2): Fraction(1, 1), "
        "(3, 0): Fraction(2, 3), (3, 1): Fraction(2, 3), (3, 2): Fraction(2, 3), "
        "(4, 0): Fraction(1, 2), (4, 1): Fraction(1, 2), (4, 2): Fraction(1, 2), "
        "(5, 0): Fraction(2, 5), (5, 1): Fraction(2, 5), (5, 2): Fraction(2, 5)}"
    )


def test_exact_half_sample_bound_is_golden():
    inst = generate_instance(GeneratorParams(6, 4, "separable_capped"), seed=0).exact()
    assert repr(check_random_sampling_bound(inst, "exact")) == GOLDEN_C4
