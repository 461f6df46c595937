"""The OPT dispatcher: matching on unit-demand instances, DP elsewhere, budgets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_impls import RefStepOptRuntime, WeightOracle, assert_invariants, ref_left_fold

import secalloc.offline
import secalloc.secretary
import secalloc.valuations
from secalloc import (
    ArrivalOrder,
    CapabilityError,
    ExperimentConfig,
    GeneratorParams,
    Instance,
    InstanceRuntime,
    RatioStats,
    SeparableValuation,
    SignalWeight,
    UnitDemandValuation,
    ValidationError,
    XOSValuation,
    bundle_value_table,
    estimate_ratio,
    generate_instance,
    make_sample_then_greedy_blackbox,
    make_sample_then_match_blackbox,
    mask_signals,
    opt_dispatch,
    opt_general,
    run_mechanism,
    run_proxy_framework,
    run_sample_then_greedy,
    run_sample_then_match,
    sample_size,
    save_instance,
)
from secalloc import cli
from secalloc._util import mask_of, trial_rng
from secalloc.offline import solve_from_tables
from secalloc.secretary import _proxy_steps

# Deterministic and free of wall-clock checks, so tier-1 runs repeat exactly.
DERANDOMIZED = settings(derandomize=True, deadline=None, database=None,
                        suppress_health_check=[HealthCheck.too_slow])


# --- capability guards -----------------------------------------------------

def test_bundle_table_over_budget_raises_capability_error():
    inst = generate_instance(GeneratorParams(3, 63, "xos_linear"), seed=0)
    with pytest.raises(CapabilityError, match="table budget"):
        bundle_value_table(inst.specs[0], inst.signals)
    with pytest.raises(CapabilityError, match="table budget"):
        estimate_ratio(inst, ExperimentConfig("alg1", trials=2))


def test_cli_run_over_budget_exits_one(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_instance(generate_instance(GeneratorParams(3, 63, "xos_linear"), seed=0), path)
    code = cli.main(["run", "--instance", str(path), "--alg", "alg1", "--trials", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "table budget" in err


def test_subset_dp_budget_is_checked_and_passed_through():
    tables = [[0.0, 1.0, 1.0, 2.0]] * 2
    with pytest.raises(CapabilityError, match="18 steps"):
        solve_from_tables([0, 1], tables, [0, 1], budget=17)
    assert solve_from_tables([0, 1], tables, [0, 1], budget=18).value == 2.0

    # (1+1)^8 = 256 candidate assignments pass opt_general's own guard,
    # but the DP's 3^8 = 6561 steps do not.
    oracle = WeightOracle(0, lambda b: float(len(b)))
    with pytest.raises(CapabilityError, match="6561 steps"):
        opt_general([0], {0: oracle}, range(8), budget=1000)


# --- the polynomial path ---------------------------------------------------

@pytest.mark.parametrize("family, algs", [
    ("unit_demand_const", ("alg1", "alg2", "rei19", "framework")),
    ("separable_capped", ("alg1", "alg2", "rei19", "mechanism", "framework")),
])
def test_unit_demand_ratio_needs_no_bundle_tables(family, algs, monkeypatch):
    built = []

    def counting(spec, signals):
        built.append(spec)
        return bundle_value_table(spec, signals)

    for module in (secalloc.valuations, secalloc.offline, secalloc.secretary):
        monkeypatch.setattr(module, "bundle_value_table", counting)
    inst = generate_instance(GeneratorParams(6, 64, family), seed=1)
    for alg in algs:
        for blackbox in ("auto", "match") if alg == "framework" else ("auto",):
            stats = estimate_ratio(inst, ExperimentConfig(alg, trials=5, seed=2, blackbox=blackbox))
            assert stats.trials == 5 and stats.opt_value > 0
    assert built == []


def test_greedy_ratio_on_unit_demand_runs_past_the_table_budget():
    # Step optima of unit-demand agents are matchings: no 2^20-entry tables.
    inst = generate_instance(GeneratorParams(4, 20, "unit_demand_const"), 1)
    stats = estimate_ratio(inst, ExperimentConfig("alg1", trials=5))
    assert stats.trials == 5 and 0 < stats.mean <= 1


def test_runtime_builds_tables_only_on_use(monkeypatch):
    built = []

    def counting(spec, signals):
        built.append(spec)
        return bundle_value_table(spec, signals)

    monkeypatch.setattr(secalloc.secretary, "bundle_value_table", counting)
    inst = generate_instance(GeneratorParams(4, 3, "xos_linear"), seed=0)
    runtime = InstanceRuntime(inst)
    assert built == []
    runtime.true_welfare({2: 0b101})
    assert built == [inst.specs[2]]


def test_true_welfare_scores_unit_demand_bundles_as_their_table_entry():
    # Multi-item bundles, ties (one of a float and a Fraction) and an
    # all-zero agent: scored from item weights, each bundle must still
    # read exactly as its bundle-table entry, int 0 when nothing is
    # worth anything.
    def const(c):
        return SignalWeight([Fraction(0)] * 3, c)

    specs = [
        UnitDemandValuation([const(0.0)] * 3),
        UnitDemandValuation([const(0.5), const(0.0), SignalWeight([0.0, 1.0, 0.0])]),
        UnitDemandValuation([const(Fraction(1, 2)), const(0.5), const(0.25)]),
    ]
    inst = Instance(specs, [Fraction(1, 2)] * 3)
    runtime = InstanceRuntime(inst)
    for masks in ({0: 0b111}, {1: 0b101}, {2: 0b011}, {0: 0b001, 1: 0b110, 2: 0b100}):
        want = 0
        for i in sorted(masks):
            want += bundle_value_table(inst.specs[i], inst.signals)[masks[i]]
        assert repr(runtime.true_welfare(masks)) == repr(want)


def test_algorithm_fit_is_checked_before_any_optimum():
    # m = 63 is far over the table budget, so reaching OPT would raise
    # CapabilityError instead.
    inst = generate_instance(GeneratorParams(3, 63, "xos_linear"), seed=0)
    with pytest.raises(ValidationError, match="rei19 needs unit-demand"):
        estimate_ratio(inst, ExperimentConfig("rei19", trials=2))
    with pytest.raises(ValidationError, match="not separable unit-demand"):
        estimate_ratio(inst, ExperimentConfig("mechanism", trials=2))
    with pytest.raises(ValidationError, match="match blackbox needs unit-demand"):
        estimate_ratio(inst, ExperimentConfig("framework", trials=2, blackbox="match"))
    with pytest.raises(ValidationError, match="match blackbox needs unit-demand"):
        run_proxy_framework(inst, ArrivalOrder.identity(3), make_sample_then_match_blackbox())


# --- float XOS step optima: one array of tables -----------------------------

def _count_calls(monkeypatch, name, modules):
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_float_xos_step_optima_build_no_bundle_tables(monkeypatch):
    built = _count_calls(monkeypatch, "bundle_value_table",
                         (secalloc.valuations, secalloc.offline, secalloc.secretary))
    inst = generate_instance(GeneratorParams(5, 3, "xos_capped"), seed=3)
    runtime = InstanceRuntime(inst)
    for amask in range(1, (1 << inst.n) - 1):
        runtime.step_opt(amask)
    arrivals = [(a, inst.specs[a], mask_signals(inst.signals, {0, a})) for a in range(1, 5)]
    _, decide = make_sample_then_greedy_blackbox(0)(arrivals, inst.m)
    for amask in range(2, 1 << inst.n, 2):
        decide((amask & -amask).bit_length() - 1, amask, 0b111)
    assert built == []
    # A ratio estimate builds only the n true-signal tables, for OPT and scoring.
    for alg, blackbox in (("alg1", "auto"), ("framework", "greedy")):
        estimate_ratio(inst, ExperimentConfig(alg, trials=20, blackbox=blackbox))
        assert len(built) == inst.n
        built.clear()


def test_greedy_policies_solve_nothing_when_no_item_is_left(monkeypatch):
    solves = _count_calls(monkeypatch, "solve_from_tables", (secalloc.offline, secalloc.secretary))
    inst = generate_instance(GeneratorParams(5, 1, "additive"), seed=0)
    runtime = InstanceRuntime(inst)
    arrivals = [(a, inst.specs[a], inst.signals) for a in range(3)]
    _, decide = make_sample_then_greedy_blackbox(0)(arrivals, inst.m)
    assert runtime.greedy_step(4, 0b11111, 0) == 0 and decide(2, 0b111, 0) == 0
    assert solves == []
    # With k = 0 the first agent takes the only item, positive for everyone,
    # so only that step solves.
    assert run_sample_then_greedy(inst, ArrivalOrder.identity(5), 0).bundles == {0: frozenset({0})}
    assert len(solves) == 1
    steps = list(_proxy_steps(inst.specs, inst.signals, (0, 1, 2, 3, 4), 1,
                              make_sample_then_greedy_blackbox(0)))
    assert [taken for *_, taken in steps] == [0, 0, 1, 0, 0] and len(solves) == 2


def test_an_overflowing_float_step_optimum_still_names_its_bundle():
    # 1e200 * 1e200 overflows to inf in the array pass, as in Python arithmetic.
    zero = XOSValuation([{0: SignalWeight([0.0, 0.0, 0.0])}], 1)
    big = XOSValuation([{0: SignalWeight([1e200, 0.0, 0.0], 0.5)},
                        {0: SignalWeight([0.0, 1.0, 0.0])}], 1)
    inst = Instance([zero, big, zero], [1e200, 1.0, 1.0])
    order = ArrivalOrder([0, 1, 2])
    runs = (lambda: InstanceRuntime(inst).step_opt(0b011),
            lambda: run_sample_then_greedy(inst, order, 0),
            lambda: run_proxy_framework(inst, order, make_sample_then_greedy_blackbox()))
    for run in runs:
        with pytest.raises(ValidationError,
                           match=r"^bundle value for agent 1, items \[0\] must be finite, got inf$"):
            run()


# --- dispatcher equals the subset DP ---------------------------------------

UNIFORM = st.floats(0.0, 1.0, allow_nan=False)
GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])  # ties and zeros


@st.composite
def unit_demand_instances(draw, min_agents=1, separable_only=False):
    """Unit-demand and separable agents over float or Fraction weights."""
    n = draw(st.integers(min_agents, min_agents + 3))
    m = draw(st.integers(1, 4))
    value = draw(st.sampled_from([UNIFORM, GRID]))

    def weight(readers, capped):
        coeffs = [draw(value) if k in readers else 0.0 for k in range(n)]
        cap = draw(st.one_of(st.none(), value)) if capped else None
        return SignalWeight(coeffs, draw(value), cap)

    specs = []
    for i in range(n):
        others = [k for k in range(n) if k != i]
        if separable_only or draw(st.booleans()):
            specs.append(SeparableValuation(
                i,
                [weight({i}, capped=False) for _ in range(m)],
                [weight(set(others), capped=True) for _ in range(m)],
            ))
        else:
            specs.append(UnitDemandValuation(weight(set(range(n)), capped=True) for _ in range(m)))
    inst = Instance(specs, [draw(value) for _ in range(n)])
    return inst.exact() if draw(st.booleans()) else inst


@DERANDOMIZED
@given(inst=unit_demand_instances(), data=st.data())
def test_dispatcher_equals_subset_dp(inst, data):
    n = inst.n
    agents = data.draw(st.sets(st.integers(0, n - 1)))
    seen = {i: data.draw(st.sets(st.integers(0, n - 1))) | {i} for i in range(n)}

    def signals(i):
        return mask_signals(inst.signals, seen[i])

    got = opt_dispatch(inst, agents, signals)
    ag = sorted(agents)
    want = solve_from_tables(
        ag, [bundle_value_table(inst.specs[i], signals(i)) for i in ag], range(inst.m)
    )
    assert_invariants(got)
    assert_invariants(want)
    assert repr(got.value) == repr(want.value)
    assert dict(got.bundles) == dict(want.bundles)
    assert repr(sorted(got.per_agent_value.items())) == repr(sorted(want.per_agent_value.items()))
    assert got == want


@st.composite
def mixed_instances(draw):
    """Unit-demand, separable and XOS agents side by side, float or Fraction."""
    base = draw(unit_demand_instances())
    n, m = base.n, base.m
    xos = generate_instance(GeneratorParams(n, m, "xos_capped"), draw(st.integers(0, 9)))
    specs = [xos.specs[i] if draw(st.booleans()) else spec for i, spec in enumerate(base.specs)]
    inst = Instance(specs, base.signals.values)
    return inst.exact() if isinstance(base.signals.values[0], Fraction) else inst


def canonical(hit):
    alloc, masks = hit
    return (repr(sorted(alloc.bundles.items())), repr(sorted(alloc.per_agent_value.items())),
            repr(alloc.value), sorted(masks.items()))


@DERANDOMIZED
@given(inst=st.one_of(unit_demand_instances(), mixed_instances()))
def test_step_opt_through_the_dispatcher_equals_the_table_dp(inst):
    runtime, reference = InstanceRuntime(inst), RefStepOptRuntime(inst)
    for amask in range(1, 1 << inst.n):
        got, want = runtime.step_opt(amask), reference.step_opt(amask)
        assert_invariants(got[0])
        assert got == want and canonical(got) == canonical(want)


def reference_stats(inst, config) -> RatioStats:
    """estimate_ratio as it stood with the subset DP: 2^m true tables for
    OPT and for scoring the bundles of the mechanism, alg1 and the
    framework with the greedy blackbox."""
    tables = [bundle_value_table(spec, inst.signals) for spec in inst.specs]
    opt = solve_from_tables(range(inst.n), tables, range(inst.m)).value
    sigs = inst.signals.values
    if config.alg == "rei19":
        weights = {i: tuple(inst.specs[i].item_weight(j, sigs) for j in range(inst.m))
                   for i in range(inst.n)}
    ratios = []
    cache: dict = {}
    for t in range(config.trials):
        order = ArrivalOrder.random(inst.n, trial_rng(config.seed, t))
        if config.alg == "rei19":
            welfare = run_sample_then_match(weights, inst.m, order, sample_size(inst.n, "n/e")).welfare
        else:
            if config.alg == "mechanism":
                bundles = run_mechanism(inst, order, solver_cache=cache).bundles
            elif config.alg == "alg1":
                bundles = run_sample_then_greedy(inst, order, sample_size(inst.n, "n/e")).bundles
            else:
                blackbox = make_sample_then_greedy_blackbox()
                bundles = run_proxy_framework(inst, order, blackbox).bundles
            welfare = 0
            for i in sorted(bundles):
                welfare += tables[i][mask_of(bundles[i])]
        ratios.append(welfare / opt if opt > 0 else 1.0)
    floats = np.array([float(r) for r in ratios])
    se = float(floats.std(ddof=1)) / math.sqrt(len(ratios))
    return RatioStats(ref_left_fold(ratios) / len(ratios), se, 1.96 * se, float(floats.min()),
                      float(floats.max()), len(ratios), float(opt))


@DERANDOMIZED
@given(inst=unit_demand_instances(min_agents=3, separable_only=True),
       alg=st.sampled_from(["rei19", "mechanism"]))
def test_matching_ratio_equals_subset_dp_reference(inst, alg):
    config = ExperimentConfig(alg, trials=12, seed=inst.n)
    got = estimate_ratio(inst, config)
    assert repr(got) == repr(reference_stats(inst, config))


@pytest.mark.parametrize("alg", ["alg1", "framework"])
def test_mixed_family_ratio_equals_table_reference(alg):
    # Unit-demand agents next to XOS ones: the subset DP still needs their
    # 2^m tables, and their bundles are scored from item weights.
    n, m = 5, 3
    parts = [generate_instance(GeneratorParams(n, m, family), seed=4)
             for family in ("xos_capped", "unit_demand_const", "separable_linear")]
    inst = Instance([parts[i % 3].specs[i] for i in range(n)], parts[0].signals)
    for form in (inst, inst.exact()):
        config = ExperimentConfig(alg, trials=12, seed=3)
        assert repr(estimate_ratio(form, config)) == repr(reference_stats(form, config))
