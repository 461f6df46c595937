"""Generator, ratio estimation, and report round-trips."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_impls import ref_estimate_ratio

import secalloc.harness
import secalloc.secretary

from secalloc import (
    ALGORITHMS,
    CapabilityError,
    ExperimentConfig,
    GeneratorParams,
    Instance,
    RatioStats,
    SeparableValuation,
    SignalWeight,
    UnitDemandValuation,
    ValidationError,
    XOSValuation,
    check_subadditive_over_signals,
    check_xos_over_signals,
    estimate_ratio,
    export_report,
    generate_instance,
    instance_to_json,
)

# Deterministic and free of wall-clock checks, so tier-1 runs repeat exactly.
DERANDOMIZED = settings(derandomize=True, deadline=None, database=None, max_examples=30,
                        suppress_health_check=[HealthCheck.too_slow])


def test_generator_is_deterministic():
    params = GeneratorParams(4, 3, "xos_linear")
    a = generate_instance(params, seed=7)
    b = generate_instance(params, seed=7)
    assert instance_to_json(a) == instance_to_json(b)
    c = generate_instance(params, seed=8)
    assert instance_to_json(a) != instance_to_json(c)


def test_generator_rejects_unknown_family():
    with pytest.raises(ValidationError):
        GeneratorParams(3, 2, "mystery")


def test_generated_families_satisfy_their_structure():
    for seed in range(5):
        linear = generate_instance(GeneratorParams(4, 3, "xos_linear"), seed=seed)
        for spec in linear.specs:
            assert check_xos_over_signals(spec, range(linear.m), linear.signals)
    # The capped separable family must be subadditive over signals; cheap
    # enough to sweep the full hundred seeds.
    for seed in range(100):
        capped = generate_instance(GeneratorParams(4, 3, "separable_capped"), seed=seed)
        for spec in capped.specs:
            assert check_subadditive_over_signals(spec, range(capped.m), capped.signals)


def test_single_agent_ratio_is_exactly_one():
    inst = generate_instance(GeneratorParams(1, 3, "additive"), seed=0)
    stats = estimate_ratio(inst, ExperimentConfig("alg1", trials=5, seed=0))
    assert stats.mean == 1.0
    assert stats.min_ratio == 1.0 == stats.max_ratio


def test_monte_carlo_is_seed_deterministic():
    inst = generate_instance(GeneratorParams(5, 3, "xos_capped"), seed=2)
    config = ExperimentConfig("alg1", trials=50, seed=11)
    a = estimate_ratio(inst, config)
    b = estimate_ratio(inst, config)
    assert a == b
    c = estimate_ratio(inst, ExperimentConfig("alg1", trials=50, seed=12))
    assert a.mean != c.mean


def test_exact_orders_counts_all_permutations():
    inst = generate_instance(GeneratorParams(4, 3, "xos_linear"), seed=3)
    stats = estimate_ratio(inst, ExperimentConfig("alg2", trials=1, mode="exact_orders"))
    assert stats.trials == math.factorial(4)
    assert 0 <= stats.mean <= 1 + 1e-9


def test_exact_orders_capability_limit():
    inst = generate_instance(GeneratorParams(8, 2, "xos_linear"), seed=0)
    with pytest.raises(CapabilityError):
        estimate_ratio(inst, ExperimentConfig("alg1", mode="exact_orders"))


def test_ratios_never_exceed_one():
    for alg, family in (
        ("alg1", "xos_capped"),
        ("alg2", "xos_linear"),
        ("framework", "separable_capped"),
        ("rei19", "unit_demand_const"),
        ("mechanism", "separable_linear"),
    ):
        inst = generate_instance(GeneratorParams(5, 3, family), seed=4)
        stats = estimate_ratio(inst, ExperimentConfig(alg, trials=60, seed=5))
        assert stats.max_ratio <= 1 + 1e-9


UNIFORM = st.floats(0.0, 1.0, allow_nan=False)
GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])  # ties and zeros


@st.composite
def ratio_cases(draw, alg, blackbox):
    """(instance, config) on an instance that meets the algorithm's requirements."""
    n = draw(st.integers(3, 6))
    m = draw(st.integers(1, 3))
    value = draw(st.sampled_from([UNIFORM, GRID]))

    def weight(readers, capped=True):
        coeffs = [draw(value) if r in readers else 0.0 for r in range(n)]
        return SignalWeight(coeffs, draw(value), draw(st.one_of(st.none(), value)) if capped else None)

    kinds = ["separable"]
    if alg != "mechanism":
        kinds.append("unit_demand")
        if alg != "rei19" and blackbox != "match":
            kinds.append("xos")
    everyone = set(range(n))
    specs = []
    for i in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "separable":
            specs.append(SeparableValuation(
                i, [weight({i}, capped=False) for _ in range(m)],
                [weight(everyone - {i}) for _ in range(m)],
            ))
        elif kind == "unit_demand":
            specs.append(UnitDemandValuation(weight(everyone) for _ in range(m)))
        else:
            clauses = [{j: weight(everyone) for j in range(m)} for _ in range(draw(st.integers(1, 2)))]
            specs.append(XOSValuation(clauses, num_items=m))
    inst = Instance(specs, [draw(value) for _ in range(n)])
    if draw(st.booleans()):
        inst = inst.exact()

    k = None
    if alg != "mechanism" and draw(st.booleans()):
        k = draw(st.integers(0, (n - n // 2 if alg == "framework" else n) - 1))
    mode = draw(st.sampled_from(["monte_carlo", "exact_orders"]))
    config = ExperimentConfig(alg, trials=draw(st.integers(1, 30)), seed=draw(st.integers(0, 9)),
                              mode=mode, blackbox=blackbox, k=k)
    return inst, config


@pytest.mark.parametrize("alg, blackbox", [
    ("alg1", "auto"), ("alg2", "auto"), ("rei19", "auto"), ("mechanism", "auto"),
    ("framework", "auto"), ("framework", "match"), ("framework", "greedy"),
])
def test_estimate_ratio_equals_the_per_order_reference(alg, blackbox):
    @DERANDOMIZED
    @given(case=ratio_cases(alg, blackbox))
    def check(case):
        inst, config = case
        assert repr(estimate_ratio(inst, config)) == repr(ref_estimate_ratio(inst, config))

    check()


@pytest.mark.parametrize("mode", ["monte_carlo", "exact_orders"])
@pytest.mark.parametrize("alg, blackbox", [
    ("alg1", "auto"), ("alg2", "auto"), ("rei19", "auto"), ("mechanism", "auto"),
    ("framework", "auto"), ("framework", "match"), ("framework", "greedy"),
])
def test_estimate_ratio_records_no_run(monkeypatch, alg, blackbox, mode):
    def no_record(*args, **kwargs):
        raise AssertionError("estimate_ratio recorded a RunResult")

    monkeypatch.setattr(secalloc.secretary, "_run_result", no_record)
    inst = generate_instance(GeneratorParams(5, 3, "separable_capped"), seed=0)
    stats = estimate_ratio(inst, ExperimentConfig(alg, trials=20, seed=1, mode=mode, blackbox=blackbox))
    assert stats.trials == (120 if mode == "exact_orders" else 20)


def test_a_negative_seed_is_rejected_before_the_optimum(monkeypatch):
    def no_optimum(*args, **kwargs):
        raise AssertionError("the optimum was computed")

    monkeypatch.setattr(secalloc.harness, "opt_dispatch", no_optimum)
    inst = generate_instance(GeneratorParams(4, 2, "xos_linear"), seed=0)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        estimate_ratio(inst, ExperimentConfig("alg1", trials=5, seed=-1))


def test_mechanism_row_needs_three_agents():
    inst = generate_instance(GeneratorParams(2, 2, "separable_linear"), seed=0)
    with pytest.raises(ValidationError, match="the mechanism needs n >= 3"):
        estimate_ratio(inst, ExperimentConfig("mechanism", trials=5))


def test_sample_size_is_checked_before_any_order():
    inst = generate_instance(GeneratorParams(5, 3, "xos_capped"), seed=0)
    for alg, blackbox, k, n in (("framework", "greedy", 100, 3), ("framework", "greedy", 3, 3),
                                ("alg1", "auto", 5, 5), ("alg2", "auto", -1, 5)):
        with pytest.raises(ValidationError, match=f"sample size k={k} must satisfy 0 <= k < n={n}"):
            estimate_ratio(inst, ExperimentConfig(alg, trials=5, blackbox=blackbox, k=k))


def test_an_optimum_beyond_the_float_range_is_a_validation_error():
    huge = Fraction(10**400)
    n = 3
    specs = [
        SeparableValuation(
            i,
            [SignalWeight([huge if r == i else 0 for r in range(n)])],
            [SignalWeight([0] * n)],
        )
        for i in range(n)
    ]
    inst = Instance(specs, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]).exact()
    for alg in ALGORITHMS:
        with pytest.raises(ValidationError, match="opt_value"):
            estimate_ratio(inst, ExperimentConfig(alg, trials=2))


def test_rei19_needs_unit_demand():
    inst = generate_instance(GeneratorParams(4, 2, "xos_linear"), seed=1)
    with pytest.raises(ValidationError):
        estimate_ratio(inst, ExperimentConfig("rei19", trials=5))


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig("alg9")
    with pytest.raises(ValidationError):
        ExperimentConfig("alg1", trials=0)
    with pytest.raises(ValidationError):
        ExperimentConfig("alg1", mode="sometimes")
    with pytest.raises(ValidationError, match="blackbox"):
        ExperimentConfig("framework", blackbox="bogus")
    with pytest.raises(ValidationError, match="blackbox"):
        ExperimentConfig("alg1", blackbox="bogus")
    # The mechanism's two sample sizes are fixed by n.
    with pytest.raises(ValidationError, match="k does not apply"):
        ExperimentConfig("mechanism", k=2)


def test_ratio_stats_invariants():
    with pytest.raises(ValidationError):
        RatioStats(mean=1.5, std_err=0, ci95=0, min_ratio=1, max_ratio=1,
                   trials=1, opt_value=1.0)
    with pytest.raises(ValidationError):
        RatioStats(mean=0.5, std_err=0, ci95=-1, min_ratio=0, max_ratio=1,
                   trials=1, opt_value=1.0)


def test_report_round_trip_and_byte_stability(tmp_path):
    inst = generate_instance(GeneratorParams(4, 3, "xos_linear"), seed=6)
    config = ExperimentConfig("alg1", trials=30, seed=3)
    stats = estimate_ratio(inst, config)

    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    export_report(stats, p1, "json", config=config)
    export_report(stats, p2, "json", config=config)
    assert p1.read_bytes() == p2.read_bytes()

    with open(p1, encoding="utf-8") as fh:
        doc = json.load(fh)
    (loaded,) = doc["results"]
    assert loaded["mean"] == float(stats.mean)
    assert loaded["std_err"] == stats.std_err
    assert loaded["ci95"] == stats.ci95
    assert loaded["min_ratio"] == stats.min_ratio
    assert loaded["max_ratio"] == stats.max_ratio
    assert loaded["trials"] == stats.trials
    assert loaded["opt_value"] == stats.opt_value
    assert doc["config"]["alg"] == "alg1"


def test_csv_report_and_empty_result_set(tmp_path):
    path = tmp_path / "empty.csv"
    export_report([], path, "csv")
    assert path.read_text() == "mean,std_err,ci95,min_ratio,max_ratio,trials,opt_value\n"

    inst = generate_instance(GeneratorParams(4, 2, "xos_linear"), seed=1)
    stats = estimate_ratio(inst, ExperimentConfig("alg2", trials=10, seed=0))
    full = tmp_path / "full.csv"
    export_report([stats, stats], full, "csv")
    lines = full.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValidationError):
        export_report([], tmp_path / "x.bin", "parquet")
