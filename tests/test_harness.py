"""Generator, ratio estimation, and report round-trips."""

import json
import math

import pytest

from secalloc import (
    CapabilityError,
    ExperimentConfig,
    GeneratorParams,
    RatioStats,
    ValidationError,
    check_subadditive_over_signals,
    check_xos_over_signals,
    estimate_ratio,
    export_report,
    generate_instance,
    instance_to_json,
)


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
