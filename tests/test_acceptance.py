"""Acceptance criteria: the provable guarantees, run at desk scale.

Each test prints one PASS/FAIL line.  Exact-arithmetic criteria run on
Fraction-lifted instances and tolerate nothing; Monte Carlo criteria
keep a 0.03 slack that absorbs the unquantified finite-n terms plus
sampling error.
"""

import math
import time
from fractions import Fraction

import numpy as np

from reference_impls import WeightOracle

from secalloc import (
    ArrivalOrder,
    ExperimentConfig,
    GeneratorParams,
    SignalProfile,
    check_epic,
    check_random_sampling_bound,
    check_tail_harmonic_sum,
    check_xos_over_items,
    check_xos_over_signals,
    estimate_ratio,
    generate_instance,
    opt_general,
    opt_matching,
    survival_probability,
)
from secalloc.secretary import InstanceRuntime, random_valid_tail_sequence
from secalloc.structure_checks import check_monotone, check_subadditive_over_signals


def report(name: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_c01_sample_then_greedy_guarantee_subadditive_signals():
    """Mean ratio >= 1/(2e) - 0.03 on every generated capped-XOS instance."""
    t0 = time.time()
    bound = 1 / (2 * math.e) - 0.03
    means = []
    for seed in range(50):
        inst = generate_instance(GeneratorParams(8, 5, "xos_capped"), seed=seed)
        stats = estimate_ratio(inst, ExperimentConfig("alg1", trials=10_000, seed=seed))
        means.append(float(stats.mean))
    elapsed = time.time() - t0
    worst = min(means)
    report(
        "C1 greedy guarantee (subadditive over signals)",
        worst >= bound and elapsed < 300,
        f"min mean {worst:.4f} >= {bound:.4f} on 50 instances, {elapsed:.0f}s < 300s",
    )


def test_c02_sample_then_greedy_guarantee_xos_signals_exact():
    """Exact mean over all 120 orders >= k(n-k)/(n(n-1)) = 3/10, no tolerance."""
    t0 = time.time()
    n = 5
    k = n // 2
    bound = Fraction(k * (n - k), n * (n - 1))
    assert bound == Fraction(3, 10)
    worst = None
    for seed in range(20):
        inst = generate_instance(GeneratorParams(n, 4, "xos_linear"), seed=seed).exact()
        stats = estimate_ratio(inst, ExperimentConfig("alg2", trials=1, mode="exact_orders"))
        assert stats.trials == 120
        if worst is None or stats.mean < worst:
            worst = stats.mean
    elapsed = time.time() - t0
    report(
        "C2 greedy guarantee (XOS over signals), exact orders",
        worst >= bound and elapsed < 120,
        f"min exact mean {float(worst):.4f} >= 0.3 on 20 instances, {elapsed:.0f}s < 120s",
    )


def test_c03_item_survival_equality_exact():
    """Survival probability equals k/t exactly on positive additive instances."""
    n, k = 6, 2
    checked = 0
    for seed in range(5):
        inst = generate_instance(GeneratorParams(n, 3, "additive"), seed=seed).exact()
        runtime = InstanceRuntime(inst)
        for t in range(2, 6):
            for item in range(inst.m):
                p = survival_probability(inst, item, t, k, "exact", runtime=runtime)
                assert p == Fraction(k, t), (seed, item, t, p)
                checked += 1
    report(
        "C3 item-survival equality k/t",
        True,
        f"{checked} (item, step) pairs across 5 instances, exact rational match",
    )


def test_c04_random_half_sample_bound_exact():
    """E over all half-samples of the proxy optimum >= OPT/4 on every instance."""
    failures = []
    for seed in range(50):
        inst = generate_instance(GeneratorParams(6, 4, "separable_capped"), seed=seed).exact()
        res = check_random_sampling_bound(inst, "exact")
        if not res.passed:
            failures.append(seed)
    report(
        "C4 random half-sample proxy bound",
        not failures,
        f"exact subset enumeration on 50 instances, failures: {failures or 'none'}",
    )


def test_c05_truthfulness_audit():
    """No profitable misreport on any audited (instance, order, agent)."""
    t0 = time.time()
    n = 6
    k_skip = n // 2 + int(n / (2 * math.e))
    worst_violation = -math.inf
    worst_utility = math.inf
    audits = 0
    for seed in range(100):
        inst = generate_instance(GeneratorParams(n, 4, "separable_capped"), seed=seed)
        for otrial in range(20):
            rng = np.random.default_rng(np.random.SeedSequence((seed, otrial)))
            order = ArrivalOrder.random(n, rng)
            cache: dict = {}
            for pos in range(k_skip, n):
                audit = check_epic(
                    inst, order, order[pos], grid_points=21, solver_cache=cache
                )
                audits += 1
                worst_violation = max(worst_violation, audit.violation)
                worst_utility = min(worst_utility, audit.truth_utility)
    elapsed = time.time() - t0
    report(
        "C5 truthfulness (EPIC) audit",
        worst_violation <= 1e-9 and worst_utility >= -1e-9,
        f"{audits} audits, worst misreport gain {worst_violation:.2e} <= 1e-9, "
        f"min equilibrium utility {worst_utility:.2e} >= -1e-9, {elapsed:.0f}s",
    )


def test_c06_matching_subroutine_guarantee():
    """Classical sample-then-match: mean ratio >= 1/e - 0.03 per weight matrix."""
    t0 = time.time()
    bound = 1 / math.e - 0.03
    means = []
    for seed in range(50):
        inst = generate_instance(GeneratorParams(8, 5, "unit_demand_const"), seed=seed)
        stats = estimate_ratio(inst, ExperimentConfig("rei19", trials=10_000, seed=seed))
        means.append(float(stats.mean))
    elapsed = time.time() - t0
    worst = min(means)
    report(
        "C6 matching subroutine guarantee",
        worst >= bound,
        f"min mean {worst:.4f} >= {bound:.4f} on 50 weight matrices, {elapsed:.0f}s",
    )


def test_c07_mechanism_end_to_end_guarantee():
    """Mechanism allocation welfare: mean ratio >= 1/(4e) - 0.03 per instance."""
    t0 = time.time()
    bound = 1 / (4 * math.e) - 0.03
    means = []
    for seed in range(50):
        inst = generate_instance(GeneratorParams(8, 4, "separable_capped"), seed=seed)
        stats = estimate_ratio(inst, ExperimentConfig("mechanism", trials=10_000, seed=seed))
        means.append(float(stats.mean))
    elapsed = time.time() - t0
    worst = min(means)
    report(
        "C7 mechanism end-to-end guarantee",
        worst >= bound,
        f"min mean {worst:.4f} >= {bound:.4f} on 50 instances, {elapsed:.0f}s",
    )


def test_c08_tail_harmonic_sum_surrogate():
    """1000 random valid sequences per n pass with slack 5/n."""
    counts = {}
    for n in (50, 100, 500):
        rng = np.random.default_rng(n)
        ok = 0
        for _ in range(1000):
            seq = random_valid_tail_sequence(n, rng)
            if check_tail_harmonic_sum(seq, slack_constant=5.0).passed:
                ok += 1
        counts[n] = ok
    report(
        "C8 tail harmonic sum surrogate",
        all(c == 1000 for c in counts.values()),
        f"passes per n: {counts}",
    )


def test_c09_matching_equals_general_on_unit_demand():
    """Exact value agreement between the two solvers on 500 random instances."""
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(500):
        n_agents = int(rng.integers(1, 6))
        n_items = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            w = rng.integers(0, 4, (n_agents, n_items)) * 0.25  # tie-heavy grid
        else:
            w = rng.uniform(0, 1, (n_agents, n_items))
        weights = {a: [float(x) for x in w[a]] for a in range(n_agents)}
        oracles = {a: WeightOracle.from_item_weights(a, weights[a]) for a in range(n_agents)}
        via_matching = opt_matching(range(n_agents), weights, range(n_items))
        via_general = opt_general(range(n_agents), oracles, range(n_items))
        if via_matching.value != via_general.value or dict(via_matching.bundles) != dict(via_general.bundles):
            mismatches += 1
    report(
        "C9 matching/general oracle equivalence",
        mismatches == 0,
        f"500 instances, {mismatches} mismatches (exact value and allocation)",
    )


def test_c10_definition_checkers_on_generated_and_adversarial():
    """Linear XOS families pass the definition checkers; injections are caught."""
    t0 = time.time()
    bad = []
    for seed in range(100):
        inst = generate_instance(GeneratorParams(4, 3, "xos_linear"), seed=seed)
        for i, spec in enumerate(inst.specs):
            if not check_xos_over_signals(spec, range(inst.m), inst.signals):
                bad.append(("signals", seed, i))
            if not check_xos_over_items(spec, inst.signals, range(inst.m)):
                bad.append(("items", seed, i))

    # Injected counterexamples must be caught, with witnesses.
    min_oracle = lambda b, s: min(s[0], s[1]) if b else 0.0
    res_sig = check_xos_over_signals(min_oracle, {0}, SignalProfile([1.0, 1.0]))
    pair_oracle = lambda b, s: {0: 0.0, 1: 1.0, 2: 2.5}[len(b)]
    res_items = check_xos_over_items(pair_oracle, SignalProfile([1.0]), {0, 1})
    sq_oracle = lambda b, s: float(sum(s)) ** 2 if b else 0.0
    res_sub = check_subadditive_over_signals(sq_oracle, {0}, SignalProfile([1.0, 1.0]))
    shrink_oracle = lambda b, s: 3.0 - len(b) if b else 0.0
    res_mono = check_monotone(shrink_oracle, SignalProfile([1.0]), num_items=2)
    caught = (
        not res_sig.passed and res_sig.witness is not None
        and not res_items.passed and res_items.witness is not None
        and not res_sub.passed and res_sub.witness is not None
        and not res_mono.passed and res_mono.witness is not None
    )
    elapsed = time.time() - t0
    report(
        "C10 definition checkers",
        not bad and caught,
        f"100 seeds clean ({len(bad)} failures), 4/4 adversarial oracles caught "
        f"with witnesses, {elapsed:.0f}s",
    )
