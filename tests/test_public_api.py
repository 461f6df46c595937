"""The public surface: pinned, so a name that only tests would call does not creep back."""

import importlib
import pkgutil
import types

import secalloc

PUBLIC_NAMES = [
    "ALGORITHMS",
    "Allocation",
    "ArrivalOrder",
    "CapabilityError",
    "CheckResult",
    "EpicAudit",
    "ExperimentConfig",
    "FAMILIES",
    "GeneratorParams",
    "Instance",
    "InstanceRuntime",
    "MechanismOutcome",
    "RatioStats",
    "RunResult",
    "SeparableValuation",
    "SignalProfile",
    "SignalWeight",
    "StepRecord",
    "UnitDemandValuation",
    "ValidationError",
    "ValuationSpec",
    "XOSValuation",
    "bundle_value_table",
    "check_epic",
    "check_monotone",
    "check_random_sampling_bound",
    "check_subadditive_over_signals",
    "check_tail_harmonic_sum",
    "check_xos_over_items",
    "check_xos_over_signals",
    "estimate_ratio",
    "eval_valuation",
    "export_report",
    "generate_instance",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "make_sample_then_greedy_blackbox",
    "make_sample_then_match_blackbox",
    "mask_signals",
    "opt_dispatch",
    "opt_general",
    "opt_matching",
    "run_mechanism",
    "run_proxy_framework",
    "run_sample_then_greedy",
    "run_sample_then_match",
    "sample_size",
    "save_instance",
    "survival_probability",
]


def test_package_names_are_pinned():
    public = sorted(n for n, v in vars(secalloc).items()
                    if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert public == sorted(PUBLIC_NAMES)


def test_every_module_all_entry_resolves():
    for info in pkgutil.iter_modules(secalloc.__path__):
        module = importlib.import_module(f"secalloc.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], (info.name, missing)
