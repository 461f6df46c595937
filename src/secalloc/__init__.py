"""Online combinatorial allocation in the secretary model with interdependent signals.

Agents hold private scalar signals and valuations over item bundles that
depend on everyone's signals.  The package provides the sample-then-greedy
online algorithms, a proxy-sampling framework for lifting classical
secretary algorithms, a truthful online matching mechanism with payments,
exact offline optima to benchmark against, and checkers that verify the
structural assumptions and guarantees on concrete instances.
"""

__version__ = "0.1.0"

from .errors import CapabilityError, ValidationError
from .valuations import (
    Instance,
    SeparableValuation,
    SignalProfile,
    SignalWeight,
    UnitDemandValuation,
    ValuationSpec,
    XOSValuation,
    bundle_value_table,
    eval_valuation,
    mask_signals,
)
from .structure_checks import (
    CheckResult,
    check_monotone,
    check_subadditive_over_signals,
    check_xos_over_items,
    check_xos_over_signals,
)
from .offline import Allocation, opt_dispatch, opt_general, opt_matching
from .secretary import (
    ArrivalOrder,
    InstanceRuntime,
    RunResult,
    StepRecord,
    check_tail_harmonic_sum,
    make_sample_then_greedy_blackbox,
    make_sample_then_match_blackbox,
    run_proxy_framework,
    run_sample_then_greedy,
    run_sample_then_match,
    sample_size,
    survival_probability,
)
from .mechanism import (
    EpicAudit,
    MechanismOutcome,
    check_epic,
    check_random_sampling_bound,
    run_mechanism,
)
from .harness import (
    ALGORITHMS,
    FAMILIES,
    ExperimentConfig,
    GeneratorParams,
    RatioStats,
    estimate_ratio,
    export_report,
    generate_instance,
)
from .instance_io import instance_from_json, instance_to_json, load_instance, save_instance
