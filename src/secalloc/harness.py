"""Instance generation, experiment drivers, ratio statistics, reporting.

Everything here is deterministic given (params, seed): Monte Carlo
trials derive their own generator from (seed, trial index) so schedules
and parallelism cannot change the statistics.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from ._util import check_seed, float_in_range, left_sum
from .errors import CapabilityError, ValidationError
from .mechanism import _require_mechanism
from .offline import opt_dispatch
from .secretary import (
    InstanceRuntime,
    _arrive,
    _check_sample_size,
    _match_step,
    _matched_weight,
    _proxy_steps,
    _trial_orders,
    make_sample_then_greedy_blackbox,
    make_sample_then_match_blackbox,
    sample_size,
)
from .valuations import (
    Instance,
    SeparableValuation,
    SignalWeight,
    UnitDemandValuation,
    XOSValuation,
    _UnitDemand,
)

__all__ = [
    "FAMILIES",
    "ALGORITHMS",
    "GeneratorParams",
    "ExperimentConfig",
    "RatioStats",
    "generate_instance",
    "estimate_ratio",
    "export_report",
]

FAMILIES = (
    "additive",
    "xos_linear",
    "xos_capped",
    "separable_linear",
    "separable_capped",
    "unit_demand_const",
)

ALGORITHMS = ("alg1", "alg2", "framework", "rei19", "mechanism")


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for the random-instance generator."""

    n: int
    m: int
    family: str
    max_clauses: int = 3

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError("need n >= 1 and m >= 1")
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; choose from {FAMILIES}")


def _capped(rng, coeffs, const) -> float:
    expected = const + 0.5 * float(np.sum(coeffs))
    return float(rng.uniform(0.5, 1.5)) * expected


def generate_instance(params: GeneratorParams, seed: int) -> Instance:
    """Draw a random instance; a pure function of (params, seed).

    Signals are i.i.d. uniform on [0,1] and coefficient matrices uniform
    on [0,1]; caps sit at uniform [0.5, 1.5] times the expected uncapped
    weight, so capping actually binds on a decent fraction of profiles.
    """
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence((FAMILIES.index(params.family), seed)))
    n, m = params.n, params.m
    signals = [float(s) for s in rng.uniform(0.0, 1.0, n)]

    def weight(coeff_row, const, cap=None):
        return SignalWeight([float(c) for c in coeff_row], float(const), cap)

    specs = []
    for i in range(n):
        if params.family == "additive":
            clause = {
                j: weight(rng.uniform(0, 1, n), rng.uniform(0.1, 0.6))
                for j in range(m)
            }
            specs.append(XOSValuation([clause], num_items=m))
        elif params.family in ("xos_linear", "xos_capped"):
            clauses = []
            for _ in range(int(rng.integers(2, params.max_clauses + 1))):
                clause = {}
                for j in range(m):
                    coeffs = rng.uniform(0, 1, n)
                    const = float(rng.uniform(0, 0.5))
                    cap = _capped(rng, coeffs, const) if params.family == "xos_capped" else None
                    clause[j] = weight(coeffs, const, cap)
                clauses.append(clause)
            specs.append(XOSValuation(clauses, num_items=m))
        elif params.family in ("separable_linear", "separable_capped"):
            own, others = [], []
            for j in range(m):
                own_coeffs = np.zeros(n)
                own_coeffs[i] = rng.uniform(0, 1)
                own.append(weight(own_coeffs, rng.uniform(0, 0.5)))
                other_coeffs = rng.uniform(0, 1, n)
                other_coeffs[i] = 0.0
                const = float(rng.uniform(0, 0.25))
                cap = _capped(rng, other_coeffs, const) if params.family == "separable_capped" else None
                others.append(weight(other_coeffs, const, cap))
            specs.append(SeparableValuation(i, own, others))
        elif params.family == "unit_demand_const":
            specs.append(UnitDemandValuation(
                [weight(np.zeros(n), rng.uniform(0, 1)) for _ in range(m)]
            ))
    return Instance(specs, signals, family=params.family)


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run and how many times."""

    alg: str
    trials: int = 10_000
    seed: int = 0
    mode: str = "monte_carlo"  # or "exact_orders"
    blackbox: str = "auto"  # framework only: auto | match | greedy
    k: Optional[int] = None  # sample-size override where it applies

    def __post_init__(self):
        if self.alg not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.alg!r}; choose from {ALGORITHMS}")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.mode not in ("monte_carlo", "exact_orders"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.blackbox not in ("auto", "match", "greedy"):
            raise ValidationError(f"unknown blackbox {self.blackbox!r}")
        if self.alg == "mechanism" and self.k is not None:
            raise ValidationError("the mechanism's sample sizes are fixed; k does not apply")


@dataclass(frozen=True)
class RatioStats:
    """ALG/OPT statistics over arrival orders."""

    mean: object
    std_err: float
    ci95: float
    min_ratio: float
    max_ratio: float
    trials: int
    opt_value: float

    def __post_init__(self):
        if not (0 <= self.mean <= 1 + 1e-9):
            raise ValidationError(f"mean ratio {self.mean} outside [0, 1]")
        if self.ci95 < 0:
            raise ValidationError("confidence half-width must be nonnegative")

    def to_json(self) -> dict:
        return {
            "mean": float(self.mean),
            "std_err": self.std_err,
            "ci95": self.ci95,
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
            "trials": self.trials,
            "opt_value": self.opt_value,
        }


def estimate_ratio(inst: Instance, config: ExperimentConfig) -> RatioStats:
    """Mean ALG/OPT over arrival orders, with OPT the true-signal optimum.

    The algorithm's engine pass and its welfare scorer are picked and
    checked once, before OPT; each order then scores the bundle masks
    its pass takes, and records nothing else.  The mechanism's pass is
    the proxy framework with the match blackbox at sample size
    floor(n/2e): prices do not enter welfare.  The denominator is exact
    (:func:`opt_dispatch`: a matching on unit-demand and separable
    instances); in exact_orders mode the mean is the average over all
    n! permutations (and stays a Fraction when the instance's signals
    are Fractions).
    """
    n, alg, k = inst.n, config.alg, config.k
    unit_demand = all(isinstance(spec, _UnitDemand) for spec in inst.specs)
    match = config.blackbox == "match" or (config.blackbox == "auto" and unit_demand)
    if not unit_demand and (alg == "rei19" or alg == "framework" and match):
        user = "rei19" if alg == "rei19" else "the match blackbox"
        raise ValidationError(f"{user} needs unit-demand (or separable) valuations")
    if alg == "mechanism":
        _require_mechanism(inst)
        alg, match, k = "framework", True, sample_size(n, "n/2e")
    if config.mode == "exact_orders":
        if n > 7:
            raise CapabilityError(f"exact order enumeration needs n <= 7, got n={n}")
        orders = itertools.permutations(range(n))
    else:
        orders = (order.agents for order in _trial_orders(config.seed, config.trials, n))

    runtime = InstanceRuntime(inst)
    score = runtime.true_welfare
    if alg == "framework":
        if k is not None:
            _check_sample_size(k, n - n // 2)
        make = make_sample_then_match_blackbox if match else make_sample_then_greedy_blackbox
        steps = functools.partial(_proxy_steps, inst.specs, inst.signals,
                                  num_items=inst.m, blackbox=make(k))
    else:
        k = sample_size(n, "n/2" if alg == "alg2" else "n/e") if k is None else k
        _check_sample_size(k, n)
        step = runtime.greedy_step
        if alg == "rei19":
            weights = {i: runtime.true_weights(i) for i in range(n)}
            step, score = _match_step({}, weights), _matched_weight(weights)
        steps = functools.partial(_arrive, num_items=inst.m, k=k, decide=step)

    opt_true = opt_dispatch(inst, range(n), lambda i: inst.signals, table=runtime.true_table).value
    opt_value = float_in_range(opt_true, "opt_value: the true-signal optimum")

    ratios = []
    for order in orders:
        alg_value = score({agent: taken for _, agent, _, taken in steps(order) if taken})
        # An all-zero optimum makes every allocation trivially optimal.
        ratios.append(alg_value / opt_true if opt_true > 0 else 1.0)

    mean = left_sum(ratios) / len(ratios)
    as_float = np.array([float(r) for r in ratios])
    std = float(as_float.std(ddof=1)) if len(ratios) > 1 else 0.0
    se = std / math.sqrt(len(ratios))
    return RatioStats(
        mean=mean,
        std_err=se,
        ci95=1.96 * se,
        min_ratio=float(as_float.min()),
        max_ratio=float(as_float.max()),
        trials=len(ratios),
        opt_value=opt_value,
    )


def export_report(
    results: Union[RatioStats, Sequence[RatioStats]],
    path: Union[str, Path],
    fmt: str = "json",
    *,
    config: Optional[ExperimentConfig] = None,
) -> None:
    """Write results to disk; byte-identical output for identical inputs."""
    if isinstance(results, RatioStats):
        results = [results]
    rows = [r.to_json() for r in results]
    fields = ["mean", "std_err", "ci95", "min_ratio", "max_ratio", "trials", "opt_value"]
    try:
        if fmt == "json":
            doc = {
                "library_version": __version__,
                "config": None if config is None else asdict(config),
                "results": rows,
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        elif fmt == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(fields) + "\n")
                for row in rows:
                    fh.write(",".join(repr(row[f]) if isinstance(row[f], float) else str(row[f])
                                      for f in fields) + "\n")
        else:
            raise ValidationError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise ValidationError(f"cannot write report to {path}: {exc}") from exc
