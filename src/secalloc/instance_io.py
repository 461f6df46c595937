"""JSON (de)serialization of problem instances.

The on-disk document is::

    {"n": 3, "m": 2, "signals": [...], "family": "xos_linear",
     "agents": [{"type": "xos", "clauses": [[{"item": 0, "weight": W}, ...], ...]},
                {"type": "unit_demand", "weights": [W, ...]},
                {"type": "separable", "own": [W, ...], "others": [W, ...]}]}

with every weight W = {"coeffs": [...], "const": c, "cap": c?}.  The
loader rejects NaN, infinities and negative entries; the machine-readable
schema ships in docs/instance_schema.json.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import ValidationError
from .valuations import (
    Instance,
    SeparableValuation,
    SignalProfile,
    SignalWeight,
    UnitDemandValuation,
    XOSValuation,
    _check_nonneg,
    _unchecked,
)

__all__ = ["load_instance", "save_instance", "instance_to_json", "instance_from_json"]


def _number(x, what: str) -> float:
    """The one check of a loaded number: its type, then finite and nonnegative."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValidationError(f"{what} must be a number, got {x!r}")
    _check_nonneg(x, what)
    try:
        return float(x)
    except OverflowError:  # an int past the float range
        raise ValidationError(f"{what} must be finite, got an integer beyond the float range") from None


def _weight_from_json(doc: dict, what: str) -> SignalWeight:
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise ValidationError(f"{what} must be an object with a 'coeffs' list")
    coeffs = tuple(_number(c, f"{what}.coeffs[{k}]") for k, c in enumerate(doc["coeffs"]))
    const = _number(doc.get("const", 0.0), f"{what}.const")
    cap = doc.get("cap")
    if cap is not None:
        cap = _number(cap, f"{what}.cap")
    return _unchecked(SignalWeight, coeffs=coeffs, const=const, cap=cap)


def _weight_to_json(w: SignalWeight) -> dict:
    doc = {"coeffs": [float(c) for c in w.coeffs], "const": float(w.const)}
    if w.cap is not None:
        doc["cap"] = float(w.cap)
    return doc


def instance_from_json(doc: dict) -> Instance:
    for key in ("n", "m", "signals", "agents"):
        if key not in doc:
            raise ValidationError(f"instance document is missing '{key}'")
    n, m = doc["n"], doc["m"]
    signals = tuple(_number(s, f"signals[{i}]") for i, s in enumerate(doc["signals"]))
    if len(signals) != n:
        raise ValidationError(f"{len(signals)} signals for n={n}")
    if len(doc["agents"]) != n:
        raise ValidationError(f"{len(doc['agents'])} agent specs for n={n}")

    specs = []
    for i, spec_doc in enumerate(doc["agents"]):
        kind = spec_doc.get("type")
        where = f"agents[{i}]"
        if kind == "xos":
            clauses = []
            for c, clause_doc in enumerate(spec_doc.get("clauses", [])):
                clause = {}
                for entry in clause_doc:
                    j = entry.get("item")
                    if not isinstance(j, int) or not (0 <= j < m):
                        raise ValidationError(f"{where}.clauses[{c}]: bad item id {j!r}")
                    clause[j] = _weight_from_json(entry.get("weight"), f"{where}.clauses[{c}]")
                clauses.append(clause)
            specs.append(XOSValuation(clauses, num_items=m))
        elif kind == "unit_demand":
            weights = [_weight_from_json(w, f"{where}.weights[{j}]")
                       for j, w in enumerate(spec_doc.get("weights", []))]
            if len(weights) != m:
                raise ValidationError(f"{where}: expected {m} item weights")
            specs.append(UnitDemandValuation(weights))
        elif kind == "separable":
            own = [_weight_from_json(w, f"{where}.own[{j}]")
                   for j, w in enumerate(spec_doc.get("own", []))]
            others = [_weight_from_json(w, f"{where}.others[{j}]")
                      for j, w in enumerate(spec_doc.get("others", []))]
            if len(own) != m or len(others) != m:
                raise ValidationError(f"{where}: own/others must both list {m} weights")
            specs.append(SeparableValuation(i, own, others))
        else:
            raise ValidationError(f"{where}: unknown type {kind!r}")
    return Instance(specs, _unchecked(SignalProfile, values=signals), family=doc.get("family"))


def instance_to_json(inst: Instance) -> dict:
    agents = []
    for spec in inst.specs:
        if isinstance(spec, XOSValuation):
            agents.append({
                "type": "xos",
                "clauses": [
                    [{"item": j, "weight": _weight_to_json(w)} for j, w in clause]
                    for clause in spec.clauses
                ],
            })
        elif isinstance(spec, SeparableValuation):
            agents.append({
                "type": "separable",
                "own": [_weight_to_json(w) for w in spec.own],
                "others": [_weight_to_json(w) for w in spec.others],
            })
        elif isinstance(spec, UnitDemandValuation):
            agents.append({
                "type": "unit_demand",
                "weights": [_weight_to_json(w) for w in spec.weights],
            })
        else:
            raise ValidationError(f"cannot serialize spec type {type(spec).__name__}")
    doc = {
        "n": inst.n,
        "m": inst.m,
        "signals": [float(s) for s in inst.signals.values],
        "agents": agents,
    }
    if inst.family is not None:
        doc["family"] = inst.family
    return doc


def load_instance(path: Union[str, Path]) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read instance file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ValidationError(f"{path} holds a number that cannot be read: {exc}") from exc
    return instance_from_json(doc)


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    doc = instance_to_json(inst)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write instance file {path}: {exc}") from exc
