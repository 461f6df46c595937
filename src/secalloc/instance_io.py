"""JSON (de)serialization of problem instances.

The on-disk document is::

    {"n": 3, "m": 2, "signals": [...], "family": "xos_linear",
     "agents": [{"type": "xos", "clauses": [[{"item": 0, "weight": W}, ...], ...]},
                {"type": "unit_demand", "weights": [W, ...]},
                {"type": "separable", "own": [W, ...], "others": [W, ...]}]}

with every weight W = {"coeffs": [...], "const": c, "cap": c?}.  The
loader rejects NaN, infinities and negative entries, and any entry of the
wrong shape or type, with a ValidationError naming its path; the
machine-readable schema ships in docs/instance_schema.json.
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


def _object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ValidationError(f"{what} must be an object, got {x!r}")
    return x


def _array(x, what: str) -> list:
    if not isinstance(x, (list, tuple)):
        raise ValidationError(f"{what} must be an array, got {x!r}")
    return x


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _weight_from_json(doc: dict, what: str) -> SignalWeight:
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise ValidationError(f"{what} must be an object with a 'coeffs' list")
    raw = _array(doc["coeffs"], f"{what}.coeffs")
    coeffs = tuple(_number(c, f"{what}.coeffs[{k}]") for k, c in enumerate(raw))
    const = _number(doc.get("const", 0.0), f"{what}.const")
    cap = doc.get("cap")
    if cap is not None:
        cap = _number(cap, f"{what}.cap")
    return _unchecked(SignalWeight, coeffs=coeffs, const=const, cap=cap)


def _weight_list(spec_doc: dict, key: str, where: str) -> list:
    ws = _array(spec_doc.get(key, []), f"{where}.{key}")
    return [_weight_from_json(w, f"{where}.{key}[{j}]") for j, w in enumerate(ws)]


def _weight_to_json(w: SignalWeight) -> dict:
    doc = {"coeffs": [float(c) for c in w.coeffs], "const": float(w.const)}
    if w.cap is not None:
        doc["cap"] = float(w.cap)
    return doc


def instance_from_json(doc: dict) -> Instance:
    _object(doc, "the instance document")
    for key in ("n", "m", "signals", "agents"):
        if key not in doc:
            raise ValidationError(f"instance document is missing '{key}'")
    n, m = doc["n"], doc["m"]
    for key, count in (("n", n), ("m", m)):
        if not _is_int(count) or count < 1:
            raise ValidationError(f"{key} must be an integer >= 1, got {count!r}")
    signals = tuple(
        _number(s, f"signals[{i}]") for i, s in enumerate(_array(doc["signals"], "signals"))
    )
    if len(signals) != n:
        raise ValidationError(f"{len(signals)} signals for n={n}")
    agents = _array(doc["agents"], "agents")
    if len(agents) != n:
        raise ValidationError(f"{len(agents)} agent specs for n={n}")
    family = doc.get("family")
    if not isinstance(family, (str, type(None))):
        raise ValidationError(f"family must be a string, got {family!r}")

    specs = []
    for i, spec_doc in enumerate(agents):
        where = f"agents[{i}]"
        kind = _object(spec_doc, where).get("type")
        if kind == "xos":
            clauses = []
            for c, clause_doc in enumerate(_array(spec_doc.get("clauses", []), f"{where}.clauses")):
                clause = {}
                for e, entry in enumerate(_array(clause_doc, f"{where}.clauses[{c}]")):
                    j = _object(entry, f"{where}.clauses[{c}][{e}]").get("item")
                    if not (_is_int(j) and 0 <= j < m):
                        raise ValidationError(f"{where}.clauses[{c}]: bad item id {j!r}")
                    clause[j] = _weight_from_json(entry.get("weight"), f"{where}.clauses[{c}]")
                clauses.append(clause)
            specs.append(XOSValuation(clauses, num_items=m))
        elif kind == "unit_demand":
            weights = _weight_list(spec_doc, "weights", where)
            if len(weights) != m:
                raise ValidationError(f"{where}: expected {m} item weights")
            specs.append(UnitDemandValuation(weights))
        elif kind == "separable":
            own = _weight_list(spec_doc, "own", where)
            others = _weight_list(spec_doc, "others", where)
            if len(own) != m or len(others) != m:
                raise ValidationError(f"{where}: own/others must both list {m} weights")
            specs.append(SeparableValuation(i, own, others))
        else:
            raise ValidationError(f"{where}: unknown type {kind!r}")
    return Instance(specs, _unchecked(SignalProfile, values=signals), family=family)


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
