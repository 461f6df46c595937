"""Instance JSON round-trips and loader validation."""

import json

import pytest

from secalloc import (
    ValidationError,
    eval_valuation,
    generate_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from secalloc.harness import GeneratorParams


@pytest.mark.parametrize("family", ["additive", "xos_capped", "separable_linear", "unit_demand_const"])
def test_round_trip_preserves_values(tmp_path, family):
    inst = generate_instance(GeneratorParams(4, 3, family), seed=9)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert instance_to_json(loaded) == instance_to_json(inst)
    assert loaded.family == family
    for spec_a, spec_b in zip(inst.specs, loaded.specs):
        for mask in range(1 << inst.m):
            bundle = {j for j in range(inst.m) if mask >> j & 1}
            assert eval_valuation(spec_a, bundle, inst.signals) == pytest.approx(
                eval_valuation(spec_b, bundle, loaded.signals), abs=0
            )


def base_doc():
    return {
        "n": 2,
        "m": 1,
        "signals": [0.5, 1.0],
        "agents": [
            {"type": "unit_demand", "weights": [{"coeffs": [1.0, 0.0], "const": 0.1}]},
            {"type": "unit_demand", "weights": [{"coeffs": [0.0, 1.0], "const": 0.2}]},
        ],
    }


def test_loader_rejects_nan_and_negative_entries():
    doc = base_doc()
    doc["signals"][0] = float("nan")
    with pytest.raises(ValidationError, match="finite"):
        instance_from_json(doc)

    doc = base_doc()
    doc["signals"][0] = -1.0
    with pytest.raises(ValidationError, match="nonnegative"):
        instance_from_json(doc)

    doc = base_doc()
    doc["agents"][0]["weights"][0]["coeffs"][0] = -2.0
    with pytest.raises(ValidationError, match="nonnegative"):
        instance_from_json(doc)

    doc = base_doc()
    doc["agents"][0]["weights"][0]["const"] = float("inf")
    with pytest.raises(ValidationError, match="finite"):
        instance_from_json(doc)

    # Each number is checked once, where it is read, so the message names
    # its place in the file.
    doc = instance_to_json(generate_instance(GeneratorParams(3, 1, "separable_linear"), seed=0))
    doc["agents"][1]["others"][0]["coeffs"][2] = -1.0
    with pytest.raises(ValidationError, match=r"^agents\[1\]\.others\[0\]\.coeffs\[2\] .*nonnegative"):
        instance_from_json(doc)


def test_loader_rejects_integers_beyond_the_float_range(tmp_path):
    doc = base_doc()
    doc["signals"][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"^signals\[0\] .*float range"):
        load_instance(path)
    # Past the interpreter's integer-parsing limit the JSON reader itself fails.
    path.write_text(json.dumps(base_doc()).replace("0.5", "1" + "0" * 5000))
    with pytest.raises(ValidationError, match="cannot be read"):
        load_instance(path)


def test_loader_rejects_structural_mismatches():
    doc = base_doc()
    doc["signals"] = [0.5]
    with pytest.raises(ValidationError):
        instance_from_json(doc)

    doc = base_doc()
    doc["agents"][0]["type"] = "fancy"
    with pytest.raises(ValidationError, match="unknown type"):
        instance_from_json(doc)

    doc = base_doc()
    del doc["agents"][0]["weights"][0]
    with pytest.raises(ValidationError):
        instance_from_json(doc)

    doc = base_doc()
    del doc["m"]
    with pytest.raises(ValidationError, match="missing"):
        instance_from_json(doc)


def xos_doc():
    doc = base_doc()
    doc["agents"][1] = {"type": "xos", "clauses": [[{"item": 0, "weight": {"coeffs": [0.0, 1.0]}}]]}
    return doc


@pytest.mark.parametrize("path, value, message", [
    (["agents", 0], 5, r"^agents\[0\] must be an object, got 5"),
    (["agents", 1, "clauses", 0, 0], 3, r"^agents\[1\]\.clauses\[0\]\[0\] must be an object"),
    (["agents", 1, "clauses", 0], 3, r"^agents\[1\]\.clauses\[0\] must be an array"),
    (["agents", 1, "clauses", 0, 0, "item"], False, r"^agents\[1\]\.clauses\[0\]: bad item id False"),
    (["agents", 0, "weights"], 5, r"^agents\[0\]\.weights must be an array"),
    (["agents", 0, "weights", 0, "coeffs"], 3, r"^agents\[0\]\.weights\[0\]\.coeffs must be an array"),
    (["agents"], 5, r"^agents must be an array"),
    (["signals"], 5, r"^signals must be an array, got 5"),
    (["m"], "2", r"^m must be an integer >= 1, got '2'"),
    (["m"], 1.0, r"^m must be an integer >= 1, got 1.0"),
    (["m"], 0, r"^m must be an integer >= 1, got 0"),
    (["n"], True, r"^n must be an integer >= 1, got True"),
    (["family"], [1, 2], r"^family must be a string, got \[1, 2\]"),
])
def test_loader_names_the_path_of_a_malformed_entry(path, value, message):
    doc = xos_doc()
    instance_from_json(doc)  # the unmodified document loads
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ValidationError, match=message):
        instance_from_json(doc)


@pytest.mark.parametrize("doc", [[base_doc()], 5, "instance", None])
def test_loader_rejects_a_non_object_document(doc):
    with pytest.raises(ValidationError, match="^the instance document must be an object"):
        instance_from_json(doc)


def test_load_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_instance(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_instance(bad)


def test_separable_round_trip_keeps_owner_structure(tmp_path):
    inst = generate_instance(GeneratorParams(3, 2, "separable_capped"), seed=1)
    path = tmp_path / "sep.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    for i, spec in enumerate(loaded.specs):
        assert spec.agent == i
        doc = json.loads(path.read_text())
        assert doc["agents"][i]["type"] == "separable"
