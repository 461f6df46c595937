"""End-to-end CLI flows: generate, run, check, audit (via subprocess or in-process)."""

import json
import subprocess
import sys

import pytest

from secalloc import GeneratorParams, cli, generate_instance, save_instance

SECRETARY = [sys.executable, "-m", "secalloc.cli"]


def run_cli(*args):
    return subprocess.run(
        SECRETARY + list(args), capture_output=True, text=True, timeout=600
    )


def test_generate_run_check_audit_round_trip(tmp_path):
    inst_path = tmp_path / "inst.json"
    out = run_cli("generate", "--n", "5", "--m", "3", "--family", "separable_capped",
                  "--seed", "3", "--out", str(inst_path))
    assert out.returncode == 0, out.stderr
    assert inst_path.exists()

    report = tmp_path / "report.json"
    out = run_cli("run", "--instance", str(inst_path), "--alg", "mechanism",
                  "--trials", "40", "--seed", "1", "--report", str(report),
                  "--format", "json")
    assert out.returncode == 0, out.stderr
    assert "mean ALG/OPT" in out.stdout
    doc = json.loads(report.read_text())
    assert doc["config"]["alg"] == "mechanism"
    assert len(doc["results"]) == 1

    out = run_cli("check", "--instance", str(inst_path))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "[PASS]" in out.stdout and "[FAIL]" not in out.stdout

    out = run_cli("audit", "--instance", str(inst_path), "--grid-points", "7",
                  "--seed", "2", "--orders", "2")
    assert out.returncode == 0, out.stdout + out.stderr
    first = json.loads(out.stdout.strip().split("\n")[0])
    assert set(first) == {"agent", "truth_utility", "best_deviation",
                          "best_utility", "violation"}


def test_run_exact_orders_flag(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("generate", "--n", "4", "--m", "3", "--family", "xos_linear",
            "--seed", "0", "--out", str(inst_path))
    out = run_cli("run", "--instance", str(inst_path), "--alg", "alg2", "--exact",
                  "--trials", "1")
    assert out.returncode == 0, out.stderr
    assert "24 orders" in out.stdout


def test_check_on_xos_instance(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("generate", "--n", "4", "--m", "3", "--family", "xos_linear",
            "--seed", "5", "--out", str(inst_path))
    out = run_cli("check", "--instance", str(inst_path))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "XOS over signals" in out.stdout
    assert "item survival" in out.stdout


def test_usage_errors_exit_one(tmp_path):
    out = run_cli("generate", "--n", "3", "--m", "2", "--family", "nope",
                  "--out", str(tmp_path / "x.json"))
    assert out.returncode == 1

    out = run_cli("run", "--instance", str(tmp_path / "missing.json"), "--alg", "alg1")
    assert out.returncode == 1
    assert "error" in out.stderr.lower()

    out = run_cli("audit", "--instance", str(tmp_path / "missing.json"))
    assert out.returncode == 1


def test_bad_counts_exit_one(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("generate", "--n", "4", "--m", "2", "--family", "separable_linear",
            "--seed", "1", "--out", str(inst_path))
    out = run_cli("audit", "--instance", str(inst_path), "--grid-points", "1")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "grid_points" in out.stderr
    out = run_cli("run", "--instance", str(inst_path), "--alg", "alg1", "--trials", "0")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "trials" in out.stderr
    out = run_cli("run", "--instance", str(inst_path), "--alg", "mechanism", "--k", "2")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "k does not apply" in out.stderr


@pytest.mark.parametrize("command", ["run", "audit", "check", "generate"])
def test_a_negative_seed_exits_one(tmp_path, command):
    inst_path = tmp_path / "inst.json"
    save_instance(generate_instance(GeneratorParams(4, 2, "separable_linear"), 1), inst_path)
    args = {
        "run": ["--instance", str(inst_path), "--alg", "alg1", "--trials", "5"],
        "audit": ["--instance", str(inst_path)],
        "check": ["--instance", str(inst_path)],
        "generate": ["--n", "4", "--m", "2", "--family", "additive", "--out", str(tmp_path / "g.json")],
    }[command]
    out = run_cli(command, *args, "--seed", "-1")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "seed must be >= 0" in out.stderr
    assert out.stdout == ""  # nothing ran, or was checked, first
    assert not (tmp_path / "g.json").exists()


def test_audit_rejects_fewer_than_one_order(tmp_path):
    inst_path = tmp_path / "inst.json"
    save_instance(generate_instance(GeneratorParams(4, 2, "separable_linear"), 1), inst_path)
    for orders in ("0", "-1"):
        out = run_cli("audit", "--instance", str(inst_path), "--orders", orders)
        assert out.returncode == 1, out.stdout
        assert out.stderr.startswith("error:") and "--orders must be >= 1" in out.stderr
        assert "EPIC holds" not in out.stdout


def test_run_rejects_an_integer_beyond_the_float_range(tmp_path):
    doc = {"n": 1, "m": 1, "signals": [10**400],
           "agents": [{"type": "unit_demand", "weights": [{"coeffs": [1.0]}]}]}
    inst_path = tmp_path / "huge.json"
    inst_path.write_text(json.dumps(doc))
    out = run_cli("run", "--instance", str(inst_path), "--alg", "alg1", "--trials", "2")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "signals[0]" in out.stderr


def test_run_rejects_a_malformed_document(tmp_path):
    doc = {"n": 1, "m": 1, "signals": [0.5], "agents": [5]}
    inst_path = tmp_path / "bad.json"
    inst_path.write_text(json.dumps(doc))
    out = run_cli("run", "--instance", str(inst_path), "--alg", "alg1", "--trials", "2")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "agents[0] must be an object" in out.stderr


def test_run_rejects_a_bundle_value_that_overflows(tmp_path):
    # Every number is finite, but 1e200 * 1e200 overflows to inf.
    weight = {"coeffs": [1e200]}
    doc = {"n": 1, "m": 1, "signals": [1e200],
           "agents": [{"type": "xos", "clauses": [[{"item": 0, "weight": weight}]]}]}
    inst_path = tmp_path / "overflow.json"
    inst_path.write_text(json.dumps(doc))
    out = run_cli("run", "--instance", str(inst_path), "--alg", "alg1", "--trials", "2")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "agent 0, items [0] must be finite" in out.stderr


def test_audit_rejects_non_separable(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("generate", "--n", "4", "--m", "2", "--family", "xos_linear",
            "--seed", "1", "--out", str(inst_path))
    out = run_cli("audit", "--instance", str(inst_path))
    assert out.returncode == 1
    assert "separable" in out.stderr
    out = run_cli("run", "--instance", str(inst_path), "--alg", "framework",
                  "--blackbox", "match", "--trials", "2")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "unit-demand" in out.stderr
    two_agents = tmp_path / "two.json"
    save_instance(generate_instance(GeneratorParams(2, 2, "separable_linear"), 1), two_agents)
    out = run_cli("audit", "--instance", str(two_agents))
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "the mechanism needs n >= 3" in out.stderr


# `secretary check` stdout on three generated float instances, byte for byte.
CHECK_SEPARABLE_CAPPED = """\
[PASS] agent 0 monotone
[PASS] agent 0 subadditive over signals
[PASS] agent 0 XOS over items
[PASS] agent 1 monotone
[PASS] agent 1 subadditive over signals
[PASS] agent 1 XOS over items
[PASS] agent 2 monotone
[PASS] agent 2 subadditive over signals
[PASS] agent 2 XOS over items
[PASS] agent 3 monotone
[PASS] agent 3 subadditive over signals
[PASS] agent 3 XOS over items
[PASS] agent 4 monotone
[PASS] agent 4 subadditive over signals
[PASS] agent 4 XOS over items
[PASS] agent 5 monotone
[PASS] agent 5 subadditive over signals
[PASS] agent 5 XOS over items
[PASS] item survival >= k/t
[PASS] random half-sample proxy optimum >= OPT/4: lhs=5.844819 rhs=2.469730
[PASS] tail harmonic sum bound on 200 random valid sequences
all checks passed
"""

CHECK_SEPARABLE_LINEAR = """\
[PASS] agent 0 monotone
[PASS] agent 0 subadditive over signals
[PASS] agent 0 XOS over signals
[PASS] agent 0 XOS over items
[PASS] agent 1 monotone
[PASS] agent 1 subadditive over signals
[PASS] agent 1 XOS over signals
[PASS] agent 1 XOS over items
[PASS] agent 2 monotone
[PASS] agent 2 subadditive over signals
[PASS] agent 2 XOS over signals
[PASS] agent 2 XOS over items
[PASS] agent 3 monotone
[PASS] agent 3 subadditive over signals
[PASS] agent 3 XOS over signals
[PASS] agent 3 XOS over items
[PASS] agent 4 monotone
[PASS] agent 4 subadditive over signals
[PASS] agent 4 XOS over signals
[PASS] agent 4 XOS over items
[PASS] agent 5 monotone
[PASS] agent 5 subadditive over signals
[PASS] agent 5 XOS over signals
[PASS] agent 5 XOS over items
[PASS] item survival >= k/t
[PASS] random half-sample proxy optimum >= OPT/4: lhs=4.005974 rhs=1.901305
[PASS] tail harmonic sum bound on 200 random valid sequences
all checks passed
"""

CHECK_XOS_LINEAR = """\
[PASS] agent 0 monotone
[PASS] agent 0 subadditive over signals
[PASS] agent 0 XOS over signals
[PASS] agent 0 XOS over items
[PASS] agent 1 monotone
[PASS] agent 1 subadditive over signals
[PASS] agent 1 XOS over signals
[PASS] agent 1 XOS over items
[PASS] agent 2 monotone
[PASS] agent 2 subadditive over signals
[PASS] agent 2 XOS over signals
[PASS] agent 2 XOS over items
[PASS] agent 3 monotone
[PASS] agent 3 subadditive over signals
[PASS] agent 3 XOS over signals
[PASS] agent 3 XOS over items
[PASS] agent 4 monotone
[PASS] agent 4 subadditive over signals
[PASS] agent 4 XOS over signals
[PASS] agent 4 XOS over items
[PASS] item survival >= k/t
[PASS] tail harmonic sum bound on 200 random valid sequences
all checks passed
"""


@pytest.mark.parametrize("family, n, m, seed, expected", [
    ("separable_capped", 6, 4, 1300, CHECK_SEPARABLE_CAPPED),
    ("separable_linear", 6, 4, 1400, CHECK_SEPARABLE_LINEAR),
    ("xos_linear", 5, 4, 1500, CHECK_XOS_LINEAR),
], ids=["separable_capped", "separable_linear", "xos_linear"])
def test_check_output_is_golden(tmp_path, capsys, family, n, m, seed, expected):
    path = tmp_path / "inst.json"
    save_instance(generate_instance(GeneratorParams(n, m, family), seed), path)
    capsys.readouterr()
    assert cli.main(["check", "--instance", str(path), "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == expected
