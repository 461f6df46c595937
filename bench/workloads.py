"""The benchmark's workloads: instance shapes, set-up, and one round of operations.

A workload is a fixed list of library calls ("operations") on instances
that the benchmark draws from its ``--seed``.  Every instance is written
with ``save_instance`` and read back with ``load_instance`` during set-up,
as the CLI does, and the library only ever sees the loaded copy.  One
round runs every operation once, in order, each starting after the
previous one returned; a round starts from cold library caches, because
each operation builds its own, so every round does the same work.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import secalloc as sa  # noqa: E402
from secalloc import cli  # noqa: E402


@dataclass(frozen=True)
class Shape:
    """``count`` generated instances of one family and size."""

    key: str
    family: str
    n: int
    m: int
    count: int
    exact: bool = False


@dataclass
class Loaded:
    """One instance after the save/load round trip."""

    seed: int
    path: Path
    inst: object


@dataclass
class Op:
    """One closed-loop library call; ``orders`` counts the arrival orders
    it simulates inside ``estimate_ratio`` (0 for other calls)."""

    label: str
    fn: Callable[[], object]
    orders: int = 0


@dataclass
class Workload:
    name: str
    shapes: tuple
    build_ops: Callable[[dict], list] = field(repr=False)


def instance_seed(seed: int, shape_index: int, i: int) -> int:
    """Seed of the i-th instance of a shape; distinct for every (seed, shape, i)."""
    return seed * 1000 + shape_index * 100 + i


def setup(workload: Workload, seed: int, directory: Path, cpu: list | None = None) -> dict:
    """Generate every instance of the workload and round-trip it through JSON.

    When ``cpu`` is given, the CPU seconds of each instance are appended to it.
    """
    out = {}
    for s_idx, shape in enumerate(workload.shapes):
        loaded = []
        for i in range(shape.count):
            c0 = time.process_time()
            iseed = instance_seed(seed, s_idx, i)
            inst = sa.generate_instance(sa.GeneratorParams(shape.n, shape.m, shape.family), iseed)
            path = directory / f"{shape.key}-{i}.json"
            sa.save_instance(inst, path)
            back = sa.load_instance(path)
            loaded.append(Loaded(iseed, path, back.exact() if shape.exact else back))
            if cpu is not None:
                cpu.append(time.process_time() - c0)
        out[shape.key] = loaded
    return out


def _estimate(label: str, item: Loaded, alg: str, trials: int, **kw) -> Op:
    config = sa.ExperimentConfig(alg, trials=trials, seed=item.seed, **kw)
    return Op(label, lambda: sa.estimate_ratio(item.inst, config), trials)


def _estimate_exact(label: str, item: Loaded, alg: str) -> Op:
    config = sa.ExperimentConfig(alg, trials=1, mode="exact_orders")
    return Op(label, lambda: sa.estimate_ratio(item.inst, config), math.factorial(item.inst.n))


def audit_order(inst, order_seed: int, otrial: int, grid_points: int = 21) -> list:
    """EPIC-audit every priced agent of one random order, as ``secretary audit`` does."""
    order = sa.ArrivalOrder.random(inst.n, np.random.default_rng(np.random.SeedSequence((order_seed, otrial))))
    k_skip = inst.n // 2 + sa.sample_size(inst.n, "n/2e")
    cache: dict = {}
    return [
        sa.check_epic(inst, order, order[pos], grid_points=grid_points, solver_cache=cache)
        for pos in range(k_skip, inst.n)
    ]


def survival_table(inst, k: int) -> dict:
    """Exact item survival after every post-sample step, shared runtime (C3)."""
    runtime = sa.InstanceRuntime(inst)
    return {
        (t, j): sa.survival_probability(inst, j, t, k, "exact", runtime=runtime)
        for t in range(max(k, 1), inst.n)
        for j in range(inst.m)
    }


def secretary_check(path: Path, seed: int) -> tuple:
    """In-process ``secretary check``; returns (exit code, printed text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", "--instance", str(path), "--seed", str(seed)])
    return code, buf.getvalue()


# Trial counts are reduced from the acceptance tests (10 000 per instance)
# so that a round takes about 3 s; more instances per round, rather than
# more trials, keep a round's time steady across seeds.
C_TRIALS = 100
C5_ORDERS = 2
GREEDY_ALG1_TRIALS = 10
GREEDY_FRAMEWORK_TRIALS = 5
LARGE_REI19_TRIALS = 40
LARGE_MECHANISM_TRIALS = 15


def _suite_mix_ops(inp: dict) -> list:
    ops = [_estimate("C1 alg1", it, "alg1", C_TRIALS) for it in inp["C1"]]
    ops += [_estimate("C6 rei19", it, "rei19", C_TRIALS) for it in inp["C6"]]
    ops += [_estimate("C7 mechanism", it, "mechanism", C_TRIALS) for it in inp["C7"]]
    ops += [
        Op("C5 audit", lambda it=it, o=o: audit_order(it.inst, it.seed, o))
        for it in inp["C5"]
        for o in range(C5_ORDERS)
    ]
    return ops


def _greedy_cold_ops(inp: dict) -> list:
    ops = []
    for it in inp["G"]:
        ops.append(_estimate("alg1", it, "alg1", GREEDY_ALG1_TRIALS))
        ops.append(_estimate("framework greedy", it, "framework", GREEDY_FRAMEWORK_TRIALS, blackbox="greedy"))
    return ops


def _matching_large_ops(inp: dict) -> list:
    ops = []
    for it in inp["L"]:
        ops.append(_estimate("rei19", it, "rei19", LARGE_REI19_TRIALS))
        ops.append(_estimate("mechanism", it, "mechanism", LARGE_MECHANISM_TRIALS))
    return ops


def _exact_check_ops(inp: dict) -> list:
    ops = [_estimate_exact("C2 alg2 exact", it, "alg2") for it in inp["C2"]]
    ops += [Op("C3 survival", lambda it=it: survival_table(it.inst, 2)) for it in inp["C3"]]
    ops += [Op("C4 half-sample", lambda it=it: sa.check_random_sampling_bound(it.inst, "exact"))
            for it in inp["C4"]]
    ops += [Op(f"check {key}", lambda it=it: secretary_check(it.path, it.seed))
            for key in ("K-sep-capped", "K-sep-linear", "K-xos-linear")
            for it in inp[key]]
    return ops


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-mix",
            (
                Shape("C1", "xos_capped", 8, 5, 6),
                Shape("C6", "unit_demand_const", 8, 5, 6),
                Shape("C7", "separable_capped", 8, 4, 6),
                Shape("C5", "separable_capped", 6, 4, 6),
            ),
            _suite_mix_ops,
        ),
        Workload(
            "greedy-cold",
            (Shape("G", "xos_capped", 10, 6, 12),),
            _greedy_cold_ops,
        ),
        Workload(
            "matching-large",
            (Shape("L", "separable_capped", 22, 11, 1),),
            _matching_large_ops,
        ),
        Workload(
            "exact-check",
            (
                Shape("C2", "xos_linear", 5, 4, 6, exact=True),
                Shape("C3", "additive", 6, 3, 4, exact=True),
                Shape("C4", "separable_capped", 6, 4, 6, exact=True),
                Shape("K-sep-capped", "separable_capped", 6, 4, 1),
                Shape("K-sep-linear", "separable_linear", 6, 4, 1),
                Shape("K-xos-linear", "xos_linear", 5, 4, 1),
            ),
            _exact_check_ops,
        ),
    )
}


def run_round(ops: list, mark: Callable[[int], None] | None = None) -> tuple:
    """Run every operation once, closed loop.

    Returns (results, failures, CPU seconds of each operation, round wall
    seconds).  ``mark(k)`` is called before operation k starts (the tracer
    tags spans with it).
    """
    results, failures, cpu = [], [], []
    w_round = time.perf_counter()
    for k, op in enumerate(ops):
        if mark:
            mark(k)
        c0 = time.process_time()
        try:
            results.append(op.fn())
        except Exception as exc:  # a failed operation is counted, and the run goes on
            results.append(None)
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        cpu.append(time.process_time() - c0)
    return results, failures, cpu, time.perf_counter() - w_round
