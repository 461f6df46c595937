"""Per-layer spans and counts, recorded from outside the library.

The library's modules import each other's functions by name (for example
``from .offline import solve_from_tables`` in ``secretary``, ``harness``
and ``mechanism``), so a layer is wrapped at every binding site: each
``secalloc`` module attribute that holds the function, or the class
attribute for a method.  A layer the library no longer defines is
reported as absent and its metrics read 0.

Spans (id, parent, operation, layer, start, end) stay in memory while
``keep`` is set and are written out as JSONL at the end.  Aggregates
(calls, self time, counts, parent->child call pairs) are kept for every
call; :meth:`Tracer.take` hands them over and starts afresh, so a caller
can aggregate per round.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path


def _integerize_values(args, kwargs, result):
    return len(result[0])


def _dp_work(args, kwargs, result):
    return len(result.agents) * 3 ** len(result.items)


def _cells(args, kwargs, result):
    return len(result.agents) * len(result.items)


def _assignment_work(args, kwargs, result):
    cost = args[0] if args else kwargs["cost"]
    rows = len(cost)
    cols = len(cost[0]) if rows else 0
    return rows * cols * min(rows, cols)


def _entries(args, kwargs, result):
    return len(result)


def _match_lookups(args, kwargs, result):
    """Post-sample steps with items available: one match-cache lookup each."""
    k = args[3] if len(args) > 3 else kwargs.get("k")
    if k is None:
        k = int(len(result.trace) / math.e)
    return sum(1 for rec in result.trace if rec.t > k and rec.available)


def _mechanism_lookups(args, kwargs, result):
    """Two solver-cache lookups (with and without the agent) per priced step."""
    return 2 * sum(1 for step in result.trace if step.opt_prev is not None)


# (module, qualname, {count name: count function}); counts are computed
# from a call's arguments or result, so they repeat exactly.
LAYERS = (
    ("_util", "integerize", {"values": _integerize_values}),
    ("_util", "trial_rng", {}),
    ("offline", "solve_from_tables", {"dp_work": _dp_work}),
    ("offline", "opt_matching", {"cells": _cells}),
    ("offline", "_min_cost_assignment", {"work": _assignment_work}),
    ("valuations", "bundle_value_table", {"entries": _entries}),
    ("valuations", "mask_signals", {}),
    ("secretary", "InstanceRuntime.step_opt", {}),
    ("secretary", "ArrivalOrder.random", {}),
    ("secretary", "run_sample_then_greedy", {}),
    ("secretary", "run_sample_then_match", {"lookups": _match_lookups}),
    ("secretary", "run_proxy_framework", {}),
    ("secretary", "survival_probability", {}),
    ("mechanism", "run_mechanism", {"lookups": _mechanism_lookups}),
    ("mechanism", "check_epic", {}),
    ("mechanism", "check_random_sampling_bound", {}),
    ("structure_checks", "check_monotone", {}),
    ("structure_checks", "check_subadditive_over_signals", {}),
    ("structure_checks", "check_xos_over_signals", {}),
    ("structure_checks", "check_xos_over_items", {}),
    ("harness", "estimate_ratio", {}),
    ("harness", "generate_instance", {}),
    ("instance_io", "load_instance", {}),
)

# layer -> (child layer whose calls are the misses, count holding the lookups;
# None means every call of the layer is a lookup)
HIT_RATIOS = {
    "secretary.InstanceRuntime.step_opt": ("offline.solve_from_tables", None),
    "secretary.run_sample_then_match": ("offline.opt_matching", "lookups"),
    "mechanism.run_mechanism": ("offline.opt_matching", "lookups"),
}

INTERNAL_COUNTS = {"lookups"}


def layer_name(module: str, qualname: str) -> str:
    """Metric prefix of a layer; metric names must start with a letter, so
    ``_util`` reads ``util``."""
    return f"{module.lstrip('_')}.{qualname}"


def metric_names() -> list:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for module, qualname, counts in LAYERS:
        name = layer_name(module, qualname)
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        out += [(f"{name}.{c}", "count") for c in counts if c not in INTERNAL_COUNTS]
        if name in HIT_RATIOS:
            out.append((f"{name}.hit_ratio", "ratio"))
    out.append(("mechanism.check_epic.audits_per_s", "audits/s"))
    out.append(("trace.round_s", "s"))
    out.append(("trace.untraced_round_s", "s"))
    return out


def _resolve(module: str, qualname: str):
    """(owner, attribute, original, is_classmethod) or None when absent."""
    try:
        owner = importlib.import_module(f"secalloc.{module}")
    except ImportError:
        return None
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    if isinstance(raw, classmethod):
        return owner, attr, raw.__func__, True
    if not callable(raw):
        return None
    return owner, attr, raw, False


def _sites(owner, attr, original):
    """Every namespace attribute bound to ``original``."""
    if inspect.isclass(owner):
        return [(owner, attr)]
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "secalloc" or mod_name.startswith("secalloc.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, name))
    return sites


@contextlib.contextmanager
def patched(module: str, qualname: str, make_wrapper):
    """Replace a layer at every binding site with ``make_wrapper(original)``."""
    found = _resolve(module, qualname)
    if found is None:
        raise LookupError(f"secalloc.{module}.{qualname} is not defined")
    undo = _patch(found, make_wrapper(found[2]))
    try:
        yield found[2]
    finally:
        _restore(undo)


def _patch(found, wrapper):
    owner, attr, original, is_classmethod = found
    undo = []
    for site, name in _sites(owner, attr, original):
        old = inspect.getattr_static(site, name) if inspect.isclass(site) else getattr(site, name)
        undo.append((site, name, old))
        setattr(site, name, classmethod(wrapper) if is_classmethod else wrapper)
    return undo


def _restore(undo):
    for site, name, old in reversed(undo):
        setattr(site, name, old)


class Tracer:
    """Wraps every layer of :data:`LAYERS` while installed."""

    def __init__(self):
        self.names = [layer_name(mod, qual) for mod, qual, _ in LAYERS]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.absent: list = []
        self.spans: list = []
        self.keep = True
        self.op = -1
        self._stack: list = []
        self._next_id = 0
        self._undo: list = []
        self._t0 = time.process_time()
        self._reset()

    def _reset(self):
        size = len(LAYERS)
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self.incl_s = [0.0] * size
        self.counts = [Counter() for _ in range(size)]
        self.pairs: Counter = Counter()

    def install(self):
        self.absent = []
        for idx, (module, qualname, counts) in enumerate(LAYERS):
            found = _resolve(module, qualname)
            if found is None:
                self.absent.append(self.names[idx])
                continue
            self._undo += _patch(found, self._wrap(idx, found[2], counts))

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    def _wrap(self, idx, fn, counts):
        stack = self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, idx, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[3]
                self.incl_s[idx] += dur
                if parent is not None:
                    parent[3] += dur
                    self.pairs[(parent[1], idx)] += 1
                if self.keep:
                    self.spans.append((frame[0], parent[0] if parent else None, self.op,
                                       idx, frame[2], end))
            for name, count in counts.items():
                self.counts[idx][name] += count(args, kwargs, result)
            return result

        return wrapper

    def take(self) -> dict:
        """Aggregates since the last call, as plain comparable data."""
        agg = {
            "calls": list(self.calls),
            "self_s": list(self.self_s),
            "incl_s": list(self.incl_s),
            "counts": [dict(c) for c in self.counts],
            "pairs": dict(self.pairs),
        }
        self._reset()
        return agg

    @staticmethod
    def exact_part(agg: dict) -> tuple:
        """The part of an aggregate that must repeat exactly: counts, not times."""
        return agg["calls"], agg["counts"], sorted(agg["pairs"].items())

    def metrics(self, setup: dict, rounds: list, round_s: float) -> dict:
        """Per-layer metrics for one set-up pass plus one (average) round.

        ``round_s`` is the traced round time, measured as untraced runs measure it.
        """
        r = len(rounds)

        def per_run(key, idx):
            return setup[key][idx] + sum(agg[key][idx] for agg in rounds) / r

        def count(idx, name):
            return setup["counts"][idx].get(name, 0) + rounds[0]["counts"][idx].get(name, 0)

        def pair(parent, child):
            key = (self.index[parent], self.index[child])
            return setup["pairs"].get(key, 0) + rounds[0]["pairs"].get(key, 0)

        out = {}
        for idx, (_, _, counts) in enumerate(LAYERS):
            name = self.names[idx]
            calls = setup["calls"][idx] + rounds[0]["calls"][idx]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (per_run("self_s", idx), "s")
            for c in counts:
                if c not in INTERNAL_COUNTS:
                    out[f"{name}.{c}"] = (count(idx, c), "count")
            if name in HIT_RATIOS:
                child, lookup_count = HIT_RATIOS[name]
                lookups = calls if lookup_count is None else count(idx, lookup_count)
                misses = pair(name, child)
                out[f"{name}.hit_ratio"] = (1 - misses / lookups if lookups else 0.0, "ratio")
        epic = self.index["mechanism.check_epic"]
        epic_s = per_run("incl_s", epic)
        epic_calls = out["mechanism.check_epic.calls"][0]
        out["mechanism.check_epic.audits_per_s"] = (epic_calls / epic_s if epic_s else 0.0, "audits/s")
        out["trace.round_s"] = (round_s, "s")
        return out

    def write_spans(self, path: Path, op_labels: list) -> int:
        """Write the kept spans as JSONL; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, idx, start, end in self.spans:
                fh.write(json.dumps({
                    "span": span_id,
                    "parent": parent,
                    "op": op,
                    "op_label": "setup" if op < 0 else op_labels[op],
                    "layer": self.names[idx],
                    "start_cpu_s": start - self._t0,
                    "end_cpu_s": end - self._t0,
                }) + "\n")
        return len(self.spans)
