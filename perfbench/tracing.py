"""Layer tracing from outside the program, for the traced benchmark run.

`install()` replaces the traced public functions of critnum's modules at
every module attribute through which callers reach them (for example
`critnum.oracle.interval_bits`, `critnum.sumsets.pairwise_bits`,
`critnum.cli.brute_critical`), so a call made by one layer into another
passes through a wrapper that times it.  Nothing under `src/` changes.

Two kinds of wrapped call are recorded:

* structural calls (CLI rows, oracle queries, witness constructions,
  formula calls, `abelian_types`, `lift_preimage`, `Layout` builds) each
  keep one span: name, start, end, parent span and item id;
* the bit-mask kernels (`translate_bits`, `pairwise_bits`, `hfold_bits`,
  `interval_bits`, `subset_sums_bits`, `closure_bits`) run millions of
  times per oracle query, so instead of one span each they are folded into
  their enclosing span as a call count and a total time.  This keeps the
  trace's memory bounded while self time stays exact.

Counters are kept at the same boundaries.  Spans stay in memory and are
written by `write_spans` when the pass ends.  Pool workers forked by the
oracle disable the tracer in the child, so their spans are not collected.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

import critnum.cli
import critnum.formulas
import critnum.groups
import critnum.oracle
import critnum.quotients
import critnum.sumsets
import critnum.witnesses

MODULES = (
    critnum.cli,
    critnum.formulas,
    critnum.groups,
    critnum.oracle,
    critnum.quotients,
    critnum.sumsets,
    critnum.witnesses,
)

SUMSET_KERNELS = ("translate_bits", "pairwise_bits", "hfold_bits", "interval_bits", "subset_sums_bits")
# Expansion kernels whose calls from the oracle are its candidates.
EXPANSIONS = {"sumsets.hfold_bits", "sumsets.interval_bits", "sumsets.subset_sums_bits"}
ORACLE_ENTRIES = ("brute_critical", "brute_critical_witness", "brute_max_sumfree")
WITNESS_BUILDERS = ("hfold_witness", "interval_witness", "best_interval_bound")


def _targets() -> dict:
    """Function object -> (span name, layer, is_kernel)."""
    out = {}
    for name in SUMSET_KERNELS:
        out[getattr(critnum.sumsets, name)] = (f"sumsets.{name}", "sumsets", True)
    out[critnum.quotients.closure_bits] = ("quotients.closure_bits", "quotients", True)
    out[critnum.quotients.lift_preimage] = ("quotients.lift_preimage", "quotients", False)
    for name in ORACLE_ENTRIES:
        out[getattr(critnum.oracle, name)] = (f"oracle.{name}", "oracle", False)
    for name in WITNESS_BUILDERS + ("interval_bound_witness",):
        out[getattr(critnum.witnesses, name)] = (f"witnesses.{name}", "witnesses", False)
    for name, value in vars(critnum.formulas).items():
        if callable(value) and not name.startswith("_") and getattr(value, "__module__", "") == "critnum.formulas":
            if not isinstance(value, type):
                out[value] = (f"formulas.{name}", "formulas", False)
    out[critnum.groups.abelian_types] = ("groups.abelian_types", "groups", False)
    out[critnum.cli.main] = ("cli.main", "cli", False)
    out[critnum.cli._quantity_rows] = ("cli.row", "cli", False)
    return out


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.enabled = True
        self.item = -1
        self.stack: list[list] = []
        self.spans: list = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)  # summed durations per name
        self.busy_s: defaultdict = defaultdict(float)  # outermost time per name
        self.layer_busy_s: defaultdict = defaultdict(float)  # outermost time per layer
        self.layer_self_s: defaultdict = defaultdict(float)
        self._name_depth: Counter = Counter()
        self._layer_depth: Counter = Counter()
        self.candidates = 0
        self.incomplete = 0
        self.generation_tests = 0
        self.queries = 0
        self.rows = 0

    def wrap(self, fn, name: str, layer: str, kernel: bool):
        return (self._wrap_kernel if kernel else self._wrap_span)(fn, name, layer)

    # A frame is [name, layer, child time, span id (-1 for a kernel call),
    # folded kernel calls, folded kernel time].

    def _wrap_kernel(self, fn, name: str, layer: str):
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        calls, total_s = self.calls, self.total_s
        layer_depth, layer_busy_s = self._layer_depth, self.layer_busy_s
        expansion = name in EXPANSIONS
        closure = name == "quotients.closure_bits"

        def traced(*args):
            if not tracer.enabled:
                return fn(*args)
            parent = stack[-1] if stack else None
            frame = [name, layer, 0.0, -1, 0, 0.0]
            stack.append(frame)
            layer_depth[layer] += 1
            start = clock()
            try:
                result = fn(*args)
            finally:
                dur = clock() - start
                stack.pop()
                layer_depth[layer] -= 1
            calls[name] += 1
            total_s[name] += dur
            if not layer_depth[layer]:
                layer_busy_s[layer] += dur
            if parent is not None:
                parent[2] += dur
                if parent[3] >= 0:
                    # A kernel call made directly from a span is folded into it.
                    parent[4] += 1
                    parent[5] += dur
                    if parent[1] == "oracle":
                        if expansion:
                            tracer.candidates += 1
                            if result != args[0].full:
                                tracer.incomplete += 1
                        elif closure:
                            tracer.generation_tests += 1
            return result

        return traced

    def _wrap_span(self, fn, name: str, layer: str):
        tracer = self
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name == "cli.row":
                tracer.item += 1
            parent = stack[-1] if stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [name, layer, 0.0, span_id, 0, 0.0]
            stack.append(frame)
            tracer._name_depth[name] += 1
            tracer._layer_depth[layer] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tracer._close_span(frame, parent, start, end, result)

        return traced

    def _close_span(self, frame, parent, start, end, result) -> None:
        name, layer = frame[0], frame[1]
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self._name_depth[name] -= 1
        if not self._name_depth[name]:
            self.busy_s[name] += dur
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self.layer_busy_s[layer] += dur
        self.layer_self_s[layer] += dur - frame[2]
        if parent is not None:
            parent[2] += dur
        parent_span = next((f[3] for f in reversed(self.stack) if f[3] >= 0), -1)
        self.spans[frame[3]] = (name, start, end, parent_span, self.item, frame[4], frame[5])
        if layer == "oracle" and (parent is None or parent[1] != "oracle"):
            self.queries += 1
        if name == "cli.row" and result is not None:
            self.rows += len(result)

    def metrics(self) -> dict:
        """Per-layer metrics by name, as plain numbers."""
        m = {}

        def per_call(name: str) -> float:
            calls = self.calls[name]
            return self.total_s[name] / calls * 1e6 if calls else 0.0

        for k in SUMSET_KERNELS:
            m[f"sumsets.{k}.calls"] = self.calls[f"sumsets.{k}"]
            m[f"sumsets.{k}.us_per_call"] = per_call(f"sumsets.{k}")
        m["sumsets.busy_s"] = self.layer_busy_s["sumsets"]
        m["sumsets.layout_builds"] = self.calls["sumsets.Layout"]
        m["sumsets.layout_build_s"] = self.busy_s["sumsets.Layout"]
        m["quotients.closure_bits.calls"] = self.calls["quotients.closure_bits"]
        m["quotients.closure_bits.us_per_call"] = per_call("quotients.closure_bits")
        m["quotients.lift_preimage.busy_s"] = self.busy_s["quotients.lift_preimage"]
        oracle_busy = self.layer_busy_s["oracle"]
        m["oracle.queries"] = self.queries
        m["oracle.busy_s"] = oracle_busy
        m["oracle.self_s"] = self.layer_self_s["oracle"]
        m["oracle.candidates"] = self.candidates
        m["oracle.candidates_per_s"] = self.candidates / oracle_busy if oracle_busy else 0.0
        m["oracle.incomplete_ratio"] = self.incomplete / self.candidates if self.candidates else 0.0
        m["oracle.generation_tests"] = self.generation_tests
        for w in WITNESS_BUILDERS:
            m[f"witnesses.{w}.calls"] = self.calls[f"witnesses.{w}"]
            m[f"witnesses.{w}.busy_s"] = self.busy_s[f"witnesses.{w}"]
        m["witnesses.self_s"] = self.layer_self_s["witnesses"]
        m["formulas.calls"] = sum(c for n, c in self.calls.items() if n.startswith("formulas."))
        m["formulas.busy_s"] = self.layer_busy_s["formulas"]
        m["groups.abelian_types.busy_s"] = self.busy_s["groups.abelian_types"]
        m["cli.rows"] = self.rows
        m["cli.self_s"] = self.layer_self_s["cli"]
        return m

    def write_spans(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "item", "kernel_calls", "kernel_s")
        with open(path, "w") as out:
            json.dump({"fields": fields, "spans": self.spans}, out)


def install() -> Tracer:
    """Wrap every traced function at every critnum module attribute."""
    tracer = Tracer()
    wrappers = {fn: tracer.wrap(fn, *spec) for fn, spec in _targets().items()}
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    # Layout is a class; only the sumsets module constructs it.
    critnum.sumsets.Layout = tracer.wrap(critnum.sumsets.Layout, "sumsets.Layout", "sumsets", False)

    def _disable() -> None:
        tracer.enabled = False

    os.register_at_fork(after_in_child=_disable)
    return tracer
