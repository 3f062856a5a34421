"""Per-layer spans for the traced run, recorded from the benchmark's side.

``install`` swaps each public entry point of a layer for a wrapper in every
``ordbool`` module (and module-level dispatch table) that binds it, so the
callers inside the program reach the wrapper.  ``Poset.orth_of`` is wrapped
on the class.  Nothing is patched unless the traced run asks for it, and
``uninstall`` puts the originals back.

Each wrapper records a span: its layer, start, end, and the span that was
open when it began (its parent).  Spans are kept in flat arrays for one op
at a time, then folded: a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# Public entry point -> layer.  ``builders`` only generates inputs, so its own
# bindings (random_poset building its poset) stay unwrapped.
LAYERS = {
    "ordbool.textio.parse_poset_text": "textio.parse",
    "ordbool.poset.build_poset": "poset.build",
    "ordbool.poset.Poset.orth_of": "poset.orth",
    "ordbool.poset.extremes": "poset.refine",
    "ordbool.poset.extremes_by_height": "poset.refine",
    "ordbool.ops.set_meet": "ops.meet",
    "ordbool.ops.meet_all": "ops.meet",
    "ordbool.ops.set_join": "ops.join",
    "ordbool.ops.join_all": "ops.join",
    "ordbool.ops.neg_set": "ops.neg",
    "ordbool.ops.minus": "ops.neg",
    "ordbool.ops.set_minus": "ops.neg",
    "ordbool.ops.alt_meet": "ops.alt",
    "ordbool.ops.alt_join": "ops.alt",
    "ordbool.ops.alt_neg1": "ops.alt",
    "ordbool.signed.signed_meet_of": "signed",
    "ordbool.signed.signed_join_of": "signed",
    "ordbool.signed.signed_neg_of": "signed",
    "ordbool.signed.signed_meet": "signed",
    "ordbool.signed.signed_join": "signed",
    "ordbool.signed.signed_neg": "signed",
    "ordbool.signed.signed_height": "signed",
    "ordbool.measure.ht_of_set": "measure",
    "ordbool.measure.prob_max": "measure",
    "ordbool.measure.mu": "measure",
    "ordbool.measure.prob_sum": "measure",
    "ordbool.measure.prob_signed": "measure",
    "ordbool.measure.indep_product": "measure",
    "ordbool.measure.indep_threshold": "measure",
    "ordbool.exprs.parse_expr": "exprs.parse",
    "ordbool.exprs.eval_expr": "exprs.eval",
    "ordbool.exprs.format_value": "exprs.format",
    "ordbool.oracle.law_check": "oracle.law",
    "ordbool.oracle.differential_check": "oracle.diff",
    "ordbool.oracle.run_query": "oracle.main",
    "ordbool.oracle.naive_eval": "oracle.naive",
    "ordbool.cli.run_command": "cli",
}

UNWRAPPED_MODULES = ("ordbool.builders",)


def _count_ops(counts: Counter, args, result) -> None:
    counts["ops.calls"] += 1
    counts["ops.result_elems"] += len(result)


def _count_pairs(counts: Counter, args, result) -> None:
    _count_ops(counts, args, result)
    counts["ops.pairs"] += len(args[1]) * len(args[2])


def _count_build(counts: Counter, args, result) -> None:
    counts["poset.build_calls"] += 1
    counts["poset.elems_built"] += len(result)


def _counter(key: str):
    def count(counts: Counter, args, result) -> None:
        counts[key] += 1
    return count


def _count_report(key: str):
    def count(counts: Counter, args, result) -> None:
        counts[key] += result.cases
    return count


COUNTERS = {
    "ordbool.ops.set_meet": _count_pairs,
    "ordbool.ops.set_join": _count_pairs,
    "ordbool.poset.build_poset": _count_build,
    "ordbool.poset.Poset.orth_of": _counter("poset.orth_calls"),
    "ordbool.poset.extremes": _counter("poset.refine_calls"),
    "ordbool.poset.extremes_by_height": _counter("poset.refine_calls"),
    "ordbool.exprs.eval_expr": _counter("exprs.nodes"),
    "ordbool.oracle.law_check": _count_report("oracle.law_cases"),
    "ordbool.oracle.differential_check": _count_report("oracle.diff_cases"),
}
for _path, _layer in LAYERS.items():
    if _layer.startswith("ops.") and _path not in COUNTERS:
        COUNTERS[_path] = _count_ops
    elif _layer in ("signed", "measure") and _path not in COUNTERS:
        COUNTERS[_path] = _counter(_layer + ".calls")


class Tracer:
    """Span recorder; self times and counts accumulate per layer."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._reset_spans()

    def _reset_spans(self) -> None:
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self._layer_ids[name]

    def begin(self, layer: int) -> int:
        span = len(self.span_start)
        self.span_layer.append(layer)
        self.span_parent.append(self._open[-1])
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._open.append(span)
        return span

    def end(self, span: int) -> None:
        self.span_end[span] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        layer = self.layer_id(name)
        counts = self.counts

        def traced(*args, **kwargs):
            span = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def fold(self) -> None:
        """Fold the recorded spans (all closed) into per-layer self times."""
        n = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        for i in range(n):
            self.self_s[self.layer_names[self.span_layer[i]]] += durations[i] - child[i]
        self._reset_spans()


def _resolve(path: str):
    module_name, _, attr = path.rpartition(".")
    if module_name.endswith(".Poset"):
        owner = getattr(importlib.import_module(module_name.rpartition(".")[0]), "Poset")
        return owner, attr
    return importlib.import_module(module_name), attr


def install(tracer: Tracer) -> list:
    """Wrap every binding of each traced entry point; returns the undo list."""
    originals = {}
    undo = []
    for path, layer in LAYERS.items():
        owner, attr = _resolve(path)
        fn = owner.__dict__[attr]
        wrapper = tracer.wrap(layer, fn, COUNTERS.get(path))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, fn))
        else:
            originals[id(fn)] = (fn, wrapper)
    return undo + rebind(originals)


def rebind(originals: dict) -> list:
    """Point every module binding and module-level dict entry holding one of
    ``originals`` (id -> (function, replacement)) at its replacement."""
    undo = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("ordbool") or name in UNWRAPPED_MODULES or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    hit = originals.get(id(entry))
                    if hit is not None and hit[0] is entry:
                        value[key] = hit[1]
                        undo.append((value, key, entry))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)
