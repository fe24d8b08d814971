"""Span tracing around the library's public functions, from outside the library.

`Tracer.install()` replaces each traced function by a wrapper in every
`shiftfold` module namespace that holds it (and sets wrapped classmethods on
their class); `uninstall()` puts the originals back.  No source file is
touched.  A wrapper records a span only while an item is open, so calls made
by the benchmark's own checks between items cost one extra call and record
nothing.

A span is (name, start, end, parent span, item, value).  `value` is a count
derived from the call's arguments or result, such as the states of a raw
product or the foldings found.  Self time is a span's duration minus the
time its child spans cover; calls are sequential in one thread, so children
never overlap.

Micro-helpers (`parse_word`, `word_rank`, `all_words`, `Automaton.run` and
`Automaton.step`) are left unwrapped: they run millions of times per run and
a wrapper would dominate what it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function, derive) -- derive maps (args, result) to the span value
TRACED = [
    ("automata", "sync_level", None),
    ("automata", "sync_map", None),
    ("automata", "sync_sequence", None),
    ("automata", "quotient", None),
    ("automata", "core_states", None),
    ("transducers", "product_min", lambda a, r: r.state_count),
    ("transducers", "product_raw", lambda a, r: r.state_count),
    ("transducers", "core", None),
    ("transducers", "weak_minimize", None),
    ("transducers", "canonical_key", None),
    ("transducers", "canonical_rep", None),
    ("transducers", "is_in_hn", None),
    ("transducers", "order", None),
    ("rules", "transducer_to_rule", None),
    ("digraph_aut", "automorphism_from_alphabet_perm", None),
    ("digraph_aut", "check_automorphism", None),
    ("digraph_aut", "enumerate_automorphisms", None),
    ("subgroups", "w_word", None),
    ("subgroups", "subgroup_closure", lambda a, r: len(r.elements)),
    ("subgroups", "subgroup_automaton", None),
    ("decompose", "decompose", lambda a, r: len(r.steps)),
    ("decompose", "decompose_involutions", lambda a, r: len(r.steps)),
    ("decompose", "verify", None),
    ("counting", "congruence_closure", None),
    ("counting", "join_foldings", None),
    ("counting", "enumerate_foldings", lambda a, r: len(r)),
    ("formats", "parse_automaton", lambda a, r: len(a[0])),
    ("formats", "parse_transducer", lambda a, r: len(a[0])),
    ("formats", "parse_rule", lambda a, r: len(a[0])),
    ("formats", "parse_automorphism", lambda a, r: len(a[0])),
    ("formats", "parse_machine", None),
    ("formats", "render_automaton", lambda a, r: len(r)),
    ("formats", "render_transducer", lambda a, r: len(r)),
    ("formats", "render_rule", lambda a, r: len(r)),
    ("formats", "render_automorphism", lambda a, r: len(r)),
    ("cli", "main", None),
]

# classmethods counted without a span: they are too frequent to time
COUNTED = [("automata", "StatePartition", "from_class_of", "automata.partitions_built")]

PARSERS = ("parse_automaton", "parse_transducer", "parse_rule", "parse_automorphism", "parse_machine")
RENDERERS = ("render_automaton", "render_transducer", "render_rule", "render_automorphism")

SPAN_FIELDS = ["name", "start_s", "end_s", "parent", "item", "value"]

# (metric, unit) in the order the benchmark reports them
LAYER_METRICS = [
    ("automata.sync_level.calls", "count"),
    ("automata.sync_map.calls", "count"),
    ("automata.sync_map.self_ms", "ms"),
    ("automata.sync_sequence.calls", "count"),
    ("automata.sync_sequence.self_ms", "ms"),
    ("automata.quotient.calls", "count"),
    ("automata.quotient.self_ms", "ms"),
    ("automata.core_states.self_ms", "ms"),
    ("automata.partitions_built", "count"),
    ("transducers.product_min.calls", "count"),
    ("transducers.product_min.self_ms", "ms"),
    ("transducers.product_raw.self_ms", "ms"),
    ("transducers.product_raw.states_max", "states"),
    ("transducers.min_shrink_ratio", "ratio"),
    ("transducers.core.self_ms", "ms"),
    ("transducers.weak_minimize.self_ms", "ms"),
    ("transducers.canonical_key.calls", "count"),
    ("transducers.canonical_key.self_ms", "ms"),
    ("transducers.canonical_rep.calls", "count"),
    ("transducers.canonical_rep.self_ms", "ms"),
    ("transducers.is_in_hn.self_ms", "ms"),
    ("rules.transducer_to_rule.self_ms", "ms"),
    ("digraph_aut.automorphism_from_alphabet_perm.self_ms", "ms"),
    ("digraph_aut.check_automorphism.calls", "count"),
    ("digraph_aut.check_automorphism.self_ms", "ms"),
    ("subgroups.w_word.self_ms", "ms"),
    ("subgroups.subgroup_closure.self_ms", "ms"),
    ("subgroups.closure_new_ratio", "ratio"),
    ("subgroups.subgroup_automaton.self_ms", "ms"),
    ("decompose.decompose.self_ms", "ms"),
    ("decompose.verify.self_ms", "ms"),
    ("decompose.steps", "count"),
    ("counting.congruence_closure.calls", "count"),
    ("counting.congruence_closure.self_ms", "ms"),
    ("counting.join_foldings.calls", "count"),
    ("counting.lattice_new_ratio", "ratio"),
    ("counting.enumerate_foldings.self_ms", "ms"),
    ("formats.parse.self_ms", "ms"),
    ("formats.render.self_ms", "ms"),
    ("formats.bytes", "bytes"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._item_span = (-1, -1)  # (name id, span index) of the open item
        self._item_start = 0.0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "shiftfold" or name.startswith("shiftfold."))
        }
        for module, func, derive in TRACED:
            original = getattr(modules[f"shiftfold.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, derive)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for module, cls_name, method, counter in COUNTED:
            cls = getattr(modules[f"shiftfold.{module}"], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, classmethod(self._count(counter, original.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn, derive):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.item, None)
            if derive is not None:
                spans[index] = (name_id, start, end, parent, self.item, derive(args, result))
            return result

        return wrapper

    def _count(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(cls, *args, **kwargs):
            if self.item is not None:
                counts[counter] += 1
            return fn(cls, *args, **kwargs)

        return wrapper

    # -- item spans -----------------------------------------------------

    def open_item(self, item: str, kind: str) -> None:
        if f"item.{kind}" not in self.names:
            self.names.append(f"item.{kind}")
        self.item = item
        self._item_span = (self.names.index(f"item.{kind}"), len(self.spans))
        self.spans.append(None)
        self._stack.append(self._item_span[1])
        self._item_start = time.perf_counter()

    def close_item(self) -> None:
        end = time.perf_counter()
        name_id, index = self._item_span
        self._stack.pop()
        self.spans[index] = (name_id, self._item_start, end, -1, self.item, None)
        self.item = None

    # -- derived metrics ------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        names = self.names
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _, _, _) in enumerate(spans):
            name = names[name_id]
            calls[name] += 1
            self_ms[name] += (end - start - child_time[i]) * 1e3

        def ancestor(i: int, target: str) -> bool:
            parent = spans[i][3]
            while parent >= 0:
                if names[spans[parent][0]] == target:
                    return True
                parent = spans[parent][3]
            return False

        def parent_is(i: int, target: str) -> bool:
            parent = spans[i][3]
            return parent >= 0 and names[spans[parent][0]] == target

        raw_max = 0
        min_states = raw_states = 0
        elements = candidates = 0
        foldings = lattice_closures = 0
        steps = 0
        nbytes = 0
        for i, (name_id, _, _, _, _, value) in enumerate(spans):
            name = names[name_id]
            if name == "transducers.product_raw":
                raw_max = max(raw_max, value)
                if parent_is(i, "transducers.product_min"):
                    raw_states += value
            elif name == "transducers.product_min":
                min_states += value
            elif name == "subgroups.subgroup_closure":
                elements += value
            elif name == "transducers.canonical_rep" and parent_is(i, "subgroups.subgroup_closure"):
                candidates += 1
            elif name == "counting.enumerate_foldings":
                foldings += value
            elif name == "counting.congruence_closure" and ancestor(i, "counting.enumerate_foldings"):
                lattice_closures += 1
            elif name.startswith("decompose.decompose"):
                steps += value
            elif name.startswith("formats.") and value is not None:
                nbytes += value

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "automata.partitions_built": self.counts["automata.partitions_built"],
            "transducers.product_raw.states_max": raw_max,
            "transducers.min_shrink_ratio": ratio(min_states, raw_states),
            "subgroups.closure_new_ratio": ratio(elements, candidates),
            "counting.lattice_new_ratio": ratio(foldings, lattice_closures),
            "decompose.steps": steps,
            "formats.bytes": nbytes,
            "decompose.decompose.self_ms": self_ms["decompose.decompose"]
            + self_ms["decompose.decompose_involutions"],
            "formats.parse.self_ms": sum(self_ms[f"formats.{f}"] for f in PARSERS),
            "formats.render.self_ms": sum(self_ms[f"formats.{f}"] for f in RENDERERS),
        }
        for metric, _unit in LAYER_METRICS:
            if metric in out or metric == "trace.overhead_frac":
                continue
            base, _, field = metric.rpartition(".")
            out[metric] = calls[base] if field == "calls" else self_ms[base]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
