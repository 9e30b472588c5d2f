"""In-memory span tracer and the hooks that attach it to hidict's layers.

The hooks wrap functions and methods of the ``hidict`` package at run time,
from this directory; no file of the library changes.  Each hook names the
layer span it records and the attribute it replaces, looked up where the
caller looks it up (``oracle_value`` as bound in ``hidict.structures``,
``shi_check`` as bound in ``hidict.cli``).  A hook whose attribute no longer
exists is reported as absent instead of failing, so a refactor of the
library (say, an insert that no longer walks the tree before descending)
leaves the traced run working.

Spans stay in memory.  Every span is folded into an aggregate keyed by
(span, parent span, structure, request kind) holding calls, total time and
self time (total minus the time covered by child spans); the first
``span_cap`` raw spans are also kept so they can be written out at the end.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter_ns

ANY = object()


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.stack = []
        self.agg = {}
        self.spans = []
        self.span_cap = span_cap
        self.dropped = 0
        self.events = Counter()
        self.requests = Counter()
        self.request = 0
        self.structure = ""
        self.kind = ""
        self._next_id = 0

    def begin(self, structure: str, kind: str):
        """Start a request issued by the benchmark: its spans share an id."""
        self.request += 1
        self.structure = structure
        self.kind = kind
        self.requests[structure, kind] += 1

    def enter(self, name: str):
        self._next_id += 1
        frame = [name, self._next_id, 0, perf_counter_ns()]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        t1 = perf_counter_ns()
        stack = self.stack
        stack.pop()
        name, span_id, child, t0 = frame
        dur = t1 - t0
        if stack:
            parent = stack[-1]
            parent[2] += dur
            parent_name, parent_id = parent[0], parent[1]
        else:
            parent_name, parent_id = None, 0
        key = (name, parent_name, self.structure, self.kind)
        entry = self.agg.get(key)
        if entry is None:
            self.agg[key] = [1, dur, dur - child]
        else:
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child
        if len(self.spans) < self.span_cap:
            self.spans.append((self.request, span_id, parent_id, name,
                               self.structure, self.kind, t0, t1))
        else:
            self.dropped += 1

    def parent_name(self):
        return self.stack[-1][0] if self.stack else None

    def total(self, names, parent=ANY, structure=ANY, kind=ANY):
        """(calls, total ns, self ns) summed over matching aggregates."""
        calls = total = own = 0
        for (name, par, struct, knd), (c, t, s) in self.agg.items():
            if name not in names:
                continue
            if parent is not ANY and par not in parent:
                continue
            if structure is not ANY and struct != structure:
                continue
            if kind is not ANY and knd not in kind:
                continue
            calls += c
            total += t
            own += s
        return calls, total, own

    def dump(self, path: str, extra: dict):
        doc = dict(extra)
        doc["aggregates"] = [
            {"span": k[0], "parent": k[1], "structure": k[2], "kind": k[3],
             "calls": v[0], "total_ns": v[1], "self_ns": v[2]}
            for k, v in sorted(self.agg.items(), key=lambda kv: -kv[1][1])
        ]
        doc["spans_dropped"] = self.dropped
        doc["span_fields"] = ["request", "id", "parent", "span", "structure",
                              "kind", "start_ns", "end_ns"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _on_make_structure(tracer, args, kwargs, result):
    tracer.structure = args[0] if args else kwargs.get("name", "")


def _on_search_budgeted(tracer, args, kwargs, result):
    # learned-side comparisons of a paired search that then fell back
    res, exhausted = result
    if exhausted and tracer.parent_name() == "pairing.search":
        tracer.events["pairing.wasted_comparisons"] += res.comparisons


def _on_rebuild(tracer, args, kwargs, result):
    tracer.events["dynamics.key_moves"] += len(args[0])


def _on_shi_check(tracer, args, kwargs, result):
    tracer.events["hiverify.shi_trials"] += result.trials


def _on_whi_check(tracer, args, kwargs, result):
    strategies = args[3] if len(args) > 3 else kwargs.get("strategies", ())
    tracer.events["hiverify.whi_samples"] += result.trials * len(strategies)


# (span name, module, attribute path, return callback)
HOOKS = (
    ("core.oracle", "hidict.structures", "oracle_value", None),
    ("core.oracle", "hidict.structures", "oracle_uniform", None),
    ("structures.rank", "hidict.structures", "ZipZipTree._rank", None),
    ("structures.rank", "hidict.structures", "LTreap._rank", None),
    ("structures.rank", "hidict.structures", "CTreap._rank", None),
    ("structures.contains", "hidict.structures", "_PrecedenceTree.__contains__", None),
    ("structures.insert", "hidict.structures", "_PrecedenceTree.insert", None),
    ("structures.delete", "hidict.structures", "_PrecedenceTree.delete", None),
    ("structures.zip", "hidict.structures", "_PrecedenceTree._zip", None),
    ("structures.search", "hidict.structures", "_PrecedenceTree.search", None),
    ("structures.search_budgeted", "hidict.structures",
     "_PrecedenceTree.search_budgeted", _on_search_budgeted),
    ("structures.predecessor", "hidict.structures", "_PrecedenceTree.predecessor", None),
    ("structures.range", "hidict.structures", "_PrecedenceTree.range_query", None),
    ("structures.fingerprint", "hidict.structures", "_PrecedenceTree.fingerprint", None),
    ("structures.avl.insert", "hidict.structures", "AVLTree.insert", None),
    ("structures.avl.delete", "hidict.structures", "AVLTree.delete", None),
    ("structures.avl.search", "hidict.structures", "AVLTree.search", None),
    ("structures.predecessor", "hidict.structures", "AVLTree.predecessor", None),
    ("structures.range", "hidict.structures", "AVLTree.range_query", None),
    ("structures.fingerprint", "hidict.structures", "AVLTree.fingerprint", None),
    ("thresholding.insert", "hidict.thresholding", "ThresholdedDict.insert", None),
    ("thresholding.delete", "hidict.thresholding", "ThresholdedDict.delete", None),
    ("thresholding.search", "hidict.thresholding", "ThresholdedDict.search", None),
    ("thresholding.search_budgeted", "hidict.thresholding",
     "ThresholdedDict.search_budgeted", _on_search_budgeted),
    ("pairing.insert", "hidict.pairing", "PairedDict.insert", None),
    ("pairing.delete", "hidict.pairing", "PairedDict.delete", None),
    ("pairing.search", "hidict.pairing", "PairedDict.search", None),
    ("dynamics.insert", "hidict.dynamics", "DynamicThresholdDict.insert", None),
    ("dynamics.delete", "hidict.dynamics", "DynamicThresholdDict.delete", None),
    ("dynamics.search", "hidict.dynamics", "DynamicThresholdDict.search", None),
    ("dynamics.rebuild", "hidict.dynamics", "DynamicThresholdDict.rebuild", _on_rebuild),
    ("workloads.assigned_frequencies", "hidict.workloads", "assigned_frequencies", None),
    ("workloads.assigned_frequencies", "hidict.bench", "assigned_frequencies", None),
    ("workloads.sample_queries", "hidict.workloads", "sample_queries", None),
    ("workloads.sample_queries", "hidict.bench", "sample_queries", None),
    ("bench.make_structure", "hidict.bench", "make_structure", _on_make_structure),
    ("bench.run_one", "hidict.bench", "_run_one", None),
    ("bench.run_size", "hidict.bench", "run_size", None),
    ("hiverify.shi_check", "hidict.cli", "shi_check", _on_shi_check),
    ("hiverify.whi_check", "hidict.cli", "whi_check", _on_whi_check),
)


def _wrap(tracer, name, fn, on_return):
    enter, exit_ = tracer.enter, tracer.exit
    if on_return is None:
        def hooked(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
    else:
        def hooked(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            on_return(tracer, args, kwargs, result)
            return result
    hooked.__wrapped__ = fn
    return hooked


def _resolve(module, path):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


class Hooks:
    """Installs every hook on ``tracer``; ``with Hooks(t):`` scopes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent = []
        self._patched = []

    def __enter__(self):
        self.absent = []
        for name, module, path, on_return in HOOKS:
            owner, attr = _resolve(module, path)
            if owner is None:
                self.absent.append("%s:%s" % (module, path))
                continue
            own = not isinstance(owner, type) or attr in owner.__dict__
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(self.tracer, name, original, on_return))
            self._patched.append((owner, attr, original, own))
        return self

    def __exit__(self, *exc):
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()
        return False
