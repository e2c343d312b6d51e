"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers. Modules bind imported names when they load (``engine`` holds its
own ``unify``), so a function is replaced under every module attribute that
refers to it, and a method on its class. Only the outermost call of a
recursive function, such as ``Substitution.apply``, is a span. A span's
self time is its duration minus the time of the spans it encloses.

Statistics are kept in memory; spans of the coarse stages are kept as a
list (id, parent id, name, start, end) and written out by the caller.
"""

from __future__ import annotations

import sys
import time

# (stat name, module, attribute[, class]); a class entry wraps the method
TARGETS = (
    ("terms.unify", "terms", "unify", None),
    ("terms.apply", "terms", "apply", "Substitution"),
    ("terms.rename_apart", "terms", "rename_apart", None),
    ("terms.clauses_for", "terms", "clauses_for", "Program"),
    ("terms.parse", "terms", "parse_program", None),
    ("terms.parse", "terms", "parse_goal", None),
    ("engine.solve", "engine", "run", "Solver"),
    ("engine.builtin", "engine", "evaluate", "BuiltinTable"),
    ("absdom.abstract_unify_with_clause", "absdom",
     "abstract_unify_with_clause", None),
    ("absdom.canonicalize", "absdom", "canonicalize", None),
    ("multi.try_fold", "multi", "try_fold", None),
    ("multi.case_split", "multi", "case_split", None),
    ("policy.select_conjunct", "policy", "select_conjunct", None),
    ("analysis.analyze", "analysis", "analyze", None),
    ("metaint.build_tables", "metaint", "build_tables", None),
    ("metaint.encode", "metaint", "encode_as_logic_program", None),
    ("metaint.mi_run", "metaint", "mi_run", None),
    ("pd.specialize_encoded", "pd", "specialize_encoded", None),
    ("pd.check_closedness", "pd", "check_closedness", None),
    ("synthesis.synthesize", "synthesis", "synthesize", None),
)

# hot inner functions get statistics but no span records
COARSE = {"terms.parse", "engine.solve", "analysis.analyze",
          "metaint.build_tables", "metaint.encode", "metaint.mi_run",
          "pd.specialize_encoded", "pd.check_closedness",
          "synthesis.synthesize"}
MAX_SPANS = 200_000

# a call succeeded when its result is not None (unify, try_fold)
SUCCESS = {"terms.unify", "multi.try_fold"}
# results that carry an inference count
INFERENCES = {"engine.solve", "metaint.mi_run"}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "succeeded", "inferences")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.succeeded = 0
        self.inferences = 0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.spans = []
        self.dropped_spans = 0
        self._children = []          # child seconds of each open span
        self._open_ids = []          # ids of open recorded spans
        self._active = set()         # names with an open span
        self._patches = []           # (owner, attribute, original)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        children = self._children
        open_ids = self._open_ids
        active = self._active
        spans = self.spans
        coarse = name in COARSE
        success = name in SUCCESS
        counts = name in INFERENCES
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name in active:       # inner call of a recursive function
                return fn(*args, **kwargs)
            active.add(name)
            children.append(0.0)
            record = coarse and len(spans) < MAX_SPANS
            if record:
                span_id = len(spans)
                parent = open_ids[-1] if open_ids else None
                spans.append(None)
                open_ids.append(span_id)
            elif coarse:
                self.dropped_spans += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                active.discard(name)
                child = children.pop()
                if children:
                    children[-1] += duration
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - child
                if record:
                    open_ids.pop()
                    spans[span_id] = (span_id, parent, name, start, end)
            if success and result is not None:
                stat.succeeded += 1
            if counts:
                stat.inferences += result.inference_count
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in every loaded ``ccontrol`` module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ccontrol" or n.startswith("ccontrol.")]
        for name, module, attr, cls in TARGETS:
            home = sys.modules[f"ccontrol.{module}"]
            if cls is not None:
                owner = getattr(home, cls)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def as_dict(self):
        """The trace as written to disk: statistics and coarse spans."""
        return {
            "stats": {name: {"calls": s.calls, "total_s": s.total_s,
                             "self_s": s.self_s, "succeeded": s.succeeded,
                             "inferences": s.inferences}
                      for name, s in self.stats.items()},
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                      for i, p, n, a, b in self.spans],
            "dropped_spans": self.dropped_spans,
        }
