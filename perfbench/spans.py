"""In-memory span tracing around chowcalc's public layer functions.

A :class:`Tracer` replaces each traced function by a wrapper that records a
span (name, start, end, parent span, unit id) and, for some names, work
counters.  Wrappers are installed at every place the name is looked up: a
module attribute is replaced in every loaded ``chowcalc`` module that holds
the same object (``projbundle`` imports ``segre_classes`` by name, so
patching ``chern`` alone would miss its calls), and a method is replaced
under every class attribute that aliases it (``__rmul__ = __mul__``).  The
package source is never edited; :meth:`Tracer.uninstall` restores it.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

# (span name, kind, owner, attribute).  kind "module": owner is a module
# name and the attribute a module-level function; kind "class": owner is
# "module:Class" and the attribute a method.
TRACED = (
    ("rings.mul", "class", "chowcalc.rings:GradedElement", "__mul__"),
    ("rings.add", "class", "chowcalc.rings:GradedElement", "__add__"),
    ("rings.substitute", "class", "chowcalc.rings:GradedElement", "substitute"),
    ("chern.todd_universal", "module", "chowcalc.chern", "todd_universal"),
    ("chern.todd_class", "module", "chowcalc.chern", "todd_class"),
    ("chern.segre_classes", "module", "chowcalc.chern", "segre_classes"),
    ("chern.tensor_by_line", "module", "chowcalc.chern", "tensor_by_line"),
    ("projbundle.mul", "class", "chowcalc.projbundle:ProjBundleRing", "mul"),
    ("projbundle.reduce", "class", "chowcalc.projbundle:ProjBundleRing", "reduce"),
    ("projbundle.tau", "class", "chowcalc.projbundle:ProjBundleRing", "tau"),
    ("projbundle.tau_rows", "class", "chowcalc.projbundle:ProjBundleRing", "tau_rows"),
    ("projbundle.pushforward", "class", "chowcalc.projbundle:ProjBundleRing", "pushforward"),
    ("blowup.mul", "class", "chowcalc.blowup:BlowupRing", "mul"),
    ("blowup.exc_push", "class", "chowcalc.blowup:BlowupRing", "exc_push"),
    ("blowup.embedding_validate", "module", "chowcalc.blowup", "embedding_validate"),
    ("flop.context_init", "class", "chowcalc.flop:FlopContext", "__init__"),
    ("report.to_json", "class", "chowcalc.report:Report", "to_json"),
    ("cli.run_suite", "module", "chowcalc.cli", "run_suite"),
)

# Per-layer metrics read from the spans: (metric, span name).  Times are
# reported as shares of the traced unit's wall time: a layer a workload
# never reaches then reads 0 as a ratio, not as a constant time, and the
# shares do not move with the machine's speed.
SELF_SHARES = (
    ("rings.mul.self_share", "rings.mul"),
    ("rings.add.self_share", "rings.add"),
    ("rings.substitute.self_share", "rings.substitute"),
    ("chern.todd_universal.self_share", "chern.todd_universal"),
    ("chern.todd_class.self_share", "chern.todd_class"),
    ("chern.tensor_by_line.self_share", "chern.tensor_by_line"),
    ("projbundle.mul.self_share", "projbundle.mul"),
    ("projbundle.reduce.self_share", "projbundle.reduce"),
    ("projbundle.tau_rows.self_share", "projbundle.tau_rows"),
    ("projbundle.pushforward.self_share", "projbundle.pushforward"),
    ("blowup.mul.self_share", "blowup.mul"),
    ("blowup.exc_push.self_share", "blowup.exc_push"),
    ("blowup.embedding_validate.self_share", "blowup.embedding_validate"),
    ("report.to_json.self_share", "report.to_json"),
    ("cli.run_suite.self_share", "cli.run_suite"),
)
TOTAL_SHARES = (("flop.context_init_share", "flop.context_init"),)
CALL_COUNTS = (
    ("rings.mul.calls", "rings.mul"),
    ("rings.add.calls", "rings.add"),
    ("rings.substitute.calls", "rings.substitute"),
    ("chern.segre_classes.calls", "chern.segre_classes"),
    ("projbundle.mul.calls", "projbundle.mul"),
    ("projbundle.reduce.calls", "projbundle.reduce"),
    ("projbundle.tau.calls", "projbundle.tau"),
    ("blowup.mul.calls", "blowup.mul"),
)


def _resolve(kind: str, owner: str):
    if kind == "module":
        return sys.modules[owner]
    module, cls = owner.split(":")
    return getattr(sys.modules[module], cls)


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []  # current unit: [name, start, end, parent, unit]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.unit = -1
        self.first_unit_spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._tau_keys: set = set()
        self._tau_rings: dict[int, object] = {}

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every name in TRACED wherever chowcalc looks it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from chowcalc.rings import GradedElement

        counters = self.counters

        def count_mul(args, result):
            a, b = args
            if not isinstance(b, GradedElement) or not isinstance(result, GradedElement):
                return  # scaling by a number, or NotImplemented
            counters["rings.mul.term_pairs"] += len(a.terms) * len(b.terms)
            if len(result.terms) > counters["rings.mul.max_terms"]:
                counters["rings.mul.max_terms"] = len(result.terms)
            counters["rings.mul.calls"] += 1

        def count_tau(args, result):
            ring, i, j = args
            # holding the ring keeps its id from being reused within a run
            self._tau_rings[id(ring)] = ring
            self._tau_keys.add((id(ring), i, j))
            counters["projbundle.tau.calls"] += 1

        special = {"rings.mul": count_mul, "projbundle.tau": count_tau}

        def count_call(name):
            key = name + ".calls"

            def count(args, result):
                counters[key] += 1

            return count

        counted = {span for _, span in CALL_COUNTS}
        for name, kind, owner, attr in TRACED:
            target = _resolve(kind, owner)
            original = target.__dict__[attr]
            count = special.get(name) or (count_call(name) if name in counted else None)
            wrapper = self._wrap(name, original, count)
            if kind == "module":
                holders = [
                    m for key, m in list(sys.modules.items())
                    if key.split(".")[0] == "chowcalc" and m is not None
                ]
            else:
                holders = [target]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        self.reset_counters()

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # ------------------------------------------------------------- units

    def reset_counters(self):
        self.counters.clear()
        self.counters.update(
            {metric: 0 for metric, _ in CALL_COUNTS}
            | {"rings.mul.term_pairs": 0, "rings.mul.max_terms": 0}
        )
        self._tau_keys.clear()
        self._tau_rings.clear()

    def begin_unit(self):
        """Start a unit; only the first unit's spans are kept for writing."""
        if self.unit == 0:
            self.first_unit_spans = list(self.spans)
        self.spans.clear()
        self.unit += 1
        self.reset_counters()

    def unit_counts(self) -> dict[str, float]:
        """The deterministic counters of the current unit."""
        counts = dict(self.counters)
        calls = counts["projbundle.tau.calls"]
        counts["projbundle.tau.distinct_ratio"] = (
            len(self._tau_keys) / calls if calls else 0.0
        )
        counts["trace.spans"] = len(self.spans)
        return counts

    def unit_shares(self, elapsed: float) -> dict[str, float]:
        """Self and total span times of the current unit over ``elapsed``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_name: dict[str, float] = defaultdict(float)
        total_by_name: dict[str, float] = defaultdict(float)
        for k, (name, start, end, parent, _) in enumerate(spans):
            self_by_name[name] += (end - start) - child[k]
            total_by_name[name] += end - start
        shares = {metric: self_by_name[name] / elapsed for metric, name in SELF_SHARES}
        for metric, name in TOTAL_SHARES:
            shares[metric] = total_by_name[name] / elapsed
        return shares

    def write(self, path):
        """Write the first unit's spans as gzipped CSV."""
        spans = self.first_unit_spans if self.unit > 0 else self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,unit\n")
            for k, (name, start, end, parent, unit) in enumerate(spans):
                fh.write(f"{k},{name},{start:.9f},{end:.9f},{parent},{unit}\n")
