"""Per-layer tracing of dualkit from outside the package.

A layer is a dualkit module.  ``Tracer.install`` wraps the public functions
listed in ``TRACED`` by rebinding each name in every ``dualkit`` module that
holds it (``from .algebras import generate_vectors`` makes a separate binding
in each importing module), and wraps the per-element methods in ``HOT`` on
their classes.  Nothing inside the package changes.

Each call to a traced function records a span (name, start, end, parent) in
memory.  The hot methods run millions of times per pass, so their calls are
aggregated per parent span (count and total time) instead.  A span's self
time is its duration minus the time its child spans cover; since there is one
thread, children never overlap, and that coverage is the sum of their
durations.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TRACED = {
    "algebras": ("generate_vectors", "algebra_from_vectors", "enumerate_homs",
                 "subuniverses", "direct_power", "relative_congruences"),
    "spaces": ("lspace", "spectrum", "canonical_embedding", "evaluation_map",
               "space_properties"),
    "topology": ("discrete_topology", "topology_from_subbasis"),
    "constrained": ("has_local_extension", "has_global_extension", "ccomp", "cons", "func",
                    "local_to_global_verify", "is_constrained_map", "validate_constrained"),
    "properties": ("check_finite_bp", "congruence_spectrum_antiisomorphism",
                   "jonsson_finite_cover_check", "helly_check", "classify_square_subalgebras"),
    "terms": ("search_nu_function", "term_function", "eval_term"),
    "catalog": ("build",),
    "fileformat": ("parse_algebra", "parse_space", "serialize_space", "serialize_algebra",
                   "export_dot"),
    "cli": ("main",),
}

# per-element methods, (layer, class, method): their calls are aggregated
# per parent span instead of recorded one span each
HOT = (("algebras", "FiniteAlgebra", "apply"),
       ("topology", "FiniteTopology", "subspace"))

# every layer reports <layer>.calls and <layer>.self_s
LAYERS = tuple(TRACED) + ("corpus",)


# counters derived from a traced call: name -> fn(args, kwargs, result) -> amount
COUNTERS = {
    "algebras.generate_vectors": {"algebras.generate_vectors.vectors_out":
                                  lambda a, k, r: len(r)},
    "algebras.enumerate_homs": {"algebras.enumerate_homs.homs_out": lambda a, k, r: len(r)},
    "constrained.ccomp": {"constrained.ccomp.functions_out": lambda a, k, r: len(r)},
    "fileformat.parse_algebra": {"fileformat.bytes_in": lambda a, k, r: len(a[0])},
    "fileformat.parse_space": {"fileformat.bytes_in": lambda a, k, r: len(a[0])},
    "fileformat.serialize_space": {"fileformat.bytes_out": lambda a, k, r: len(r)},
    "fileformat.serialize_algebra": {"fileformat.bytes_out": lambda a, k, r: len(r)},
    "fileformat.export_dot": {"fileformat.bytes_out": lambda a, k, r: len(r)},
    # sampled BP sweeps: separated instances (useful) over draws; dualkit's
    # callers pass `samples` by keyword, and 500 is its default
    "properties.check_finite_bp": {
        "properties.check_finite_bp.draws":
            lambda a, k, r: k.get("samples", 500) if r.strategy == "sampled" else 0,
        "properties.check_finite_bp.useful":
            lambda a, k, r: r.instances if r.strategy == "sampled" else 0,
    },
}


def _dualkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dualkit" or name.startswith("dualkit."))]


class Tracer:
    """Spans and aggregates of one traced pass; install, run, uninstall."""

    def __init__(self):
        # a span is [name, start, end, parent index, child coverage]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (parent index, name) -> [calls, seconds, self seconds] for HOT methods
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # the child-time cell of the innermost running HOT call, if any: a
        # call nested in it reports its time there instead of to a span
        self._frame: list = [None]
        self.counters: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    # --- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans, stack, frame, clock = self.spans, self.stack, self._frame, time.perf_counter
        counters = COUNTERS.get(name, {})
        totals = self.counters

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = frame[0]
            frame[0] = None
            record = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                frame[0] = outer
                if outer is not None:
                    outer[0] += end - start
                elif parent >= 0:
                    spans[parent][4] += end - start
            for counter, amount in counters.items():
                totals[counter] += amount(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _aggregate_wrapper(self, fn, name):
        spans, stack, frame, clock = self.spans, self.stack, self._frame, time.perf_counter
        aggregates = self.aggregates

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = frame[0]
            children = frame[0] = [0.0]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frame[0] = outer
                cell = aggregates[(parent, name)]
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - children[0]
                if outer is not None:
                    outer[0] += elapsed
                elif parent >= 0:
                    spans[parent][4] += elapsed

        traced.__wrapped__ = fn
        return traced

    def _constructed_wrapper(self, fn, counter):
        totals = self.counters

        def traced(*args, **kwargs):
            totals[counter] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # --- installation -----------------------------------------------------------

    def _rebind(self, original, wrapper):
        for module in _dualkit_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, corpus_criteria=()):
        """Wrap everything; returns the criteria wrapped as corpus spans."""
        for layer, names in TRACED.items():
            module = sys.modules["dualkit." + layer]
            for fn_name in names:
                original = getattr(module, fn_name)
                self._rebind(original, self._span_wrapper(original, "%s.%s" % (layer, fn_name)))
        for layer, cls_name, method in HOT:
            cls = getattr(sys.modules["dualkit." + layer], cls_name)
            self._patch(cls, method, self._aggregate_wrapper(
                cls.__dict__[method], "%s.%s.%s" % (layer, cls_name, method)))
        topology_cls = sys.modules["dualkit.topology"].FiniteTopology
        self._patch(topology_cls, "__post_init__", self._constructed_wrapper(
            topology_cls.__dict__["__post_init__"], "topology.FiniteTopology.constructed"))
        return [(number, self._span_wrapper(fn, "corpus.criterion_%d" % number))
                for number, fn in corpus_criteria]

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------------

    def summary(self):
        """Per-function and per-layer calls, times and counters."""
        calls: dict[str, int] = defaultdict(int)
        seconds: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, _, child in self.spans:
            calls[name] += 1
            seconds[name] += end - start
            self_s[name] += end - start - child
        for (_, name), (count, elapsed, own) in self.aggregates.items():
            calls[name] += count
            seconds[name] += elapsed
            self_s[name] += own
        out: dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[prefix + "calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
            out[prefix + "self_s"] = sum(v for k, v in self_s.items() if k.startswith(prefix))
        for name in sorted(calls):
            out[name + ".calls"] = calls[name]
            out[name + ".s"] = seconds[name]
        out.update(self.counters)
        return out, sum(self_s.values())

    def write(self, path):
        """Spans and aggregates as JSON, for inspection after the run."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"span_fields": ["name", "start", "end", "parent", "child_s"],
                       "spans": self.spans,
                       "aggregate_fields": ["parent", "name", "calls", "s", "self_s"],
                       "aggregates": [[parent, name] + cell for (parent, name), cell
                                      in sorted(self.aggregates.items())]}, handle)
