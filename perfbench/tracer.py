"""Span tracing of fpalg's layers, installed from outside the package.

install() replaces every binding of a traced callable: module functions in
every fpalg module that imported them (morita, aalpha and cli keep their own
references to groebner and friends, and the package re-exports them) and in
the caller modules it is given, and methods on the classes that define them.
Nothing under src/ changes.

A span is (name, start, end, parent span, op id).  Spans are kept in memory
in flat arrays and written out by write(); summary() derives the per-layer
numbers from them, where a layer's self time is its span duration minus the
time its child spans cover.
"""

from __future__ import annotations

import copy
import json
import sys
from array import array
from time import perf_counter

# layer name -> [(module, qualified name), ...]
FUNCTIONS = {
    "scalars.apply_automorphism": [("fpalg.scalars", "apply_automorphism")],
    "syntax.parse": [
        ("fpalg.syntax", "parse_presentation"),
        ("fpalg.syntax", "parse_poly"),
        ("fpalg.syntax", "parse_scalar"),
        ("fpalg.syntax", "parse_automorphism"),
    ],
    "presentation.twist": [("fpalg.presentation", "twist")],
    "presentation.canonicalize": [("fpalg.presentation", "canonicalize")],
    "rewrite.groebner": [("fpalg.rewrite", "groebner")],
    "rewrite.reduce_by_entries": [("fpalg.rewrite", "reduce_by_entries")],
    "morita.corner_filtered_dims": [("fpalg.morita", "corner_filtered_dims")],
    "morita.is_full_idempotent": [("fpalg.morita", "is_full_idempotent")],
    "morita.verify_fullness_certificate": [
        ("fpalg.morita", "verify_fullness_certificate")
    ],
    "morita.filtered_dimension": [("fpalg.morita", "filtered_dimension")],
    "aalpha.search_iso_degree2": [("fpalg.aalpha", "search_iso_degree2")],
    "aalpha.decide": [
        ("fpalg.aalpha", "iso_aalpha"),
        ("fpalg.aalpha", "decide_form_congruence"),
        ("fpalg.aalpha", "iso_witness"),
        ("fpalg.aalpha", "verify_iso_witness"),
        ("fpalg.aalpha", "orbit_sample"),
    ],
    "cli.run": [("fpalg.cli", "run")],
}

METHODS = {
    "freealg.ncpoly": [
        ("fpalg.freealg", "NCPoly", m)
        for m in (
            "__add__", "__sub__", "__mul__", "scale", "monic", "mul_word",
            "substitute", "map_coefficients",
        )
    ],
    "rewrite.factor_avoider": [
        ("fpalg.rewrite", "FactorAvoider", m)
        for m in ("__init__", "count", "count_up_to")
    ],
    "rewrite.span_add": [("fpalg.rewrite", "Span", "add")],
}

# Scalar arithmetic is split by field: k = 0 (Q) against k >= 1 (Q(t1..tk)).
SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__")
SCALAR_LAYERS = ("scalars.arith_q", "scalars.arith_t")

LAYERS = SCALAR_LAYERS + tuple(FUNCTIONS) + tuple(METHODS)


def _term_set(poly):
    # Read the term dict directly where it exists: NCPoly.terms() caches a
    # sorted copy on the polynomial, which would change later work.
    terms = getattr(poly, "_terms", None)
    return frozenset(terms.items()) if terms is not None else frozenset(poly.terms())


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names = list(LAYERS)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.op_ids = array("q")
        self.op_id = -1
        self._stack = []
        self._patches = []
        # counts taken at the same boundaries as the spans
        self.groebner_basis_len = 0
        self.groebner_keys = []  # (op id, hash of (presentation, maxdeg))
        self.reduce_terms_in = 0
        self.span_add_grew = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name_id):
        sid = len(self.starts)
        self.name_ids.append(name_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self._stack.append(sid)
        self.starts[sid] = perf_counter()
        return sid

    def _close(self, sid):
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, on_result=None):
        name_id = self._name_id[name]
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_scalar(self, fn):
        q_id, t_id = (self._name_id[n] for n in SCALAR_LAYERS)
        tracer = self

        def traced(a, *args):
            sid = tracer._open(t_id if a.field.num_generators else q_id)
            try:
                return fn(a, *args)
            finally:
                tracer._close(sid)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _on_groebner(self, args, gb):
        P, maxdeg = args[0], args[1]
        key = (P.field, P.generators, tuple(_term_set(r) for r in P.relations), maxdeg)
        self.groebner_basis_len += len(gb.basis)
        self.groebner_keys.append((self.op_id, hash(key)))

    def _on_reduce(self, args, result):
        self.reduce_terms_in += len(_term_set(args[0]))

    def _on_span_add(self, args, grew):
        self.span_add_grew += bool(grew)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, callers=()):
        """Wrap every binding of the traced callables in the loaded fpalg
        modules and in the given caller modules (the benchmark's own, which
        import fpalg functions by name)."""
        hooks = {
            "rewrite.groebner": self._on_groebner,
            "rewrite.reduce_by_entries": self._on_reduce,
            "rewrite.span_add": self._on_span_add,
        }
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "fpalg" or name.startswith("fpalg."))
        ] + list(callers)
        for layer, targets in FUNCTIONS.items():
            for home, attr in targets:
                original = getattr(sys.modules.get(home), attr, None)
                if original is None:
                    continue
                wrapped = self._wrap(original, layer, hooks.get(layer))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        for layer, targets in METHODS.items():
            for home, cls_name, attr in targets:
                cls = getattr(sys.modules.get(home), cls_name, None)
                if cls is None or attr not in vars(cls):
                    continue
                self._patch(cls, attr, self._wrap(vars(cls)[attr], layer, hooks.get(layer)))
        scalar_cls = getattr(sys.modules.get("fpalg.scalars"), "Scalar", None)
        if scalar_cls is not None:
            for attr in SCALAR_OPS:
                if attr in vars(scalar_cls):
                    self._patch(scalar_cls, attr, self._wrap_scalar(vars(scalar_cls)[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def span_count(self):
        return len(self.starts)

    def summary(self):
        """Per-layer totals: calls, self_s and total_s, plus boundary counts."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                child[p] += ends[sid] - starts[sid]
        layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for sid in range(n):
            rec = layers[self.names[self.name_ids[sid]]]
            dur = ends[sid] - starts[sid]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[sid]
        by_op = {}
        for op, key in self.groebner_keys:
            by_op.setdefault(op, set()).add(key)
        return {
            "layers": layers,
            "groebner_basis_len": self.groebner_basis_len,
            "groebner_distinct": sum(len(keys) for keys in by_op.values()),
            "reduce_terms_in": self.reduce_terms_in,
            "span_add_grew": self.span_add_grew,
        }

    def write(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.starts),
            "arrays": [
                ["name_id", "H"], ["start", "d"], ["end", "d"],
                ["parent", "q"], ["op_id", "q"],
            ],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.starts, self.ends, self.parents, self.op_ids):
                arr.tofile(handle)


def merge_summaries(summaries):
    """Sum the summaries of several traced processes."""
    out = None
    for s in summaries:
        if out is None:
            out = copy.deepcopy(s)
            continue
        for name, rec in s["layers"].items():
            mine = out["layers"].setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in ("calls", "self_s", "total_s"):
                mine[key] += rec[key]
        for key in ("groebner_basis_len", "groebner_distinct", "reduce_terms_in", "span_add_grew"):
            out[key] += s[key]
    return out
