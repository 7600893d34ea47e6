"""Span recorder for the traced run.

`Recorder.install()` wraps the public entry points of each lambdapm layer in
every lambdapm module that holds them, the names other modules imported
included, so that p_bohm -> bohm_truncate -> solvability nest as spans.
Nothing under src/ is edited: the wrappers replace module attributes in the
one process that runs a traced pass.

A span is (name, start, end, parent).  Spans are kept in flat arrays and
written out once, at the end.  A layer's self time is the time of its spans
minus the time of their child spans.  Layer counts are taken from returned
values, never from inside the library.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("lamcalc", "contextual", "bohm", "resource", "taylor", "domains",
          "pmetric")

# Self-recursive helpers (key, pkey, rkey, truncate, height, rsize, subst, ...)
# are left out: a span per recursion step would measure the tracer.
ENTRY_POINTS = {
    "lamcalc": ("parse", "solvability", "normalize", "alpha_eq"),
    "contextual": ("p_ctx_bracket", "in_ctx_ball", "genericity_violations",
                   "enumerate_context"),
    "bohm": ("p_bohm", "bohm_truncate", "p_tree", "divergence_level",
             "partial_leq", "truncation_leq", "from_lambda",
             "direct_approximant", "parse_partial"),
    "resource": ("resource_reduce", "r_metric", "r_leq", "bag_leq",
                 "canonical_binders", "is_normal", "parse_resource"),
    "taylor": ("taylor_expand", "taylor_of_term", "isometry_check",
               "hstar_fragments", "commutation_check", "enumeration_isometry",
               "min_source", "box_relation", "faithful_pool", "per_term",
               "enumerate_partial"),
    "domains": ("build_tower", "function_space", "monotone_tables",
                "quantification_decision", "applicative_metric",
                "p_infinity_prefix", "product_metric", "step_function",
                "finite_access_bound", "finitary_closeness_check",
                "way_below"),
    "pmetric": ("check_axioms", "induced_order", "symmetrize", "bound_to_one",
                "in_ball", "weighted_basis_metric", "hausdorff_star",
                "hausdorff_plain"),
}


def _solvability(c, st):
    c["lamcalc.solvability"] += 1
    c["lamcalc.head_steps"] += st.steps
    c["lamcalc.unknown"] += st.is_unknown


def _p_bohm(c, v):
    c["bohm.p_bohm"] += 1
    c["bohm.exact"] += v.is_exact


def _context(c, ctx):
    c["contextual.contexts"] += 1


def _normal_forms(c, nfs):
    c["resource.normal_forms"] += len(nfs)


def _fragment(c, frag):
    c["taylor.fragment_elems"] += len(frag.elements)


def _function_space(c, res):
    c["domains.poset_elems"] += res[0].size


COUNTERS = {
    "lamcalc.solvability": _solvability,
    "bohm.p_bohm": _p_bohm,
    "contextual.enumerate_context": _context,
    "resource.resource_reduce": _normal_forms,
    "taylor.taylor_expand": _fragment,
    "taylor.taylor_of_term": _fragment,
    "domains.function_space": _function_space,
}


class Recorder:
    """Records spans while `active`; outside ops the wrappers pass through."""

    def __init__(self):
        self.active = False
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []  # [span index, layer, seconds of child spans]
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()

    def _open(self, layer: str, name: str) -> list:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        frame = [len(self.start), layer, 0.0]
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float):
        self._stack.pop()
        idx, layer, child = frame
        self.start[idx] = t0
        self.end[idx] = t1
        self.calls[layer] += 1
        self.self_s[layer] += (t1 - t0) - child
        if self._stack:
            self._stack[-1][2] += t1 - t0

    @contextmanager
    def span(self, layer: str, name: str):
        if not self.active:
            yield
            return
        frame = self._open(layer, name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, time.perf_counter())

    def wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        count = COUNTERS.get(name)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._open(layer, name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, t0, perf_counter())
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def _counted_tables(self, fn):
        """Counts yielded monotone tables.  A generator gets no span of its
        own: its time falls to the span that consumes it."""
        counts = self.counts

        def tables(*args, **kwargs):
            for t in fn(*args, **kwargs):
                if self.active:
                    counts["domains.tables"] += 1
                yield t
        return tables

    def install(self):
        """Replace each entry point by its wrapper wherever lambdapm holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "lambdapm" or n.startswith("lambdapm.")]
        swaps = []
        for layer, names in ENTRY_POINTS.items():
            mod = importlib.import_module(f"lambdapm.{layer}")
            for fname in names:
                fn = getattr(mod, fname)
                swaps.append((fn, self.wrap(layer, fname, fn)))
        domains = importlib.import_module("lambdapm.domains")
        fn = domains.iter_monotone_tables
        swaps.append((fn, self._counted_tables(fn)))
        for fn, wrapper in swaps:
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of what was recorded, by name."""
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = float(self.self_s[layer])
        out["lamcalc.head_steps"] = c["lamcalc.head_steps"]
        out["lamcalc.fuel_out_ratio"] = _ratio(c["lamcalc.unknown"],
                                               c["lamcalc.solvability"])
        out["contextual.contexts"] = c["contextual.contexts"]
        out["bohm.exact_ratio"] = _ratio(c["bohm.exact"], c["bohm.p_bohm"])
        out["resource.normal_forms"] = c["resource.normal_forms"]
        out["taylor.fragment_elems"] = c["taylor.fragment_elems"]
        out["domains.tables"] = c["domains.tables"]
        out["domains.poset_elems"] = c["domains.poset_elems"]
        out["pmetric.dist_evals"] = c["pmetric.dist_evals"]
        lookups = c["pmetric.memo_lookups"]
        out["pmetric.memo_hit_ratio"] = _ratio(lookups - c["pmetric.memo_misses"],
                                               lookups)
        return out

    def dump(self, path):
        """Write every span as `id parent name start end` (tab-separated,
        seconds on the perf_counter clock), gzip-compressed."""
        with gzip.open(path, "wt") as f:
            f.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}"
                        f"\t{self.start[i]!r}\t{self.end[i]!r}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
