"""Spans around the public functions of every `dehn` module, recorded from
outside the program.

`Tracer.install` scans the modules of the package for public functions and
rebinds every name that refers to one of them, in every module namespace
(`check_exactness` as imported by `pipeline`, `invariants` and `cli` alike),
to a wrapper that records a span. A few methods are wrapped by name: the
`FieldMatrix` kernels and `PipelineRun.to_json_dict`. `RatFunc.__init__` is
counted, not spanned. Spans are kept in compact arrays in memory, with the
index of the span that caused them, and written out at the end.

A span's self time is its duration minus that of its child spans. Self time
goes to the layer metric of the span's function (`LAYER_METRICS`); a function
the table does not name adds its self time to the metric of its nearest
named ancestor, so `poly_gcd` inside a matrix product counts as product time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from collections import Counter, defaultdict
from types import ModuleType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Layer metric -> the span names whose self time it sums. Span names are
# `<module>.<qualname>`; `<module>.*` covers every function of the module.
# README.md says which end-to-end metric each should move, and where.
LAYER_METRICS: Dict[str, Tuple[str, ...]] = {
    "algebra.matmul": ("algebra.FieldMatrix.__matmul__",),
    "algebra.rref": ("algebra.FieldMatrix.rref",),
    "algebra.det": ("algebra.FieldMatrix.det",),
    "invariants.propagator": ("invariants.build_propagator",),
    "invariants.torsion": ("invariants.torsion",),
    "invariants.defect": ("invariants.defect", "invariants.defect_terms"),
    "invariants.lescop": ("invariants.check_lescop_relation",),
    "mscomplex.complex": ("mscomplex.build_complex",),
    "mscomplex.exactness": ("mscomplex.check_exactness",),
    "oracle.fox": ("oracle.fox_alexander",),
    "oracle.milnor": ("oracle.milnor_check",),
    "diagram.parse": ("diagram.parse_pd",),
    "diagram.build": ("diagram.build_diagram",),
    "diagram.wirtinger": ("diagram.wirtinger",),
    "dehngraph.labels": ("dehngraph.build_d1", "dehngraph.build_d2"),
    "dehngraph.check_d2": ("dehngraph.check_d2",),
    "dehngraph.graph": ("dehngraph.build_dehn_graph",),
    "pipeline.to_json": ("pipeline.PipelineRun.to_json_dict",),
    "cli.self": ("cli.*",),
}

# Metrics that count calls per knot, from the span of the first name listed.
CALL_METRICS = ("algebra.matmul", "algebra.rref", "algebra.det",
                "invariants.propagator", "mscomplex.exactness")

# Metrics of time inside a function, its children included.
INCLUSIVE_METRICS = {"invariants.propagator_incl_s": "invariants.build_propagator",
                     "mscomplex.exactness_incl_s": "mscomplex.check_exactness"}

# Methods wrapped by name: (module, class, method).
METHODS = (("algebra", "FieldMatrix", "__matmul__"), ("algebra", "FieldMatrix", "rref"),
           ("algebra", "FieldMatrix", "det"), ("pipeline", "PipelineRun", "to_json_dict"))


def package_modules(package: ModuleType) -> List[ModuleType]:
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans of one process; install once, uninstall when done."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.knot = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current_knot = -1
        self.ratfunc_new = 0
        self.counts_ratfunc = False
        self.c1_dim: List[int] = []
        self.g2_degree: List[int] = []
        self.g2_bits: List[int] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- instrumentation -----------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable,
              observe: Optional[Callable[[object], None]] = None) -> Callable:
        nid = self._name_id(name)
        stack, parent, names, knot = self._stack, self.parent, self.name, self.knot
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def span(*args, **kwargs):
            sid = len(starts)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            knot.append(self.current_knot)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return functools.update_wrapper(span, fn)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: ModuleType) -> None:
        modules = package_modules(package)
        by_name = {_short(m.__name__): m for m in modules}
        wrappers: Dict[Callable, Callable] = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{_short(module.__name__)}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, self._observer(name))
        for namespace in [package] + modules:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(namespace, attr, wrappers[obj])
        for module_name, cls_name, method in METHODS:
            cls = getattr(by_name.get(module_name), cls_name, None)
            fn = vars(cls).get(method) if isinstance(cls, type) else None
            if inspect.isfunction(fn):
                self._set(cls, method, self._wrap(f"{module_name}.{cls_name}.{method}", fn))
        ratfunc = getattr(by_name.get("algebra"), "RatFunc", None)
        if isinstance(ratfunc, type) and inspect.isfunction(vars(ratfunc).get("__init__")):
            init = ratfunc.__init__

            def counted_init(obj, *args, **kwargs):
                self.ratfunc_new += 1
                init(obj, *args, **kwargs)

            self._set(ratfunc, "__init__", counted_init)
            self.counts_ratfunc = True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _observer(self, name: str) -> Optional[Callable[[object], None]]:
        if name == "mscomplex.build_complex":
            return self._observe_complex
        if name == "invariants.build_propagator":
            return self._observe_g2
        return None

    def _observe_complex(self, cx) -> None:
        if hasattr(cx, "c1_dim"):
            self.c1_dim.append(cx.c1_dim)

    def _observe_g2(self, propagator) -> None:
        g2 = getattr(propagator, "g2", None)
        if g2 is None:
            return
        degree = bits = 0
        for entry in g2.entries:
            for poly in (entry.num, entry.den):
                degree = max(degree, poly.degree)
                for c in poly.coeffs:
                    bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        self.g2_degree.append(degree)
        self.g2_bits.append(bits)

    # -- analysis --------------------------------------------------------

    def _metric_of(self, name: str) -> Optional[str]:
        module = name.split(".", 1)[0]
        for metric, spans in LAYER_METRICS.items():
            if name in spans or f"{module}.*" in spans:
                return metric
        return None

    def _scale(self, i: int, scales: Sequence[float]) -> float:
        k = self.knot[i]
        return scales[k] if 0 <= k < len(scales) else 1.0

    def self_times(self, scales: Sequence[float] = ()) -> Dict[str, float]:
        """Seconds of self time per layer metric, over all knots; a span of
        knot k is multiplied by scales[k] when given."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        metric_of = [self._metric_of(name) for name in self.names]
        effective: List[str] = [""] * n
        totals: Dict[str, float] = defaultdict(float)
        for i in range(n):
            name_id = self.name[i]
            own = metric_of[name_id]
            if own is None:
                p = self.parent[i]
                own = effective[p] if p >= 0 else self.names[name_id].split(".", 1)[0] + ".other"
            effective[i] = own
            totals[own] += (self.end[i] - self.start[i] - child[i]) * self._scale(i, scales)
        return dict(totals)

    def inclusive(self, name: str, scales: Sequence[float] = ()) -> float:
        """Seconds inside outermost spans of `name`, children included."""
        nid = self._name_ids.get(name)
        total = 0.0
        for i in range(len(self.start)):
            if self.name[i] == nid:
                p, nested = self.parent[i], False
                while p >= 0 and not nested:
                    nested = self.name[p] == nid
                    p = self.parent[p]
                if not nested:
                    total += (self.end[i] - self.start[i]) * self._scale(i, scales)
        return total

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.name)

    def layer_metrics(self, knots: int, scales: Sequence[float] = ()) -> Dict[str, Tuple[float, str]]:
        """Per-knot layer metrics, times multiplied by each knot's scale. A
        metric whose functions were not found in the package is absent; one
        found but never called reads 0. The size figures are maxima over the
        traced knots, absent when unobserved."""
        wrapped = set(self.names)
        present = {m for m in LAYER_METRICS
                   if any(self._metric_of(name) == m for name in wrapped)}
        selfs, calls = self.self_times(scales), self.calls()
        out: Dict[str, Tuple[float, str]] = {}
        for metric in LAYER_METRICS:
            if metric in present:
                out[f"{metric}_s"] = (selfs.get(metric, 0.0) / knots, "s/knot")
        for metric in CALL_METRICS:
            if metric in present:
                span = LAYER_METRICS[metric][0]
                out[f"{metric}_calls"] = (calls.get(span, 0) / knots, "calls/knot")
        for metric, span in INCLUSIVE_METRICS.items():
            if span in wrapped:
                out[metric] = (self.inclusive(span, scales) / knots, "s/knot")
        if self.counts_ratfunc:
            out["algebra.ratfunc_new"] = (self.ratfunc_new / knots, "count/knot")
        if self.c1_dim:
            out["mscomplex.c1_dim"] = (max(self.c1_dim), "count")
        if self.g2_degree:
            out["invariants.g2_max_degree"] = (max(self.g2_degree), "count")
            out["invariants.g2_max_bits"] = (max(self.g2_bits), "bits")
        return out

    def write(self, path: str) -> None:
        """All spans, column-wise, gzip-compressed JSON."""
        data = {"names": self.names, "parent": list(self.parent), "name": list(self.name),
                "knot": list(self.knot), "start": list(self.start), "end": list(self.end)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)
