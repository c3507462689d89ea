"""Outside-in tracing of weilkit: wrap public callables, aggregate spans.

A Tracer replaces each public function of the traced modules, and a few
named methods, by a wrapper that times the call.  Every module namespace
that holds the same function object under some name (``from .exactlin
import kernel_basis`` in ``weil``, the re-exports in ``weilkit/__init__``)
gets the wrapper too, so no alias escapes.  Spans are aggregated in memory
per callable as (calls, total seconds, self seconds), where self time is
the span's duration minus the time its traced children took.  A name the
tracer was asked to wrap but cannot find is recorded in ``absent``.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("exactlin", "weil", "smooth", "expr", "axioms", "fibered", "corpus", "reports", "cli")

# class methods wrapped on their class: (module, "Class.method")
METHODS = (
    ("exactlin", "Matrix.rref"),
    ("exactlin", "Matrix.rank"),
    ("exactlin", "Matrix.kron"),
    ("exactlin", "Matrix.__matmul__"),
    ("weil", "WeilElement.__mul__"),
    ("weil", "WeilAlgebra.tabled"),
    ("reports", "Report.render"),
)

# module-level functions the per-layer metrics name; missing ones are absent
REQUIRED = (
    ("exactlin", "kernel_basis"),
    ("exactlin", "solve_unique"),
    ("exactlin", "solve_affine"),
    ("exactlin", "solve_matrix"),
    ("exactlin", "span_contains"),
    ("weil", "limit"),
    ("weil", "is_limit_cone"),
    ("weil", "tensor"),
    ("smooth", "apply_map"),
    ("smooth", "jet"),
    ("smooth", "mixed_jet"),
    ("smooth", "check_functor_composition"),
    ("expr", "parse_map"),
    ("expr", "parse_expression"),
    ("axioms", "check_microlinear"),
    ("axioms", "check_weil_exponentiable"),
    ("fibered", "vertical_fiber"),
    ("cli", "main"),
)


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Install with ``install()``, read ``stats`` and ``counts``, then
    ``uninstall()`` to put every original back."""

    def __init__(self):
        self.stats = {}  # "layer.qualname" -> Stat
        self.counts = {
            "rref.cells": 0,
            "rref.max_cells": 0,
            "kron.cells": 0,
            "span_contains.true": 0,
            "verdicts": 0,
        }
        self.absent = []
        self._stack = []  # child seconds accumulated per open span
        self._restore = []  # (namespace, attribute, original)
        self._verdict_cls = None

    # ----- installation ------------------------------------------------------

    def _modules(self):
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"weilkit.{layer}")
            except ImportError:
                self.absent.append(layer)
        return mods

    def install(self) -> "Tracer":
        mods = self._modules()
        namespaces = list(mods.values()) + [importlib.import_module("weilkit")]
        reports = mods.get("reports")
        self._verdict_cls = getattr(reports, "Verdict", None)
        if self._verdict_cls is None:
            self.absent.append("reports.Verdict")

        wrapped = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # imported from another layer; bound below
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for layer, name in REQUIRED:
            if layer not in mods or not inspect.isfunction(vars(mods[layer]).get(name)):
                self.absent.append(f"{layer}.{name}")
        # rebind every alias of every wrapped function, in every namespace
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(ns, attr, hit[1])

        for layer, qual in METHODS:
            cls_name, meth = qual.split(".")
            cls = getattr(mods.get(layer), cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                self.absent.append(f"{layer}.{qual}")
                continue
            key = f"{layer}.{qual}"
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self._wrap(key, raw.__func__)))
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, meth, staticmethod(self._wrap(key, raw.__func__)))
                continue
            wrapper = self._wrap(key, raw)
            for attr, value in list(vars(cls).items()):
                if value is raw:  # e.g. __rmul__ = __mul__
                    self._set(cls, attr, wrapper)
        return self

    def _set(self, ns, attr, value):
        self._restore.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    # ----- the wrapper -------------------------------------------------------

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        tracer = self
        hook = _HOOKS.get(key)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(counts, args)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - children
            if type(result) is tracer._verdict_cls:
                counts["verdicts"] += 1
            elif result is True and key == "exactlin.span_contains":
                counts["span_contains.true"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        traced.__doc__ = fn.__doc__
        return traced

    # ----- reading ------------------------------------------------------------

    def calls(self, *keys) -> int:
        return sum(self.stats[k].calls for k in keys if k in self.stats)

    def self_s(self, *keys) -> float:
        return sum(self.stats[k].self for k in keys if k in self.stats)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self for k, s in self.stats.items() if k.startswith(prefix))

    def keys(self, layer: str, predicate=lambda name: True):
        prefix = layer + "."
        return [k for k in self.stats if k.startswith(prefix) and predicate(k[len(prefix):])]


def _rref_cells(counts, args):
    m = args[0]
    cells = m.rows * m.cols
    counts["rref.cells"] += cells
    if cells > counts["rref.max_cells"]:
        counts["rref.max_cells"] = cells


def _kron_cells(counts, args):
    a, b = args[0], args[1]
    counts["kron.cells"] += a.rows * b.rows * a.cols * b.cols


_HOOKS = {
    "exactlin.Matrix.rref": _rref_cells,
    "exactlin.Matrix.kron": _kron_cells,
}
