"""Per-layer metrics derived from a Tracer and the traced run's op samples.

``PER_LAYER`` lists every metric as (name, unit, compute).  ``compute``
gets a ``View`` and returns a number, or None when the metric is absent on
this run: the callable it reads no longer exists, or the ratio it is has
no denominator here.  Absent metrics are reported as 0 and listed by name.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS
from workloads import VERIFY_SUITES


class View:
    def __init__(self, tracer, traced, untraced):
        self.tr = tracer
        self.traced = traced  # [(kind, seconds, ok, start, end)] of the traced cycle
        self.untraced = untraced  # the same cycle without tracing

    def present(self, keys):
        return not any(k in self.tr.absent for k in keys)


def _calls(*keys):
    return lambda v: v.tr.calls(*keys) if v.present(keys) else None


def _self(*keys):
    return lambda v: v.tr.self_s(*keys) if v.present(keys) else None


def _count(counter, *keys):
    return lambda v: v.tr.counts[counter] if v.present(keys) else None


def _ratio(num, den):
    def compute(v):
        a, b = num(v), den(v)
        return None if a is None or not b else a / b

    return compute


def _layer_self(layer):
    return lambda v: v.tr.layer_self_s(layer) if layer not in v.tr.absent else None


def _layer_calls(layer):
    return lambda v: v.tr.calls(*v.tr.keys(layer)) if layer not in v.tr.absent else None


def _fibered_checks(v):
    if "fibered" in v.tr.absent:
        return None
    keys = v.tr.keys("fibered", lambda n: n.startswith("check_") or n.endswith("_suite"))
    return v.tr.self_s(*keys)


def _suite(name):
    def compute(v):
        times = [s[1] for s in v.traced if s[0] == f"verify.{name}"]
        return sum(times) / len(times) if times else None

    return compute


def _overhead(v):
    """Median over ops of traced / untraced time, minus 1."""
    ratios = [t[1] / u[1] for t, u in zip(v.traced, v.untraced) if u[1] > 0]
    return statistics.median(ratios) - 1.0 if ratios else None


RREF = "exactlin.Matrix.rref"
SOLVES = ("exactlin.solve_unique", "exactlin.solve_affine", "exactlin.solve_matrix")
SPAN = "exactlin.span_contains"
VERDICT = "reports.Verdict"

PER_LAYER = [
    ("exactlin.rref.calls", "count", _calls(RREF)),
    ("exactlin.rref.cells", "count", _count("rref.cells", RREF)),
    ("exactlin.rref.max_cells", "count", _count("rref.max_cells", RREF)),
    ("exactlin.self_s", "s", _layer_self("exactlin")),
    ("exactlin.solve.calls", "count", _calls(*SOLVES)),
    ("exactlin.solve.self_s", "s", _self(*SOLVES)),
    ("exactlin.span_contains.calls", "count", _calls(SPAN)),
    ("exactlin.span_contains.true_frac", "frac", _ratio(_count("span_contains.true", SPAN), _calls(SPAN))),
    ("exactlin.kron.cells", "count", _count("kron.cells", "exactlin.Matrix.kron")),
    (
        "exactlin.cells_per_verdict",
        "cells/verdict",
        _ratio(_count("rref.cells", RREF), _count("verdicts", VERDICT)),
    ),
    ("weil.limit.calls", "count", _calls("weil.limit")),
    ("weil.limit.self_s", "s", _self("weil.limit")),
    ("weil.is_limit_cone.self_s", "s", _self("weil.is_limit_cone")),
    ("weil.tabled.self_s", "s", _self("weil.WeilAlgebra.tabled")),
    ("weil.tensor.self_s", "s", _self("weil.tensor")),
    ("weil.elem_mul.calls", "count", _calls("weil.WeilElement.__mul__")),
    ("weil.elem_mul.self_s", "s", _self("weil.WeilElement.__mul__")),
    ("smooth.apply_map.self_s", "s", _self("smooth.apply_map")),
    ("smooth.jet.self_s", "s", _self("smooth.jet")),
    ("smooth.mixed_jet.self_s", "s", _self("smooth.mixed_jet")),
    ("smooth.check_functor_composition.self_s", "s", _self("smooth.check_functor_composition")),
    ("expr.parse.calls", "count", _calls("expr.parse_map", "expr.parse_expression")),
    ("expr.parse.self_s", "s", _self("expr.parse_map", "expr.parse_expression")),
    ("axioms.check_microlinear.calls", "count", _calls("axioms.check_microlinear")),
    ("axioms.check_microlinear.self_s", "s", _self("axioms.check_microlinear")),
    ("axioms.check_weil_exponentiable.self_s", "s", _self("axioms.check_weil_exponentiable")),
    ("fibered.vertical_fiber.calls", "count", _calls("fibered.vertical_fiber")),
    ("fibered.vertical_fiber.self_s", "s", _self("fibered.vertical_fiber")),
    ("fibered.checks.self_s", "s", _fibered_checks),
    ("corpus.self_s", "s", _layer_self("corpus")),
    ("cli.self_s", "s", _layer_self("cli")),
    ("reports.render.self_s", "s", _self("reports.Report.render")),
]
PER_LAYER += [(f"{layer}.calls", "count", _layer_calls(layer)) for layer in LAYERS]
PER_LAYER += [
    (f"{layer}.self_s", "s", _layer_self(layer))
    for layer in LAYERS
    if f"{layer}.self_s" not in {name for name, _, _ in PER_LAYER}
]
PER_LAYER += [(f"cli.suite_s.{s}", "s", _suite(s)) for s in VERIFY_SUITES]
PER_LAYER += [("trace.overhead_frac", "frac", _overhead)]


def per_layer(tracer, traced, untraced):
    """(metrics in the result-line format, names of absent metrics)."""
    view = View(tracer, traced, untraced)
    metrics, absent = {}, []
    for name, unit, compute in PER_LAYER:
        value = compute(view)
        if value is None:
            absent.append(name)
            value = 0
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
