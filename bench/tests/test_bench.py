"""The benchmark's own checks.

    python3 -m pytest bench/tests -q

Workloads are cut down here (two cones, three cheap suites) so the file
runs in about 20 seconds; the code paths are the ones a full run takes.
"""

import contextlib
import io
import json
import os

import pytest

import layers
import run
import workloads
from tracer import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
CHEAP_SUITES = {k: workloads.VERIFY_SUITES[k] for k in ("axioms", "vertical", "vertical.neg")}

# the per-layer metrics the benchmark was specified with, by name
NAMED = (
    "exactlin.rref.calls exactlin.rref.cells exactlin.rref.max_cells exactlin.self_s "
    "exactlin.solve.calls exactlin.solve.self_s exactlin.span_contains.calls "
    "exactlin.span_contains.true_frac exactlin.kron.cells exactlin.cells_per_verdict "
    "weil.limit.calls weil.limit.self_s weil.is_limit_cone.self_s weil.tabled.self_s "
    "weil.tensor.self_s weil.elem_mul.calls weil.elem_mul.self_s "
    "smooth.apply_map.self_s smooth.jet.self_s smooth.mixed_jet.self_s "
    "smooth.check_functor_composition.self_s expr.parse.calls expr.parse.self_s "
    "axioms.check_microlinear.calls axioms.check_microlinear.self_s "
    "axioms.check_weil_exponentiable.self_s fibered.vertical_fiber.calls "
    "fibered.vertical_fiber.self_s fibered.checks.self_s corpus.self_s cli.self_s "
    "reports.render.self_s trace.overhead_frac"
).split() + [f"cli.suite_s.{s}" for s in workloads.VERIFY_SUITES]


@pytest.fixture(scope="module")
def records():
    with open(run.RECORDS) as fh:
        return json.load(fh)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "VERIFY_SUITES", CHEAP_SUITES)
    monkeypatch.setattr(workloads, "pick_cones", lambda rng, seed: [0, 3])


def outputs(name, records):
    return [op.call() for op in workloads.build(name, 7, records)]


def result_lines(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_identical(name, records, small):
    plain = outputs(name, records)
    tracer = Tracer().install()
    try:
        traced = outputs(name, records)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert sum(s.calls for s in tracer.stats.values()) > 0
    # apply_map and mixed_jet return weilkit objects: compare their data
    def plain_data(out):
        if hasattr(out, "coords"):
            return [[workloads.num(c) for c in x.coeffs] for x in out.coords]
        if isinstance(out, tuple):
            return out[0]
        return out

    assert [plain_data(o) for o in plain] == [plain_data(o) for o in traced]


def test_tracer_binds_aliases_and_restores():
    import weilkit
    from weilkit import axioms, exactlin, fibered, weil

    original = exactlin.kernel_basis
    jet = weilkit.jet
    tracer = Tracer().install()
    try:
        for ns in (exactlin, weil, axioms, fibered):
            assert getattr(ns, "kernel_basis").__wrapped__ is original
        assert weilkit.jet.__wrapped__ is jet
        assert weil.WeilElement.__rmul__ is weil.WeilElement.__mul__
    finally:
        tracer.uninstall()
    for ns in (exactlin, weil, axioms, fibered):
        assert getattr(ns, "kernel_basis") is original


def test_missing_callable_is_absent_not_a_crash(monkeypatch):
    from weilkit import exactlin

    monkeypatch.delattr(exactlin, "span_contains")
    tracer = Tracer().install()
    tracer.uninstall()
    assert "exactlin.span_contains" in tracer.absent
    metrics, absent = layers.per_layer(tracer, [], [])
    assert "exactlin.span_contains.calls" in absent
    assert metrics["exactlin.span_contains.calls"]["value"] == 0


def test_corrupted_record_counts_as_failed(records, tmp_path, monkeypatch):
    bad = json.loads(json.dumps(records))
    for key, rec in bad["commands"].items():
        if key.startswith("weil.info:"):
            rec["out"][1] = "0" * 32
    path = tmp_path / "records.json"
    path.write_text(json.dumps(bad))
    monkeypatch.setattr(run, "RECORDS", str(path))
    code, info, result = result_lines(
        ["--workload", "commands", "--seed", "3", "--seconds", "0", "--trace", "0"]
    )
    assert code == 0
    assert result["correct"] is False
    # every weil info op, once
    assert result["failed"] == len(workloads.STRATA["commands"]["weil.info"]["tuning"])
    assert info["failed_frac"] == result["failed"] / result["attempted"]


def test_untouched_records_pass(records):
    code, info, result = result_lines(
        ["--workload", "commands", "--seed", "3", "--seconds", "0", "--trace", "0"]
    )
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_held_out_seeds_draw_from_their_own_universe():
    import random

    for path in (("float",), ("cones",), ("commands", "vertical")):
        groups = workloads._groups(path)
        tuning = {i for g in groups["tuning"] for i in g}
        held_out = {i for g in groups["held_out"] for i in g}
        assert tuning and held_out and not tuning & held_out
        for seed in (1, 100):
            assert set(workloads.draw(random.Random(seed), seed, *path)) <= tuning
        for seed in (101, 10**6):
            assert set(workloads.draw(random.Random(seed), seed, *path)) <= held_out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_per_layer_metric_reported_or_absent(name, small):
    code, info, result = result_lines(
        ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1"]
    )
    assert code == 0 and result["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [n for n, _, _ in layers.PER_LAYER]
    assert set(NAMED) <= set(names)
    assert set(result["metrics"]) == set(names)
    for metric in info["absent"]:
        assert result["metrics"][metric]["value"] == 0
    assert info["missing_callables"] == []
    assert "trace.overhead_frac" not in info["absent"]
