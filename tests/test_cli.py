"""Command-line surface: output shapes, determinism, exit codes."""

import contextlib
import gc
import hashlib
import io
import json
import math
import pathlib
import re
import runpy
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilkit import cli
from weilkit.cli import main


def run(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out = capsys.readouterr()
    return code, out.out, out.err


# ----- jet ----------------------------------------------------------------------


def test_jet_square_frozen(capsys):
    code, out, _ = run(capsys, "jet", "u^2", "--at", "3", "--order", "2")
    assert code == 0
    assert out.splitlines() == [
        "jet of u^2 at (3), order 2",
        "1: 9",
        "du: 6",
        "du^2: 1",
    ]


def test_jet_of_a_constant(capsys):
    code, out, _ = run(capsys, "jet", "1", "--at", "0", "--order", "3")
    assert code == 0
    values = [line.split(": ")[1] for line in out.splitlines()[1:]]
    assert values == ["1", "0", "0", "0"]


def test_mixed_jet_coefficient(capsys):
    code, out, _ = run(capsys, "jet", "u*v", "--at", "1,2", "--mixed")
    assert code == 0
    assert "du*dv: 1" in out.splitlines()


def test_jet_float_mode(capsys):
    code, out, _ = run(
        capsys, "jet", "sin(u)", "--at", "0.5", "--order", "1", "--mode", "float"
    )
    assert code == 0
    value = float(out.splitlines()[1].split(": ")[1])
    assert abs(value - math.sin(0.5)) < 1e-12


def test_float_reciprocal_prints_no_negative_zero(capsys):
    # x^-1 keeps its one product 1*(1/x), which turns the -0.0 of the
    # inverse series into 0.0
    code, out, _ = run(
        capsys, "jet", "x^-1", "--at=-2,1", "--mixed", "--order", "1", "--mode", "float"
    )
    assert code == 0
    assert out.splitlines() == [
        "mixed jet of x^-1 at (-2.0, 1.0), order 1 in each input",
        "1: -0.5",
        "dx: -0.25",
        "dx2: 0.0",
        "dx*dx2: 0.0",
    ]


@pytest.mark.parametrize(
    "expr, at, order, message",
    [
        ("exp(u)", "1000", "2", "exp() overflows a float at 1000.0: exp(u)"),
        ("u^2000", "3", "1", "the float result inf is not finite"),
        ("u^2000 - u^2000", "3", "1", "the float result nan is not finite"),
    ],
)
def test_float_overflow_is_refused_frozen(capsys, expr, at, order, message):
    code, out, err = run(
        capsys, "jet", expr, "--at", at, "--mode", "float", "--order", order
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("at", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_float_points_are_bad_values(capsys, at):
    code, out, err = run(capsys, "jet", "u", f"--at={at}", "--mode", "float")
    assert (code, out, err) == (2, "", f"error: bad value {at!r} in the --at list\n")


def test_python_dash_m_runs_the_command_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["weilkit", "jet", "u^2", "--at", "3", "--order", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("weilkit", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines() == ["jet of u^2 at (3), order 1", "1: 9", "du: 6"]


def test_jet_needs_float_mode_for_calls(capsys):
    code, _, err = run(capsys, "jet", "sin(u)", "--at", "0.5")
    assert code == 1
    assert "float mode" in err


def test_jet_rejects_malformed_expressions(capsys):
    code, _, err = run(capsys, "jet", "u +", "--at", "1")
    assert code == 2
    assert err.startswith("error:")


def test_jet_rejects_too_few_values(capsys):
    code, _, _ = run(capsys, "jet", "u*v", "--at", "1", "--mixed")
    assert code == 2


def test_jet_division_by_zero_is_an_evaluation_failure(capsys):
    code, _, err = run(capsys, "jet", "1/u", "--at", "0")
    assert code == 1
    assert err.startswith("error:")


# ----- weil ---------------------------------------------------------------------


def test_weil_info_scalars(capsys):
    code, out, _ = run(capsys, "weil", "info", "Q[]/()")
    assert code == 0
    assert "dimension: 1" in out


def test_weil_info_non_nilpotent_names_the_generator(capsys):
    code, _, err = run(capsys, "weil", "info", "Q[x,y]/(x^2)")
    assert code == 1
    assert "'y'" in err


def test_weil_tensor_frozen(capsys):
    code, out, _ = run(capsys, "weil", "tensor", "Q[x]/(x^2)", "Q[y]/(y^2)")
    assert code == 0
    assert "dimension: 4" in out
    assert "basis: 1, x, y, x*y" in out


def test_weil_equalizer_of_equal_maps_is_everything(capsys):
    code, out, _ = run(
        capsys,
        "weil",
        "equalizer",
        "Q[x]/(x^2)",
        "Q[y]/(y^3)",
        "x -> y^2",
        "x -> y^2",
    )
    assert code == 0
    lines = out.splitlines()
    assert "dimension: 2" in lines
    assert "member: 1" in lines and "member: x" in lines


def test_weil_equalizer_rejects_bad_images(capsys):
    code, _, err = run(
        capsys,
        "weil",
        "equalizer",
        "Q[x]/(x^2)",
        "Q[y]/(y^3)",
        "x -> y",
        "x -> y^2",
    )
    assert code == 1
    assert "error:" in err


def test_weil_limit_of_cospan(capsys):
    code, out, _ = run(
        capsys,
        "weil",
        "limit",
        "Q[x]/(x^2)",
        "Q[z]/(z^2)",
        "Q[y]/(y^2)",
        "--arrow",
        "0 1 x -> z",
        "--arrow",
        "2 1 y -> z",
    )
    assert code == 0
    # both arrows are isomorphisms, so the pullback is the diagonal line
    assert "dimension: 2" in out


def test_weil_morphism_images_may_not_call(capsys):
    code, _, err = run(
        capsys,
        "weil",
        "equalizer",
        "Q[x]/(x^2)",
        "Q[y]/(y^2)",
        "x -> sin(y)",
        "x -> y",
    )
    assert code == 2
    assert "not allowed" in err


def test_weil_morphism_images_refuse_calls_before_evaluating(capsys):
    equalizer = ("weil", "equalizer", "Q[x]/(x^2)", "Q[t]/(t^3)")
    code, _, err = run(capsys, *equalizer, "x -> 1/t + exp(t)", "x -> 0")
    assert (code, err) == (2, "error: exp() is not allowed in morphism images\n")
    code, _, err = run(capsys, *equalizer, "x -> 1/t", "x -> 0")
    assert (code, err) == (
        1,
        "error: denominator is not invertible in 1/t: "
        "element with zero augmentation is not invertible\n",
    )


def test_weil_morphism_images_take_huge_powers_fast(capsys):
    import time

    start = time.perf_counter()
    code, out, _ = run(
        capsys, "weil", "equalizer", "Q[x]/(x^2)", "Q[t]/(t^3)", "x -> t^200000000", "x -> 0"
    )
    assert time.perf_counter() - start < 2
    assert code == 0
    assert "dimension: 2" in out.splitlines()


def test_weil_equalizer_into_a_generator_killed_at_first_order(capsys):
    # t is not in the target's basis: it reads as 0, so x -> s and x -> 0 agree only on 1
    code, out, _ = run(
        capsys, "weil", "equalizer", "Q[x]/(x^2)", "Q[t,s]/(t, s^2)", "x -> s", "x -> 0"
    )
    assert code == 0
    assert out.splitlines() == ["dimension: 1", "member: 1"]
    code, out, _ = run(
        capsys, "weil", "equalizer", "Q[x]/(x^2)", "Q[t,s]/(t, s^2)", "x -> s + t", "x -> s"
    )
    assert code == 0
    assert out.splitlines() == ["dimension: 2", "member: 1", "member: x"]


def test_weil_limit_along_an_arrow_into_a_generator_killed_at_first_order(capsys):
    code, out, _ = run(
        capsys, "weil", "limit", "Q[x]/(x^2)", "Q[t,s]/(t, s^2)", "--arrow", "0 1 x -> s"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimension: 2"
    assert lines[-4:] == [
        "leg 0 row 0: 1,0",
        "leg 0 row 1: 0,1",
        "leg 1 row 0: 1,0",
        "leg 1 row 1: 0,1",
    ]


@st.composite
def _fuzz_algebra(draw, gens):
    """(generators, text) of a presented algebra over a prefix of gens: a
    pure power of each generator, exponent 1 killing it at first order, and
    maybe a mixed term."""
    gens = gens[: draw(st.integers(1, len(gens)))]
    rels = [g if p == 1 else f"{g}^{p}" for g in gens for p in [draw(st.integers(1, 3))]]
    if len(gens) > 1 and draw(st.booleans()):
        rels.append("*".join(gens))
    return gens, f"Q[{','.join(gens)}]/({', '.join(rels)})"


_FUZZ_JUNK = ["", "x y", "z", "t^", "((t", "2*", "0.5", "3/0", "sin(t)", "t^-1", "1/t", "->"]


@st.composite
def _fuzz_images(draw, source, target):
    """'g -> expr; ...' for each generator of source, in the target's
    generators: mostly well formed, sometimes with a piece left out, a
    junk term or a junk piece."""
    atoms = [*target, *(f"{g}^{draw(st.integers(0, 3))}" for g in target), "*".join(target)]
    atoms += ["0", f"-1/2*{target[-1]}", f"(1 + {target[-1]})^-1 - 1", f"({target[0]} - 2)^2 - 4"]
    pieces = []
    for g in source:
        if draw(st.integers(0, 11)):
            terms = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=3))
            if not draw(st.integers(0, 11)):
                terms.append(draw(st.sampled_from(_FUZZ_JUNK)))
            pieces.append(f"{g} -> {' + '.join(terms)}")
    if not draw(st.integers(0, 11)):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_FUZZ_JUNK)))
    return "; ".join(pieces)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_morphism_image_grammar_never_raises(data):
    # equalizers and limits over presented algebras, some with a generator
    # killed at first order: every input ends in exit 0, 1 or 2
    (xs, source), (ts, target) = (data.draw(_fuzz_algebra(g)) for g in (("x", "y"), ("t", "s")))
    if data.draw(st.booleans()):
        images = [data.draw(_fuzz_images(xs, ts)) for _ in range(2)]
        argv = ["weil", "equalizer", source, target, *images]
    else:
        argv = ["weil", "limit", source, target]
        for _ in range(data.draw(st.integers(0, 2))):
            ends = data.draw(st.sampled_from(["0 1", "0 1", "0 0", "1 1", "1 0", "2 1", "a 1"]))
            s, t = ((xs, ts)[int(e)] if e in "01" else xs for e in ends.split())
            argv += ["--arrow", f"{ends} {data.draw(_fuzz_images(s, t))}"]
    code, err = _exit_of(argv)
    assert code in (0, 1, 2)
    assert (code == 0) == (err == "")


def _exit_of(argv):
    """(exit code, stderr) of main(argv); a SystemExit counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# junk for map and algebra text: stray brackets and operators, a literal
# that is not an integer, digits no number reader accepts, unknown names
_TEXT_JUNK = ["", " ", "(", ")", ",", "^", "^-", "*", "/0", "->", "²", "½", "é", ".", "1.5", "11"]
_TEXT_JUNK += ["q", "sin("]


@st.composite
def _spliced(draw, text):
    """text, or (one draw in four) text with a junk piece at a drawn offset."""
    if draw(st.integers(0, 3)):
        return text
    k = draw(st.integers(0, len(text)))
    return text[:k] + draw(st.sampled_from(_TEXT_JUNK)) + text[k:]


@st.composite
def _fuzz_body(draw, names):
    """A map body over names: a sum of terms, some not polynomial, spliced."""
    first, last = names[0], names[-1]
    atoms = [*names, *(f"{n}^{draw(st.integers(0, 3))}" for n in names), "2", "1/2", "(-3)"]
    atoms += [f"({first} - 1)^2", f"{first}*{last}", f"sin({last})", f"1/{first}", f"{last}^-1"]
    terms = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=4))
    text = terms[0] + "".join(draw(st.sampled_from([" + ", " - ", "*"])) + t for t in terms[1:])
    return draw(_spliced(text))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_map_and_algebra_grammars_never_raise(data):
    # jet expressions, vertical map bodies and presented algebras, mostly
    # well formed: every input ends in exit 0, 1 or 2
    draw = data.draw
    kind = draw(st.sampled_from(("jet", "vertical", "info")))
    values = st.sampled_from(["0", "1", "-2", "1/2", "0.5", "x", ""])
    if kind == "jet":
        names = draw(st.sampled_from([("u",), ("x", "y")]))
        at = ",".join(draw(values) for _ in names)
        order = str(draw(st.integers(0, 3)))
        argv = ["jet", draw(_fuzz_body(names)), f"--at={at}", "--order", order]
        argv += ["--mixed"] * (len(names) > 1) + ["--mode", "float"] * draw(st.booleans())
    elif kind == "vertical":
        names = draw(st.sampled_from([("x", "y"), ("x", "y", "z")]))
        bodies = [draw(_fuzz_body(names)) for _ in range(draw(st.integers(1, len(names) - 1)))]
        fibered = draw(_spliced(f"fibered p({', '.join(names)}) -> ({', '.join(bodies)})"))
        algebra = draw(_fuzz_algebra(("d", "e")))[1]
        argv = ["vertical", "--", fibered, algebra, ",".join(draw(values) for _ in names)]
    else:
        argv = ["weil", "info", draw(_spliced(draw(_fuzz_algebra(("x", "y", "z")))[1]))]
    code, err = _exit_of(argv)
    assert code in (0, 1, 2), argv
    assert (code == 0) == (err == ""), argv


# ----- vertical -----------------------------------------------------------------


SPHERE = "fibered s(x,y,z) -> (x^2+y^2+z^2)"


def test_vertical_sphere_frozen(capsys):
    code, out, _ = run(capsys, "vertical", SPHERE, "Q[d]/(d^2)", "1,0,0")
    assert code == 0
    lines = out.splitlines()
    assert "free parameters: 2" in lines
    assert "kernel direction: 0,1,0" in lines
    assert "kernel direction: 0,0,1" in lines
    assert "regular: true" in lines


def test_vertical_identity_has_no_freedom(capsys):
    code, out, _ = run(
        capsys, "vertical", "fibered id(x,y) -> (x, y)", "Q[d]/(d^2)", "4,5"
    )
    assert code == 0
    assert "free parameters: 0" in out.splitlines()


def test_vertical_higher_order(capsys):
    code, out, _ = run(
        capsys, "vertical", "fibered p(x,y) -> (x)", "Q[d]/(d^3)", "0,0"
    )
    assert code == 0
    assert "free parameters: 2" in out.splitlines()


def test_vertical_irregular_is_flagged_with_partial_data(capsys):
    code, out, _ = run(capsys, "vertical", SPHERE, "Q[d]/(d^2)", "0,0,0")
    assert code == 0
    lines = out.splitlines()
    assert "regular: false" in lines
    assert "jacobian rank: 0" in lines
    assert any(line.startswith("degree 1:") for line in lines)


def test_vertical_refuses_float_mode(capsys):
    code, _, err = run(
        capsys, "vertical", SPHERE, "Q[d]/(d^2)", "1,0,0", "--mode", "float"
    )
    assert code == 2
    assert "exact" in err


# ----- verify -------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["axioms", "microlinear", "fibered", "vertical"])
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--seed", "3", "--samples", "4")
    assert code == 0
    assert "checks passed" in out


def test_verify_is_byte_identical_for_a_fixed_seed(capsys):
    first = run(capsys, "verify", "axioms", "--seed", "7", "--samples", "6")
    second = run(capsys, "verify", "axioms", "--seed", "7", "--samples", "6")
    assert first == second
    assert first[0] == 0


def test_verify_suites_match_the_benchmark_records(capsys, monkeypatch):
    # the nine invocations the benchmark times, in-process, against the
    # [exit code, sha256(stdout)[:32]] it pins; the records are only read
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    from workloads import VERIFY_SUITES

    records = json.loads((bench / "records.json").read_text())["verify"]
    got = {}
    for name, argv in VERIFY_SUITES.items():
        code, out, _ = run(capsys, *argv)
        got[name] = [code, hashlib.sha256(out.encode()).hexdigest()[:32]]
    assert len(got) == 9
    assert got == records


def test_commands_match_the_benchmark_records(capsys, monkeypatch):
    # every small invocation the benchmark pins, rebuilt from its kind and
    # item, in-process, against [exit code, sha256(stdout)[:32]]
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    from workloads import command_item, digest

    records = json.loads((bench / "records.json").read_text())["commands"]
    assert len(records) == 840
    for key, rec in records.items():
        kind, k = key.rsplit(":", 1)
        argv = command_item(kind, int(k))
        assert digest("\0".join(argv)) == rec["argv"], key
        code, out, _ = run(capsys, *argv)
        assert [code, digest(out)] == rec["out"], (key, argv)


def test_evaluations_leave_no_cycle_to_the_collector(capsys):
    # expr.fold builds no closures, so reference counting frees what each
    # evaluation makes: with the collector off, one jet, one apply_map and
    # one verify invocation leave no function or cell for gc.collect()
    from weilkit import WeilPoint, apply_map, jet, parse_algebra, parse_map

    g = parse_map("g(u) -> (u^3 + 1/(1 + u))")
    f = parse_map("f(u, v) -> (u*v/(1 + u^2) - v^-1, u^3)")
    w = parse_algebra("Q[a,b]/(a^3,b^2)")
    point = WeilPoint(w, [w.scalar(2) + w.basis_element(1), w.scalar(-1) + w.basis_element(2)])
    enabled, flags, saved = gc.isenabled(), gc.get_debug(), list(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        jet(g, 1, 12)
        apply_map(f, point)
        assert run(capsys, "verify", "fibered")[0] == 0
        gc.garbage.clear()
        gc.collect()
        left = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
        if enabled:
            gc.enable()
    assert not left & {"function", "cell"}, sorted(left)


def test_each_recorded_vertical_command_eliminates_once(capsys, monkeypatch):
    # the Jacobian's kernel is the one elimination (Matrix._echelon, behind
    # rref and rank alike) of a vertical command: the origin and the
    # per-degree record are read off, not solved
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    from workloads import command_item

    from weilkit.exactlin import Matrix

    records = json.loads((bench / "records.json").read_text())["commands"]
    items = [int(key.rsplit(":", 1)[1]) for key in records if key.startswith("vertical:")]
    assert len(items) == 120
    calls = []
    real = Matrix._echelon
    monkeypatch.setattr(Matrix, "_echelon", lambda m, *a: calls.append(m) or real(m, *a))
    for k in items:
        argv = command_item("vertical", k)
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert (code, len(calls)) == (0, 1), argv


def test_each_verify_invocation_pins_its_eliminations(capsys, monkeypatch):
    # eliminations of the nine invocations the benchmark times, counted at
    # Matrix._echelon, the one loop behind rref and rank: each cone's numbers
    # are ranked once per suite, and every repeated solve against one matrix
    # is a product with its factored system (391 eliminations in all before
    # that, 251 after).  Cells are rows x cols summed: linear vertical checks
    # eliminate the unlifted projections, never their Kronecker lifts, and
    # the collapsed-leg control ranks a cone on the kernels of its own.  A
    # Weil cone is ranked on the arrow equations of its product over the
    # scalars, a refused one once, and a maximal ideal is read off the
    # augmentation without an elimination (252 before that, 248 after)
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    from workloads import VERIFY_SUITES

    from weilkit.exactlin import Matrix

    calls = []
    real = Matrix._echelon
    monkeypatch.setattr(Matrix, "_echelon", lambda m, *a: calls.append(m) or real(m, *a))
    counts = {}
    for name, argv in VERIFY_SUITES.items():
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        counts[name] = (len(calls), sum(m.rows * m.cols for m in calls))
    assert counts == {
        "axioms": (0, 0),
        "axioms.float": (0, 0),
        "microlinear": (62, 3043),
        "microlinear.neg": (63, 3726),
        "fibered": (18, 636),
        "fibered.neg": (18, 1091),
        "vertical": (46, 527),
        "vertical.neg": (16, 4694),
        "exponentiable": (25, 2579),
    }
    assert sum(n for n, _ in counts.values()) == 248


def test_only_the_linear_lift_check_builds_a_kronecker_product(capsys, monkeypatch):
    # linear vertical checks read the kernel of the unlifted projection, so
    # over the nine invocations the benchmark times Matrix.kron runs once:
    # the reference matrix of verify fibered's linear-lift check, P (x) I_2
    # for the coordinate projection R^2 -> R
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    from workloads import VERIFY_SUITES

    from weilkit.exactlin import Matrix

    calls = []
    real = Matrix.kron
    monkeypatch.setattr(Matrix, "kron", lambda a, b: calls.append((a.shape, b.shape)) or real(a, b))
    shapes = {}
    for name, argv in VERIFY_SUITES.items():
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        shapes[name] = list(calls)
    assert shapes == {**dict.fromkeys(VERIFY_SUITES, []), "fibered": [((1, 2), (2, 2))]}


# a prime no denominator of the verify matrices is divisible by
_PRIME = 2**61 - 1


def _rank_mod_prime(rows):
    """Rank over Z/_PRIME of Fraction rows: never above the rank over Q."""
    rows = [[x.numerator * pow(x.denominator, -1, _PRIME) % _PRIME for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[i], rows[rank] = rows[rank], rows[i]
        inv = pow(rows[rank][c], -1, _PRIME)
        for row in rows[rank + 1 :]:
            f = row[c] * inv % _PRIME
            if f:
                row[:] = [(x - f * y) % _PRIME for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


def _certify_elimination(m, reduced, rows, pivots):
    """Check one Matrix._echelon result without a second elimination."""
    r = len(pivots)
    assert len(rows) == m.rows and pivots == sorted(set(pivots))
    # echelon form: a leading 1 at each pivot, zero rows below the rank,
    # and in the reduced form identity pivot columns
    for k, row in enumerate(rows):
        lead = next((j for j, x in enumerate(row) if x), None)
        assert lead == (pivots[k] if k < r else None)
        if k < r:
            assert row[lead] == 1
    if reduced:
        for k, c in enumerate(pivots):
            assert all(row[c] == (i == k) for i, row in enumerate(rows))
    # every row of m is the combination of R's rows read off its pivot
    # entries, so rank(m) <= r
    terms = [[(j, x) for j, x in enumerate(row) if x] for row in rows[:r]]
    for row in m.raw:
        v = list(row)
        for c, t in zip(pivots, terms):
            f = v[c]
            if f:
                for j, x in t:
                    v[j] -= f * x
        assert not any(v)
    # and m's pivot columns have rank r mod a prime, so rank(m) >= r
    if r:
        assert _rank_mod_prime([[row[c] for c in pivots] for row in m.raw]) == r


def test_every_verify_elimination_is_certified_by_products(capsys, monkeypatch):
    # each elimination of the nine invocations the benchmark times, checked
    # by products and a rank mod a prime, never by eliminating again
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    from workloads import VERIFY_SUITES

    from weilkit.exactlin import Matrix

    results = []
    real = Matrix._echelon

    def capture(m, reduced=False):
        rows, pivots = real(m, reduced)
        results.append((m, reduced, [tuple(row) for row in rows], list(pivots)))
        return rows, pivots

    monkeypatch.setattr(Matrix, "_echelon", capture)
    codes = [run(capsys, *argv)[0] for argv in VERIFY_SUITES.values()]
    start = time.perf_counter()
    for result in results:
        _certify_elimination(*result)
    assert time.perf_counter() - start < 1
    assert (codes, len(results)) == ([0] * 9, 248)


def test_verify_exact_only_suites_refuse_float(capsys):
    code, _, err = run(capsys, "verify", "microlinear", "--mode", "float")
    assert code == 2
    assert "exact mode only" in err


@pytest.mark.parametrize("suite", ["axioms", "exponentiable"])
def test_verify_refuses_negative_controls_without_a_negative_battery(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--negative-controls")
    assert code == 2 and out == ""
    assert f"suite {suite!r} has no negative-control battery" in err


def test_verify_axioms_runs_in_float_mode_too(capsys):
    code, _, _ = run(
        capsys, "verify", "axioms", "--mode", "float", "--seed", "1", "--samples", "4"
    )
    assert code == 0


# ----- shared behavior ------------------------------------------------------------


def test_kv_output_grammar(capsys):
    for args in (
        ("jet", "u^2", "--at", "3", "--output", "kv"),
        ("weil", "info", "Q[x]/(x^3)", "--output", "kv"),
        ("verify", "microlinear", "--samples", "3", "--output", "kv"),
    ):
        code, out, _ = run(capsys, *args)
        assert code == 0
        for line in out.splitlines():
            assert re.match(r"^[^\s=]+=", line), line


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "vertical", SPHERE, "Q[d]/(d^2)")[0] == 2
    assert run(capsys, "jet", "u", "--at", "1", "--order", "nope")[0] == 2


def test_exit_codes_never_mix_parse_and_eval():
    # parse problems are 2, evaluation problems 1; spot-check the pair
    import io
    from contextlib import redirect_stderr

    buf = io.StringIO()
    with redirect_stderr(buf):
        parse_code = main(["jet", "u +", "--at", "1"])
        eval_code = main(["jet", "1/u", "--at", "0"])
    assert (parse_code, eval_code) == (2, 1)


# a number literal is a run of decimal digits (str.isdecimal): "²" passes
# str.isdigit, but neither int nor Fraction reads it, so it is a parse error
_SUPERSCRIPT = [
    (("jet", "x+²", "--at=1"), 2),
    (("jet", "x^²", "--at=1"), 2),
    (("vertical", "--", "fibered p(x,y) -> (x+²)", "Q[d]/(d^2)", "1,1"), 21),
    (("vertical", "--", "fibered p(x,y) -> (x^²)", "Q[d]/(d^2)", "1,1"), 21),
    (("weil", "equalizer", "Q[x]/(x^2)", "Q[t]/(t^3)", "x -> t+²", "x -> t"), 3),
    (("weil", "equalizer", "Q[x]/(x^2)", "Q[t]/(t^3)", "x -> t^²", "x -> t"), 3),
]


@pytest.mark.parametrize(
    "argv, offset",
    _SUPERSCRIPT,
    ids=[f"{kind}-{op}" for kind in ("jet", "vertical", "equalizer") for op in ("sum", "power")],
)
def test_a_digit_no_number_reader_accepts_is_a_parse_error(capsys, argv, offset):
    assert run(capsys, *argv) == (2, "", f"error: unexpected character '²' at offset {offset}\n")


# ----- input budgets and refusals -----------------------------------------------


def test_algebras_past_the_dimension_budget_are_refused_fast(capsys):
    cases = [
        ("weil", "info", "Q[x,y,z]/(x^200,y^200,z^200)"),  # dimension 8000000
        ("weil", "tensor", "Q[x]/(x^1600)", "Q[y]/(y^1600)"),  # dimension 2560000
    ]
    for argv in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert "above the dimension budget of 50000" in err


def test_small_quotients_in_large_boxes_list_their_basis_fast(capsys):
    # the basis is walked as the relations' staircase, not read off the box
    # of pure-power bounds, which holds 9000000 and 8000000 monomials here
    from weilkit.weil import _enumerate_presentation

    cases = [
        ("Q[x,y]/(x^3000,y^3000,x*y)", 5999),
        ("Q[x,y,z]/(x^200,y^200,z^200,x*y,y*z,x*z)", 598),
    ]
    for text, dimension in cases:
        _enumerate_presentation.cache_clear()
        start = time.perf_counter()
        code, out, _ = run(capsys, "weil", "info", text)
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out.startswith(f"dimension: {dimension}\n")


def _tabled_block(dim, line):
    unit = "\n".join(f"c 0 {j} {j} 1" for j in range(dim))
    aug = " ".join(["1"] + ["0"] * (dim - 1))
    return f"weil tabled\ndim {dim}\nunit 0\naug {aug}\n{unit}\n{line}"


def test_tabled_indices_out_of_range_are_refused(capsys):
    for dim, line in ((2, "c 1 1 5 1"), (3, "c 1 1 -1 1")):
        code, out, err = run(capsys, "weil", "info", _tabled_block(dim, line))
        assert (code, out) == (2, "")
        assert err == f"error: index out of range for dim {dim} in line {line!r}\n"
    code, out, _ = run(capsys, "weil", "info", _tabled_block(3, "c 1 1 2 1"))
    assert code == 0 and "dimension: 3" in out


@pytest.mark.parametrize(
    "block, line",
    [(_tabled_block(3, f"c 1 1 2 {x}"), f"c 1 1 2 {x}") for x in ("1e5000", "1e2000000", "2E1")]
    + [(_tabled_block(3, "c 1 1 2 1").replace("aug 1 0 0", "aug 1 0 1e0"), "aug 1 0 1e0")],
)
def test_tabled_exponent_notation_is_refused_fast(capsys, block, line):
    start = time.perf_counter()
    code, out, err = run(capsys, "weil", "info", block)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: exponent notation is not read in tabled blocks: {line!r}\n"


def test_tabled_decimal_and_ratio_fields_are_read(capsys):
    for field in ("0.5", "1/2"):
        code, out, _ = run(capsys, "weil", "info", _tabled_block(3, f"c 1 1 2 {field}"))
        assert code == 0 and "c 1 1 2 1/2" in out


@pytest.mark.parametrize(
    "text, message",
    [
        (_tabled_block(2, "c 1 1"), "wrong number of fields in tabled line 'c 1 1'"),
        (_tabled_block(2, "c 1 1 0 1 2"), "wrong number of fields in tabled line 'c 1 1 0 1 2'"),
        ("weil tabled\ndim", "wrong number of fields in tabled line 'dim'"),
        ("weil tabled\ndim 1\nunit\naug 1", "wrong number of fields in tabled line 'unit'"),
        ("weil tabled\ndim x", "malformed number in tabled line 'dim x'"),
        ("weil tabled\ndim 1\nunit y\naug 1", "malformed number in tabled line 'unit y'"),
        ("weil tabled\ndim 1\nunit 0\naug x", "malformed number in tabled line 'aug x'"),
        (_tabled_block(2, "c 0 0 0 abc"), "malformed number in tabled line 'c 0 0 0 abc'"),
        (_tabled_block(2, "c 1 1 0 1/0"), "malformed number in tabled line 'c 1 1 0 1/0'"),
        ("Q[x", "expected ']' after the generator list"),
        ("Q[x, y/(x^2)", "expected ']' after the generator list"),
        ("Q[x]/(x^a)", "bad exponent in relation 'x^a'"),
        ("Q[x]/(x^)", "bad exponent in relation 'x^'"),
    ],
)
def test_malformed_algebra_text_exits_2_naming_the_fault(capsys, text, message):
    code, out, err = run(capsys, "weil", "info", text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "block, message",
    [
        (
            "weil tabled\ndim 1500\nunit 0\naug 1" + " 0" * 1499,
            "basis element 0 does not act as the unit",
        ),
        (
            "weil tabled\ndim 1500\nunit 0\naug 0" + " 0" * 1499,
            "augmentation of the unit must be 1",
        ),
        (_tabled_block(3, "c 0 1 2 1"), "basis element 0 does not act as the unit"),
        (_tabled_block(3, "c 1 0 1 0"), "basis element 0 does not act as the unit"),
    ],
    ids=["dim-1500-no-unit-lines", "dim-1500-aug-0", "extra-unit-term", "unit-term-zeroed"],
)
def test_tabled_unit_faults_are_refused_before_the_table_is_built(
    capsys, monkeypatch, block, message
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the dim x dim structure table was built")

    monkeypatch.setattr("weilkit.weil.WeilAlgebra._from_terms", classmethod(unreachable))
    code, out, err = run(capsys, "weil", "info", block)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_exact_powers_past_the_bit_budget_are_refused_fast(capsys):
    cases = [
        ("jet", "u^200000000", "--at", "3", "--order", "1"),
        ("jet", "(2^1048577)*0 + u", "--at", "3"),
        ("jet", "u^1" + "0" * 400, "--at", "3"),
        ("weil", "equalizer", "Q[x]/(x^2)", "Q[t]/(t^3)", "x -> 2^200000000*t", "x -> 0"),
    ]
    for argv in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert "exceeds the budget of 2^20 bits" in err


def test_exact_powers_inside_the_bit_budget_evaluate(capsys):
    code, out, _ = run(capsys, "jet", "(2^1048576)*0 + u", "--at", "3", "--order", "1")
    assert code == 0 and out.splitlines()[1:] == ["1: 3", "du: 1"]
    code, out, _ = run(capsys, "jet", "(1+u)^1000000000", "--at", "0", "--order", "3")
    assert code == 0
    assert out.splitlines()[1:] == [
        "1: 1",
        "du: 1000000000",
        "du^2: 499999999500000000",
        "du^3: 166666666166666667000000000",
    ]
    code, out, _ = run(capsys, "jet", "(1+u)^1" + "0" * 400, "--at", "0", "--order", "1")
    assert code == 0 and out.splitlines()[1:] == ["1: 1", "du: 1" + "0" * 400]
    # float powers overflow instead of growing, so they are not budgeted
    argv = ("jet", "u^200000000", "--at", "1.0000001", "--order", "1", "--mode", "float")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    value = float(out.splitlines()[1].split(": ")[1])
    assert math.isclose(value, 1.0000001**200000000, rel_tol=1e-6)


def test_vertical_powers_past_the_bit_budget_are_refused_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "vertical", "fibered p(x,y) -> (2^200000000*x)", "Q[d]/(d^2)", "1,1"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        "error: exact power 2^200000000 exceeds the budget of 2^20 bits for its scalar part\n"
    )


def test_vertical_jacobian_powers_at_0_and_1_are_exempt_from_the_budget(capsys):
    # the Jacobian raises each base coordinate to its powers with pow, and a
    # base of 0 or +-1 never grows, so x^20000000 at (1, 1) is answered at once
    from weilkit.fibered import FiberedObject, vertical_fiber
    from weilkit.weil import parse_algebra

    start = time.perf_counter()
    code, out, err = run(
        capsys, "vertical", "--", "fibered p(x,y) -> (x^20000000)", "Q[d]/(d^2)", "1,1"
    )
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out.splitlines()[3:7] == [
        "jacobian rank: 1",
        "regular: true",
        "consistent: true",
        "free parameters: 1",
    ]
    p = FiberedObject.from_text("fibered p(x,y) -> (x^20000000)")
    for point, row in (((1, 1), [20000000, 0]), ((-1, 0), [-20000000, 0]), ((0, 3), [0, 0])):
        start = time.perf_counter()
        jacobian = vertical_fiber(p, parse_algebra("Q[d]/(d^2)"), point).jacobian
        assert time.perf_counter() - start < 1
        assert jacobian.raw == (tuple(row),), point


def test_vertical_jacobian_powers_past_the_bit_budget_are_refused_fast(capsys):
    # d/dx x^2000000 at 3 needs 3^1999999, about 3.2 million bits: before the
    # budget the Jacobian multiplied by 3 once per unit of the exponent
    start = time.perf_counter()
    code, out, err = run(
        capsys, "vertical", "--", "fibered p(x,y) -> (x^2000000)", "Q[d]/(d^2)", "3,1"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        "error: exact power x^1999999 at x = 3 in the Jacobian exceeds the budget "
        "of 2^20 bits for its scalar part\n"
    )


@pytest.mark.parametrize(
    "body, message",
    [
        (
            "x/y",
            "denominator is not invertible in x/y: "
            "it depends on the inputs, so it has no polynomial inverse",
        ),
        (
            "x*y^-1",
            "negative power of a non-invertible value in y^-1: "
            "it depends on the inputs, so it has no polynomial inverse",
        ),
        ("x/(y-y)", "denominator is not invertible in x/(y - y): zero has no inverse"),
    ],
)
def test_vertical_refusals_name_the_node_in_the_map_variables(capsys, body, message):
    fibered = f"fibered p(x,y) -> ({body})"
    code, out, err = run(capsys, "vertical", fibered, "Q[d]/(d^2)", "1,1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_printed_numbers_past_the_digit_limit_are_refused(capsys):
    for expr, at in (("2^1000000*u", "3"), ("10^4300*u", "1")):
        code, out, err = run(capsys, "jet", expr, "--at", at, "--order", "1")
        assert (code, out) == (1, "")
        assert err == (
            "error: a number to print exceeds the printed-digit limit of 4300 digits\n"
        )
    code, out, _ = run(capsys, "jet", "10^4299*u", "--at", "1", "--order", "1")
    assert code == 0 and out.splitlines()[2] == "du: 1" + "0" * 4299


_LONG = "1" * 5000
_LITERAL_REFUSAL = "error: a number literal of 5000 digits exceeds the digit limit of 4300 digits\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("jet", f"{_LONG}*u", "--at", "1", "--order", "1"),
        ("jet", f"u^{_LONG}", "--at", "1", "--order", "1"),
        ("jet", "u", "--at", _LONG, "--order", "1"),
        ("weil", "info", f"Q[x]/(x^{_LONG})"),
        ("weil", "info", _tabled_block(2, "c 1 1 0 0").replace("aug 1 0", f"aug 1 {_LONG}")),
        ("weil", "info", _tabled_block(2, f"c 1 1 0 {_LONG}")),
    ],
)
def test_number_literals_past_the_digit_limit_are_parse_errors(capsys, argv):
    assert run(capsys, *argv) == (2, "", _LITERAL_REFUSAL)


# one digit past the limit: a guard that is off by one lets these through to
# int() or Fraction(), which word other errors
_PAST = "1" * 4301
_PAST_REFUSAL = "error: a number literal of 4301 digits exceeds the digit limit of 4300 digits\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("vertical", "--", f"fibered p(x,y) -> (x - {_PAST}*y)", "Q[d]/(d^2)", "1,1"),
        ("jet", "u", "--at", _PAST, "--order", "1"),
        ("weil", "info", f"Q[x]/(x^{_PAST})"),
    ],
    ids=("map-body", "at-value", "presented-exponent"),
)
def test_number_literals_one_digit_past_the_limit_are_parse_errors(capsys, argv):
    assert run(capsys, *argv) == (2, "", _PAST_REFUSAL)


def test_number_literals_at_the_digit_limit_are_read(capsys):
    code, out, _ = run(capsys, "jet", "1" * 4300 + "*u", "--at", "1", "--order", "1")
    assert code == 0 and out.splitlines()[2] == "du: " + "1" * 4300


# a text past the limit with no digit in it has no run to refuse: it reaches
# the reader of its field, which words its own error
_NO_DIGIT = "z" * 4301


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("jet", "u", "--at", _NO_DIGIT, "--order", "1"), f"bad value {_NO_DIGIT!r} in the --at list"),
        (("weil", "info", f"Q[x]/(x^{_NO_DIGIT})"), f"bad exponent in relation 'x^{_NO_DIGIT}'"),
        (("weil", "info", _tabled_block(2, _NO_DIGIT)), f"unrecognized line in tabled block: {_NO_DIGIT!r}"),
    ],
    ids=("at-value", "presented-exponent", "tabled-line"),
)
def test_long_texts_without_a_digit_keep_their_parse_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# ----- one parser per process ---------------------------------------------------


def _fresh_then_shared(capsys, calls):
    """Each argv on a newly built parser, then the whole sequence on one."""
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    return fresh, shared


_LIMIT = ("weil", "limit", "Q[x]/(x^2)", "Q[t]/(t^3)")


def test_an_arrow_does_not_outlive_its_call(capsys):
    calls = [(*_LIMIT, "--arrow", "0 1 x -> t^2"), _LIMIT]
    fresh, shared = _fresh_then_shared(capsys, calls)
    assert shared == fresh
    assert fresh[0][0] == fresh[1][0] == 0 and fresh[0][1] != fresh[1][1]


def test_an_output_style_does_not_outlive_its_call(capsys):
    jet = ("jet", "u^2", "--at", "3")
    fresh, shared = _fresh_then_shared(capsys, [(*jet, "--output", "kv"), jet])
    assert shared == fresh
    assert fresh[0][1].startswith("1=9") and fresh[1][1].startswith("jet of u^2")


def test_a_usage_error_does_not_outlive_its_call(capsys):
    calls = [("jet", "u", "--at", "1", "--order", "x"), ("jet", "u", "--at", "1")]
    fresh, shared = _fresh_then_shared(capsys, calls)
    assert shared == fresh
    assert fresh[0][:2] == (2, "") and "invalid int value" in fresh[0][2]
    assert fresh[1][0] == 0


def test_help_reads_the_same_twice(capsys):
    fresh, shared = _fresh_then_shared(capsys, [("--help",), ("--help",)])
    assert shared == fresh
    assert fresh[0] == fresh[1] and fresh[0][0] == 0 and "usage: weilkit" in fresh[0][1]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for _ in range(10):
        assert run(capsys, "jet", "u^2", "--at", "3")[0] == 0
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()
