"""Command-line surface: output shapes, determinism, exit codes."""

import math
import re
import time

import pytest

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


def test_verify_exact_only_suites_refuse_float(capsys):
    code, _, err = run(capsys, "verify", "microlinear", "--mode", "float")
    assert code == 2
    assert "exact mode only" in err


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


# ----- input budgets and refusals -----------------------------------------------


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


def test_number_literals_at_the_digit_limit_are_read(capsys):
    code, out, _ = run(capsys, "jet", "1" * 4300 + "*u", "--at", "1", "--order", "1")
    assert code == 0 and out.splitlines()[2] == "du: " + "1" * 4300


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
