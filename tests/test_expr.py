"""Expression trees, the map DSL, and the polynomial backend."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilkit import ParseError, SmoothMap, linear_map, parse_expression, parse_map
from weilkit.corpus import random_poly_expr, random_rational
from weilkit.expr import (
    EvaluationError,
    Expr,
    NonPolynomialError,
    const,
    evaluate_numeric,
    exp,
    poly_diff,
    poly_eval,
    poly_from_expr,
    poly_mul,
    poly_to_expr,
    serialize_expression,
    serialize_map,
    sin,
    var,
)

import oracles

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


def test_parse_basics():
    e = parse_expression("u^2 + 3*v - 1/2", ("u", "v"))
    assert evaluate_numeric(e, (Fraction(2), Fraction(1))) == Fraction(13, 2)


def test_parse_precedence_and_unary():
    e = parse_expression("-u^2", ("u",))
    # power binds tighter than the leading minus
    assert evaluate_numeric(e, (Fraction(3),)) == -9


@pytest.mark.parametrize(
    "bad",
    ["u +", "(u", "tan(u)", "u v", "", "2 ^^ 3", "q", "u^v"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_expression(bad, ("u", "v"))


def test_calls_parse_and_need_floats():
    e = parse_expression("sin(u) + exp(u)", ("u",))
    assert isinstance(evaluate_numeric(e, (0.0,)), float)
    with pytest.raises(NonPolynomialError):
        evaluate_numeric(e, (Fraction(0),))


def test_map_dsl_round_trip():
    f = parse_map("map wave(u, v) -> (u^2 - v, 3*u*v)")
    assert f.name == "wave"
    assert f.arity_in == 2 and f.arity_out == 2
    again = parse_map(serialize_map(f))
    assert serialize_map(again) == serialize_map(f)


def test_map_dsl_requires_parenthesized_bodies():
    with pytest.raises(ParseError):
        parse_map("map sq(u) -> u^2")


def test_linear_map_matrix():
    f = linear_map([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1)]], 2)
    rows = f.linear_matrix()
    assert rows == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1)]]
    g = parse_map("map notlin(u) -> (u^2)")
    assert g.linear_matrix() is None


def test_polynomial_flags():
    assert parse_map("map p(u) -> (u^3 - u)").is_polynomial()
    assert not parse_map("map t(u) -> (log(u))").is_polynomial()
    assert parse_map("map t(u) -> (log(u))").uses_transcendental()


def test_compose_evaluates_inside_out():
    f = parse_map("map f(u) -> (u + 1, u - 1)")
    g = parse_map("map g(a, b) -> (a * b)")
    h = g.compose(f)
    # (u+1)(u-1) = u^2 - 1
    assert evaluate_numeric(h.bodies[0], (Fraction(4),)) == 15


def test_stack_concatenates_outputs():
    f = parse_map("map f(u) -> (u)")
    g = parse_map("map g(u) -> (u^2)")
    assert SmoothMap.stack([f, g]).arity_out == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_serialize_parse_round_trip(seed):
    rng = random.Random(seed)
    e = random_poly_expr(rng, 2, depth=3)
    text = serialize_expression(e, ("u", "v"))
    back = parse_expression(text, ("u", "v"))
    for _ in range(4):
        at = (random_rational(rng), random_rational(rng))
        assert evaluate_numeric(back, at) == evaluate_numeric(e, at)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_poly_backend_matches_direct_evaluation(seed):
    rng = random.Random(seed)
    e = random_poly_expr(rng, 2, depth=3)
    p = poly_from_expr(e, 2)
    for _ in range(4):
        at = (random_rational(rng), random_rational(rng))
        assert poly_eval(p, at) == evaluate_numeric(e, at)
    # canonical round trip through the expression form
    back = poly_from_expr(poly_to_expr(p, 2), 2)
    assert back == p


@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
@settings(max_examples=40)
def test_poly_diff_product_rule(seed, which):
    rng = random.Random(seed)
    f = poly_from_expr(random_poly_expr(rng, 2, depth=2), 2)
    g = poly_from_expr(random_poly_expr(rng, 2, depth=2), 2)
    lhs = poly_diff(poly_mul(f, g), which)
    rhs_a = poly_mul(poly_diff(f, which), g)
    rhs_b = poly_mul(f, poly_diff(g, which))
    at = (random_rational(rng), random_rational(rng))
    assert poly_eval(lhs, at) == poly_eval(rhs_a, at) + poly_eval(rhs_b, at)


def test_poly_from_expr_refuses_calls():
    with pytest.raises(NonPolynomialError):
        poly_from_expr(sin(var(0)), 1)
    with pytest.raises(NonPolynomialError):
        poly_from_expr(exp(const(1)), 0)


def test_division_rules():
    ok = parse_expression("u / 2", ("u",))
    assert evaluate_numeric(ok, (Fraction(3),)) == Fraction(3, 2)
    with pytest.raises(NonPolynomialError):
        poly_from_expr(parse_expression("1 / u", ("u",)), 1)
    with pytest.raises(ZeroDivisionError):
        poly_from_expr(parse_expression("u / (2 - 2)", ("u",)), 1)


def test_map_body_cannot_use_unknown_variable():
    with pytest.raises(ValueError):
        SmoothMap(("u",), (var(1),))


# ----- one fold, three rings ------------------------------------------------------


def test_exact_powers_past_the_bit_budget_are_refused_on_every_path():
    f = parse_map("f(u) -> (2^200000000*u)")
    for thunk in (lambda: f([3]), f.to_polys):
        start = time.perf_counter()
        with pytest.raises(EvaluationError, match=r"exact power 2\^200000000 exceeds"):
            thunk()
        assert time.perf_counter() - start < 1
    # a base that depends on the inputs has no scalar part to budget
    assert parse_map("f(u) -> (u^200000000)").to_polys() == [{(200000000,): 1}]


_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
_NODE_KINDS = ("add", "sub", "mul", "div", "div", "pow", "pow", "call")


def _random_body(rng, nvars, depth):
    """A body over + - * /, integer powers from -2 to 3 and calls, in which
    constant, zero and input-dependent denominators all occur."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            return var(rng.randrange(nvars))
        return const(random_rational(rng, 2))
    kind = rng.choice(_NODE_KINDS)
    a = _random_body(rng, nvars, depth - 1)
    if kind == "pow":
        return a ** rng.choice((-2, -1, 0, 2, 3))
    if kind == "call":
        return Expr(rng.choice(_FUNCTIONS), (a,))
    b = _random_body(rng, nvars, depth - 1)
    return {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b}[kind]


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (ValueError, ArithmeticError) as exc:
        return None, exc


def _call_arguments(e):
    if e.op in _FUNCTIONS:
        yield e.args[0]
    for a in e.args:
        yield from _call_arguments(a)


def _near_a_singularity(e, xs) -> bool:
    """Whether a denominator, a negatively powered base, or the argument of
    log or sqrt lies within 1e-6 of zero at xs in the reference.  There
    rounding alone decides whether an evaluation raises: v/v is exactly
    1.0, but v*(1/v) may be 1 - 2^-53, so log(v/v)^-2 raises in one
    evaluator and is about 8e31 in the other."""
    if e.op == "div" or (e.op == "intpow" and e.value < 0) or e.op in ("log", "sqrt"):
        value, exc = _outcome(oracles.evaluate_numeric_reference, e.args[-1], xs)
        if exc is None and abs(value) < 1e-6:
            return True
    return any(_near_a_singularity(a, xs) for a in e.args)


def _assert_same(want, got, body, nvars):
    (value, exc), (new_value, new_exc) = want, got
    if exc is None:
        assert new_exc is None and new_value == value
        return
    assert new_exc is not None
    if isinstance(exc, NonPolynomialError) and not isinstance(new_exc, NonPolynomialError):
        # the fold evaluates a call's argument before the polynomial ring
        # refuses the call, so an argument that fails reports its own error
        assert any(
            isinstance(_outcome(poly_from_expr, a, nvars)[1], type(new_exc))
            for a in _call_arguments(body)
        )
        return
    assert isinstance(new_exc, type(exc))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_the_fold_agrees_with_the_reference_walkers(seed):
    rng = random.Random(seed)
    body = _random_body(rng, 2, 3)
    at = (random_rational(rng), random_rational(rng))
    _assert_same(
        _outcome(oracles.evaluate_numeric_reference, body, at),
        _outcome(evaluate_numeric, body, at),
        body,
        2,
    )
    _assert_same(
        _outcome(oracles.poly_from_expr_reference, body, 2),
        _outcome(poly_from_expr, body, 2),
        body,
        2,
    )
    # floats: the fold takes a*(1/b) and square-and-multiply where the
    # reference takes a/b and **, so the two round differently
    xs = [rng.uniform(0.3, 1.7) for _ in range(2)]
    if _near_a_singularity(body, xs):
        return
    value, exc = _outcome(oracles.evaluate_numeric_reference, body, xs)
    new_value, new_exc = _outcome(SmoothMap(("u", "v"), (body,)), xs)
    if exc is not None:
        assert isinstance(new_exc, type(exc))
    else:
        (new_value,) = new_value
        assert abs(new_value - value) <= 1e-12 * max(1.0, abs(value), abs(new_value))
