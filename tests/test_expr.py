"""Expression trees, the map DSL, and the polynomial backend."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilkit import ParseError, SmoothMap, linear_map, parse_expression, parse_map
from weilkit.corpus import random_poly_expr, random_poly_map, random_rational
from weilkit.exactlin import Mode, ModeError
from weilkit.expr import (
    EvaluationError,
    Expr,
    NonPolynomialError,
    _Numbers,
    _tokenize,
    const,
    evaluate_numeric,
    exp,
    fold,
    jacobian,
    poly_from_expr,
    poly_to_expr,
    serialize_expression,
    serialize_map,
    sin,
    var,
)

from weilkit.fibered import FiberedError, FiberedMorphism, FiberedObject
from weilkit.smooth import jet, lift_map
from weilkit.weil import dual_numbers, first_order_infinitesimals, jet_line, product_over_k

import oracles
from oracles import poly_diff, poly_eval, poly_mul

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
    assert parse_map("map p(u) -> (u^3 - u)").to_polys()
    with pytest.raises(NonPolynomialError):
        parse_map("map t(u) -> (log(u))").to_polys()
    assert parse_map("map t(u) -> (log(u))").uses_transcendental()


def test_compose_evaluates_inside_out():
    f = parse_map("map f(u) -> (u + 1, u - 1)")
    g = parse_map("map g(a, b) -> (a * b)")
    h = g.compose(f)
    # (u+1)(u-1) = u^2 - 1
    assert evaluate_numeric(h.bodies[0], (Fraction(4),)) == 15


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


# pieces of DSL text: ASCII digits, dots, names, operators and whitespace,
# with "٣" (a decimal digit that int and Fraction read), "²" (a digit that
# neither reads), "é" (a letter) and "½" (neither a digit nor a letter)
_PIECES = [
    *"0123456789", "12", "3.5", ".", ".5", "u", "v", "w", "x1", "_a", "sin", "exp", "f",
    "map", *"+-*/^(),", "->", " ", "\t", "٣", "²", "é", "½",
]


def _parsed(parse, *args):
    """(value, None) or (None, (exception class, message))."""
    try:
        return parse(*args), None
    except Exception as exc:  # any class: the reference's is compared
        return None, (type(exc), str(exc))


def _non_decimal_digit(text: str) -> bool:
    return any(c.isdigit() and not c.isdecimal() for c in text)


_REFUSED = re.compile(r"unexpected character '(.)' at offset (\d+)", re.S)


def _same_as_the_reference(new, reference, text):
    """new and reference, two _parsed outcomes on text, are equal, unless new
    refused a digit no number reader accepts, or the "." before one, which
    the reference read into a number literal."""
    error = new[1]
    refused = error and error[0] is ParseError and _REFUSED.fullmatch(error[1])
    if refused:
        ch, at = refused[1], int(refused[2])
        if _non_decimal_digit(ch) or ch == "." and _non_decimal_digit(text[at + 1 : at + 2]):
            # the reference read it into a number literal no reader accepts
            tokens = reference[0] or ()
            assert reference[1] or any(k == "num" and _non_decimal_digit(t) for k, t in tokens)
            return
    assert new == reference


_GRAMMAR = st.recursive(
    st.sampled_from(["0", "1", "12", "3.5", ".5", "٣", "u", "v", "w", "²", "é", "½"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([*"+-*/^", " - ", "^-", "->"]), inner).map("".join),
        inner.map("({})".format),
        inner.map("-{}".format),
        inner.map("sin({})".format),
    ),
    max_leaves=12,
)


# random draws do not always hold a subtraction that parses, and seldom
# a "." just before "²": both are pinned
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join) | _GRAMMAR, st.booleans())
@example("u - v*w/2 + -(u^3)", False)
@example("u - v, 1.5/3", True)
@example(".²", False)
@example("u+.²", True)
@example("1.2.²", False)
@settings(max_examples=250, deadline=None)
def test_the_parser_matches_the_character_loop_it_replaced(body, as_map):
    # equal tokens and trees, the same exception and message, except that a
    # digit no number reader accepts is a parse error before any conversion
    reference = _parsed(oracles.tokenize_reference, body)
    _same_as_the_reference(_parsed(_tokenize, body), reference, body)
    if as_map:
        text = f"map f(u, v) -> ({body})"
        new = _parsed(parse_map, text)
        _same_as_the_reference(new, _parsed(oracles.parse_map_reference, text), text)
    else:
        new = _parsed(parse_expression, body, ("u", "v", "w"))
        reference = _parsed(oracles.parse_expression_reference, body, ("u", "v", "w"))
        _same_as_the_reference(new, reference, body)


def test_a_digit_no_number_reader_accepts_is_a_parse_error():
    for text, offset in (("u+²", 2), ("u^²", 2), ("1²", 1), ("²u", 0)):
        with pytest.raises(ParseError, match=f"^unexpected character '²' at offset {offset}$"):
            parse_expression(text, ("u",))
        with pytest.raises(ValueError):
            oracles.parse_expression_reference(text, ("u",))
    assert parse_expression("u²+٣", ("u²",)) == var(0) + const(3)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_serialized_random_maps_parse_alike_through_both_parsers(seed):
    rng = random.Random(seed)
    f = random_poly_map(rng, rng.randint(1, 3), rng.randint(1, 3))
    text = serialize_map(f)
    back = parse_map(text)
    assert back == oracles.parse_map_reference(text)
    assert parse_map(serialize_map(back)) == back


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


class _CountingNumbers(_Numbers):
    def __init__(self):
        super().__init__(exact=True)
        self.products = 0

    def mul(self, a, b):
        self.products += 1
        return a * b


@pytest.mark.parametrize(
    "n, products",
    # squarings plus the set bits after the first; x^+-1 keeps its 1*x
    [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (7, 4), (8, 3), (-1, 1), (-3, 2)],
)
def test_powers_start_at_their_base(n, products):
    ring = _CountingNumbers()
    assert fold(var(0) ** n, ring, [Fraction(3, 2)]) == Fraction(3, 2) ** n
    assert ring.products == products


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


def test_a_call_is_described_only_when_a_ring_refuses_it(monkeypatch):
    # the text of a call node is read only by error messages, so a float jet
    # that succeeds serializes no node, and a refusal words it as before
    from weilkit import expr

    calls = []
    real = expr.serialize_expression
    monkeypatch.setattr(expr, "serialize_expression", lambda *a: calls.append(a) or real(*a))
    f = parse_map("f(u) -> (exp(sin(u)) + log(2 + u^2)*sqrt(cos(u) + 3))")
    jet(f, 0.5, 6, Mode.FLOAT)
    assert calls == []
    g = parse_map("g(u) -> (u + sin(u^2))")
    with pytest.raises(ModeError) as exact:
        jet(g, Fraction(1, 2), 2)
    assert str(exact.value) == "sin() has no exact rational value; evaluate in float mode (sin(u^2))"
    with pytest.raises(NonPolynomialError) as symbolic:
        g.to_polys()
    assert str(symbolic.value) == "sin() is not polynomial: sin(u^2)"
    assert len(calls) == 2


# ----- exact polynomials on ints against the Fraction dicts ---------------------------

_LIFT_ALGEBRAS = (
    dual_numbers(),
    jet_line(2),
    first_order_infinitesimals(2),
    product_over_k(dual_numbers(), jet_line(2))[0],  # tabled: structure constants scale
)


def _polynomial_body(rng, nvars):
    """random_poly_expr, at random divided by a constant, times a negative
    power of a constant (either constant may be zero), divided by a body
    that may depend on the inputs, or plus a call."""
    body = random_poly_expr(rng, nvars, depth=2)
    q = const(random_rational(rng, 2))
    kind = rng.choice(("plain", "plain", "div", "negative power", "refused div", "call"))
    if kind == "div":
        return body / q
    if kind == "negative power":
        return body * q ** rng.choice((-1, -2, -3))
    if kind == "refused div":
        return body / random_poly_expr(rng, nvars, depth=1)
    if kind == "call":
        return body + sin(random_poly_expr(rng, nvars, depth=1))
    return body


def _result(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError, FiberedError) as exc:
        return type(exc), str(exc)


def _square(source, target, top, bottom):
    try:
        FiberedMorphism(source, target, top, bottom)
    except FiberedError as exc:
        return str(exc)
    return None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_int_polynomials_match_the_fraction_reference(seed):
    # every reader of the int form against the former Fraction dicts, folded
    # over the same ring protocol: the same values, or the same exception
    # type and message
    rng = random.Random(seed)
    names = ("x", "y")
    f = SmoothMap(names, (_polynomial_body(rng, 2), random_poly_expr(rng, 2, 2)), name="f")
    assert _result(f.to_polys) == _result(oracles.fraction_polys, f)
    point = (random_rational(rng), random_rational(rng))
    assert _result(jacobian, f, point) == _result(oracles.jacobian_reference, f, point)
    w = rng.choice(_LIFT_ALGEBRAS)
    assert _result(lambda: serialize_map(lift_map(f, w))) == _result(
        lambda: serialize_map(oracles.lift_map_reference(f, w))
    )
    # squares over the projection onto f's first body, which may be refused;
    # the identity square commutes exactly when the projection is polynomial
    p = FiberedObject(SmoothMap(names, f.bodies[:1], name="p"))
    squares = [
        (f, SmoothMap(("s",), (_polynomial_body(rng, 1),), name="b")),
        (SmoothMap.identity(2), SmoothMap.identity(1)),
        (SmoothMap(names, (var(0) / 2 * 2, var(1)), name="h"), SmoothMap.identity(1)),
    ]
    for top, bottom in squares:
        assert _square(p, p, top, bottom) == oracles.square_decision_reference(p, p, top, bottom)
