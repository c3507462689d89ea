"""Lifting smooth maps to algebra-valued points, and the jet extractors."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilkit import (
    Mode,
    ModeError,
    WeilAlgebra,
    WeilPoint,
    apply_map,
    apply_morphism,
    dual_numbers,
    embed_base,
    first_order_infinitesimals,
    jet,
    jet_line,
    lift_map,
    mixed_jet,
    parse_map,
    qq,
    tensor,
    terminal,
)
from weilkit.corpus import (
    random_morphism,
    random_point,
    random_poly_map,
    random_presented_algebra,
    random_rational,
)
from weilkit.smooth import (
    FLOATS,
    EvaluationError,
    check_functor_composition,
    check_reparametrization_naturality,
    evaluate_at_scalars,
    flatten,
    nest,
)

import oracles


# ----- evaluation --------------------------------------------------------------


def test_lifted_evaluation_frozen():
    # over the square-zero line, f(a + b dx) = f(a) + f'(a) b dx
    d = dual_numbers()
    f = parse_map("map f(u) -> (u^3)")
    a = d.scalar(qq(2)) + d.basis_element(1).scaled(qq(5))
    out = apply_map(f, WeilPoint(d, [a]))
    assert out.coords[0] == d.scalar(qq(8)) + d.basis_element(1).scaled(qq(60))


def test_scalars_evaluate_plainly():
    f = parse_map("map f(u, v) -> (u*v - 1)")
    (val,) = evaluate_at_scalars(f, (Fraction(3), Fraction(1, 3)))
    assert val == qq(0)


def test_transcendental_needs_float_mode():
    d = dual_numbers()
    f = parse_map("map f(u) -> (sin(u))")
    exact = WeilPoint.from_scalars(d, [Fraction(1)])
    with pytest.raises(ModeError):
        apply_map(f, exact)
    lifted = apply_map(f, WeilPoint.from_scalars(d, [1.0], FLOATS))
    assert abs(lifted.coords[0].coeffs[0] - math.sin(1.0)) < 1e-12


def test_division_by_zero_scalar_part_is_an_evaluation_error():
    d = dual_numbers()
    f = parse_map("map f(u) -> (1 / u)")
    nilpotent = WeilPoint(d, [d.basis_element(1)])
    with pytest.raises(EvaluationError):
        apply_map(f, nilpotent)


def test_log_needs_positive_scalar_part():
    d = dual_numbers()
    f = parse_map("map f(u) -> (log(u))")
    with pytest.raises(EvaluationError):
        apply_map(f, WeilPoint.from_scalars(d, [-1.0], FLOATS))


def test_base_projection_and_embedding():
    w = first_order_infinitesimals(2)
    x = w.basis_element(1)
    p = WeilPoint(w, [w.scalar(qq(3)) + x, w.scalar(qq(-1))])
    assert p.base() == (qq(3), qq(-1))
    back = embed_base(p, jet_line(2))
    assert back.algebra == jet_line(2)
    assert back.base() == p.base()
    # the projection onto ordinary points is the embedding into the terminal algebra
    flat = embed_base(p, terminal())
    assert flat.algebra == terminal() and flat.base() == p.base()


# ----- jets ----------------------------------------------------------------------


def test_jet_frozen_values():
    f = parse_map("map f(u) -> (u^2)")
    assert [c for c in jet(f, Fraction(3), 2)[0]] == [9, 6, 1]
    g = parse_map("map g(u) -> (1)")
    assert [c for c in jet(g, Fraction(0), 3)[0]] == [1, 0, 0, 0]


def test_jet_against_symbolic_oracle_exact():
    cases = [
        ("map f(u) -> (u^4 - 3*u + 1)", "u**4 - 3*u + 1", Fraction(2)),
        ("map f(u) -> ((u^2 + 1)^3)", "(u**2 + 1)**3", Fraction(-1, 2)),
        ("map f(u) -> (u^5 / 4 - u)", "u**5 / 4 - u", Fraction(1, 3)),
    ]
    for ours, theirs, at in cases:
        coeffs = [c for c in jet(parse_map(ours), at, 4)[0]]
        expected = [
            oracles.to_fraction(v)
            for v in oracles.taylor_coeffs_symbolic(theirs, "u", at, 4)
        ]
        assert coeffs == expected


def test_jet_of_transcendental_in_float_mode():
    f = parse_map("map f(u) -> (exp(2*u))")
    coeffs = [c for c in jet(f, 0.25, 3, Mode.FLOAT)[0]]
    fn = lambda t: math.exp(2 * t)
    fd = oracles.fd_taylor_coeffs(fn, 0.25, 3)
    for a, b in zip(coeffs, fd):
        assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


def test_jet_rejects_multi_input_maps():
    f = parse_map("map f(u, v) -> (u + v)")
    with pytest.raises(ValueError):
        jet(f, Fraction(0), 2)


def test_mixed_jet_frozen():
    f = parse_map("map f(u, v) -> (u*v)")
    table, algebra = mixed_jet(f, (Fraction(1), Fraction(2)), (1, 1))
    coeffs = table[0]
    assert coeffs[(0, 0)] == 2
    assert coeffs[(1, 0)] == 2
    assert coeffs[(0, 1)] == 1
    assert coeffs[(1, 1)] == 1
    assert algebra.dimension == 4


def test_mixed_jet_matches_symbolic_oracle():
    f = parse_map("map f(u, v) -> (u^2*v^3 - v)")
    table, _ = mixed_jet(f, (Fraction(2), Fraction(-1)), (2, 2))
    for exps, got in table[0].items():
        want = oracles.mixed_coeff_symbolic(
            "u**2*v**3 - v", ("u", "v"), (Fraction(2), Fraction(-1)), exps
        )
        assert got == oracles.to_fraction(want)


# ----- functor laws ---------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_identity_morphism_acts_trivially(seed):
    rng = random.Random(seed)
    w = random_presented_algebra(rng)
    p = random_point(rng, w, 2)
    from weilkit import WeilMorphism

    assert apply_morphism(WeilMorphism.identity(w), p).coords == p.coords


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_reparametrization_respects_composition(seed):
    rng = random.Random(seed)
    a = random_presented_algebra(rng)
    b = random_presented_algebra(rng)
    c = random_presented_algebra(rng)
    phi = random_morphism(rng, a, b)
    psi = random_morphism(rng, b, c)
    p = random_point(rng, a, 2)
    one_step = apply_morphism(psi.compose(phi), p)
    two_steps = apply_morphism(psi, apply_morphism(phi, p))
    assert one_step.coords == two_steps.coords


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_naturality_square_on_random_instances(seed):
    rng = random.Random(seed)
    src = random_presented_algebra(rng)
    tgt = random_presented_algebra(rng)
    phi = random_morphism(rng, src, tgt)
    f = random_poly_map(rng, 2, 2, depth=3)
    p = random_point(rng, src, 2)
    verdict = check_reparametrization_naturality(f, phi, p)
    assert verdict.ok and verdict.exactness == "exact"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_composite_route_equals_tensor_route(seed):
    rng = random.Random(seed)
    w, _, _ = tensor(dual_numbers(), jet_line(2, "y"))
    p = random_point(rng, w, 2)
    f = random_poly_map(rng, 2, 2, depth=3)
    verdict = check_functor_composition(f, p)
    assert verdict.ok and verdict.exactness == "exact"


def test_functor_composition_needs_a_tensor_algebra():
    f = parse_map("map f(u) -> (u)")
    p = WeilPoint.from_scalars(dual_numbers(), [Fraction(1)])
    with pytest.raises(ValueError):
        check_functor_composition(f, p)


def _skewed_dual_numbers():
    """Dual numbers on the basis 1, 3 + e, so the augmentation is (1, 3)."""
    one, skew = [qq(1), qq(0)], [qq(0), qq(1)]
    return WeilAlgebra.tabled([[one, skew], [skew, [qq(-9), qq(6)]]], [qq(1), qq(3)])


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
@pytest.mark.parametrize("factors", ["presented", "skewed outer", "skewed inner"])
def test_composite_route_agrees_on_a_map_that_divides(mode, factors):
    f = parse_map("map f(u, v) -> (1/(2+u) + u/(3+u^2), v^-2 - u/(v + 5))")
    w1, w2 = {
        "presented": (jet_line(2), first_order_infinitesimals(2)),
        "skewed outer": (jet_line(2), _skewed_dual_numbers()),
        "skewed inner": (_skewed_dual_numbers(), dual_numbers("y")),
    }[factors]
    w, _, _ = tensor(w1, w2)
    p = random_point(random.Random(6), w, 2, mode=mode, base_shift=7)
    verdict = check_functor_composition(f, p)
    assert verdict.ok, verdict.certificate
    assert verdict.exactness == ("exact" if mode is Mode.EXACT else "sampled")


def test_nest_flatten_round_trip():
    rng = random.Random(4)
    w, _, _ = tensor(first_order_infinitesimals(2), dual_numbers("q"))
    p = random_point(rng, w, 1)
    el = p.coords[0]
    assert flatten(nest(el), w) == el


# ----- materialized lifts ----------------------------------------------------------


def test_lift_map_matches_pointwise_application():
    rng = random.Random(17)
    w = jet_line(2)
    f = random_poly_map(rng, 2, 2, depth=3)
    lifted = lift_map(f, w)
    p = random_point(rng, w, 2)
    flat_in = [c for x in p.coords for c in x.coeffs]
    direct = apply_map(f, p)
    flat_out = [c for x in direct.coords for c in x.coeffs]
    assert [v for v in lifted(flat_in)] == flat_out


def test_lift_map_divides_by_constants():
    rng = random.Random(23)
    w = jet_line(3)
    f = parse_map("map f(u, v) -> (u/2 - v^2/(3 - 1/2), (u + v)^3/(2 + 3)^2, 1/(4*2^-1))")
    lifted = lift_map(f, w)
    p = random_point(rng, w, 2)
    flat_in = [c for x in p.coords for c in x.coeffs]
    flat_out = [c for x in apply_map(f, p).coords for c in x.coeffs]
    assert list(lifted(flat_in)) == flat_out


def test_lift_map_refuses_division_by_an_input():
    from weilkit.expr import NonPolynomialError

    with pytest.raises(NonPolynomialError):
        lift_map(parse_map("map f(u) -> (1/(1+u))"), dual_numbers())


def test_lift_map_rejects_transcendental_bodies():
    from weilkit.expr import NonPolynomialError

    f = parse_map("map f(u) -> (exp(u))")
    with pytest.raises(NonPolynomialError):
        lift_map(f, dual_numbers())


def test_lifted_line_is_a_commutative_ring():
    w = first_order_infinitesimals(2)
    add = lift_map(parse_map("map plus(u, v) -> (u + v)"), w)
    mul = lift_map(parse_map("map times(u, v) -> (u * v)"), w)
    neg = lift_map(parse_map("map negate(u) -> (-u)"), w)
    rng = random.Random(8)
    d = w.dimension
    a = [random_rational(rng) for _ in range(d)]
    b = [random_rational(rng) for _ in range(d)]
    c = [random_rational(rng) for _ in range(d)]
    assert mul(a + b) == mul(b + a)
    assert add(a + b) == add(b + a)
    ab_c = mul(mul(a + b) + c)
    a_bc = mul(a + mul(b + c))
    assert ab_c == a_bc
    # distributivity, with the unit acting as identity
    lhs = mul(a + add(b + c))
    rhs = add(mul(a + b) + mul(a + c))
    assert lhs == rhs
    one = list(w.one().raw)
    assert mul(a + one) == a
    assert add(a + neg(a)) == [0] * d
