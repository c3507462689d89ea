"""Projections, vertical fibers, and the checks built on them."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cone_commutes_reference,
    kron_reference,
    maps_agree_reference,
    pullback_point_reference,
    skewed_copy,
    solve_fiber_reference,
    spans_equal_reference,
    square_sides_reference,
    vertical_left_exact_reference,
    vertical_space_reference,
)

from weilkit import (
    DiagramInWeil,
    FiberedError,
    FiberedMorphism,
    FiberedObject,
    InfinitesimalArrow,
    SmoothMap,
    WeilMorphism,
    WeilPoint,
    check_fibered_microlinear,
    check_vertical_equalizer,
    check_vertical_left_exact,
    check_vertical_microlinearity,
    dual_numbers,
    fibered_exponential_pullback,
    fibered_suite,
    first_order_infinitesimals,
    is_limit_cone,
    jet_line,
    parse_map,
    qq,
    sphere_distance,
    terminal,
    vertical_fiber,
    vertical_functor_on_morphism,
    vertical_membership,
    vertical_suite,
)
from weilkit import fibered
from weilkit.corpus import random_limit_cone, random_point, random_poly_map, random_rational
from weilkit.exactlin import Matrix, factor
from weilkit.expr import PolyCoefficients, linear_map, serialize_map
from weilkit.fibered import (
    FiberedDiagram,
    _broken_pullback_cone,
    _polys,
    _projection_pullback_cone,
    _pullback_point,
    _random_block_morphism,
    _random_standard_fibered,
    arrow_weil_functor,
    vertical_space_basis,
)
from weilkit.smooth import FLOATS, ExtendedElement, apply_map
from weilkit.weil import DiagramError, limit_cone, parse_algebra


# ----- fibered objects -------------------------------------------------------


def test_from_text_round_trip():
    p = FiberedObject.from_text("fibered sphere(x,y,z) -> (x^2+y^2+z^2)")
    assert p.total_dim == 3 and p.base_dim == 1
    assert not p.is_linear
    text = serialize_map(p.projection, keyword="fibered")
    again = FiberedObject.from_text(text)
    assert serialize_map(again.projection, keyword="fibered") == text


def test_dimensions_come_from_the_map():
    grow = FiberedObject(parse_map("map g(u) -> (u, u)"))
    assert (grow.total_dim, grow.base_dim) == (1, 2)
    lifted = arrow_weil_functor(jet_line(2), grow)
    assert (lifted.total_dim, lifted.base_dim) == (3, 6)
    d, d2 = dual_numbers(), first_order_infinitesimals(2)
    embed = WeilMorphism.from_generator_images(d, d2, [d2.basis_element(1)])
    arrow = InfinitesimalArrow(embed)
    assert (arrow.total, arrow.base) == (d2, d)


def test_coordinate_projection_is_linear():
    p = FiberedObject.coordinate_projection(3, 1)
    assert p.is_linear
    assert p.linear_rows() == [[Fraction(1), Fraction(0), Fraction(0)]]


def test_morphism_square_must_commute():
    p = FiberedObject.identity(1)
    q = FiberedObject.identity(1)
    top = parse_map("map t(u) -> (u + 1)")
    bottom = parse_map("map b(u) -> (u)")
    with pytest.raises(FiberedError):
        FiberedMorphism(p, q, top, bottom)
    ok = FiberedMorphism(p, q, top, parse_map("map b(u) -> (u + 1)"))
    assert ok.compose(FiberedMorphism.identity(p)).source is p


def test_lifting_needs_polynomial_projections():
    p = FiberedObject.from_text("fibered t(x) -> (exp(x))")
    with pytest.raises(FiberedError):
        arrow_weil_functor(dual_numbers(), p)


def test_lifted_projection_dimensions():
    w = first_order_infinitesimals(2)
    p = sphere_distance()
    lifted = arrow_weil_functor(w, p)
    assert lifted.total_dim == 3 * w.dimension
    assert lifted.base_dim == 1 * w.dimension


# ----- verticality -------------------------------------------------------------


def test_vertical_membership_trio():
    d = dual_numbers()
    p = FiberedObject.coordinate_projection(2, 1)
    x = d.basis_element(1)
    vertical = WeilPoint(d, [d.scalar(qq(3)), d.scalar(qq(5)) + x])
    tilted = WeilPoint(d, [d.scalar(qq(3)) + x, d.scalar(qq(5))])
    assert vertical_membership(p, d, vertical)
    assert not vertical_membership(p, d, tilted)
    base_only = WeilPoint.from_scalars(d, [Fraction(3), Fraction(5)])
    assert vertical_membership(p, d, base_only)


def test_vertical_space_basis_blocks_projected_nilpotents():
    d = dual_numbers()
    p = FiberedObject.coordinate_projection(2, 1)
    basis = vertical_space_basis(p, d)
    # flat layout (c0.1, c0.x, c1.1, c1.x): only the projected coordinate's
    # nilpotent slot is constrained away, units stay free
    assert len(basis) == 3
    assert all(v[1] == 0 for v in basis)


def test_sphere_fiber_frozen():
    fib = vertical_fiber(sphere_distance(), dual_numbers(), (qq(1), qq(0), qq(0)))
    assert fib.regular and fib.consistent
    assert fib.jacobian_rank == 1
    assert fib.dimension == 2
    kernel = [[e for e in v] for v in fib.kernel]
    assert kernel == [[0, 1, 0], [0, 0, 1]]
    # fiber points satisfy the defining equation exactly
    x = fib.point((qq(2), qq(-7)))
    assert vertical_membership(sphere_distance(), dual_numbers(), x)


def test_identity_fiber_is_a_single_point():
    fib = vertical_fiber(FiberedObject.identity(2), dual_numbers(), (qq(4), qq(5)))
    assert fib.dimension == 0
    assert fib.origin is not None
    assert fib.origin.base() == (qq(4), qq(5))


def test_higher_order_fiber_has_one_parameter_per_degree():
    fib = vertical_fiber(
        FiberedObject.coordinate_projection(2, 1), jet_line(2), (qq(0), qq(0))
    )
    assert fib.dimension == 2
    assert [d for d, *_ in fib.per_degree] == [1, 2]


def test_irregular_point_is_flagged():
    fib = vertical_fiber(sphere_distance(), dual_numbers(), (qq(0), qq(0), qq(0)))
    assert not fib.regular
    assert fib.jacobian_rank == 0


def test_inconsistent_fiber_equations_raise():
    # the second output sees the square of a degree-1 displacement, which
    # no degree-2 correction along the one-column jacobian can cancel
    p = FiberedObject.from_text("fibered f(x,y) -> (x, y^2)")
    fib = vertical_fiber(p, jet_line(2), (qq(0), qq(0)))
    assert not fib.regular
    with pytest.raises(FiberedError, match="degree 2"):
        fib.point((qq(1), qq(0)))


# the four algebras of the benchmark's vertical commands, and a tabled
# limit apex (dimension 7, nilpotency degree 3) whose filtered basis is not
# its own basis
_FIBER_ALGEBRAS = [
    parse_algebra(text)
    for text in ("Q[d]/(d^2)", "Q[d]/(d^3)", "Q[d,e]/(d^2, e^2)", "Q[d,e]/(d^2, e^2, d*e)")
] + [random_limit_cone(random.Random(0)).apex]


def _solved(solve, params):
    """(point coordinates, per-degree record) of a solve, or its refusal."""
    try:
        point, record = solve(params)
    except FiberedError as exc:
        return "refused", str(exc)
    return point.coords, record


def _assert_fiber_matches_the_reference(fib, params):
    origin = _solved(lambda ps: solve_fiber_reference(fib, ps), [0] * fib.dimension)
    assert origin == (fib.origin.coords, fib.per_degree)
    got = _solved(lambda ps: (fib.point(ps), None), params)
    want = _solved(lambda ps: solve_fiber_reference(fib, ps), params)
    assert got[0] == want[0]


@given(
    st.sampled_from(range(len(_FIBER_ALGEBRAS))),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_vertical_fiber_matches_the_solve_that_lifts_every_degree(
    which, total, seed, at_zero, zero_params
):
    rng = random.Random(seed)
    w = _FIBER_ALGEBRAS[which]
    p = FiberedObject(random_poly_map(rng, total, rng.randint(1, total), depth=2))
    e0 = [0] * total if at_zero else [random_rational(rng, 3) for _ in range(total)]
    fib = vertical_fiber(p, w, e0)
    params = [0 if zero_params else random_rational(rng, 3) for _ in range(fib.dimension)]
    _assert_fiber_matches_the_reference(fib, params)


@pytest.mark.parametrize(
    "text, algebra, e0, params",
    [
        ("fibered s(x,y,z) -> (x^2+y^2+z^2)", 2, (1, 0, 0), (2, -7, 1, 0, 3, 1)),
        ("fibered s(x,y) -> (x*y)", 4, (0, 0), None),  # irregular: refused at degree 2
        ("fibered f(x,y) -> (x, y^2)", 1, (0, 0), (1, 0)),  # irregular: refused at degree 2
        ("fibered c(x,y) -> (y^2 - x^3)", 3, (1, 1), (1, -1)),
    ],
)
def test_vertical_fiber_matches_the_reference_on_named_points(text, algebra, e0, params):
    fib = vertical_fiber(FiberedObject.from_text(text), _FIBER_ALGEBRAS[algebra], e0)
    params = [1] * fib.dimension if params is None else params
    _assert_fiber_matches_the_reference(fib, params)


def test_vertical_fiber_lifts_the_projection_once(monkeypatch):
    calls = []
    real = fibered.apply_map
    monkeypatch.setattr(fibered, "apply_map", lambda f, x: calls.append(f) or real(f, x))
    fib = vertical_fiber(sphere_distance(), jet_line(3), (qq(1), qq(0), qq(0)))
    assert fib.consistent and [d for d, *_ in fib.per_degree] == [1, 2, 3]
    assert len(calls) == 0  # the origin e0*1 is read off, not solved
    calls.clear()
    fib.point([1] * fib.dimension)
    assert len(calls) == 3  # degrees 2 and 3 follow a nonzero slot, then the recheck


def test_float_input_rejected():
    with pytest.raises(FiberedError):
        vertical_fiber(sphere_distance(), dual_numbers(), (1.0, 0.0, 0.0))


def test_membership_refuses_float_points():
    d = dual_numbers()
    p = FiberedObject.coordinate_projection(2, 1)
    vertical = WeilPoint(
        d, [ExtendedElement(FLOATS, d, [3.0, 0.0]), ExtendedElement(FLOATS, d, [5.0, 1.0])]
    )
    for x in (vertical, WeilPoint.from_scalars(d, [3, 5], FLOATS)):
        with pytest.raises(FiberedError, match="float point"):
            vertical_membership(p, d, x)


# ----- the vertical functor ------------------------------------------------------


def test_vertical_functor_rejects_non_vertical_points():
    d = dual_numbers()
    p = FiberedObject.coordinate_projection(2, 1)
    m = FiberedMorphism.identity(p)
    tilted = WeilPoint(d, [d.scalar(qq(1)) + d.basis_element(1), d.scalar(qq(0))])
    with pytest.raises(FiberedError):
        vertical_functor_on_morphism(m, d, tilted)


def test_vertical_functor_refuses_float_points():
    d = dual_numbers()
    p = FiberedObject.coordinate_projection(2, 1)
    m = FiberedMorphism(p, p, parse_map("t(a, b) -> (a, 3*b)"), parse_map("s(a) -> (a)"))
    x = WeilPoint(
        d, [ExtendedElement(FLOATS, d, [2.0, 0.0]), ExtendedElement(FLOATS, d, [1.0, 1.0])]
    )
    with pytest.raises(FiberedError, match="float point"):
        vertical_functor_on_morphism(m, d, x)


def test_vertical_functor_transports_fibers():
    d = dual_numbers()
    p = FiberedObject.coordinate_projection(2, 1)
    q = FiberedObject.coordinate_projection(2, 1)
    top = parse_map("map t(a, b) -> (a, 3*b)")
    bottom = parse_map("map bt(s) -> (s)")
    m = FiberedMorphism(p, q, top, bottom)
    x = WeilPoint(d, [d.scalar(qq(2)), d.scalar(qq(1)) + d.basis_element(1)])
    y = vertical_functor_on_morphism(m, d, x)
    assert vertical_membership(q, d, y)
    assert y.coords[1] == d.scalar(qq(3)) + d.basis_element(1).scaled(qq(3))


def test_vertical_equalizer_report():
    p = FiberedObject.coordinate_projection(3, 1)
    rep = check_vertical_equalizer(p, first_order_infinitesimals(2), samples=8, seed=5)
    assert rep.ok, rep.render()


# ----- diagram-level checks -------------------------------------------------------


def test_left_exact_on_the_pullback_cone():
    v = check_vertical_left_exact(_projection_pullback_cone(), dual_numbers())
    assert v.ok and v.exactness == "exact"


def test_left_exact_refuses_the_broken_cone():
    v = check_vertical_left_exact(_broken_pullback_cone(), dual_numbers())
    assert not v.ok


def test_left_exact_refuses_a_leg_that_folds_the_fibers():
    # the image is every compatible family, but the fold is not injective
    # on vertical parts
    p = FiberedObject.coordinate_projection(2, 1)
    apex = FiberedObject.coordinate_projection(3, 1)
    fold = FiberedMorphism(
        apex, p, parse_map("map fold(a, b, c) -> (a, b + c)"), parse_map("map b(a) -> (a)")
    )
    v = check_vertical_left_exact(FiberedDiagram((p,), (), apex, (fold,)), dual_numbers())
    assert not v.ok
    assert v.certificate == (
        "vertical apex dimension 5; compatible vertical families dimension 3; image matches"
    )


def test_left_exact_refuses_nonlinear_diagrams_naming_the_first():
    sphere = sphere_distance()
    p = FiberedObject.coordinate_projection(2, 1)
    square = FiberedMorphism(
        p, p, parse_map("map sq(a, b) -> (a, b^2)"), parse_map("map id(s) -> (s)")
    )
    ident = FiberedMorphism.identity(p)
    cases = [
        (
            FiberedDiagram((sphere,), (), sphere, (FiberedMorphism.identity(sphere),)),
            r"the apex \(sphere",
        ),
        (FiberedDiagram((p,), (), p, (square,)), r"leg 0 \(sq\)"),
        (FiberedDiagram((p, p), ((0, 1, square),), p, (ident, square)), r"arrow 0 -> 1 \(sq\)"),
    ]
    for diagram, named in cases:
        with pytest.raises(FiberedError, match=named + r".* is not linear"):
            check_vertical_left_exact(diagram, dual_numbers())


# ----- linear vertical bundles read off ker P ------------------------------------


def _skewed_limit_apex():
    """A tabled limit apex on the basis 1, e_i + c_i, so that its
    augmentation does not vanish past the unit (a limit's own is e0*)."""
    apex = random_limit_cone(random.Random(0)).apex
    c = [Fraction((-1) ** i * (i % 3 + 1), 1 + i % 2) for i in range(apex.dimension)]
    return skewed_copy(apex, [Fraction(0)] + c[1:])


_VERTICAL_ALGEBRAS = {
    "dual numbers": dual_numbers(),
    "second-order jets": jet_line(2),
    "two first-order infinitesimals": first_order_infinitesimals(2),
    "scalars": terminal(),
    "skewed limit apex": _skewed_limit_apex(),
}


def _linear_object(rng):
    """(P, G, G^-1): the coordinate projection R^e -> R^b after G^-1, with G
    the identity or a random invertible matrix, so ker P is G's last e - b
    columns; b = 0 and b = e occur."""
    e = rng.randint(1, 3)
    b = rng.randint(0, e)
    g = Matrix.identity(e)
    while rng.random() < 0.6:
        g = Matrix([[rng.randint(-2, 2) for _ in range(e)] for _ in range(e)])
        if g.is_invertible():
            break
        g = Matrix.identity(e)
    g_inv = g.inverse()
    rows = Matrix(Matrix.identity(e).raw[:b], cols=e)
    return FiberedObject(linear_map((rows @ g_inv).raw, n_in=e)), g, g_inv


def _linear_square(rng, src, tgt, collapse=False):
    """A commuting linear square: a block square between the coordinate
    projections, with top conjugated to G_t T G_s^-1.  collapse zeroes the
    fiber rows of T, so the square folds the fibers away."""
    (p, _, g_inv), (q, h, _) = src, tgt
    square = _random_block_morphism(
        rng, FiberedObject.coordinate_projection(p.total_dim, p.base_dim),
        FiberedObject.coordinate_projection(q.total_dim, q.base_dim),
    )
    top = Matrix(square.top.linear_matrix(), cols=p.total_dim)
    if collapse:
        top = Matrix([row if i < q.base_dim else [0] * p.total_dim for i, row in enumerate(top.raw)],
                     cols=p.total_dim)
    top = linear_map((h @ top @ g_inv).raw, n_in=p.total_dim, name="lintop")
    return FiberedMorphism(p, q, top, square.bottom)


def _finest(o):
    """o's total space over its finest projection G^-1, and the leg onto o
    that keeps the point and forgets the base coordinates o does not have:
    the apex has no fiber, so only the cone on the kernels can differ."""
    p, g, g_inv = o
    apex = FiberedObject(linear_map(g_inv.raw, n_in=p.total_dim, name="fine"))
    forget = linear_map(list(Matrix.identity(p.total_dim).raw[: p.base_dim]), n_in=p.total_dim)
    return (apex, g, g_inv), FiberedMorphism(apex, p, SmoothMap.identity(p.total_dim), forget)


def _linear_cone(rng, shape):
    """A linear fibered cone: one object, a span o0 -> o1, or two objects
    with no arrow, or the named pullback cones.  Leg 0 is the identity of
    o0 (a limit), the leg out of o0's finest projection, or a random square
    out of o0 or a fresh apex, a third of which fold the fibers away."""
    if shape in ("pullback", "broken pullback"):
        return _projection_pullback_cone() if shape == "pullback" else _broken_pullback_cone()
    o0, o1 = _linear_object(rng), _linear_object(rng)
    kind = rng.choice(["identity", "finest", "fresh"])
    collapse = rng.random() < 0.33
    if kind == "identity" and not collapse:
        apex, leg0 = o0, FiberedMorphism.identity(o0[0])
    elif kind == "finest":
        apex, leg0 = _finest(o0)
    else:
        apex = o0 if kind == "identity" else _linear_object(rng)
        leg0 = _linear_square(rng, apex, o0, collapse)
    if shape == "single":
        return FiberedDiagram((o0[0],), (), apex[0], (leg0,))
    if shape == "span":
        m = _linear_square(rng, o0, o1)
        return FiberedDiagram((o0[0], o1[0]), ((0, 1, m),), apex[0], (leg0, m.compose(leg0)))
    return FiberedDiagram((o0[0], o1[0]), (), apex[0], (leg0, _linear_square(rng, apex, o1)))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["single", "span", "discrete", "pullback", "broken pullback"]),
    st.sampled_from(sorted(_VERTICAL_ALGEBRAS)),
)
@settings(max_examples=80, deadline=None)
def test_vertical_left_exact_matches_the_kronecker_route(seed, shape, algebra):
    # the unit slots plus ker P (x) m decide as the kernel of the dense
    # P (x) (I - e0 aug) and the lifts A (x) I did: verdict and certificate
    # byte for byte, and vertical bases of the same length and span
    w = _VERTICAL_ALGEBRAS[algebra]
    d = _linear_cone(random.Random(seed), shape)
    v = check_vertical_left_exact(d, w)
    assert (v.ok, v.certificate) == vertical_left_exact_reference(d, w)
    for o in (d.apex, *d.objects):
        basis, want = vertical_space_basis(o, w), vertical_space_reference(o, w)
        assert len(basis) == len(want)
        assert spans_equal_reference(basis, want, o.total_dim * w.dimension)


def test_vertical_left_exact_reads_both_cones():
    # the legs reach every compatible family on the total spaces (rank 2 of
    # 2), but the apex has no fiber, so over the dual numbers the image
    # misses the object's one kernel slot; and a two-slot algebra counts
    # the kernel cone twice
    apex = FiberedObject.identity(2)
    p = FiberedObject.coordinate_projection(2, 1)
    leg = FiberedMorphism(apex, p, SmoothMap.identity(2), parse_map("map b(a, c) -> (a)"))
    d = FiberedDiagram((p,), (), apex, (leg,))
    for w, cert in (
        (dual_numbers(), "vertical apex dimension 2; compatible vertical families dimension 3"),
        (jet_line(2), "vertical apex dimension 2; compatible vertical families dimension 4"),
    ):
        v = check_vertical_left_exact(d, w)
        assert (v.ok, v.certificate) == (False, cert + "; image differs")
        assert (v.ok, v.certificate) == vertical_left_exact_reference(d, w)


def test_fibered_microlinear_conjunction():
    rng = random.Random(13)
    from weilkit.corpus import random_limit_cone

    cone = random_limit_cone(rng)
    v = check_fibered_microlinear(
        FiberedObject.coordinate_projection(2, 1), cone, samples=4, seed=3
    )
    assert v.ok, v.certificate


def test_fibered_microlinear_reads_the_rank_numbers_once(monkeypatch):
    from weilkit import ModelObject, axioms, check_microlinear
    from weilkit.corpus import mutate_cone

    cone = random_limit_cone(random.Random(13))
    mutant = mutate_cone(cone, "inflate")
    proj = FiberedObject.coordinate_projection(3, 1)
    calls = []
    real = axioms._rank_one_numbers
    monkeypatch.setattr(axioms, "_rank_one_numbers", lambda d: calls.append(d) or real(d))
    for d, enforce in ((cone, True), (cone, False), (mutant, False)):
        parts = [
            check_microlinear(ModelObject.coordinate(n), d, enforce_limit_input=False)
            for n in (3, 1)
        ]
        calls.clear()
        v = check_fibered_microlinear(proj, d, samples=2, enforce_limit_input=enforce)
        assert calls == [d]
        assert v.ok == all(part.ok for part in parts) == (d is cone)
        head = f"total space: {parts[0].certificate}; base space: {parts[1].certificate}; "
        assert v.certificate.startswith(head)


def test_vertical_microlinearity_linear_is_exact():
    d = dual_numbers()
    cone = limit_cone(DiagramInWeil((d,), ()))
    v = check_vertical_microlinearity(
        FiberedObject.coordinate_projection(3, 1), cone, (qq(0), qq(1), qq(2))
    )
    assert v.ok and v.exactness == "exact"


def test_vertical_microlinearity_sphere_is_graded():
    d = dual_numbers()
    cone = limit_cone(DiagramInWeil((d,), ()))
    v = check_vertical_microlinearity(
        sphere_distance(), cone, (qq(1), qq(0), qq(0))
    )
    assert v.ok and v.exactness == "graded"


def test_vertical_microlinearity_guards_the_cone():
    d = dual_numbers()
    with pytest.raises(DiagramError):
        check_vertical_microlinearity(
            FiberedObject.identity(1), DiagramInWeil((d,), ()), (qq(0),)
        )


# ----- exponential pullback -------------------------------------------------------


def test_exponential_pullback_frozen_instance():
    p = FiberedObject.coordinate_projection(2, 1)
    theta = InfinitesimalArrow.identity(dual_numbers("q"))
    rep = fibered_exponential_pullback(
        p, theta, dual_numbers(), jet_line(2, "z"), samples=4, seed=9
    )
    assert rep.ok, rep.render()


def test_exponential_pullback_needs_a_linear_surjection():
    theta = InfinitesimalArrow.identity(dual_numbers("q"))
    with pytest.raises(FiberedError):
        fibered_exponential_pullback(
            sphere_distance(), theta, dual_numbers(), dual_numbers("y")
        )
    # a linear projection with a cokernel: the factored lifted projection
    # has cokernel rows, so no sample is drawn
    folded = FiberedObject(linear_map([[1, 0], [2, 0]], name="fold"))
    refusal = "^sampling pullback points needs a surjective linear projection$"
    with pytest.raises(FiberedError, match=refusal):
        fibered_exponential_pullback(folded, theta, dual_numbers(), dual_numbers("y"))


@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_VERTICAL_ALGEBRAS)))
@settings(max_examples=40, deadline=None)
def test_pullback_points_solve_slot_by_slot_like_the_kronecker_system(seed, algebra):
    # P (x) I_w is P on each slot: its echelon kernel is each kernel vector
    # of P in each slot, in that order, and the slotwise solve with its
    # random kernel moves is the point the factored P (x) I_w gave
    rng = random.Random(seed)
    w = _VERTICAL_ALGEBRAS[algebra]
    p = _linear_object(rng)[0]
    pm = Matrix(p.linear_rows(), cols=p.total_dim)
    system, d = factor(pm), w.dimension
    slots = Matrix.identity(d).raw
    lifted = factor(Matrix(kron_reference(pm.raw, slots), cols=p.total_dim * d))
    assert lifted.kernel == [
        tuple(x * y for x in kv for y in unit) for kv in system.kernel for unit in slots
    ]
    target = random_point(rng, w, p.base_dim)
    draws = rng.randrange(1 << 30)
    got = _pullback_point(system, w, target, random.Random(draws))
    want = pullback_point_reference(pm.raw, p.total_dim, w, target, random.Random(draws))
    assert got.coords == want.coords


# ----- suites ---------------------------------------------------------------------


def _sampled(rep):
    return [(o.check, o.instance) for o in rep.outcomes if o.exactness == "sampled"]


def test_fibered_suite_green():
    rep = fibered_suite(seed=1, samples=6)
    assert rep.ok, rep.render()
    # the glue of each arrow-level check is decided on sampled points, and
    # so is each pullback transport, on solved pairs
    glue = [(o.check, o.instance) for o in rep.outcomes if o.check == "fibered-microlinear"]
    pairs = [(o.check, o.instance) for o in rep.outcomes if o.check == "pullback-point-transport"]
    assert len(glue) == 9 and len(pairs) == 3 and _sampled(rep) == glue + pairs


def test_fibered_suite_negative_controls():
    rep = fibered_suite(seed=1, samples=6, negative_controls=True)
    assert rep.ok, rep.render()


def test_vertical_suite_green():
    rep = vertical_suite(seed=1, samples=6)
    assert rep.ok, rep.render()
    assert _sampled(rep) == [
        ("fiber-soundness", "sampled fiber members"),
        ("functor", "base anchors commute across random block squares"),
        ("functor", "double application equals composite"),
    ]


def test_fiber_soundness_fails_instead_of_aborting(monkeypatch):
    # a sampled member that point() refuses is a FAIL of fiber-soundness,
    # and the rest of the suite still runs
    real = fibered.VerticalFiber.point

    def broken(self, params):
        if self.algebra.dimension == 3 and self.base_point == (4, 9):
            raise FiberedError("solved point failed the verticality recheck")
        return real(self, params)

    monkeypatch.setattr(fibered.VerticalFiber, "point", broken)
    rep = vertical_suite(seed=1, samples=6)
    sound = [o.passed for o in rep.outcomes if o.check == "fiber-soundness"]
    assert sound == [False] and not rep.ok
    assert any(o.check == "vertical-microlinear" for o in rep.outcomes)


def test_vertical_suite_negative_controls():
    rep = vertical_suite(seed=1, samples=6, negative_controls=True)
    assert rep.ok, rep.render()


def test_fibered_checkers_word_a_refusal_without_calling_is_limit_cone(monkeypatch):
    # the refusal is worded from the numbers the checker ranked, by the
    # verdict is_limit_cone gives, so is_limit_cone itself never runs
    from weilkit import axioms
    from weilkit.corpus import mutate_cone, random_limit_cone

    rng = random.Random(29)
    cones = [random_limit_cone(rng) for _ in range(4)]
    mutants = [mutate_cone(cone, "inflate") for cone in cones[:2]]
    refusals = [
        re.escape(
            f"input cone is not a limit cone ({is_limit_cone(m).certificate}); "
            "the check would be vacuous"
        )
        for m in mutants
    ]
    proj = FiberedObject.coordinate_projection(3, 1)
    calls = []
    real = axioms.is_limit_cone
    monkeypatch.setattr(axioms, "is_limit_cone", lambda d: calls.append(d) or real(d))
    for cone in cones:
        assert check_fibered_microlinear(proj, cone, samples=2).ok
        assert check_vertical_microlinearity(proj, cone, (qq(0), qq(1), qq(2))).ok
        assert check_vertical_microlinearity(sphere_distance(), cone, (1, 0, 0)).ok
    for mutant, refusal in zip(mutants, refusals):
        with pytest.raises(DiagramError, match=f"^{refusal}$"):
            check_fibered_microlinear(proj, mutant, samples=2)
        with pytest.raises(DiagramError, match=f"^{refusal}$"):
            check_vertical_microlinearity(proj, mutant, (0, 0, 0))
    assert calls == []


def test_vertical_microlinearity_reads_the_rank_numbers_once(monkeypatch):
    from weilkit import axioms

    rng = random.Random(31)
    cones = [random_limit_cone(rng) for _ in range(3)]
    cases = [
        (FiberedObject.coordinate_projection(3, 1), (0, 1, 2), "exact"),
        (sphere_distance(), (1, 0, 0), "graded"),
        (FiberedObject.from_text("fibered s(x,y) -> (x*y)"), (0, 0), "sampled"),
    ]
    calls = []
    real = axioms._rank_one_numbers
    monkeypatch.setattr(axioms, "_rank_one_numbers", lambda d: calls.append(d) or real(d))
    for cone in cones:
        for p, e0, how in cases:
            for enforce in (True, False):
                calls.clear()
                v = check_vertical_microlinearity(p, cone, e0, enforce_limit_input=enforce)
                assert len(calls) == 1 and v.exactness == how
                if how != "sampled":
                    assert v.ok


# ----- squares are decided exactly ----------------------------------------------


@pytest.mark.parametrize(
    "left, right",
    [
        ("log(u-5)", "2*log(u-5)"),
        ("exp(u)^2000", "2*exp(u)^2000"),
        ("sin(u) + (10^200*u)*(10^200*u)", "sin(u)"),
        ("exp(exp(100*u))", "exp(exp(100*u))"),
        ("sin(u)", "sin(u)"),
        # a denominator that depends on the input, and a zero one
        ("1/u", "1/u"),
        ("u/(u-u)", "u/(u-u)"),
    ],
)
def test_non_polynomial_squares_and_cones_are_refused(left, right):
    f, g = parse_map(f"f(u) -> ({left})"), parse_map(f"g(u) -> ({right})")
    line = FiberedObject.identity(1)
    with pytest.raises(FiberedError, match="polynomial maps only"):
        FiberedMorphism(line, line, f, g)  # the square compares f with g
    # over R^0 a leg's square is empty, so no cone over it can be built:
    # the leg itself is refused
    flat = FiberedObject.coordinate_projection(1, 0)
    for h in (f, g):
        with pytest.raises(FiberedError, match="polynomial maps only"):
            FiberedMorphism(flat, flat, h, SmoothMap.identity(0))


def test_a_call_the_target_projection_drops_is_refused():
    p = FiberedObject.coordinate_projection(2, 1)
    top, bottom = parse_map("t(a, b) -> (a, exp(b))"), parse_map("s(a) -> (a)")
    with pytest.raises(FiberedError, match="polynomial maps only"):
        FiberedMorphism(p, p, top, bottom)
    with pytest.raises(FiberedError, match="polynomial maps only"):
        FiberedMorphism(p, p, SmoothMap.identity(2), parse_map("s(a) -> (exp(a))"))


@given(st.integers(0, 10**6), st.sampled_from(["block", "broken", "polynomial"]))
@settings(max_examples=60, deadline=None)
def test_square_sides_match_the_composites(seed, kind):
    # folding the projections over converted top and bottom gives the
    # polynomials of the composites built as fresh trees, square or not
    rng = random.Random(seed)
    src, tgt = _random_standard_fibered(rng), _random_standard_fibered(rng)
    m = _random_block_morphism(rng, src, tgt)
    top, bottom = m.top, m.bottom
    if kind == "broken":  # one bottom entry moved: the square stops commuting
        rows = bottom.linear_matrix()
        rows[0][0] += 1
        bottom = linear_map(rows, n_in=src.base_dim)
    elif kind == "polynomial":
        top = random_poly_map(rng, src.total_dim, tgt.total_dim, depth=2)
        bottom = random_poly_map(rng, src.base_dim, tgt.base_dim, depth=2)
    sides = _folded_sides(src, tgt, top, bottom)
    assert sides == square_sides_reference(src, tgt, top, bottom)
    commutes = sides[0] == sides[1]  # random polynomial maps may commute too
    assert commutes == (kind == "block") or kind == "polynomial"
    if commutes:
        assert FiberedMorphism(src, tgt, top, bottom).top is top
    else:
        with pytest.raises(FiberedError, match="square does not commute"):
            FiberedMorphism(src, tgt, top, bottom)
    for p in (sphere_distance(), FiberedObject.from_text("fibered c(x,y) -> (y^2 - x^3, x/2)")):
        f = random_poly_map(rng, p.total_dim, p.total_dim, depth=2)
        g = random_poly_map(rng, p.base_dim, p.base_dim, depth=2)
        assert _folded_sides(p, p, f, g) == square_sides_reference(p, p, f, g)


def test_a_square_commutes_however_its_top_is_written():
    # a/2*2 folds to 2a over 2 before the gcd is divided out: squares compare
    # int forms, so they must be canonical for one square written two ways
    p = FiberedObject.coordinate_projection(2, 1)
    bottom = parse_map("s(a) -> (a)")
    for top in ("t(a, b) -> (a, b)", "t(a, b) -> (a/2*2, b/6*3)", "t(a, b) -> (a*(3/4)/(3/4), b)"):
        assert FiberedMorphism(p, p, parse_map(top), bottom).bottom is bottom
    assert _polys(parse_map("t(a) -> (a/2*2)")) == _polys(parse_map("t(a) -> (a)"))


def _folded_sides(source, target, top, bottom):
    """The two sides FiberedMorphism compares, read as Fraction dicts: the
    target projection folded over top's polynomials, and bottom folded over
    the source projection's."""
    sides = _polys(target.projection, top, _polys(top)), _polys(bottom, source.projection)
    return tuple([PolyCoefficients.fractions(p) for p in side] for side in sides)


def _polynomial_block_morphism(rng, src, tgt):
    """A square of random polynomial maps between coordinate projections:
    top repeats bottom on the base rows, so it commutes by shape."""
    bottom = random_poly_map(rng, src.base_dim, tgt.base_dim, depth=2)
    fiber = random_poly_map(rng, src.total_dim, tgt.total_dim - tgt.base_dim, depth=2)
    names = tuple(f"u{i + 1}" for i in range(src.total_dim))
    return FiberedMorphism(src, tgt, SmoothMap(names, bottom.bodies + fiber.bodies), bottom)


@pytest.mark.parametrize(
    "block", [_random_block_morphism, _polynomial_block_morphism], ids=["linear", "polynomial"]
)
@pytest.mark.parametrize("kind", ["commuting", "fresh", "fiber-row"])
def test_cone_squares_match_the_composites(block, kind):
    # folding each arrow map over its source leg's polynomials decides a
    # cone square as building the composite as a tree and converting did
    for seed in range(8):
        rng = random.Random(seed)
        apex, o1, o2 = (_random_standard_fibered(rng) for _ in range(3))
        leg0, m = block(rng, apex, o1), block(rng, o1, o2)
        leg1 = m.compose(leg0)
        if kind == "fresh":
            leg1 = block(rng, apex, o2)
        elif kind == "fiber-row":  # moved off the composite above the base only
            b = o2.base_dim
            bodies = leg1.top.bodies[:b] + tuple(body + 1 for body in leg1.top.bodies[b:])
            leg1 = FiberedMorphism(apex, o2, SmoothMap(leg1.top.var_names, bodies), leg1.bottom)
        arrows, legs = ((0, 1, m),), (leg0, leg1)
        commutes = cone_commutes_reference(arrows, legs)
        assert commutes == (kind == "commuting") or kind == "fresh", seed
        if commutes:
            assert FiberedDiagram((o1, o2), arrows, apex, legs).legs == legs
        else:
            with pytest.raises(FiberedError, match="cone does not commute over the arrow 0 -> 1"):
                FiberedDiagram((o1, o2), arrows, apex, legs)
    for cone in (_projection_pullback_cone(), _broken_pullback_cone()):
        assert cone_commutes_reference(cone.arrows, cone.legs)


def test_a_bottom_that_is_polynomial_only_after_the_projection_is_refused():
    # the source projection is constant, so bottom after it is polynomial,
    # but bottom itself divides by its input
    const = FiberedObject.from_text("fibered k(x,y) -> (2)")
    line = FiberedObject.coordinate_projection(2, 1)
    top = parse_map("t(x, y) -> (1/2, y)")
    with pytest.raises(FiberedError, match="polynomial maps only"):
        FiberedMorphism(const, line, top, parse_map("s(a) -> (1/a)"))
    assert FiberedMorphism(const, line, top, parse_map("s(a) -> (a/4)")).top is top


def test_a_call_in_a_projection_coordinate_that_bottom_drops_is_accepted():
    # as with composites built as trees, only the projection bodies that
    # bottom reads are converted
    p = FiberedObject.from_text("fibered p(x,y) -> (x, exp(y))")
    q = FiberedObject.coordinate_projection(2, 1)
    m = FiberedMorphism(p, q, SmoothMap.identity(2), parse_map("s(a, b) -> (a)"))
    assert m.bottom.arity_in == 2
    with pytest.raises(FiberedError, match="polynomial maps only"):
        FiberedMorphism(p, q, SmoothMap.identity(2), parse_map("s(a, b) -> (a + 0*b)"))


def test_polynomial_squares_are_decided_exactly():
    p = FiberedObject.coordinate_projection(2, 1)
    top = parse_map("t(a, b) -> ((a + b)^2 - b*(2*a + b), b/3)")
    assert FiberedMorphism(p, p, top, parse_map("s(a) -> (a^2)")).top is top
    with pytest.raises(FiberedError, match="does not commute"):
        FiberedMorphism(p, p, top, parse_map("s(a) -> (a^2 + 1/10^30)"))
    assert maps_agree_reference(top, top) is True
    assert maps_agree_reference(top, SmoothMap.identity(2)) is False
