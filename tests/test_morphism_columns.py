"""Weil morphisms acting through their sparse int columns, against the dense
loop they replaced: exact images, composition, and the injections of a
tensor of presented factors.  A float element is refused."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    compose_reference,
    generator_images_reference,
    inclusion_reference,
    inverse_reference,
    limit_legs_reference,
    matmul_reference,
    morphism_apply_reference,
    product_algebra_reference,
    selection_reference,
    tensor_injections_reference,
    tensor_morphism_reference,
)

from weilkit import (
    Matrix,
    ModeError,
    SmoothMap,
    WeilMorphism,
    WeilPoint,
    apply_morphism,
    dual_numbers,
    first_order_infinitesimals,
    jet_line,
    parse_algebra,
    qq,
    tensor,
    tensor_morphism,
    terminal,
)
from weilkit import weil
from weilkit.corpus import (
    collapse_to_scalars,
    mutate_cone,
    random_diagram,
    random_element,
    random_limit_cone,
    random_morphism,
    random_presented_algebra,
    random_rational,
)
from weilkit.smooth import FLOATS, ExtendedElement, basis_element, check_reparametrization_naturality
from weilkit.weil import (
    MorphismError,
    WeilElement,
    augmentation,
    factor_permutation_iso,
    generator_elements,
    limit,
    unit_map,
)

_SEEDS = st.integers(0, 2**32 - 1)
_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


def _jet_automorphism(rng):
    """x -> a x + b x^2 on Q[x]/(x^4); its inverse has mixed denominators."""
    w = jet_line(3)
    (x,) = generator_elements(w)
    a = qq(rng.choice([2, -3, Fraction(1, 2), Fraction(-5, 3)]))
    image = x.scaled(a) + (x * x).scaled(random_rational(rng, 4))
    return WeilMorphism.from_generator_images(w, w, [image])


def _shuffle(rng):
    """The factor shuffle W1 (x) W2 (x) W3 -> W1 (x) W3 (x) W2."""
    w1, w2, w3 = (random_presented_algebra(rng, max_gens=2, max_dim=3) for _ in range(3))
    a = tensor(tensor(w1, w2)[0], w3)[0]
    b = tensor(tensor(w1, w3)[0], w2)[0]
    return factor_permutation_iso(a, b, (0, 2, 1))


def _zoo(rng):
    """Morphisms of every kind the checkers push points through: a random
    map, limit legs, the legs of a collapsed and an inflated mutant cone, a
    shuffle, and isomorphisms with their inverses."""
    out = [random_morphism(rng, random_presented_algebra(rng), random_presented_algebra(rng))]
    cone = random_limit_cone(rng)
    out += cone.legs
    for kind in ("collapse", "inflate"):
        mutant = mutate_cone(cone, kind)
        if mutant is not None:
            out += mutant.legs
    for iso in (_shuffle(rng), _jet_automorphism(rng)):
        out += [iso, inverse_reference(iso)]
    return out


def _float_coefficient(rng):
    if rng.random() < 0.3:
        return rng.choice(_SPECIALS)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)


@given(_SEEDS)
@settings(max_examples=25, deadline=None)
def test_exact_images_match_the_dense_loop(seed):
    rng = random.Random(seed)
    for phi in _zoo(rng):
        src = phi.source
        last = src.basis_element(src.dimension - 1)
        for el in (random_element(rng, src), src.zero(), src.one(), last):
            got = phi.apply(el)
            assert type(got) is WeilElement and got.algebra == phi.target
            assert all(type(c) is Fraction for c in got.raw)
            assert got.raw == morphism_apply_reference(phi, el)


@given(_SEEDS)
@settings(max_examples=25, deadline=None)
def test_morphisms_refuse_float_elements(seed):
    rng = random.Random(seed)
    for phi in _zoo(rng):
        raw = tuple(_float_coefficient(rng) for _ in range(phi.source.dimension))
        el = ExtendedElement(FLOATS, phi.source, raw)
        point = WeilPoint(phi.source, [el, basis_element(phi.source, 0, FLOATS)])
        with pytest.raises(ModeError, match="float element"):
            phi.apply(el)
        with pytest.raises(ModeError, match="float element"):
            apply_morphism(phi, point)
        with pytest.raises(ModeError, match="float element"):
            check_reparametrization_naturality(SmoothMap.identity(2), phi, point)


def test_float_images_and_mixed_points_are_refused():
    w, d = dual_numbers(), dual_numbers("t")
    with pytest.raises(ModeError, match="float image"):
        WeilMorphism.from_generator_images(w, d, [ExtendedElement(FLOATS, d, [0.0, 1.0])])
    # an element of another algebra is no image, whatever its kind
    with pytest.raises(MorphismError, match="not an element of the target"):
        WeilMorphism.from_generator_images(w, d, [ExtendedElement(FLOATS, w, [0.0, 1.0])])
    for coords in ([d.one(), basis_element(d, 0, FLOATS)], [basis_element(d, 1, FLOATS), d.one()]):
        with pytest.raises(ModeError, match="mix exact and float"):
            WeilPoint(d, coords)


def test_float_source_order_element_is_refused():
    # the element whose float image summed left to right (1e16 + 1 + 1
    # rounds to 1e16) is refused before any sum is formed
    w = first_order_infinitesimals(3)
    d = dual_numbers("t")
    (t,) = generator_elements(d)
    phi = WeilMorphism.from_generator_images(w, d, [t, t, t])
    el = ExtendedElement(FLOATS, w, (0.0, 1e16, 1.0, 1.0))
    point = WeilPoint(w, [el])
    with pytest.raises(ModeError, match="float element"):
        phi.apply(el)
    with pytest.raises(ModeError, match="float element"):
        apply_morphism(phi, point)
    with pytest.raises(ModeError, match="float element"):
        check_reparametrization_naturality(SmoothMap.identity(1), phi, point)


@given(_SEEDS)
@settings(max_examples=25, deadline=None)
def test_compose_is_the_dense_product(seed):
    rng = random.Random(seed)
    a, b, c = (random_presented_algebra(rng) for _ in range(3))
    f = random_morphism(rng, a, b)
    g = random_morphism(rng, b, c)
    pairs = [(g, f)]
    cone = random_limit_cone(rng)
    pairs += [(phi, cone.legs[s]) for s, _, phi in cone.arrows]
    mutant = mutate_cone(cone, "inflate")
    pairs.append((WeilMorphism.identity(mutant.objects[0]), mutant.legs[0]))
    for iso in (_shuffle(rng), _jet_automorphism(rng)):
        pairs += [(inverse_reference(iso), iso), (iso, inverse_reference(iso))]
    for outer, inner in pairs:
        composed = outer.compose(inner)
        assert (composed.source, composed.target) == (inner.source, outer.target)
        want = matmul_reference(
            outer.matrix.raw, inner.matrix.raw, inner.target.dimension, inner.source.dimension
        )
        assert composed.matrix.raw == tuple(map(tuple, want))
        assert all(type(e) is Fraction for row in composed.matrix.raw for e in row)
        el = random_element(rng, inner.source)
        assert composed.apply(el) == outer.apply(inner.apply(el))


@given(_SEEDS)
@settings(max_examples=25, deadline=None)
def test_presented_tensor_injections_match_the_generator_images(seed):
    rng = random.Random(seed)
    w1, w2 = random_presented_algebra(rng), random_presented_algebra(rng)
    w, inj1, inj2 = tensor(w1, w2)
    ref1, ref2 = tensor_injections_reference(w1, w2, w)
    assert inj1 == ref1 and inj2 == ref2


def test_tensor_injections_with_colliding_and_trivial_factors():
    pairs = [
        (dual_numbers("x"), dual_numbers("x")),
        (jet_line(2), first_order_infinitesimals(2)),
        (terminal(), jet_line(3)),
        (first_order_infinitesimals(3), terminal()),
    ]
    for w1, w2 in pairs:
        w, inj1, inj2 = tensor(w1, w2)
        assert (inj1, inj2) == tensor_injections_reference(w1, w2, w)


# ----- constructors on int columns, against the former dense-Fraction routes ----------


def _same_map(got, want):
    """got, built on int columns, is the map want holds as a Matrix: equal,
    with equal hashes, and the matrix got makes on first read is want's."""
    assert got._matrix is None and want._matrix is not None
    assert got == want and want == got and hash(got) == hash(want)
    assert got.matrix == want.matrix
    assert all(type(e) is Fraction for row in got.matrix.raw for e in row)


def _nilpotent_images(rng, source, target):
    """Sparse random combinations of the target's nil basis, one per source
    generator: most violate a relation, some do not."""
    nil = [WeilElement._of(target, v) for v in target.maximal_ideal_basis()]
    images = []
    for _ in source.gens:
        img = target.zero()
        for v in nil:
            if rng.random() < 0.4:
                img = img + v.scaled(random_rational(rng, 3))
        images.append(img)
    return images


@given(_SEEDS)
@settings(max_examples=40, deadline=None)
def test_generator_images_match_the_dense_route(seed):
    rng = random.Random(seed)
    built = 0
    for _ in range(4):
        source = random_presented_algebra(rng)
        if rng.random() < 0.7:
            target = random_presented_algebra(rng)
        else:
            target = random_limit_cone(rng).apex
        valid = random_morphism(rng, source, target)
        for images in (
            _nilpotent_images(rng, source, target),
            _nilpotent_images(rng, source, target),
            [valid.apply(x) for x in generator_elements(source)],
        ):
            for check in (True, False):
                try:
                    want = generator_images_reference(source, target, images, check)
                except MorphismError as exc:
                    # the same first violated relation, in the same words
                    with pytest.raises(MorphismError) as got:
                        WeilMorphism.from_generator_images(source, target, images, check)
                    assert str(got.value) == str(exc)
                    continue
                _same_map(WeilMorphism.from_generator_images(source, target, images, check), want)
                built += 1
    assert built >= 4


def test_each_relation_is_decided_in_order():
    # x -> t, y -> t^2 satisfies x^3 but not x*y or y^2, which come first;
    # x -> t, y -> 0 violates only x^3, the last relation in graded order
    source = parse_algebra("Q[x,y]/(x^3, x*y, y^2)")
    target = jet_line(4, "t")
    (t,) = generator_elements(target)
    for images, relation in (([t, t * t], "x*y"), ([t, target.zero()], "x^3")):
        first = f"images violate the relation {relation}"
        for route in (WeilMorphism.from_generator_images, generator_images_reference):
            with pytest.raises(MorphismError, match=f"^{re.escape(first)}$"):
                route(source, target, images)


def test_an_unchecked_nilpotency_hint_cuts_no_image():
    # a tabled copy of Q[t]/(t^4), told without a check that m^2 = 0: x -> t
    # still sends x^2 and x^3 to t^2 and t^3, and still violates x^3 = 0
    jets = jet_line(3, "t")
    n = jets.dimension
    table = [[jets.structure_vector(i, j) for j in range(n)] for i in range(n)]
    target = weil.WeilAlgebra.tabled(table, jets.aug, check=False, nilpotency_hint=2)
    images = [WeilElement(target, [0, 1, 0, 0])]
    source = parse_algebra("Q[x]/(x^4)")
    want = generator_images_reference(source, target, images)
    _same_map(WeilMorphism.from_generator_images(source, target, images), want)
    assert want.apply(generator_elements(source)[0] ** 3) != target.zero()
    with pytest.raises(MorphismError, match=r"^images violate the relation x\^3$"):
        WeilMorphism.from_generator_images(parse_algebra("Q[x]/(x^3)"), target, images)


def _limit_with_inclusions(diagram):
    """(apex, legs, [(kernel, sub, (common, columns)), ...]) of
    limit(diagram), with every _subalgebra call it made."""
    calls = []
    real = weil._subalgebra

    def spy(kernel, aug, multiply):
        calls.append((kernel, *real(kernel, aug, multiply)))
        return calls[-1][1:]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weil, "_subalgebra", spy)
        apex, legs = limit(diagram)
    return apex, legs, calls


@given(_SEEDS)
@settings(max_examples=25, deadline=None)
def test_int_column_constructors_match_the_dense_routes(seed):
    rng = random.Random(seed)
    a, b, c = (random_presented_algebra(rng, max_dim=6) for _ in range(3))
    f, g = random_morphism(rng, a, b), random_morphism(rng, b, c)
    cone = random_limit_cone(rng)
    apex = cone.apex

    # composites, through every kind of map
    pairs = [(g, f), (unit_map(b), augmentation(a)), (f, collapse_to_scalars(a))]
    pairs += [(phi, cone.legs[s]) for s, _, phi in cone.arrows]
    pairs += [(WeilMorphism.identity(leg.target), leg) for leg in cone.legs]
    for outer, inner in pairs:
        _same_map(outer.compose(inner), compose_reference(outer, inner))

    # tensor injections and tensor products of maps, presented and tabled
    for w1, w2 in ((a, b), (apex, c), (c, apex)):
        w, inj1, inj2 = tensor(w1, w2)
        pair = w.tensor_info.index_of_pair
        _same_map(inj1, selection_reference(w1, w, [pair[(i, 0)] for i in range(w1.dimension)]))
        _same_map(inj2, selection_reference(w2, w, [pair[(0, i)] for i in range(w2.dimension)]))
    for phi, psi in ((f, g), (cone.legs[0], f), (g, cone.legs[-1])):
        source = tensor(phi.source, psi.source)[0]
        target = tensor(phi.target, psi.target)[0]
        got = tensor_morphism(phi, psi, source, target)
        _same_map(got, tensor_morphism_reference(phi, psi, source, target))

    # limit legs and the inclusion of the subalgebra they are read off,
    # into the product's full table
    _, legs, calls = _limit_with_inclusions(cone.without_cone())
    ((kernel, sub, (common, cols)),) = calls
    w = product_algebra_reference(cone.objects)
    incl = WeilMorphism._reduced(sub, w, common, cols)
    _same_map(incl, inclusion_reference(sub, w, kernel))
    augs = [list(o.aug) for o in cone.objects]
    wanted = limit_legs_reference(augs, [list(row) for row in incl.matrix.raw])
    for leg, obj, rows in zip(legs, cone.objects, wanted):
        _same_map(leg, WeilMorphism(sub, obj, Matrix(rows, cols=sub.dimension), check=False))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_building_and_comparing_maps_makes_no_fraction_matrix(seed):
    # random limit cones (their limits included), diagrams, mutant cones,
    # tensors, composites and == all run on int columns, and read no
    # .matrix, the only route to a Fraction matrix
    rng = random.Random(seed)
    made = []
    read = WeilMorphism.matrix.fget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WeilMorphism, "matrix", property(lambda self: made.append(self) or read(self)))
        cones = [random_limit_cone(rng) for _ in range(3)]
        diagrams = [random_diagram(rng) for _ in range(12)]
        for cone in cones:
            for kind in ("collapse", "inflate"):
                mutate_cone(cone, kind)
        w, inj1, inj2 = tensor(cones[0].apex, cones[1].apex)
        for d in diagrams:
            for _, _, phi in d.arrows:
                assert phi.compose(WeilMorphism.identity(phi.source)) == phi
    assert made == []
    assert any(d.arrows for d in diagrams)
