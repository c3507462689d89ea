"""Weil morphisms acting through their sparse int columns, against the dense
loop they replaced: exact images, composition, and the injections of a
tensor of presented factors.  A float element is refused."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import matmul_reference, morphism_apply_reference, tensor_injections_reference

from weilkit import (
    Mode,
    ModeError,
    SmoothMap,
    WeilMorphism,
    WeilPoint,
    apply_morphism,
    dual_numbers,
    first_order_infinitesimals,
    jet_line,
    qq,
    tensor,
    terminal,
)
from weilkit.corpus import (
    mutate_cone,
    random_element,
    random_limit_cone,
    random_morphism,
    random_presented_algebra,
    random_rational,
)
from weilkit.smooth import check_reparametrization_naturality
from weilkit.weil import WeilElement, factor_permutation_iso, generator_elements

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
        out += [iso, iso.inverse()]
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
            assert got.mode is Mode.EXACT and got.algebra == phi.target
            assert all(type(c) is Fraction for c in got.raw)
            assert got.raw == morphism_apply_reference(phi, el)


@given(_SEEDS)
@settings(max_examples=25, deadline=None)
def test_morphisms_refuse_float_elements(seed):
    rng = random.Random(seed)
    for phi in _zoo(rng):
        raw = tuple(_float_coefficient(rng) for _ in range(phi.source.dimension))
        el = WeilElement._of(phi.source, raw, Mode.FLOAT)
        point = WeilPoint(phi.source, [el, phi.source.one(Mode.FLOAT)])
        with pytest.raises(ModeError, match="float element"):
            phi.apply(el)
        with pytest.raises(ModeError, match="float element"):
            apply_morphism(phi, point)
        with pytest.raises(ModeError, match="float element"):
            check_reparametrization_naturality(SmoothMap.identity(2), phi, point)


def test_float_source_order_element_is_refused():
    # the element whose float image summed left to right (1e16 + 1 + 1
    # rounds to 1e16) is refused before any sum is formed
    w = first_order_infinitesimals(3)
    d = dual_numbers("t")
    (t,) = generator_elements(d)
    phi = WeilMorphism.from_generator_images(w, d, [t, t, t])
    el = WeilElement._of(w, (0.0, 1e16, 1.0, 1.0), Mode.FLOAT)
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
        pairs += [(iso.inverse(), iso), (iso, iso.inverse())]
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
