"""Finite-dimensional local algebras: construction, maps, tensors, limits."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilkit import (
    AlgebraError,
    DiagramInWeil,
    Matrix,
    Mode,
    ModeError,
    NonNilpotentError,
    WeilElement,
    WeilMorphism,
    dual_numbers,
    equalizer,
    first_order_infinitesimals,
    is_limit_cone,
    jet_line,
    limit,
    limit_cone,
    jet,
    make_presented,
    mixed_jet,
    parse_algebra,
    parse_map,
    product_over_k,
    qq,
    serialize_algebra,
    tensor,
    tensor_morphism,
    terminal,
)
from weilkit import weil
from weilkit.corpus import (
    mutate_cone,
    random_diagram,
    random_element,
    random_morphism,
    random_presented_algebra,
)
from weilkit.exactlin import kernel_basis, solve_affine, solve_unique
from weilkit.expr import FLOATS, PolyCoefficients
from weilkit.smooth import ExtendedElement, WeilCoefficients, WeilPoint, basis_element
from weilkit.weil import DiagramError, MorphismError, augmentation, generator_elements

import oracles


# ----- construction -----------------------------------------------------------


def test_dual_numbers_shape():
    d = dual_numbers()
    assert d.dimension == 2
    assert d.labels == ("1", "x")
    assert d.nilpotency_degree == 2
    x = d.basis_element(1)
    assert (x * x).is_zero


def test_first_order_infinitesimals_kill_all_products():
    w = first_order_infinitesimals(2)
    assert w.dimension == 3
    x, y = generator_elements(w)
    assert (x * y).is_zero and (x * x).is_zero


def test_jet_line_powers_truncate():
    w = jet_line(3)
    assert w.dimension == 4
    assert w.nilpotency_degree == 4
    x = w.basis_element(1)
    assert not (x * x * x).is_zero
    assert (x * x * x * x).is_zero


def test_terminal_is_one_dimensional():
    assert terminal().dimension == 1


def test_generator_without_pure_power_is_rejected():
    with pytest.raises(NonNilpotentError) as err:
        make_presented(("x", "y"), ((2, 0),))
    assert "y" in str(err.value)
    # and the class still reads as an algebra error for coarse handlers
    assert isinstance(err.value, AlgebraError)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_multiplicativity_is_decided_like_the_dense_basis_pair_products(seed):
    # the projections out of a product over k (a tabled source) and a drawn
    # map between presented algebras, with two nilpotent columns swapped or
    # one scaled: the basis-pair check agrees with the dense reference
    rng = random.Random(seed)
    w1, w2 = random_presented_algebra(rng), random_presented_algebra(rng)
    _, p1, p2 = product_over_k(w1, w2)
    for phi in (p1, p2, random_morphism(rng, w1, w2)):
        rows = [list(r) for r in phi.matrix.raw]
        if phi.source.dimension > 2:
            j, k = rng.sample(range(1, phi.source.dimension), 2)
            for r in rows:
                r[j], r[k] = (r[k], r[j]) if rng.random() < 0.5 else (3 * r[j], r[k])
        try:
            mutated = WeilMorphism(phi.source, phi.target, Matrix(rows), check=False)
        except MorphismError:
            continue  # no longer unit-preserving or augmentation-compatible
        try:
            mutated._validate_multiplicative()
            decided = True
        except MorphismError:
            decided = False
        assert decided == oracles.multiplicative_reference(mutated)


def test_mixed_relations_cut_the_basis():
    w = make_presented(("x", "y"), ((3, 0), (0, 2), (1, 1)))
    # basis: 1, x, x^2, y
    assert w.dimension == 4
    assert set(w.labels) == {"1", "x", "x^2", "y"}


@st.composite
def _presentations(draw):
    n = draw(st.integers(0, 5))
    gens = draw(st.permutations(("x", "y", "z", "t", "s")))[:n]
    bounds = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    rels = [tuple(b if j == i else 0 for j in range(n)) for i, b in enumerate(bounds)]
    if n:
        exponent_vectors = st.tuples(*[st.integers(0, 4)] * n).filter(any)
        rels += draw(st.lists(exponent_vectors, max_size=6))
        # redundant relations: a repeat, and one that a drawn relation divides
        r = draw(st.sampled_from(rels))
        rels += [r, tuple(e + draw(st.integers(0, 2)) for e in r)]
    return gens, draw(st.permutations(rels))


@given(_presentations())
@settings(max_examples=100, deadline=None)
def test_cached_presentations_match_a_fresh_enumeration(presentation):
    gens, rels = presentation
    expected = oracles.presented_reference(gens, rels)
    first = make_presented(gens, rels)
    again = make_presented(gens, rels)
    reordered = make_presented(gens, [list(r) for r in reversed(rels)])
    for w in (first, again, reordered):
        got = {
            "relations": w.relations,
            "basis": w.basis,
            "labels": w.labels,
            "codes": tuple(w._codes),
            "dimension": w.dimension,
            "nilpotency_degree": w.nilpotency_degree,
        }
        assert got == expected
        assert w.tensor_info is None
    # each call is a new algebra over one enumeration
    assert again is not first and again.basis is first.basis


def test_tensors_with_one_presentation_keep_their_own_bijections():
    xy, z = make_presented(("x", "y"), ((2, 0), (0, 2))), dual_numbers("z")
    x, yz = dual_numbers("x"), make_presented(("y", "z"), ((2, 0), (0, 2)))
    left, _, _ = tensor(xy, z)
    right, _, _ = tensor(x, yz)
    assert left == right and left is not right
    for w, a, b in ((left, xy, z), (right, x, yz)):
        info = w.tensor_info
        assert info.left is a and info.right is b
        assert [a.basis[i] + b.basis[j] for i, j in info.pair_of_index] == list(w.basis)
        assert info.index_of_pair == {p: k for k, p in enumerate(info.pair_of_index)}
    assert left.tensor_info.pair_of_index != right.tensor_info.pair_of_index

    plain = make_presented(("x", "y", "z"), ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert plain == left and plain.tensor_info is None
    assert left.tensor_info.left is xy and right.tensor_info.left is x
    ids = WeilMorphism.identity(xy), WeilMorphism.identity(z)
    assert tensor_morphism(*ids, source=left, target=left).matrix == WeilMorphism.identity(left).matrix
    with pytest.raises(MorphismError, match="tensor-built source and target"):
        tensor_morphism(*ids, source=plain, target=left)


@pytest.mark.parametrize(
    "gens, rels, error, message",
    [
        (("x", "x"), ((2, 0),), AlgebraError, "generator names repeat"),
        (("1x",), ((2,),), AlgebraError, "bad generator name '1x'"),
        (("x",), ((2, 0),), AlgebraError, "relation length does not match generator count"),
        (("x",), ((-1,),), AlgebraError, "negative exponent in a relation"),
        (("x",), ((0,),), AlgebraError, "constant relation would kill the unit"),
        (
            ("x", "y"),
            ((2, 0), (1, 1)),
            NonNilpotentError,
            "generator 'y' has no pure power among the relations; "
            "the quotient would be infinite-dimensional",
        ),
    ],
)
def test_invalid_presentations_fail_alike_on_every_call(gens, rels, error, message):
    for _ in range(3):
        with pytest.raises(error) as err:
            make_presented(gens, rels)
        assert str(err.value) == message


def test_presentation_cache_stays_at_its_bound():
    bound = weil._PRESENTATION_CACHE_SIZE
    for order in range(bound + 20):
        assert jet_line(order, "q").dimension == order + 1
    info = weil._enumerate_presentation.cache_info()
    assert info.maxsize == bound and info.currsize == bound


def test_element_arithmetic_frozen():
    w = jet_line(2)
    x = w.basis_element(1)
    u = w.one() + x
    inv = u.invert()
    # geometric series truncates at the nilpotency order
    assert inv == w.one() - x + x * x
    assert (u * inv) == w.one()
    with pytest.raises(ZeroDivisionError):
        x.invert()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_augmentation_is_multiplicative(seed):
    rng = random.Random(seed)
    w = random_presented_algebra(rng)
    a = random_element(rng, w)
    b = random_element(rng, w)
    assert (a * b).augmentation() == a.augmentation() * b.augmentation()
    assert (a + b).augmentation() == a.augmentation() + b.augmentation()


# ----- serialization ----------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_presented_serialization_round_trip(seed):
    w = random_presented_algebra(random.Random(seed))
    text = serialize_algebra(w)
    back = parse_algebra(text)
    assert serialize_algebra(back) == text
    assert back.dimension == w.dimension
    assert back.labels == w.labels


def test_tabled_serialization_round_trip():
    w, _, _ = tensor(dual_numbers(), jet_line(2, "y"))
    text = serialize_algebra(w)
    back = parse_algebra(text)
    assert back.dimension == w.dimension
    assert serialize_algebra(back) == text
    # structure constants survive: multiplication tables agree
    for i in range(w.dimension):
        for j in range(w.dimension):
            assert w.structure_vector(i, j) == back.structure_vector(i, j)


def test_parse_algebra_presented_syntax():
    w = parse_algebra("Q[x,y]/(x^2, y^3, x*y)")
    assert w.dimension == 4


# ----- morphisms ----------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_corpus_draws_match_the_former_fraction_draws(seed):
    # the int draws make the same element, the same morphism and leave the
    # rng where the Fraction draws left it
    source, target = (random_presented_algebra(random.Random(seed + k)) for k in (0, 1))
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(2):
        a, b = random_element(rng, target), oracles.random_element_reference(ref, target)
        assert (a.den, a.nums) == (b.den, b.nums)
        f = random_morphism(rng, source, target)
        g = oracles.random_morphism_reference(ref, source, target)
        assert f.matrix == g.matrix
        assert rng.getstate() == ref.getstate()


def test_generator_images_build_the_expected_map():
    d = dual_numbers()
    w2 = first_order_infinitesimals(2)
    x, y = generator_elements(w2)
    phi = WeilMorphism.from_generator_images(d, w2, [x + y])
    u = d.one() + d.basis_element(1).scaled(qq(2))
    assert phi.apply(u) == w2.one() + (x + y).scaled(qq(2))


def test_images_must_respect_relations():
    d = dual_numbers()
    w = jet_line(2)
    x = w.basis_element(1)
    with pytest.raises(MorphismError):
        # x^2 != 0 in the target, so x cannot receive it... rather: the image
        # of the square-zero generator must square to zero
        WeilMorphism.from_generator_images(d, w, [x])


def test_images_must_be_nilpotent():
    d = dual_numbers()
    with pytest.raises(MorphismError):
        WeilMorphism.from_generator_images(d, d, [d.one()])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_morphisms_are_ring_maps(seed):
    rng = random.Random(seed)
    src = random_presented_algebra(rng)
    tgt = random_presented_algebra(rng)
    phi = random_morphism(rng, src, tgt)
    a = random_element(rng, src)
    b = random_element(rng, src)
    assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)
    assert phi.apply(a + b) == phi.apply(a) + phi.apply(b)
    assert phi.apply(src.one()) == tgt.one()


def test_compose_and_identity():
    rng = random.Random(7)
    src = random_presented_algebra(rng)
    mid = random_presented_algebra(rng)
    tgt = random_presented_algebra(rng)
    f = random_morphism(rng, src, mid)
    g = random_morphism(rng, mid, tgt)
    h = g.compose(f)
    a = random_element(rng, src)
    assert h.apply(a) == g.apply(f.apply(a))
    assert WeilMorphism.identity(mid).compose(f.compose(WeilMorphism.identity(src))) == f


# ----- tensor products ----------------------------------------------------------


def test_tensor_of_dual_numbers_frozen():
    w, inj1, inj2 = tensor(dual_numbers(), dual_numbers("y"))
    assert w.dimension == 4
    assert w.labels == ("1", "x", "y", "x*y")
    x = inj1.apply(dual_numbers().basis_element(1))
    y = inj2.apply(dual_numbers("y").basis_element(1))
    assert not (x * y).is_zero
    assert (x * x).is_zero and (y * y).is_zero


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_tensor_dimensions_multiply(seed):
    rng = random.Random(seed)
    a = random_presented_algebra(rng, max_dim=6)
    b = random_presented_algebra(rng, max_dim=6)
    w, _, _ = tensor(a, b)
    assert w.dimension == a.dimension * b.dimension


def test_tensor_morphism_acts_factorwise():
    d = dual_numbers()
    w2 = first_order_infinitesimals(2)
    x, y = generator_elements(w2)
    phi = WeilMorphism.from_generator_images(d, w2, [x + y])
    big_src, s1, s2 = tensor(d, d)
    big_tgt, t1, t2 = tensor(w2, w2)
    pp = tensor_morphism(phi, phi, source=big_src, target=big_tgt)
    # naturality on each injection
    assert pp.compose(s1) == t1.compose(phi)
    assert pp.compose(s2) == t2.compose(phi)


# ----- products, equalizers, limits ----------------------------------------------


def test_product_glues_along_scalars():
    a = jet_line(2)
    b = first_order_infinitesimals(2)
    p, p1, p2 = product_over_k(a, b)
    assert p.dimension == a.dimension + b.dimension - 1
    rng = random.Random(3)
    z = random_element(rng, p)
    assert p1.apply(z).augmentation() == p2.apply(z).augmentation() == z.augmentation()


def test_equalizer_frozen_example():
    w2 = first_order_infinitesimals(2)
    d = dual_numbers("t")
    t = d.basis_element(1)
    phi = WeilMorphism.from_generator_images(w2, d, [t, t])
    psi = WeilMorphism.from_generator_images(w2, d, [t, d.zero()])
    sub, incl = equalizer(phi, psi)
    # phi - psi kills exactly the y direction: the equalizer is span{1, x}
    assert sub.dimension == 2
    assert phi.compose(incl) == psi.compose(incl)


def test_equalizer_of_equal_maps_is_everything():
    rng = random.Random(11)
    src = random_presented_algebra(rng)
    tgt = random_presented_algebra(rng)
    phi = random_morphism(rng, src, tgt)
    sub, incl = equalizer(phi, phi)
    assert sub.dimension == src.dimension
    assert incl.matrix.is_invertible()


def test_equalizer_matches_nullspace_oracle():
    rng = random.Random(23)
    for _ in range(5):
        src = random_presented_algebra(rng)
        tgt = random_presented_algebra(rng)
        phi = random_morphism(rng, src, tgt)
        psi = random_morphism(rng, src, tgt)
        sub, incl = equalizer(phi, psi)
        expected = oracles.equalizer_space(
            [[e for e in row] for row in phi.matrix.entries],
            [[e for e in row] for row in psi.matrix.entries],
        )
        got = [
            tuple(e for e in incl.matrix.column(j))
            for j in range(sub.dimension)
        ]
        assert oracles.same_span(expected, got, src.dimension)


def test_limit_of_empty_diagram_is_terminal():
    apex, legs = limit(DiagramInWeil((), ()))
    assert apex.dimension == 1
    assert len(legs) == 0


def test_limit_of_single_object_is_that_object():
    w = jet_line(2)
    apex, legs = limit(DiagramInWeil((w,), ()))
    assert apex.dimension == w.dimension
    assert legs[0].matrix.is_invertible()


def test_limit_of_two_point_diagram_is_the_product():
    a = dual_numbers()
    b = jet_line(2, "y")
    apex, legs = limit(DiagramInWeil((a, b), ()))
    p, _, _ = product_over_k(a, b)
    assert apex.dimension == p.dimension


def test_cone_legs_commute_with_arrows():
    rng = random.Random(5)
    for _ in range(6):
        cone = limit_cone(random_diagram(rng))
        for s, t, arrow in cone.arrows:
            assert arrow.compose(cone.legs[s]) == cone.legs[t]
        assert is_limit_cone(cone).ok


@pytest.mark.parametrize("kind", ["collapse", "inflate"])
def test_mutated_cones_are_not_limits(kind):
    rng = random.Random(9)
    hits = 0
    for _ in range(8):
        cone = limit_cone(random_diagram(rng))
        bad = mutate_cone(cone, kind)
        if bad is None:
            continue
        hits += 1
        assert not is_limit_cone(bad).ok
    assert hits >= 3


def test_is_limit_cone_needs_a_cone():
    d = dual_numbers()
    with pytest.raises(DiagramError):
        is_limit_cone(DiagramInWeil((d,), ()))


def test_augmentation_equalizes_everything():
    w = first_order_infinitesimals(2)
    aug = augmentation(w)
    x, _ = generator_elements(w)
    assert aug.apply(x).is_zero
    assert aug.apply(w.one()) == terminal().one()


# ----- one mode per element ----------------------------------------------------


def test_mixed_mode_elements_refuse_every_operation():
    w = dual_numbers()
    exact = w.element([qq(1), qq(2)])
    floats = ExtendedElement(FLOATS, w, [1.0, 2.0])
    for left, right in ((exact, floats), (floats, exact)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ModeError):
                op(left, right)
    pairs = ((exact, 0.5), (exact, -0.0), (floats, Fraction(1, 2)), (floats, qq(2)), (floats, 2))
    for element, c in pairs:
        with pytest.raises(ModeError):
            element.scaled(c)
        with pytest.raises(ModeError):
            element * c
    for bad in ([qq(1), 2.0], [1.0, 2.0]):
        with pytest.raises(ModeError):
            WeilElement(w, bad)
    with pytest.raises(ModeError):
        w.element([1.0, 2.0])
    with pytest.raises(ModeError):
        w.scalar(1.0)


def test_exact_and_float_elements_with_equal_values_differ():
    w = dual_numbers()
    floats = ExtendedElement(FLOATS, w, [1.0, 2.0])
    assert w.element([1, 2]) != floats
    assert not w.element([1, 2]) == floats
    assert w.one() != basis_element(w, 0, FLOATS)
    assert w.zero() != basis_element(w, 0, FLOATS).like(0)
    # both kinds print through the basis labels
    assert (str(w.element([1, 2])), str(floats)) == ("1 + 2*x", "1.0 + 2.0*x")


def test_exact_coefficients_are_fractions():
    tabled, _, _ = product_over_k(dual_numbers(), jet_line(2))
    phi = random_morphism(random.Random(3), jet_line(2), jet_line(3))
    sub, _ = equalizer(phi, phi)
    for w in (jet_line(3), tabled, sub):
        x = w.element([Fraction(k + 1, 2) for k in range(w.dimension)])
        products = [x * x, x + x, x - x, -x, x.scaled(2), x**3, x / 3, x / x, w.zero(), w.one()]
        assert all(type(c) is Fraction for e in products for c in e.coeffs)
        assert type(x.augmentation()) is Fraction
        assert all(type(c) is Fraction for c in w.aug)
    # selection matrices built by index, and the matrices of products and limits
    w, inj1, inj2 = tensor(tabled, dual_numbers("y"))
    _, legs = limit(DiagramInWeil((tabled, jet_line(2)), ()))
    for m in [inj1.matrix, inj2.matrix, augmentation(w).matrix] + [leg.matrix for leg in legs]:
        assert all(type(e) is Fraction for row in m.entries for e in row)
    f = parse_map("f(u) -> (u^2 + 1, 3)")
    assert all(type(c) is Fraction for out in jet(f, 2, 5) for c in out)
    g = parse_map("g(x, y) -> (x*y)")
    (coeffs,), _ = mixed_jet(g, [1, 2], [2, 2])
    assert all(type(c) is Fraction for c in coeffs.values())


def _matrix():
    return Matrix([[1, 2], [3, 4]])


def _element(mode):
    """An exact element, or a float one over the float ring."""
    if mode is Mode.FLOAT:
        return ExtendedElement(FLOATS, jet_line(2), [2.0, 0.0, 3.0])
    return jet_line(2).element([Fraction(2), Fraction(0), Fraction(3)])


def _affine_values():
    particular, kernel = solve_affine(Matrix([[1, 1]]), (2,))
    return particular + kernel[0]


def _mixed_jet_values(mode):
    (coeffs,), _ = mixed_jet(parse_map("g(x, y) -> (x*y^2)"), [1, 2], [1, 2], mode)
    return coeffs.values()


_TABLED = product_over_k(dual_numbers(), jet_line(2))[0]

# every public reader, with the modes it has: matrices and algebra structure
# are exact only
_READERS = {
    "Matrix.entries": (lambda m: [e for row in _matrix().entries for e in row], [Mode.EXACT]),
    "Matrix.row": (lambda m: _matrix().row(1), [Mode.EXACT]),
    "Matrix.column": (lambda m: _matrix().column(1), [Mode.EXACT]),
    "Matrix.apply": (lambda m: _matrix().apply((1, 2)), [Mode.EXACT]),
    "kernel_basis": (lambda m: kernel_basis(Matrix([[1, 1, 0]]))[1], [Mode.EXACT]),
    "solve_unique": (lambda m: solve_unique(_matrix(), (1, 2)), [Mode.EXACT]),
    "solve_affine": (lambda m: _affine_values(), [Mode.EXACT]),
    "WeilElement.coeffs": (lambda m: (_element(m) * _element(m)).coeffs, Mode),
    "WeilElement.augmentation": (
        lambda m: [_element(m).augmentation(), (_element(m) - _element(m)).augmentation()], Mode
    ),
    "structure_vector": (lambda m: _TABLED.structure_vector(1, 1), [Mode.EXACT]),
    "aug_covector": (lambda m: _TABLED.aug, [Mode.EXACT]),
    "jet": (lambda m: jet(parse_map("f(u) -> (u^3 + 1)"), 2, 3, m)[0], Mode),
    "mixed_jet": (_mixed_jet_values, Mode),
    "WeilCoefficients.scalar": (
        lambda m: [WeilCoefficients(_element(m).like(0)).scalar(_element(m))], Mode
    ),
    "PolyCoefficients.scalar": (lambda m: [PolyCoefficients(2).scalar((1, {(0, 0): 3}))], [Mode.EXACT]),
}


@pytest.mark.parametrize(
    "name, mode", [(name, mode) for name, (_, modes) in _READERS.items() for mode in modes]
)
def test_every_public_reader_hands_out_the_raw_values(name, mode):
    values = list(_READERS[name][0](mode))
    want = float if mode is Mode.FLOAT else Fraction
    assert values and all(type(v) is want for v in values), values


# ----- the exact kernel against the dense reference ------------------------------


def _kernel_algebras():
    tabled, _, _ = product_over_k(dual_numbers(), jet_line(2))
    w2 = first_order_infinitesimals(2)
    d = dual_numbers("t")
    t = d.basis_element(1)
    eq, _ = equalizer(
        WeilMorphism.from_generator_images(w2, d, [t, t]),
        WeilMorphism.from_generator_images(w2, d, [t, d.zero()]),
    )
    apexes = [limit(random_diagram(random.Random(seed)))[0] for seed in (3, 14, 22)]
    return [
        jet_line(5),
        first_order_infinitesimals(3),
        make_presented(("x", "y"), ((3, 0), (1, 1), (0, 4))),
        tensor(jet_line(2), dual_numbers("y"))[0],
        tensor(tabled, dual_numbers("y"))[0],
        tabled,
        eq,
    ] + apexes


_KERNEL_ALGEBRAS = _kernel_algebras()


def _kernel_morphisms(w):
    """Maps out of w: onto the scalars, into w (x) Q[e]/(e^2), and, out of a
    presented algebra, the endomorphism scaling each generator by a
    fraction, whose matrix has denominators other than 1."""
    maps = [augmentation(w), tensor(w, dual_numbers("e"))[1]]
    if w.flavor == "presented":
        gens = generator_elements(w)
        maps.append(WeilMorphism.from_generator_images(
            w, w, [g.scaled(Fraction(k + 2, 3)) for k, g in enumerate(gens)]
        ))
    return maps


_KERNEL_MORPHISMS = [_kernel_morphisms(w) for w in _KERNEL_ALGEBRAS]
# pairwise coprime denominators: distinct 7-digit primes
_PRIMES = [p for p in range(10**6, 10**6 + 2000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


@st.composite
def _kernel_operands(draw):
    n = draw(st.integers(0, len(_KERNEL_ALGEBRAS) - 1))
    w = _KERNEL_ALGEBRAS[n]
    d = w.dimension
    denominators = iter(draw(st.permutations(_PRIMES)))

    def coefficient(coprime):
        n = draw(st.integers(-(10**9), 10**9).filter(bool))
        return Fraction(n, next(denominators)) if coprime else Fraction(n)

    def element():
        shape = draw(st.sampled_from(["zero", "one-term", "dense", "sparse"]))
        coprime = draw(st.booleans())
        if shape == "zero":
            return [Fraction(0)] * d
        if shape == "one-term":
            k = draw(st.integers(0, d - 1))
            return [coefficient(coprime) if i == k else Fraction(0) for i in range(d)]
        dense = shape == "dense"
        return [coefficient(coprime) if dense or draw(st.booleans()) else Fraction(0) for _ in range(d)]

    phi = draw(st.sampled_from(_KERNEL_MORPHISMS[n]))
    return w, element(), element(), coefficient(draw(st.booleans())), phi


@given(_kernel_operands())
@settings(max_examples=150, deadline=None)
def test_exact_arithmetic_matches_the_dense_reference(operands):
    """Elements store int numerators over one denominator, kept canonical:
    each result equals, and hashes like, the element built from the
    reference's Fractions, and every reader hands out Fractions."""
    w, a, b, c, phi = operands
    x, y = w.element(a), w.element(b)
    square = oracles.weil_product_reference(w, a, a)
    cases = [
        (x * y, oracles.weil_product_reference(w, a, b)),
        (y * x, oracles.weil_product_reference(w, b, a)),
        (x + y, oracles.weil_sum_reference(a, b)),
        (x - y, oracles.weil_sum_reference(a, b, -1)),
        (y - x, oracles.weil_sum_reference(b, a, -1)),
        (x.scaled(c), [c * v for v in a]),
        (x * c, [c * v for v in a]),
        (x**3, oracles.weil_product_reference(w, square, a)),
        (-x, [-v for v in a]),
        (x - x, [Fraction(0)] * w.dimension),
        (phi.apply(x), list(oracles.morphism_apply_reference(phi, x))),
    ]
    for got, expected in cases:
        assert type(got) is WeilElement
        assert list(got.raw) == expected
        assert list(got.coeffs) == expected
        assert all(type(v) is Fraction for v in got.raw + got.coeffs)
        assert got == got.algebra.element(expected)
        assert hash(got) == hash(got.algebra.element(expected))
        assert got.is_zero == (not any(expected))
        assert math.gcd(got.den, *got.nums) == 1 and got.den > 0
    augmentation_reference = sum(lam * v for lam, v in zip(w.aug, a))
    assert x.augmentation() == augmentation_reference
    assert type(x.augmentation()) is Fraction
    assert x.is_zero == (not any(a))


def test_dense_product_over_coprime_denominators_matches_the_reference():
    w = make_presented(("x", "y"), ((8, 0), (0, 8)))
    assert w.dimension == 64
    rng = random.Random(64)
    a, b = (
        [Fraction(rng.randint(1, 10**6), p) for p in _PRIMES[k : k + 64]] for k in (0, 64)
    )
    got = (w.element(a) * w.element(b)).raw
    assert list(got) == oracles.weil_product_reference(w, a, b)
    assert all(type(v) is Fraction for v in got)


def test_float_sums_and_scaling_keep_every_term():
    w = dual_numbers()
    zeros, negative_zeros = (ExtendedElement(FLOATS, w, [z, z]) for z in (0.0, -0.0))
    # 0.0 + -0.0 is 0.0 and 0.0 * inf is nan: float paths skip no zero
    assert [math.copysign(1, v) for v in (zeros + negative_zeros).coeffs] == [1, 1]
    assert [math.copysign(1, v) for v in (negative_zeros + zeros).coeffs] == [1, 1]
    assert [math.copysign(1, v) for v in (negative_zeros - zeros).coeffs] == [-1, -1]
    ones = ExtendedElement(FLOATS, w, [1.0, 0.0])
    assert [str(v) for v in ones.scaled(float("inf")).coeffs] == ["inf", "nan"]


_FLOAT_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def _float_operands(draw):
    """An algebra of the kernel list (presented and tabled), two float
    coefficient vectors that mix zeros of both signs, infinities and nans
    with finite values over a wide range, and a float scalar."""
    w = draw(st.sampled_from(_KERNEL_ALGEBRAS))
    value = st.one_of(
        st.sampled_from(_FLOAT_SPECIALS), st.floats(allow_nan=False, allow_infinity=False)
    )
    vector = st.lists(value, min_size=w.dimension, max_size=w.dimension)
    return w, draw(vector), draw(vector), draw(value)


def _reprs(values):
    return [repr(v) for v in values]


@given(_float_operands())
@example((jet_line(5), [math.inf] + [1.0] * 5, [0.0, 1.0, 0.0, -0.0, 2.0, 0.0], 0.0))
@example((_KERNEL_ALGEBRAS[5], [math.inf, 0.0, 1.0, 2.0], [0.0, 1.0, 0.0, 3.0], math.nan))
@settings(max_examples=200, deadline=None)
def test_float_ring_matches_the_former_float_elements(operands):
    """Float elements over the float ring agree by repr (so -0.0, inf and nan
    count) with the float elements they replaced."""
    w, a, b, c = operands
    x, y = ExtendedElement(FLOATS, w, a), ExtendedElement(FLOATS, w, b)
    cases = [
        (x + y, oracles.float_sum_reference(a, b)),
        (x - y, oracles.float_sum_reference(a, b, -1)),
        (x.scaled(c), oracles.float_scale_reference(a, c)),
        (-x, tuple([-v for v in a])),
        (x * c, oracles.float_scale_reference(a, c)),
        (c * x, oracles.float_scale_reference(a, c)),
        (x * y, oracles.float_product_reference(w, a, b)),
        (y * x, oracles.float_product_reference(w, b, a)),
    ]
    for got, expected in cases:
        assert all(type(v) is float for v in got.coeffs)
        assert _reprs(got.coeffs) == _reprs(expected)
    assert repr(x.scalar_part()) == repr(oracles.float_augmentation_reference(w, a))


def test_float_elements_keep_the_operations_of_exact_ones():
    """Negation, powers, inversion, the augmentation, scalar products and
    hashing work on float elements as on exact ones; a plain number is no
    element to add."""
    w = dual_numbers()
    x = ExtendedElement(FLOATS, w, [2.0, 1.0])
    assert (-x).coeffs == (-2.0, -1.0)
    assert (x**2).coeffs == (4.0, 4.0)
    assert (x**-1).coeffs == x.invert().coeffs == (0.5, -0.25)
    assert (x * x.invert()).coeffs == (1.0, 0.0)
    assert x.augmentation() == x.scalar_part() == 2.0
    assert (x * 2.0).coeffs == (2.0 * x).coeffs == (4.0, 2.0)
    assert hash(x) == hash(ExtendedElement(FLOATS, w, [2.0, 1.0]))
    assert len({x, ExtendedElement(FLOATS, w, [2.0, 1.0]), w.element([2, 1])}) == 2
    point = WeilPoint(w, [x, x])
    assert hash(point) == hash(WeilPoint(w, [x, x]))
    for bad in (2.0, 2):
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            x - bad
    # as before: a rational scalar is a ModeError, a float one no element
    with pytest.raises(ModeError):
        x / 2
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(TypeError):
        x / 2.0
