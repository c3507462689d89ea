"""The limit path: limits built from structure, and the microlinearity
precondition decided by the r = 1 numbers, against references that take
the long way round."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    associativity_reference,
    equalizer_space,
    filtered_basis_reference,
    ideal_chain_reference,
    inverse_reference,
    is_limit_cone_reference,
    limit_legs_reference,
    limit_reference,
    microlinear_numbers,
    microlinear_reference,
    nilpotency_degree_reference,
    product_algebra_reference,
    product_over_k_reference,
    pullback_space,
    same_span,
    skewed_copy,
    subalgebra_reference,
)

from weilkit import (
    AlgebraError,
    DiagramInWeil,
    Matrix,
    ModelObject,
    WeilAlgebra,
    WeilMorphism,
    check_microlinear,
    dual_numbers,
    equalizer,
    first_order_infinitesimals,
    is_limit_cone,
    jet_line,
    limit,
    limit_cone,
    parse_algebra,
    product_over_k,
    qq,
    tensor,
    tensor_of_cones,
    terminal,
)
from weilkit import weil
from weilkit.corpus import (
    collapse_to_scalars,
    mutate_cone,
    random_limit_cone,
    random_morphism,
    random_parallel_pair,
    random_presented_algebra,
)
from weilkit.exactlin import kernel_basis, vstack
from weilkit.fibered import FiberedObject, sphere_distance, vertical_fiber
from weilkit.weil import DiagramError, MorphismError, WeilElement, _subalgebra, filtered_basis


def _rows(m):
    return [[e for e in row] for row in m.entries]


def _cols(m):
    return [tuple(e for e in m.column(j)) for j in range(m.cols)]


def _aug(w):
    return [c for c in w.aug]


def _skewed(rng, w):
    """w on the basis 1, e_i + c_i (random integers c_i), so that its
    augmentation does not vanish past the unit; returns the tabled copy and
    the isomorphism onto w."""
    n = w.dimension
    c = [Fraction(0)] + [Fraction(rng.choice([-2, -1, 1, 3])) for _ in range(1, n)]
    skew = skewed_copy(w, c)
    basis = [[int(k == i) + (c[i] if k == 0 else 0) for i in range(n)] for k in range(n)]
    return skew, WeilMorphism(skew, w, Matrix([[qq(x) for x in r] for r in basis]))


def _identity_cone(w):
    return DiagramInWeil(
        (w,), ((0, 0, WeilMorphism.identity(w)),), w, (WeilMorphism.identity(w),)
    )


def _connected_limit_cone(rng, max_obj_dim=4):
    while True:
        cone = random_limit_cone(rng)
        if not cone.arrows and len(cone.objects) > 1:
            continue
        if max(obj.dimension for obj in cone.objects) <= max_obj_dim:
            return cone


def _grid_cone(rng):
    return tensor_of_cones(_connected_limit_cone(rng), _connected_limit_cone(rng))


# ----- check_microlinear against the precondition-then-numbers composition -----


def _cones_under_test():
    rng = random.Random(31)
    cones = []
    for i in range(6):
        cone = random_limit_cone(rng)
        cones.append(cone)
        mutant = mutate_cone(cone, "collapse" if i % 2 else "inflate")
        if mutant is not None:
            cones.append(mutant)
    for i in range(2):
        grid = _grid_cone(rng)
        cones += [grid, mutate_cone(grid, "inflate" if i else "collapse")]
    # commutes but glues scalars per component: not a limit cone
    d = dual_numbers()
    disc = limit_cone(DiagramInWeil((d, dual_numbers("y")), ()))
    cones.append(tensor_of_cones(disc, _identity_cone(d)))
    # limits over algebras whose augmentation does not vanish past the unit
    for phi, psi in _parallel_pairs(rng, 2)[1::3]:
        cone = limit_cone(
            DiagramInWeil((phi.source, phi.target), ((0, 1, phi), (0, 1, psi)))
        )
        cones += [cone, mutate_cone(cone, "inflate")]
    # the empty diagram, over a terminal and over a non-terminal apex
    cones.append(DiagramInWeil((), (), terminal(), ()))
    cones.append(DiagramInWeil((), (), d, ()))
    return cones


def _outcome(r, cone, enforce):
    try:
        v = check_microlinear(
            ModelObject.coordinate(r), cone, enforce_limit_input=enforce
        )
    except DiagramError as exc:
        return "raise", str(exc)
    return v.ok, v.certificate


def test_microlinear_matches_the_precondition_then_numbers_composition():
    seen = set()
    for cone in _cones_under_test():
        data = (
            cone.apex.dimension,
            [w.dimension for w in cone.objects],
            [_rows(leg.matrix) for leg in cone.legs],
            [(s, t, _rows(phi.matrix)) for s, t, phi in cone.arrows],
            [_aug(w) for w in cone.objects],
        )
        pre = is_limit_cone(cone)
        for enforce in (True, False):
            for r in range(4):
                want = microlinear_reference(
                    r, f"R^{r}", *data, enforce, lambda: (pre.ok, pre.certificate)
                )
                assert _outcome(r, cone, enforce) == want
                seen.add(want[0])
    # accepted, refused, and refused as input all occur
    assert seen == {True, False, "raise"}


def test_enforced_check_never_calls_limit(monkeypatch):
    rng = random.Random(13)
    limits, mutants = [], []
    for i in range(6):
        cone = _grid_cone(rng) if i % 3 == 2 else random_limit_cone(rng)
        limits.append(cone)
        mutants.append(mutate_cone(cone, "inflate"))
    calls = []
    real = weil.limit
    monkeypatch.setattr(weil, "limit", lambda d: calls.append(d) or real(d))
    for cone in limits:
        for r in (1, 2, 3):
            assert check_microlinear(ModelObject.coordinate(r), cone).ok
    assert calls == []
    for mutant in mutants:
        with pytest.raises(DiagramError, match="not a limit cone"):
            check_microlinear(ModelObject.coordinate(2), mutant)
    assert calls == []


# ----- is_limit_cone against the route through the computed limit ---------------


def _cone_of_kind(rng, kind):
    if kind == "seeded":
        return random_limit_cone(rng)
    if kind == "grid":
        return _grid_cone(rng)
    if kind in ("inflate", "collapse"):
        cone = _grid_cone(rng) if rng.random() < 0.25 else random_limit_cone(rng)
        return mutate_cone(cone, kind) or cone
    if kind == "disconnected":
        objects = [random_presented_algebra(rng) for _ in range(rng.randint(2, 3))]
        cone = limit_cone(DiagramInWeil(objects, ()))
        d = dual_numbers()
        return rng.choice(
            [cone, mutate_cone(cone, "inflate"), tensor_of_cones(cone, _identity_cone(d))]
        )
    if kind == "skewed":
        if rng.random() < 0.5:
            # the limit cone of a parallel pair out of a skewed algebra
            phi, psi = _parallel_pairs(rng, 1)[1]
            cone = limit_cone(
                DiagramInWeil((phi.source, phi.target), ((0, 1, phi), (0, 1, psi)))
            )
        else:
            # the apex on a skewed basis: still a limit cone, through the iso
            cone = random_limit_cone(rng)
            skew, iso = _skewed(rng, cone.apex)
            cone = cone.with_cone(skew, [leg.compose(iso) for leg in cone.legs])
        if rng.random() < 0.5:
            return cone
        return mutate_cone(cone, rng.choice(["inflate", "collapse"])) or cone
    assert kind == "empty"
    apex = rng.choice([terminal(), dual_numbers(), random_presented_algebra(rng)])
    return DiagramInWeil((), (), apex, ())


@given(
    st.sampled_from(
        ["seeded", "grid", "inflate", "collapse", "disconnected", "skewed", "empty"]
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_is_limit_cone_matches_the_route_through_the_computed_limit(kind, seed):
    cone = _cone_of_kind(random.Random(seed), kind)
    v = is_limit_cone(cone)
    assert (v.ok, v.certificate) == is_limit_cone_reference(cone)


@given(
    st.sampled_from(
        ["seeded", "grid", "inflate", "collapse", "disconnected", "skewed", "empty"]
    ),
    st.integers(0, 2**32 - 1),
)
# a disconnected grid, a pair out of a skewed algebra, and the empty diagram
# over a terminal and over a non-terminal apex
@example("disconnected", 2)
@example("skewed", 1)
@example("empty", 6)
@example("empty", 0)
@settings(max_examples=60, deadline=None)
def test_rank_one_numbers_match_the_direct_sum_with_glued_augmentations(kind, seed):
    # the product over the scalars is the part of the direct sum where the
    # augmentations agree, so ranking its arrow equations gives the numbers
    # of the direct sum cut by the arrows and the augmentation gluing
    cone = _cone_of_kind(random.Random(seed), kind)
    rank, dim, contained = microlinear_numbers(
        1,
        cone.apex.dimension,
        [w.dimension for w in cone.objects],
        [_rows(leg.matrix) for leg in cone.legs],
        [(s, t, _rows(phi.matrix)) for s, t, phi in cone.arrows],
        [_aug(w) for w in cone.objects],
    )
    assert contained and weil._rank_one_numbers(cone) == (rank, dim)


def test_limit_apexes_carry_their_nilpotency_degree():
    rng = random.Random(47)
    apexes = [equalizer(phi, psi)[0] for phi, psi in _parallel_pairs(rng, 4)]
    apexes += [random_limit_cone(rng).apex for _ in range(6)]
    for _ in range(2):
        grid = _grid_cone(rng)
        apexes += [grid.apex, limit(grid.without_cone())[0]]
    for w in apexes:
        n = w.dimension
        table = [
            [[e for e in w.structure_vector(i, j)] for j in range(n)] for i in range(n)
        ]
        assert w.nilpotency_degree == nilpotency_degree_reference(table, _aug(w))


def test_tensor_and_product_degrees_are_read_off_the_factors():
    rng = random.Random(59)
    apexes = [random_limit_cone(rng).apex for _ in range(3)]
    apexes += [equalizer(phi, psi)[0] for phi, psi in _parallel_pairs(rng, 1)]
    for a in apexes:
        for b in (terminal(), dual_numbers(), jet_line(2), apexes[0]):
            for w in (tensor(a, b)[0], tensor(b, a)[0], product_over_k(a, b)[0]):
                assert w.nilpotency_degree == nilpotency_degree_reference(_table(w), _aug(w))


def test_tensoring_a_subalgebra_apex_eliminates_nothing():
    rng = random.Random(53)
    for phi, psi in _parallel_pairs(rng, 2):
        apex = equalizer(phi, psi)[0]
        tensors = []
        assert _eliminations(lambda: tensors.append(tensor(apex, dual_numbers())[0])) == 0
        # the degree is read off the factors when it is asked for
        assert tensors[0].nilpotency_degree == apex.nilpotency_degree + 1


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_presented_ideal_chain_matches_the_elimination_route(powers, mixed):
    # pure powers bound the dimension; exponent 1 kills a generator at first order
    n = len(powers)
    relations = [tuple(p * (i == g) for i in range(n)) for g, p in enumerate(powers)]
    relations += [tuple(m[:n]) for m in mixed if sum(m[:n])]
    w = WeilAlgebra.presented([f"x{i}" for i in range(n)], relations)
    chain = [[list(v) for v in level] for level in w._ideal_chain()]
    assert chain == ideal_chain_reference(_table(w), _aug(w))
    assert w.nilpotency_degree == len(chain) + 1


def test_presented_ideal_chain_with_a_generator_killed_at_first_order():
    w = parse_algebra("Q[x,y]/(x, y^3)")
    chain = w._ideal_chain()
    assert [len(level) for level in chain] == [2, 1]
    assert [[list(v) for v in level] for level in chain] == ideal_chain_reference(
        _table(w), _aug(w)
    )


def test_maximal_ideal_of_a_tabled_algebra_is_read_off_its_augmentation(monkeypatch):
    # the seed-3 cone's apex is a tabled algebra of dimension 9 with no ideal
    # chain built yet: its maximal ideal is e_f - aug[f] e_0 for f >= 1, the
    # echelon kernel of the 1 x 9 augmentation row, with no elimination,
    # and building the whole chain takes three (64 x 9, 32 x 9 and 8 x 9)
    apex = random_limit_cone(random.Random(3)).apex
    assert (apex.flavor, apex.dimension) == ("tabled", 9)
    shapes = []
    real = Matrix._echelon
    monkeypatch.setattr(
        Matrix, "_echelon", lambda m, *a: shapes.append((m.rows, m.cols)) or real(m, *a)
    )
    basis = apex.maximal_ideal_basis()
    assert shapes == []
    assert basis == kernel_basis(Matrix([apex.aug], cols=9))
    shapes.clear()
    assert basis == apex._ideal_chain()[0]
    assert shapes == [(64, 9), (32, 9), (8, 9)]


# ----- limits built from structure ----------------------------------------------


def _parallel_pairs(rng, count):
    """Parallel pairs out of presented algebras, out of skewed copies of
    them (augmentation nonzero past the unit) and out of limit apexes."""
    pairs = []
    for _ in range(count):
        phi, psi = random_parallel_pair(rng)
        _, iso = _skewed(rng, phi.source)
        pairs += [(phi, psi), (phi.compose(iso), psi.compose(iso))]
        cone = random_limit_cone(rng)
        leg = cone.legs[-1]
        pairs.append((leg, leg.compose(collapse_to_scalars(cone.apex))))
    return pairs


def test_limit_legs_span_the_direct_solve_spaces():
    rng = random.Random(41)
    skewed = 0
    for phi, psi in _parallel_pairs(rng, 8):
        a, b = phi.source, phi.target
        skewed += any(_aug(a)[1:])
        apex, legs = limit(DiagramInWeil((a, b), ((0, 1, phi), (0, 1, psi))))
        wanted = equalizer_space(_rows(phi.matrix), _rows(psi.matrix))
        assert apex.dimension == len(wanted)
        assert same_span(_cols(legs[0].matrix), wanted, a.dimension)

        v = random_presented_algebra(rng)
        g = random_morphism(rng, v, b)
        apex, legs = limit(DiagramInWeil((a, b, v), ((0, 1, phi), (2, 1, g))))
        stacked = vstack([legs[0].matrix, legs[2].matrix], cols=apex.dimension)
        wanted = pullback_space(_rows(phi.matrix), _rows(g.matrix), _aug(a), _aug(v))
        assert apex.dimension == len(wanted)
        assert same_span(_cols(stacked), wanted, a.dimension + v.dimension)
    assert skewed >= 3


def test_product_projections_are_algebra_maps():
    rng = random.Random(43)
    for _ in range(6):
        algebras = [
            _skewed(rng, random_presented_algebra(rng))[0] if rng.random() < 0.5
            else random_presented_algebra(rng)
            for _ in range(rng.randint(1, 3))
        ]
        apex, legs = limit(DiagramInWeil(algebras, ()))
        assert apex.dimension == 1 + sum(w.dimension - 1 for w in algebras)
        for leg in legs:
            WeilMorphism(leg.source, leg.target, leg.matrix, check=True)


def test_product_refuses_a_non_multiplicative_augmentation():
    # the dual numbers' table with aug(x) = 1: (x - 1)^2 = 1 - 2x leaves the kernel
    d = dual_numbers()
    table = [[d.structure_vector(i, j) for j in range(2)] for i in range(2)]
    bad = WeilAlgebra.tabled(table, [qq(1), qq(1)], check=False, nilpotency_hint=2)
    with pytest.raises(AlgebraError, match="augmentation kernel not closed"):
        product_over_k(bad, d)


# ----- morphism validation --------------------------------------------------------


def test_morphism_validation_messages():
    d = dual_numbers()
    j = jet_line(2)
    with pytest.raises(MorphismError, match="does not preserve the unit"):
        WeilMorphism(d, d, Matrix([[qq(1), qq(0)], [qq(1), qq(0)]]), check=False)
    with pytest.raises(MorphismError, match="not augmentation-compatible"):
        WeilMorphism(d, d, Matrix([[qq(1), qq(1)], [qq(0), qq(1)]]), check=False)
    # x -> x from Q[x]/(x^2) to Q[x]/(x^3): x * x is 0 but its image is not
    keep_x = Matrix([[qq(1), qq(0)], [qq(0), qq(1)], [qq(0), qq(0)]])
    WeilMorphism(d, j, keep_x, check=False)
    with pytest.raises(MorphismError, match=r"not multiplicative on basis pair \(1,1\)"):
        WeilMorphism(d, j, keep_x, check=True)


# ----- products and legs from sparse terms, against the dense construction -------


def _table(w):
    n = w.dimension
    return [[[e for e in w.structure_vector(i, j)] for j in range(n)] for i in range(n)]


FACTOR_KINDS = ["presented", "apex", "tensor", "skewed", "unclosed"]


def _factor(rng, kind):
    """A product factor: presented, a limit apex, a tabled tensor, a skewed
    copy (augmentation nonzero past the unit), or an unclosed one (a table
    with an augmentation that is not multiplicative)."""
    if kind == "presented":
        return random_presented_algebra(rng, max_dim=6)
    if kind == "apex":
        return random_limit_cone(rng).apex
    if kind == "tensor":
        return tensor(equalizer(*random_parallel_pair(rng))[0], dual_numbers("t"))[0]
    if kind == "skewed":
        return _skewed(rng, random_presented_algebra(rng, max_dim=6))[0]
    assert kind == "unclosed"
    w = rng.choice([first_order_infinitesimals(2), random_presented_algebra(rng, max_dim=5)])
    aug = [1] + [rng.choice([0, 1, -2]) for _ in range(1, w.dimension)]
    aug[rng.randrange(1, w.dimension)] = 1
    return WeilAlgebra.tabled(
        _table(w), [qq(x) for x in aug], check=False, nilpotency_hint=w.nilpotency_degree
    )


@given(st.lists(st.sampled_from(FACTOR_KINDS), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_product_over_k_matches_the_dense_loop(kinds, seed):
    # the product over the scalars is the limit of the discrete diagram
    rng = random.Random(seed)
    factors = [_factor(rng, kind) for kind in kinds]
    data = [(_table(w), _aug(w)) for w in factors]
    try:
        want = product_over_k_reference(data)
    except ValueError as exc:
        with pytest.raises(AlgebraError) as refused:
            limit(DiagramInWeil(factors, ()))
        assert str(refused.value) == str(exc)
        return
    w, projections = limit(DiagramInWeil(factors, ()))
    assert _table(w) == want
    assert w.aug == tuple(Fraction(int(k == 0)) for k in range(len(want)))
    if len(factors) == 2:
        assert product_over_k(*factors) == (w, *projections)
    d = w.dimension
    identity = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    assert [_rows(p.matrix) for p in projections] == limit_legs_reference(
        [aug for _, aug in data], identity
    )
    assert [p.target for p in projections] == factors
    # the blockwise product is the table's, unit parts included
    prod = weil._ProductOverK(factors)
    for _ in range(4):
        x, y = ([rng.randint(-3, 3) for _ in range(d)] for _ in range(2))
        dx, dy = rng.randint(1, 4), rng.randint(1, 4)
        den, nums = prod.multiply((dx, x), (dy, y))
        want_xy = WeilElement(w, [Fraction(n, dx) for n in x]) * WeilElement(w, [Fraction(n, dy) for n in y])
        assert [Fraction(n, den) for n in nums] == list(want_xy.raw)


@given(st.sampled_from(["presented", "tensor", "product", "apex"]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_filtered_basis_matches_the_rank_loop(kind, seed):
    rng = random.Random(seed)
    if kind == "product":
        w = product_over_k(_factor(rng, "presented"), _factor(rng, "apex"))[0]
    else:
        w = _factor(rng, kind)
    assert (w.flavor == "presented") == (kind == "presented")
    assert filtered_basis(w) == filtered_basis_reference(w)


def _limit_with_inclusion(diagram):
    """limit(diagram), and the inclusion of its apex into the product's
    full table, from the int columns _subalgebra returned."""
    seen = []
    real = weil._subalgebra
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weil, "_subalgebra", lambda *args: seen.append(real(*args)) or seen[-1])
        apex, legs = limit(diagram)
    [(sub, (common, cols))] = seen
    assert sub is apex
    product = product_algebra_reference(diagram.objects)
    return apex, legs, WeilMorphism._reduced(sub, product, common, cols)


def _diagram_of_kind(rng, kind):
    if kind == "seeded":
        return random_limit_cone(rng).without_cone()
    if kind == "grid":
        return _grid_cone(rng).without_cone()
    if kind in ("discrete", "unclosed"):
        kinds = [rng.choice(FACTOR_KINDS[:-1]) for _ in range(rng.randint(1, 3))]
        if kind == "unclosed":
            kinds[rng.randrange(len(kinds))] = "unclosed"
        return DiagramInWeil([_factor(rng, k) for k in kinds], ())
    if kind == "skewed-target":
        # a pair into a skewed algebra, and its target's identity
        phi, psi = random_parallel_pair(rng)
        skew, iso = _skewed(rng, phi.target)
        phi, psi = (inverse_reference(iso).compose(m) for m in (phi, psi))
        arrows = ((0, 1, phi), (0, 1, psi), (1, 1, WeilMorphism.identity(skew)))
        return DiagramInWeil((phi.source, skew), arrows)
    # equalizer diagrams out of skewed algebras and out of limit apexes
    phi, psi = _parallel_pairs(rng, 1)[1 if kind == "skewed" else 2]
    return DiagramInWeil((phi.source, phi.target), ((0, 1, phi), (0, 1, psi)))


@given(st.sampled_from(["seeded", "grid", "discrete", "skewed", "apex"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_limit_legs_are_the_extraction_products(kind, seed):
    diagram = _diagram_of_kind(random.Random(seed), kind)
    apex, legs, incl = _limit_with_inclusion(diagram)
    want = limit_legs_reference([_aug(w) for w in diagram.objects], _rows(incl.matrix))
    assert [_rows(leg.matrix) for leg in legs] == want
    assert all(leg.source is apex for leg in legs)
    assert [leg.target for leg in legs] == list(diagram.objects)


@given(
    st.sampled_from(["seeded", "grid", "discrete", "skewed", "apex", "equalizer"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_subalgebra_matches_the_echelon_route(kind, seed):
    # each _subalgebra call against the echelon route over its ambient: the
    # equalizer's source, or a limit's product as a full table
    rng = random.Random(seed)
    if kind == "equalizer":
        pairs = _parallel_pairs(rng, 1)
        ambients = [phi.source for phi, _ in pairs]
    else:
        diagram = _diagram_of_kind(rng, kind)
        ambients = [product_algebra_reference(diagram.objects)]
    calls = []
    real = weil._subalgebra
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weil, "_subalgebra", lambda kernel, *args: calls.append((kernel, real(kernel, *args))) or calls[-1][1])
        if kind == "equalizer":
            for phi, psi in pairs:
                equalizer(phi, psi)
        else:
            limit(diagram)
    assert len(calls) == len(ambients)
    for w, (kernel, (sub, (common, cols))) in zip(ambients, calls):
        want, want_incl = subalgebra_reference(w, kernel)
        n = want.dimension
        assert sub.dimension == n
        assert [[sub._terms(i, j) for j in range(n)] for i in range(n)] == [
            [want._terms(i, j) for j in range(n)] for i in range(n)
        ]
        assert sub.aug == want.aug
        assert WeilMorphism._reduced(sub, w, common, cols).matrix == want_incl.matrix


LIMIT_KINDS = ["seeded", "grid", "discrete", "skewed", "apex", "skewed-target", "unclosed"]


@given(st.sampled_from(LIMIT_KINDS), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_limit_matches_the_full_product_table_route(kind, seed):
    diagram = _diagram_of_kind(random.Random(seed), kind)
    try:
        want_apex, want_legs = limit_reference(diagram)
    except AlgebraError as exc:
        with pytest.raises(AlgebraError) as refused:
            limit(diagram)
        assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
        return
    apex, legs = limit(diagram)
    assert apex == want_apex
    assert (apex.aug, apex.labels) == (want_apex.aug, want_apex.labels)
    assert legs == want_legs


def test_a_non_closed_echelon_span_is_refused_like_the_echelon_route():
    w = parse_algebra("Q[x]/(x^3)")
    one, x = (tuple(qq(int(i == k)) for i in range(3)) for k in (0, 1))
    assert kernel_basis(Matrix([[0, 0, 1]])) == [one, x]

    def times(a, b):
        p = WeilElement._ints(w, *a) * WeilElement._ints(w, *b)
        return p.den, p.nums

    for route in (lambda w, kernel: _subalgebra(kernel, w._int_aug(), times), subalgebra_reference):
        with pytest.raises(AlgebraError, match="^subspace is not closed under multiplication$"):
            route(w, [one, x])


# ----- one elimination per matrix ----------------------------------------------------


def _eliminations(run):
    """How many eliminations run() makes: calls of Matrix._echelon, the one
    loop behind Matrix.rref and Matrix.rank."""
    calls = []
    real = Matrix._echelon
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "_echelon", lambda m, *a: calls.append(m) or real(m, *a))
        run()
    return len(calls)


def test_limits_and_equalizers_need_no_unit_containment_solve():
    # the kernel of the equations is the only elimination: the unit's
    # containment and the structure coordinates are read off it, and no
    # factor's nilpotency degree (its ideal chain) is asked for
    rng = random.Random(53)
    diagrams = [_diagram_of_kind(rng, k) for k in ("seeded", "grid", "discrete", "skewed", "apex")]
    pairs = _parallel_pairs(rng, 2)
    for diagram in diagrams:
        assert _eliminations(lambda: limit(diagram)) == 1
    for phi, psi in pairs:
        assert _eliminations(lambda: equalizer(phi, psi)) == 1


def test_a_vertical_fiber_eliminates_each_matrix_once():
    # the Jacobian's kernel; its rank, the origin and the per-degree
    # record are read off it, and the frame is inverted only by point()
    assert _eliminations(lambda: vertical_fiber(sphere_distance(), dual_numbers(), [1, 0, 0])) == 1


def test_fiber_points_are_products_with_the_factored_jacobian():
    # four members of the jet-line fiber that vertical_suite samples: every
    # slot is a product with the factored Jacobian, and the frame is
    # inverted once, on the first point whose image is needed
    proj = FiberedObject.coordinate_projection(2, 1)
    fj = vertical_fiber(proj, jet_line(2), [4, 9])
    params = [[1, 2], [0, 0], [Fraction(-3, 2), 1], [5, 0]]
    points = []
    assert _eliminations(lambda: points.extend(fj.point(p) for p in params)) == 1
    assert points[1] == fj.origin and points[0] != points[2]
    # over the dual numbers the only degree solves at e0*1: no image, no frame
    fd = vertical_fiber(proj, dual_numbers(), [4, 9])
    assert _eliminations(lambda: [fd.point([c]) for c in (1, 0, -2, 7)]) == 0


# ----- tabled checks on sparse terms ------------------------------------------------


def _mutated(rng, table, aug):
    """The table with one product basis[i] * basis[j] (i, j >= 1, both
    orders) moved by delta (e_k - aug[k] e_0), which keeps it commutative,
    unital and the augmentation multiplicative; a single structure constant
    when aug[k] = 0."""
    n = len(table)
    i, j, k = (rng.randrange(1, n) for _ in range(3))
    delta = Fraction(rng.choice([-2, -1, 1, 3]))
    for a, b in {(i, j), (j, i)}:
        table[a][b][k] += delta
        table[a][b][0] -= delta * aug[k]
    return table


def _checked_outcome(table, aug):
    try:
        WeilAlgebra.tabled(table, aug, check=True)
    except AlgebraError as exc:
        return str(exc)
    return None


@given(st.sampled_from(FACTOR_KINDS[:-1]), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_associativity_is_decided_like_the_element_product_scan(kind, seed, mutate):
    rng = random.Random(seed)
    w = _factor(rng, kind)
    table, aug = _table(w), _aug(w)
    if mutate and w.dimension > 1:
        table = _mutated(rng, table, aug)
    want = associativity_reference(table)
    got = _checked_outcome(table, aug)
    if want is not None:
        assert got == want
    else:
        assert got is None or "associative" not in got
    if not mutate:
        assert got is None


def test_non_associative_mutants_are_refused_at_the_reference_triple():
    rng = random.Random(59)
    refused = 0
    for n in range(40):
        w = _factor(rng, FACTOR_KINDS[n % 4])
        if w.dimension < 3:
            continue
        table, aug = _table(w), _aug(w)
        table = _mutated(rng, table, aug)
        want = associativity_reference(table)
        if want is not None:
            assert _checked_outcome(table, aug) == want
            refused += 1
    assert refused >= 10


def test_a_checked_nilpotency_hint_must_match_the_ideal_chain():
    d = dual_numbers()
    table = [[d.structure_vector(i, j) for j in range(2)] for i in range(2)]
    aug = d.aug
    with pytest.raises(AlgebraError, match=r"hint 5 disagrees .* degree 2 "):
        WeilAlgebra.tabled(table, aug, check=True, nilpotency_hint=5)
    assert WeilAlgebra.tabled(table, aug, check=True, nilpotency_hint=2).nilpotency_degree == 2
    # an unchecked hint stays the caller's promise
    assert WeilAlgebra.tabled(table, aug, check=False, nilpotency_hint=5).nilpotency_degree == 5
