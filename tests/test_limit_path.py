"""The limit path: limits built from structure, and the microlinearity
precondition decided by the r = 1 numbers, against references that take
the long way round."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    equalizer_space,
    greedy_basis_reference,
    is_limit_cone_reference,
    microlinear_reference,
    nilpotency_degree_reference,
    pullback_space,
    same_span,
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
    is_limit_cone,
    jet_line,
    limit,
    limit_cone,
    product_over_k,
    qq,
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
from weilkit.weil import DiagramError, MorphismError, _subalgebra


def _rows(m):
    return [[e.value for e in row] for row in m.entries]


def _cols(m):
    return [tuple(e.value for e in m.column(j)) for j in range(m.cols)]


def _aug(w):
    return [c.value for c in w.aug_covector]


def _skewed(rng, w):
    """w on the basis 1, e_i + c_i (random integers c_i), so that its
    augmentation does not vanish past the unit; returns the tabled copy and
    the isomorphism onto w."""
    n = w.dimension
    c = [Fraction(0)] + [Fraction(rng.choice([-2, -1, 1, 3])) for _ in range(1, n)]

    def rebase(v):
        return [v[0] - sum(x * y for x, y in zip(c, v))] + list(v[1:])

    table = []
    for i in range(n):
        row = []
        for j in range(n):
            v = [e.value for e in w.structure_vector(i, j)]
            v[i] += c[j]
            v[j] += c[i]
            v[0] += c[i] * c[j]
            row.append([qq(x) for x in rebase(v)])
        table.append(row)
    skew = WeilAlgebra.tabled(table, [qq(1)] + [qq(x) for x in c[1:]], check=True)
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
            [[e.value for e in w.structure_vector(i, j)] for j in range(n)] for i in range(n)
        ]
        assert w.nilpotency_degree == nilpotency_degree_reference(table, _aug(w))


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


def test_subalgebra_picks_the_greedy_basis():
    rng = random.Random(37)
    for phi, psi in _parallel_pairs(rng, 6):
        w = phi.source
        kernel = kernel_basis(phi.matrix - psi.matrix)
        # the same span, listed redundantly and out of order
        spanning = list(kernel) + [w.one().coeffs]
        for _ in range(3):
            coeffs = [qq(rng.randint(-2, 2)) for _ in kernel]
            combination = [qq(0)] * w.dimension
            for c, v in zip(coeffs, kernel):
                combination = [x + c * y for x, y in zip(combination, v)]
            spanning.append(tuple(combination))
        rng.shuffle(spanning)
        sub, incl = _subalgebra(w, spanning)
        raw = [[e.value for e in v] for v in spanning]
        want = greedy_basis_reference(raw, w.dimension)
        assert _cols(incl.matrix) == [tuple(v) for v in want]
        # the structure constants make the inclusion an algebra map
        WeilMorphism(sub, w, incl.matrix, check=True)


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
