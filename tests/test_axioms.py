"""Microlinearity and infinitesimal exponentiability of the model objects."""

import random

import pytest
from oracles import microlinear_numbers, multiplicative_reference

from weilkit import (
    DiagramInWeil,
    InfinitesimalExponent,
    Mode,
    ModelObject,
    WeilMorphism,
    axioms_suite,
    check_microlinear,
    check_weil_exponentiable,
    closure_suite,
    dual_numbers,
    exponentiability_suite,
    first_order_infinitesimals,
    infinitesimal_exponent_of,
    is_limit_cone,
    jet_line,
    microlinearity_suite,
    tensor_of_cones,
)
from weilkit.corpus import mutate_cone, random_diagram, random_limit_cone
from weilkit.axioms import SHUFFLE_MULTIPLICATIVE
from weilkit.exactlin import Matrix
from weilkit.weil import (
    DiagramError,
    MorphismError,
    factor_permutation_iso,
    limit_cone,
    tensor,
    terminal,
)


def _identity_cone(w):
    return DiagramInWeil(
        (w,), ((0, 0, WeilMorphism.identity(w)),), w, (WeilMorphism.identity(w),)
    )


# ----- microlinearity ------------------------------------------------------------


def test_coordinate_space_sees_identity_cone_as_limit():
    v = check_microlinear(ModelObject.coordinate(2), _identity_cone(dual_numbers()))
    assert v.ok and v.exactness == "exact"


def test_coordinate_spaces_preserve_seeded_limit_cones():
    rng = random.Random(42)
    for i in range(8):
        cone = random_limit_cone(rng)
        v = check_microlinear(ModelObject.coordinate(1 + i % 3), cone)
        assert v.ok, v.certificate
        assert v.exactness == "exact"


def test_disconnected_cones_are_products_not_wedges():
    # a discrete two-object diagram: the limit glues along scalars, so the
    # lifted cone must identify base points across the two factors
    a = dual_numbers()
    b = jet_line(2, "y")
    cone = limit_cone(DiagramInWeil((a, b), ()))
    assert is_limit_cone(cone).ok
    v = check_microlinear(ModelObject.coordinate(2), cone)
    assert v.ok, v.certificate


def test_mutated_cones_are_refused():
    rng = random.Random(7)
    refused = 0
    for i in range(8):
        cone = random_limit_cone(rng)
        mutant = mutate_cone(cone, "collapse" if i % 2 else "inflate")
        if mutant is None:
            continue
        v = check_microlinear(
            ModelObject.coordinate(2), mutant, enforce_limit_input=False
        )
        assert not v.ok
        refused += 1
    assert refused >= 4


def test_enforcement_rejects_non_limit_input():
    rng = random.Random(3)
    mutant = mutate_cone(random_limit_cone(rng), "inflate")
    with pytest.raises(DiagramError):
        check_microlinear(ModelObject.coordinate(1), mutant)


def test_cone_without_apex_is_rejected():
    rng = random.Random(5)
    with pytest.raises(DiagramError):
        check_microlinear(ModelObject.coordinate(1), random_diagram(rng))


# ----- exponentiability -----------------------------------------------------------


def test_exponent_objects_tensor_the_carrier():
    x = ModelObject.coordinate(2)
    y = InfinitesimalExponent(first_order_infinitesimals(2))
    xt = infinitesimal_exponent_of(x, y)
    assert xt.ambient_dim == 2 * 3


def test_exponentiable_battery_on_a_fixed_instance():
    rep = check_weil_exponentiable(
        ModelObject.coordinate(2),
        InfinitesimalExponent(dual_numbers()),
        dual_numbers(),
        jet_line(2, "y"),
        samples=6,
        seed=11,
    )
    assert rep.ok, rep.render()


def test_shuffle_multiplicativity_is_decided_on_basis_pairs():
    # the outcome is a theorem about the shuffle, the same on every seed,
    # and the dense basis-pair products of the reference agree with it
    y = InfinitesimalExponent(dual_numbers("e"))
    for w1, w2 in ((dual_numbers(), jet_line(2, "y")), (terminal(), dual_numbers("y"))):
        a_side = tensor(tensor(w1, w2)[0], y.algebra)[0]
        b_side = tensor(tensor(w1, y.algebra)[0], w2)[0]
        sigma = factor_permutation_iso(a_side, b_side, (0, 2, 1))
        assert multiplicative_reference(sigma)
        for seed in range(3):
            rep = check_weil_exponentiable(ModelObject.coordinate(1), y, w1, w2, 4, seed)
            [outcome] = [o for o in rep.outcomes if o.check == SHUFFLE_MULTIPLICATIVE.name]
            assert outcome.passed, rep.render()
        # a permutation that swaps the images of two nilpotents is refused
        cols = list(range(a_side.dimension))
        cols[1], cols[-1] = cols[-1], cols[1]
        rows = [[int(c == r) for c in cols] for r in range(a_side.dimension)]
        swapped = WeilMorphism(a_side, a_side, Matrix(rows), check=False)
        assert not multiplicative_reference(swapped)
        with pytest.raises(MorphismError):
            swapped._validate_multiplicative()


def test_degenerate_exponent_is_allowed():
    from weilkit import terminal

    rep = check_weil_exponentiable(
        ModelObject.coordinate(1),
        InfinitesimalExponent(terminal()),
        dual_numbers(),
        dual_numbers("y"),
        samples=4,
        seed=2,
    )
    assert rep.ok


def _connected_limit_cone(rng, max_obj_dim=4):
    # every generated shape with arrows is connected; the arrowless shape
    # with two objects is the one disconnected case.  The dimension cap
    # keeps the grid tensors small enough for an exact rank check.
    while True:
        cone = random_limit_cone(rng)
        if not cone.arrows and len(cone.objects) > 1:
            continue
        if max(obj.dimension for obj in cone.objects) <= max_obj_dim:
            return cone


def test_tensor_of_connected_cones_is_a_limit_cone():
    rng = random.Random(19)
    for _ in range(3):
        c1 = _connected_limit_cone(rng)
        c2 = _connected_limit_cone(rng)
        grid = tensor_of_cones(c1, c2)
        assert grid.has_cone
        assert is_limit_cone(grid).ok


def test_tensor_of_cones_boundary_disconnected_factor():
    # the product of two square-zero lines glues scalars once; the grid
    # over a disconnected factor re-glues per component, so the tensored
    # cone commutes but is not a limit cone
    d = dual_numbers()
    disc = limit_cone(DiagramInWeil((d, dual_numbers("y")), ()))
    grid = tensor_of_cones(disc, _identity_cone(d))
    assert not is_limit_cone(grid).ok


def test_tensor_of_cones_needs_cones():
    rng = random.Random(21)
    with pytest.raises(DiagramError):
        tensor_of_cones(random_diagram(rng), random_limit_cone(rng))


# ----- suites ---------------------------------------------------------------------


def test_axioms_suite_green_in_both_modes():
    assert axioms_suite(seed=1, samples=8).ok
    assert axioms_suite(seed=1, samples=8, mode=Mode.FLOAT).ok


def test_microlinearity_suite_green():
    rep = microlinearity_suite(seed=2, samples=6)
    assert rep.ok, rep.render()


def test_microlinearity_negative_controls_all_refused():
    rep = microlinearity_suite(seed=2, samples=6, negative_controls=True)
    assert rep.ok, rep.render()


def _sampled(rep):
    return [(o.check, o.instance) for o in rep.outcomes if o.exactness == "sampled"]


def test_exponentiability_suite_green():
    rep = exponentiability_suite(seed=3, samples=5)
    assert rep.ok
    # naturality is decided on random (map, point) draws
    naturality = [(o.check, o.instance) for o in rep.outcomes if o.check == "shuffle-naturality"]
    assert naturality and _sampled(rep) == naturality


def test_closure_suite_green():
    rep = closure_suite(seed=4)
    assert rep.ok, rep.render()
    assert [o for o in rep.outcomes if not o.passed] == []
    # the derived exponentiability outcomes keep their sub-outcomes' tags
    assert [check for check, _ in _sampled(rep)] == ["derived-exponentiable"] * 3


def _full_lifted_verdict(r, cone):
    """Verdict and certificate of the lifted system built with I_r (x) blocks."""

    def rows(m):
        return [[e for e in row] for row in m.entries]

    rank_c, nullity, contained = microlinear_numbers(
        r,
        cone.apex.dimension,
        [w.dimension for w in cone.objects],
        [rows(leg.matrix) for leg in cone.legs],
        [(s, t, rows(phi.matrix)) for s, t, phi in cone.arrows],
        [[c for c in w.aug] for w in cone.objects],
    )
    full = r * cone.apex.dimension
    ok = contained and rank_c == full and nullity == rank_c
    cert = (
        f"R^{r}: canonical map rank {rank_c} of {full}; "
        f"compatible subspace dimension {nullity}; "
        f"containment {'holds' if contained else 'fails'}"
    )
    return ok, cert


def test_microlinear_decided_at_rank_one_matches_the_full_lift():
    rng = random.Random(11)
    cases = []
    for i in range(4):
        cone = random_limit_cone(rng)
        cases.append((cone, True))
        mutant = mutate_cone(cone, "collapse" if i % 2 else "inflate")
        if mutant is not None:
            cases.append((mutant, False))
    assert sum(not enforce for _, enforce in cases) >= 2
    for cone, enforce in cases:
        for r in (1, 2, 3):
            v = check_microlinear(
                ModelObject.coordinate(r), cone, enforce_limit_input=enforce
            )
            assert (v.ok, v.certificate) == _full_lifted_verdict(r, cone)
