"""Model objects held by their dimension and tabled algebras held as sparse
structure terms, against references that keep the dense data."""

import random
from fractions import Fraction

import pytest
from oracles import (
    carrier_transport_reference,
    difference_rows_reference,
    kernel_reference,
    skewed_copy,
)

from weilkit import (
    InfinitesimalExponent,
    ModelObject,
    ModeError,
    NonNilpotentError,
    WeilAlgebra,
    check_weil_exponentiable,
    dual_numbers,
    equalizer,
    first_order_infinitesimals,
    jet_line,
    linear_map,
    parse_algebra,
    product_over_k,
    qq,
    serialize_algebra,
    tensor,
    terminal,
)
from weilkit import axioms
from weilkit.corpus import random_limit_cone, random_morphism, random_presented_algebra
from weilkit.weil import augmentation, unit_map

# ----- carriers ---------------------------------------------------------------------


def _transport_outcomes(report):
    return [o.passed for o in report.outcomes if o.check == "carrier-transport"]


def _reference(basis, x, w1, w2, wy):
    """The dense carrier transport under the shuffle the checker builds."""
    a_side = tensor(tensor(w1, w2)[0], wy)[0]
    b_side = tensor(tensor(w1, wy)[0], w2)[0]
    sigma = axioms.factor_permutation_iso(a_side, b_side, (0, 2, 1))
    rows = [[e for e in row] for row in sigma.matrix.entries]
    return carrier_transport_reference(
        basis, x.ambient_dim, rows, a_side.dimension, b_side.dimension
    )


def _identity_basis(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "suite, calls",
    [(axioms.exponentiability_suite, 5), (axioms.closure_suite, 3)],
)
def test_carrier_transport_matches_the_dense_reference_in_the_suites(
    monkeypatch, suite, calls
):
    recorded = []
    real = axioms.check_weil_exponentiable

    def record(x, y, w1, w2, **kwargs):
        report = real(x, y, w1, w2, **kwargs)
        recorded.append((x, y.algebra, w1, w2, report))
        return report

    monkeypatch.setattr(axioms, "check_weil_exponentiable", record)
    assert suite().ok
    assert len(recorded) == calls
    for x, wy, w1, w2, report in recorded:
        # coordinate spaces and their lifts are whole spaces
        assert x.kind == "coordinate" and x.dim == x.ambient_dim
        want = _reference(_identity_basis(x.dim), x, w1, w2, wy)
        assert _transport_outcomes(report) == [want] == [True]


def _seeded_limit(rng):
    """A linear equalizer or pullback with small integer coefficients, with
    the dims and (s, rows, t, None) terms of its defining system."""

    def rows(n_in, n_out):
        return [[Fraction(rng.randint(-2, 2)) for _ in range(n_in)] for _ in range(n_out)]

    if rng.random() < 0.5:
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        f, g = rows(n, m), rows(n, m)
        x = ModelObject.linear_equalizer(linear_map(f, n, "F"), linear_map(g, n, "G"))
        return x, [n, m], [(0, f, 1, None), (0, g, 1, None)]
    a, b, c = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
    f, g = rows(a, c), rows(b, c)
    x = ModelObject.linear_pullback(linear_map(f, a, "F"), linear_map(g, b, "G"))
    return x, [a, b, c], [(0, f, 2, None), (1, g, 2, None)]


def _old_basis(dims, terms):
    return kernel_reference(difference_rows_reference(dims, terms), sum(dims))


def test_limit_dimension_is_the_length_of_the_kernel_basis():
    for seed in range(40):
        x, dims, terms = _seeded_limit(random.Random(seed))
        assert x.kind == "limit"
        assert x.ambient_dim == sum(dims)
        assert x.dim == len(_old_basis(dims, terms))


def test_carrier_transport_matches_the_dense_reference_on_limits():
    d, d2, j2 = dual_numbers(), first_order_infinitesimals(2), jet_line(2)
    pool = [(d, d, d), (d, j2, d2), (terminal(), d, d), (d, d2, terminal())]
    # u = y and 2u = y: a zero-dimensional carrier, where both sides vanish
    zero = ModelObject.linear_equalizer(linear_map([[1]], 1), linear_map([[2]], 1))
    cases = [(zero, [1, 1], [(0, [[1]], 1, None), (0, [[2]], 1, None)])]
    cases += [_seeded_limit(random.Random(seed)) for seed in range(8)]
    for i, (x, dims, terms) in enumerate(cases):
        w1, w2, wy = pool[i % len(pool)]
        basis = _old_basis(dims, terms)
        assert x.dim == len(basis)
        report = check_weil_exponentiable(
            x, InfinitesimalExponent(wy), w1, w2, samples=4, seed=i
        )
        want = _reference(basis, x, w1, w2, wy)
        assert _transport_outcomes(report) == [want] == [True]
        lifted = x.tensor_with(wy)
        assert (lifted.ambient_dim, lifted.dim) == (
            x.ambient_dim * wy.dimension,
            x.dim * wy.dimension,
        )


def test_a_singular_shuffle_fails_carrier_transport_like_the_reference(monkeypatch):
    def singular(a, b, perm):
        # an algebra map of rank one: a -> aug(a) * 1
        return unit_map(b).compose(augmentation(a))

    monkeypatch.setattr(axioms, "factor_permutation_iso", singular)
    d, j2 = dual_numbers(), jet_line(2)
    limits = [_seeded_limit(random.Random(seed)) for seed in range(4)]
    cases = [(ModelObject.coordinate(n), _identity_basis(n)) for n in (1, 2)]
    cases += [(x, _old_basis(dims, terms)) for x, dims, terms in limits]
    for x, basis in cases:
        report = check_weil_exponentiable(x, InfinitesimalExponent(d), d, j2, samples=4)
        want = _reference(basis, x, d, j2, d)
        assert _transport_outcomes(report) == [want]
        assert want is (x.dim == 0)
        assert not report.ok


# ----- tabled algebras ----------------------------------------------------------------


def _skewed(rng, w):
    """w on the basis 1, e_i + c_i with rational c_i: a tabled copy whose
    structure constants and augmentation have denominators."""
    c = [Fraction(rng.choice([1, -2, 3]), rng.choice([2, 3])) for _ in range(1, w.dimension)]
    return skewed_copy(w, [Fraction(0)] + c)


def _tabled_algebras():
    d, j2 = dual_numbers(), jet_line(2, "y")
    p, _, _ = product_over_k(d, j2)
    out = [p, tensor(p, dual_numbers("z"))[0], tensor(jet_line(1, "s"), p)[0]]
    for seed in range(6):
        rng = random.Random(seed)
        src = random_presented_algebra(rng, max_dim=6)
        tgt = random_presented_algebra(rng, max_dim=6)
        phi, psi = random_morphism(rng, src, tgt), random_morphism(rng, src, tgt)
        out.append(equalizer(phi, psi)[0])
        out.append(random_limit_cone(rng).apex)
    # structure constants with denominators, stored over a common one
    rng = random.Random(7)
    skewed = [_skewed(rng, random_presented_algebra(rng, max_dim=5)) for _ in range(4)]
    out += skewed
    out.append(tensor(skewed[0], skewed[1])[0])
    out.append(tensor(skewed[2], random_limit_cone(rng).apex)[0])
    out.append(product_over_k(skewed[3], j2)[0])
    return [w for w in out if w.flavor == "tabled"]


def _has_denominators(w):
    n = w.dimension
    return any(c.denominator > 1 for i in range(n) for j in range(n) for c in w.structure_vector(i, j))


def _rebuilt(w):
    n = w.dimension
    table = [[w.structure_vector(i, j) for j in range(n)] for i in range(n)]
    return WeilAlgebra.tabled(table, w.aug)


def test_tabled_algebras_equal_their_rebuilt_structure_vectors():
    algebras = _tabled_algebras()
    assert len(algebras) >= 19
    assert sum(map(_has_denominators, algebras)) >= 6
    for w in algebras:
        back = _rebuilt(w)
        assert back == w and hash(back) == hash(w)
        # the ideal chain of the copy gives the degree the original has
        assert back.nilpotency_degree == w.nilpotency_degree


def test_tabled_serialization_round_trips_byte_for_byte():
    for w in _tabled_algebras():
        text = serialize_algebra(w)
        back = parse_algebra(text)
        assert back == w and hash(back) == hash(w)
        assert serialize_algebra(back) == text


def test_tabled_algebras_with_other_products_differ():
    cubic = jet_line(2)  # x^2 != 0
    flat = first_order_infinitesimals(2)  # every product of nilpotents is 0
    a, b = _rebuilt(cubic), _rebuilt(flat)
    assert a.dimension == b.dimension and a.aug == b.aug
    assert a != b


def test_tabled_refuses_float_structure_constants():
    one, x = [qq(1), qq(0)], [qq(0), qq(1)]
    with pytest.raises(ModeError):
        WeilAlgebra.tabled([[one, x], [x, [qq(0), 0.5]]], [qq(1), qq(0)])


def test_tabled_refuses_a_kernel_that_is_not_nilpotent():
    # Q x Q on the basis 1, x with x^2 = x: a commutative, associative,
    # unital table whose augmentation is multiplicative, but x is idempotent
    one, x = [qq(1), qq(0)], [qq(0), qq(1)]
    with pytest.raises(NonNilpotentError, match="^augmentation kernel is not nilpotent$"):
        WeilAlgebra.tabled([[one, x], [x, x]], [qq(1), qq(0)])
    with pytest.raises(NonNilpotentError, match="^augmentation kernel is not nilpotent$"):
        parse_algebra("weil tabled\ndim 2\nunit 0\naug 1 0\nc 0 0 0 1\nc 0 1 1 1\nc 1 1 1 1")
