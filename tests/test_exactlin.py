"""Exact scalars and rational linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    kron_reference,
    matmul_reference,
    matvec_reference,
    rref_reference,
    solve_columns_reference,
)

from weilkit import Matrix, Mode, ModeError, Scalar, qq
from weilkit.exactlin import (
    NO_SOLUTION,
    NOT_UNIQUE,
    hstack,
    kernel_basis,
    solve_affine,
    solve_matrix,
    solve_unique,
    span_contains,
    spans_equal,
    unit_vector,
    vstack,
)

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=5
)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda rs: Matrix([[qq(x) for x in r] for r in rs]))


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(lambda c: small_matrix(r, c))
)


# ----- scalars ----------------------------------------------------------------


def test_scalar_modes_are_kept_apart():
    assert qq(Fraction(1, 3)).mode is Mode.EXACT
    assert Scalar(0.5).mode is Mode.FLOAT
    with pytest.raises(ModeError):
        qq(1) + Scalar(1.0)
    with pytest.raises(ModeError):
        Scalar(2.0).as_fraction()


def test_ints_coerce_into_either_mode():
    assert qq(Fraction(1, 2)) + 1 == qq(Fraction(3, 2))
    assert Scalar(0.5) + 1 == Scalar(1.5)
    assert qq(2) * Fraction(1, 4) == qq(Fraction(1, 2))


def test_scalar_division():
    assert qq(3) / qq(4) == qq(Fraction(3, 4))
    with pytest.raises(ZeroDivisionError):
        qq(1) / qq(0)
    with pytest.raises(ZeroDivisionError):
        qq(0) ** -1


@given(rationals, rationals, rationals)
def test_scalar_field_laws(a, b, c):
    x, y, z = qq(a), qq(b), qq(c)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if not y.is_zero:
        assert (x / y) * y == x


# ----- matrices ---------------------------------------------------------------


def test_identity_and_shapes():
    m = Matrix([[qq(1), qq(2)], [qq(3), qq(4)]])
    assert m @ Matrix.identity(2) == m
    assert Matrix.identity(2) @ m == m
    assert (m @ m).rows == 2
    assert Matrix.zeros(0, 3).cols == 3


def test_inverse_frozen():
    m = Matrix([[qq(2), qq(1)], [qq(5), qq(3)]])
    inv = m.inverse()
    assert inv == Matrix([[qq(3), qq(-1)], [qq(-5), qq(2)]])
    assert m @ inv == Matrix.identity(2)


def test_kron_frozen():
    a = Matrix([[qq(1), qq(2)], [qq(0), qq(3)]])
    b = Matrix([[qq(0), qq(1)], [qq(1), qq(0)]])
    k = a.kron(b)
    assert k.rows == 4 and k.cols == 4
    # top-left block is 1*b, top-right is 2*b
    assert k.entries[0][1] == qq(1)
    assert k.entries[0][3] == qq(2)
    assert k.entries[2][2] == qq(0)
    assert k.entries[3][2] == qq(3)


def test_stacking():
    a = Matrix([[qq(1), qq(2)]])
    b = Matrix([[qq(3), qq(4)]])
    assert vstack([a, b]).rows == 2
    assert hstack([a, b]).cols == 4
    with pytest.raises(ValueError):
        vstack([], cols=None)
    assert vstack([], cols=2).cols == 2


@given(matrices)
@settings(max_examples=60)
def test_rank_nullity(m):
    assert m.rank() + len(kernel_basis(m)) == m.cols


@given(matrices)
@settings(max_examples=60)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(e.is_zero for e in m.apply(v))


@given(matrices, st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=60)
def test_solve_affine_solutions_solve(m, raw):
    rhs = m.apply(tuple(qq(x) for x in raw[: m.cols]) + tuple(
        qq(0) for _ in range(max(0, m.cols - len(raw)))
    ))
    out = solve_affine(m, rhs)
    assert out is not NO_SOLUTION
    particular, kernel = out
    assert m.apply(particular) == tuple(rhs)
    for v in kernel:
        assert all(e.is_zero for e in m.apply(v))


def test_solve_outcomes_are_values_not_errors():
    singular = Matrix([[qq(1), qq(2)], [qq(2), qq(4)]])
    assert solve_unique(singular, (qq(1), qq(1))) is NO_SOLUTION
    assert solve_unique(singular, (qq(1), qq(2))) is NOT_UNIQUE
    assert solve_affine(singular, (qq(1), qq(1))) is NO_SOLUTION


def test_rank_rejects_float_matrices():
    m = Matrix([[Scalar(1.0)]])
    with pytest.raises(ModeError):
        m.rank()


def test_span_helpers():
    e0 = unit_vector(3, 0)
    e1 = unit_vector(3, 1)
    inside = (qq(2), qq(-1), qq(0))
    outside = (qq(0), qq(0), qq(1))
    assert span_contains([e0, e1], inside)
    assert not span_contains([e0, e1], outside)
    assert spans_equal([e0, e1], [inside, e1])
    assert not spans_equal([e0], [e1])
    assert spans_equal([], [])


@given(matrices)
@settings(max_examples=40)
def test_span_invariant_under_column_mixing(m):
    cols = [m.column(j) for j in range(m.cols)]
    mixed = [tuple(a + b for a, b in zip(cols[0], c)) for c in cols[1:]]
    assert spans_equal(cols, cols[:1] + mixed) or m.cols == 1


# ----- the kernel against naive references -------------------------------------


@st.composite
def sparse_rows(draw, rows=None, cols=None):
    """Raw Fraction rows, at least half of whose entries are zero."""
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    n = r * c
    values = [Fraction(0)] * n
    if n:
        cells = draw(st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True))
        for k in cells:
            values[k] = draw(rationals)
    return [values[i * c : (i + 1) * c] for i in range(r)], c


def as_matrix(rows, cols):
    return Matrix([[qq(x) for x in row] for row in rows], cols=cols)


def raw_rows(m):
    for row in m.entries:
        for e in row:
            assert type(e.value) is Fraction
    return [[e.value for e in row] for row in m.entries]


@given(sparse_rows())
@settings(max_examples=80)
def test_rref_matches_reference(raw):
    rows, cols = raw
    reduced, pivots = as_matrix(rows, cols).rref()
    ref_rows, ref_pivots = rref_reference(rows, cols)
    assert pivots == ref_pivots
    assert raw_rows(Matrix(reduced, cols=cols)) == ref_rows


@given(st.data())
@settings(max_examples=50)
def test_matmul_and_apply_match_reference(data):
    a, inner = data.draw(sparse_rows())
    b, cols = data.draw(sparse_rows(rows=inner))
    product = as_matrix(a, inner) @ as_matrix(b, cols)
    assert product.shape == (len(a), cols)
    assert raw_rows(product) == matmul_reference(a, b, inner, cols)
    vec = [row[0] for row in data.draw(sparse_rows(rows=inner, cols=1))[0]]
    # ints are mode-agnostic vector entries
    mixed = [int(x) if x.denominator == 1 else qq(x) for x in vec]
    out = as_matrix(a, inner).apply(mixed)
    assert all(type(e.value) is Fraction for e in out)
    assert [e.value for e in out] == matvec_reference(a, vec)


@given(sparse_rows(), sparse_rows())
@settings(max_examples=60)
def test_kron_matches_reference(left, right):
    (a, ca), (b, cb) = left, right
    k = as_matrix(a, ca).kron(as_matrix(b, cb))
    assert k.shape == (len(a) * len(b), ca * cb)
    assert raw_rows(k) == kron_reference(a, b)


def test_mixed_modes_raise_at_every_product():
    exact = Matrix([[qq(1), qq(0)], [qq(2), qq(3)]])
    floats = Matrix([[Scalar(1.0), Scalar(0.0)], [Scalar(2.0), Scalar(3.0)]])
    for left, right in ((exact, floats), (floats, exact)):
        with pytest.raises(ModeError):
            left @ right
        with pytest.raises(ModeError):
            left.kron(right)
    with pytest.raises(ModeError):
        exact.apply((Scalar(1.0), qq(0)))
    with pytest.raises(ModeError):
        exact.apply((0.5, 1))
    with pytest.raises(ModeError):
        floats.apply((Fraction(1, 2), 1))
    with pytest.raises(ModeError):
        floats.apply((qq(1), Scalar(1.0)))
    # ints meet either mode
    assert floats.apply((1, 2)) == (Scalar(1.0), Scalar(8.0))
    assert exact.apply((1, 2)) == (qq(1), qq(8))


def test_float_products_keep_every_term():
    # 0 * inf is nan and 0 * -1.0 is -0.0, so float loops skip nothing
    inf = float("inf")
    a = Matrix([[Scalar(1.0), Scalar(0.0)], [Scalar(0.0), Scalar(-2.0)]])
    b = Matrix([[Scalar(inf), Scalar(0.5)], [Scalar(0.0), Scalar(3.0)]])

    def text(m):
        return [[str(e) for e in row] for row in m.entries]

    assert text(a @ b) == [["inf", "0.5"], ["nan", "-6.0"]]
    assert [str(e) for e in a.apply((inf, 1))] == ["inf", "nan"]
    assert text(a.kron(b)) == [
        ["inf", "0.5", "nan", "0.0"],
        ["0.0", "3.0", "0.0", "0.0"],
        ["nan", "0.0", "-inf", "-1.0"],
        ["0.0", "0.0", "-0.0", "-6.0"],
    ]


# ----- solve_matrix: one elimination, the column-by-column outcomes ----------


def _solve_outcome(a, ca, b, cb):
    x = solve_matrix(as_matrix(a, ca), as_matrix(b, cb))
    if x is NO_SOLUTION:
        return "no solution"
    if x is NOT_UNIQUE:
        return "not unique"
    assert x.shape == (ca, cb)
    return raw_rows(x)


@given(st.data())
@settings(max_examples=60)
def test_solve_matrix_matches_column_by_column(data):
    a, ca = data.draw(sparse_rows())
    b, cb = data.draw(sparse_rows(rows=len(a), cols=data.draw(st.integers(0, 3))))
    assert _solve_outcome(a, ca, b, cb) == solve_columns_reference(a, b, ca, cb)


@pytest.mark.parametrize(
    "a, b, want",
    [
        # nonzero kernel, column 0 inconsistent
        ([[1, 1], [1, 1]], [[1, 1], [2, 1]], "no solution"),
        # nonzero kernel, column 0 consistent, column 1 inconsistent
        ([[1, 1], [1, 1]], [[1, 1], [1, 2]], "not unique"),
        # zero kernel, a later column inconsistent
        ([[1, 0], [0, 1], [1, 1]], [[1, 1], [1, 1], [2, 3]], "no solution"),
        ([[2, 1], [5, 3]], [[1, 0], [0, 1]], [[3, -1], [-5, 2]]),
    ],
)
def test_solve_matrix_outcome_order(a, b, want):
    a = [[Fraction(x) for x in row] for row in a]
    b = [[Fraction(x) for x in row] for row in b]
    assert _solve_outcome(a, 2, b, 2) == want
    assert solve_columns_reference(a, b, 2, 2) == want


def test_solve_matrix_with_no_columns_is_empty():
    singular = Matrix([[qq(1), qq(1)], [qq(1), qq(1)]])
    x = solve_matrix(singular, Matrix([[], []], cols=0))
    assert x.shape == (2, 0)
