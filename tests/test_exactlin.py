"""Exact scalars and rational linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    add_reference,
    difference_rows_reference,
    kernel_reference,
    kron_reference,
    matmul_reference,
    matvec_reference,
    morphism_from_matrix,
    rref_reference,
    solve_affine_reference,
    solve_columns_reference,
    solve_matrix_reference,
    span_contains_reference,
)

from weilkit import Matrix, ModeError, dual_numbers, qq
from weilkit.exactlin import (
    NO_SOLUTION,
    NOT_UNIQUE,
    SolveFailure,
    _raw_of,
    difference_rows,
    factor,
    hstack,
    kernel_basis,
    solve_affine,
    solve_matrix,
    solve_unique,
    span_contains,
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


def test_raw_of_refuses_bools_and_non_numbers():
    for bad in (True, False, object(), None):
        with pytest.raises(TypeError):
            _raw_of(bad)
    with pytest.raises(TypeError):
        Matrix([[True, 0]])
    # ints and numeric strs become exact; Fractions and floats pass through
    assert type(_raw_of(3)) is Fraction and _raw_of("1/2") == Fraction(1, 2)
    half = Fraction(1, 2)
    assert _raw_of(half) is half and _raw_of(0.5) == 0.5


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
        assert all(e == 0 for e in m.apply(v))


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
        assert all(e == 0 for e in m.apply(v))


@given(matrices, st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=60)
def test_solve_affine_kernel_is_kernel_basis(m, raw):
    rhs = m.apply(tuple(qq(x) for x in raw[: m.cols]) + tuple(
        qq(0) for _ in range(max(0, m.cols - len(raw)))
    ))
    _, kernel = solve_affine(m, rhs)
    assert kernel == kernel_basis(m)


def test_solve_affine_eliminates_once(monkeypatch):
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append(self.shape)
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    m = Matrix([[1, 2, 0], [2, 4, 1]])
    particular, kernel = solve_affine(m, (1, 3))
    # one elimination of [m | I]; every later solve is a product
    assert calls == [(2, 5)]
    system = factor(m)
    assert [system.solve(r) for r in ((1, 3), (0, 1), (2, 7))] == [
        particular, (qq(0), qq(0), qq(1)), (qq(2), qq(0), qq(3))]
    assert system.kernel == kernel
    assert calls == [(2, 5), (2, 5)]
    assert m.apply(particular) == (qq(1), qq(3))
    assert kernel == [(qq(-2), qq(1), qq(0))]
    calls.clear()
    assert solve_affine(Matrix([[1, 2], [2, 4]]), (1, 1)) is NO_SOLUTION
    assert calls == [(2, 4)]


def test_solve_outcomes_are_values_not_errors():
    singular = Matrix([[qq(1), qq(2)], [qq(2), qq(4)]])
    assert solve_unique(singular, (qq(1), qq(1))) is NO_SOLUTION
    assert solve_unique(singular, (qq(1), qq(2))) is NOT_UNIQUE
    assert solve_affine(singular, (qq(1), qq(1))) is NO_SOLUTION


def test_span_helpers():
    e0 = (qq(1), qq(0), qq(0))
    e1 = (qq(0), qq(1), qq(0))
    inside = (qq(2), qq(-1), qq(0))
    outside = (qq(0), qq(0), qq(1))
    assert span_contains([e0, e1], inside)
    assert not span_contains([e0, e1], outside)


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
            assert type(e) is Fraction
    return [[e for e in row] for row in m.entries]


@given(sparse_rows())
@settings(max_examples=80)
def test_rref_matches_reference(raw):
    rows, cols = raw
    reduced, pivots = as_matrix(rows, cols).rref()
    ref_rows, ref_pivots = rref_reference(rows, cols)
    assert pivots == ref_pivots
    assert raw_rows(Matrix(reduced, cols=cols)) == ref_rows


# zero rows, and shapes taller or wider than sparse_rows() draws on its own
ranked_rows = st.one_of(
    sparse_rows(),
    sparse_rows(rows=0),
    st.integers(1, 4).flatmap(lambda c: sparse_rows(rows=c + 4, cols=c)),
    st.integers(1, 4).flatmap(lambda r: sparse_rows(rows=r, cols=r + 4)),
)


@given(ranked_rows)
@settings(max_examples=150)
def test_rank_counts_the_reference_pivots(raw):
    # rank stops at echelon form, whose pivots are the full rref's; a last
    # row that sums the others adds none
    rows, cols = raw
    pivots = rref_reference(rows, cols)[1]
    assert as_matrix(rows, cols).rank() == len(pivots)
    stacked = [*rows, [sum(col, Fraction(0)) for col in zip(*rows)]] if rows else rows
    assert as_matrix(stacked, cols).rank() == len(pivots)


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
    assert all(type(e) is Fraction for e in out)
    assert [e for e in out] == matvec_reference(a, vec)


@given(sparse_rows(), sparse_rows())
@settings(max_examples=60)
def test_kron_matches_reference(left, right):
    (a, ca), (b, cb) = left, right
    k = as_matrix(a, ca).kron(as_matrix(b, cb))
    assert k.shape == (len(a) * len(b), ca * cb)
    assert raw_rows(k) == kron_reference(a, b)


@given(st.data())
@settings(max_examples=60)
def test_add_and_sub_match_reference(data):
    a, cols = data.draw(sparse_rows())
    b, _ = data.draw(sparse_rows(rows=len(a), cols=cols))
    left, right = as_matrix(a, cols), as_matrix(b, cols)
    assert (left + right).shape == (len(a), cols)
    assert raw_rows(left + right) == add_reference(a, b)
    assert raw_rows(left - right) == add_reference(a, b, sign=-1)


def test_matrices_refuse_floats_at_every_route():
    # a float is refused where it enters, not at the first elimination
    with pytest.raises(ModeError):
        Matrix([[qq(1), 0.5]])
    with pytest.raises(ModeError):
        Matrix.from_columns([(1, 0), (0.0, 1)])
    with pytest.raises(ModeError):
        Matrix([[1, 0], [2, 3]]).apply((0.5, 1))
    with pytest.raises(ModeError):
        Matrix([], cols=1).apply((0.5,))
    d = dual_numbers()
    with pytest.raises(ModeError):
        morphism_from_matrix(d, d, Matrix([[1.0, 0.0], [0.0, 1.0]]))
    # ints pass as exact and come back as Fractions
    m = Matrix([[1, 0], [2, 3]])
    image = m.apply((1, 2))
    assert image == (1, 8) and all(type(v) is Fraction for v in image)
    assert all(type(e) is Fraction for row in m.entries for e in row)
    assert all(type(e) is Fraction for c in Matrix.from_columns([(1, 2)]).entries for e in c)
    assert not hasattr(m, "mode")
    # sums still need equal shapes
    with pytest.raises(ValueError):
        m + Matrix([[1, 2]])


def test_exact_entries_are_fractions_after_every_operation():
    m = Matrix([[1, 0], [Fraction(1, 2), 3]])
    ident = Matrix.identity(2)
    for out in (m, m @ m, m + ident, m - m, m.kron(ident), hstack([m, ident]),
                vstack([m, ident]), Matrix.zeros(2, 2), m.inverse()):
        assert all(type(e) is Fraction for row in out.entries for e in row)
    vectors = [m.apply((1, 0)), m.row(0), m.column(1)]
    vectors += kernel_basis(Matrix([[1, 1, 0]]))
    vectors.append(solve_unique(m, (1, 2)))
    particular, kernel = solve_affine(Matrix([[1, 1]]), (2,))
    vectors += [particular, *kernel]
    assert all(type(e) is Fraction for v in vectors for e in v)


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


@given(st.data())
@settings(max_examples=80)
def test_factored_solves_match_the_former_eliminations(data):
    # consistent, inconsistent, non-unique and zero-row systems: every
    # product of factor(m) equals what an elimination of [m | rhs] reads off
    a, ca = data.draw(sparse_rows())
    m = as_matrix(a, ca)
    system = factor(m)
    assert system.pivots == rref_reference(a, ca)[1]
    assert system.kernel == kernel_basis(m) == [tuple(v) for v in kernel_reference(a, ca)]
    b, cb = data.draw(sparse_rows(rows=len(a), cols=data.draw(st.integers(0, 3))))
    x = [row[0] for row in data.draw(sparse_rows(rows=ca, cols=1))[0]]
    rhss = [[row[j] for row in b] for j in range(cb)] + [list(m.apply(x))]
    for rhs in rhss:
        want = solve_affine_reference(m, rhs)
        got = system.solve(rhs)
        assert got == (want if want is NO_SOLUTION else want[0])
        assert got is NO_SOLUTION or all(type(e) is Fraction for e in got)
        assert solve_affine(m, rhs) == want
        got = solve_unique(m, rhs)
        got = got.value if isinstance(got, SolveFailure) else [[e] for e in got]
        assert got == solve_columns_reference(a, [[y] for y in rhs], ca, 1)
        columns = [m.column(j) for j in range(ca)]
        assert span_contains(columns, rhs) == span_contains_reference(columns, rhs)
    assert solve_affine_reference(m, rhss[-1]) is not NO_SOLUTION
    rhs = as_matrix(b, cb)
    assert solve_matrix(m, rhs) == solve_matrix_reference(m, rhs)
    assert _solve_outcome(a, ca, b, cb) == solve_columns_reference(a, b, ca, cb)


@given(st.integers(0, 4).flatmap(lambda k: sparse_rows(rows=k, cols=k)))
@settings(max_examples=60)
def test_inverse_is_the_factored_particular_rows(raw):
    rows, k = raw
    m = as_matrix(rows, k) + Matrix.identity(k)  # mostly invertible, not always
    ident = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    want = solve_columns_reference(m.raw, ident, k, k)
    if want in ("no solution", "not unique"):  # singular: the first column decides which
        with pytest.raises(ValueError, match="^matrix is singular$"):
            m.inverse()
        assert factor(m).kernel
        return
    inverse = m.inverse()
    assert raw_rows(inverse) == want
    assert inverse == Matrix._of(factor(m).particular, k) and not factor(m).cokernel


def test_solve_matrix_with_no_columns_is_empty():
    singular = Matrix([[qq(1), qq(1)], [qq(1), qq(1)]])
    x = solve_matrix(singular, Matrix([[], []], cols=0))
    assert x.shape == (2, 0)


def test_difference_rows_match_dense_blocks():
    import random

    rng = random.Random(5)

    def block(rows, cols, zero=False):
        return [
            [0 if zero else rng.choice([0, 0, 1, -2, Fraction(3, 4)]) for _ in range(cols)]
            for _ in range(rows)
        ]

    seen = set()
    for _ in range(40):
        dims = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        terms = []
        for _ in range(rng.randint(0, 4)):
            s, t = rng.randrange(len(dims)), rng.randrange(len(dims))
            kind = rng.choice(["identity", "block", "zero"])
            height = dims[t] if kind == "identity" else rng.randint(1, 2)
            a = block(height, dims[s], zero=kind == "zero")
            b = None if kind == "identity" else block(height, dims[t], zero=kind == "zero")
            terms.append((s, a, t, b))
            seen.add((kind, s == t))
        m = difference_rows(dims, terms)
        assert m.cols == sum(dims)
        assert all(type(e) is Fraction for row in m.entries for e in row)
        assert [[e for e in row] for row in m.entries] == difference_rows_reference(
            dims, terms
        )
    # identity and block terms, zero arrows, and arrows from an object to itself
    assert {("identity", True), ("block", True), ("zero", False)} <= seen


def test_exact_refuses_float_scalars():
    with pytest.raises(ModeError):
        qq(0.5)
    half = qq(Fraction(1, 2))
    assert qq(half) is half and type(qq(3)) is Fraction
