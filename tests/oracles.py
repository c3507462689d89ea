"""Independent reference computations for the test suite.

Nothing here calls back into the package's evaluation, differentiation, or
limit machinery: derivatives come from sympy, stencil weights from an exact
Vandermonde solve, and subspace comparisons from sympy's exact rank.  The
inputs are plain Fractions, floats, and callables, so a disagreement with
the package is a finding about the package.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import sympy


def _rat(value):
    if isinstance(value, float):
        return sympy.Float(value, 30)
    return sympy.Rational(value)


def to_fraction(value) -> Fraction:
    r = sympy.Rational(value)
    return Fraction(int(r.p), int(r.q))


# ----- symbolic derivatives ---------------------------------------------------


def taylor_coeffs_symbolic(text: str, var: str, at, order: int):
    """[f(a), f'(a), f''(a)/2!, ...] via sympy; text in sympy syntax."""
    x = sympy.Symbol(var)
    f = sympy.sympify(text, locals={var: x})
    out = []
    g = f
    fact = 1
    for j in range(order + 1):
        if j:
            g = sympy.diff(g, x)
            fact *= j
        out.append(sympy.simplify(g.subs(x, _rat(at)) / fact))
    return out


def mixed_coeff_symbolic(text: str, var_names, at, exponents):
    """Coefficient of prod_i dx_i^{e_i} in the Taylor expansion at `at`:
    the mixed partial divided by the product of factorials."""
    syms = tuple(sympy.Symbol(n) for n in var_names)
    f = sympy.sympify(text, locals=dict(zip(var_names, syms)))
    fact = 1
    for s, e in zip(syms, exponents):
        for _ in range(int(e)):
            f = sympy.diff(f, s)
        fact *= math.factorial(int(e))
    return sympy.simplify(f.subs({s: _rat(v) for s, v in zip(syms, at)}) / fact)


# ----- central finite differences ---------------------------------------------

# Offsets -k..k give exactness on polynomials of degree <= 2k.  The step is
# a power of two so the sample abscissae are exactly representable; 1/32
# balances truncation against roundoff for fourth derivatives (measured
# worst case ~4e-10 relative on the compositions the suite uses).
FD_HALFWIDTH = 5
FD_STEP = 1.0 / 32


def fd_weights(derivative: int, halfwidth: int = FD_HALFWIDTH):
    """Exact stencil weights: sum_s w_s s^m = m! [m == derivative]."""
    offsets = range(-halfwidth, halfwidth + 1)
    count = 2 * halfwidth + 1
    a = sympy.Matrix([[sympy.Integer(s) ** m for s in offsets] for m in range(count)])
    b = sympy.Matrix(
        [math.factorial(m) if m == derivative else 0 for m in range(count)]
    )
    return [to_fraction(w) for w in a.solve(b)]


def fd_taylor_coeff(
    fn,
    at: float,
    derivative: int,
    step: float = FD_STEP,
    halfwidth: int = FD_HALFWIDTH,
) -> float:
    """d-th Taylor coefficient f^(d)(at)/d! of a float callable."""
    weights = fd_weights(derivative, halfwidth)
    total = 0.0
    for s, w in zip(range(-halfwidth, halfwidth + 1), weights):
        if w:
            total += float(w) * fn(at + s * step)
    return total / step**derivative / math.factorial(derivative)


def fd_taylor_coeffs(fn, at: float, order: int):
    return [fd_taylor_coeff(fn, at, d) for d in range(order + 1)]


# ----- exact linear algebra over the rationals ---------------------------------


def _columns_matrix(columns, height):
    m = sympy.zeros(height, len(columns))
    for j, col in enumerate(columns):
        for i, v in enumerate(col):
            m[i, j] = sympy.Rational(v)
    return m


def same_span(columns_a, columns_b, height) -> bool:
    """Do two families of rational column vectors span the same subspace?"""
    a = _columns_matrix(list(columns_a), height)
    b = _columns_matrix(list(columns_b), height)
    ra = a.rank()
    rb = b.rank()
    return ra == rb == a.row_join(b).rank()


def equalizer_space(phi_rows, psi_rows):
    """Basis of {a : phi(a) = psi(a)} from the raw matrices, as columns
    (tuples of Fraction).  Rows are target coordinates, columns source."""
    m = sympy.Matrix(
        [
            [sympy.Rational(p) - sympy.Rational(q) for p, q in zip(rp, rq)]
            for rp, rq in zip(phi_rows, psi_rows)
        ]
    )
    return [tuple(to_fraction(x) for x in v) for v in m.nullspace()]


def pullback_space(phi_rows, psi_rows, aug_a, aug_b):
    """Basis of {(a, b) : phi(a) = psi(b), aug(a) = aug(b)} inside the full
    coordinate space of A (+) B.  This is the one-big-linear-system route,
    no limit machinery involved."""
    rows = []
    for rp, rq in zip(phi_rows, psi_rows):
        rows.append([sympy.Rational(x) for x in rp] + [-sympy.Rational(x) for x in rq])
    rows.append(
        [sympy.Rational(x) for x in aug_a] + [-sympy.Rational(x) for x in aug_b]
    )
    m = sympy.Matrix(rows)
    return [tuple(to_fraction(x) for x in v) for v in m.nullspace()]


# ----- naive dense kernels on raw Fractions ------------------------------------
#
# Rows are lists of Fractions; a matrix with no rows carries its column count
# separately.  These loop over every cell, zero or not.


def rref_reference(rows, ncols):
    """Textbook Gauss-Jordan elimination: (reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def matmul_reference(a, b, inner, ncols):
    columns = [[b[t][j] for t in range(inner)] for j in range(ncols)]
    return [[sum(map(operator.mul, row, col), Fraction(0)) for col in columns] for row in a]


def matvec_reference(a, vec):
    return [sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in a]


def kron_reference(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def solve_columns_reference(a, b, ncols_a, ncols_b):
    """Column-by-column unique solve of a X = b: "no solution", "not unique",
    or the solution rows.  Stops at the first column that fails."""
    columns = []
    for j in range(ncols_b):
        aug = [list(row) + [rhs[j]] for row, rhs in zip(a, b)]
        reduced, pivots = rref_reference(aug, ncols_a + 1)
        if ncols_a in pivots:
            return "no solution"
        if len(pivots) < ncols_a:
            return "not unique"
        columns.append([reduced[i][ncols_a] for i in range(ncols_a)])
    return [[col[i] for col in columns] for i in range(ncols_a)]


def microlinear_numbers(r, apex_dim, dims, legs, arrows, augs):
    """The lifted system at X = R^r, built densely with I_r (x) blocks as the
    definition reads.  legs[j] and each arrow's matrix are Fraction rows,
    arrows are (source, target, rows), augs[j] is object j's augmentation.
    Returns (rank of the canonical map, compatible subspace dimension,
    whether the canonical image satisfies the constraints)."""
    ident = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    canonical = [row for leg in legs for row in kron_reference(ident, leg)]
    total = r * sum(dims)
    offsets = [r * sum(dims[:j]) for j in range(len(dims))]

    def place(blocks, height):
        rows = [[Fraction(0)] * total for _ in range(height)]
        for j, block in blocks:
            for i, brow in enumerate(block):
                for c, x in enumerate(brow):
                    rows[i][offsets[j] + c] += x
        return rows

    constraints = []
    for s, t, phi in arrows:
        minus = [[-x for x in row] for row in kron_reference(ident, _identity(dims[t]))]
        constraints += place([(s, kron_reference(ident, phi)), (t, minus)], r * dims[t])
    for i in range(len(dims) - 1):
        lower = [[-x for x in row] for row in kron_reference(ident, [augs[i + 1]])]
        constraints += place([(i, kron_reference(ident, [augs[i]])), (i + 1, lower)], r)
    contained = all(
        x == 0
        for row in matmul_reference(constraints, canonical, total, r * apex_dim)
        for x in row
    )
    rank_c = len(rref_reference(canonical, r * apex_dim)[1])
    nullity = total - len(rref_reference(constraints, total)[1])
    return rank_c, nullity, contained


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
