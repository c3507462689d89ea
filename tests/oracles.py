"""Independent reference computations for the test suite.

Nothing here calls back into the package's evaluation, differentiation, or
limit machinery: derivatives come from sympy, stencil weights from an exact
Vandermonde solve, and subspace comparisons from sympy's exact rank.  The
inputs are plain Fractions, floats, and callables, so a disagreement with
the package is a finding about the package.  The exceptions keep a
former route whole on the package's own parts, so that the short route can
be compared with the long one: is_limit_cone_reference, the limit-cone
decision weilkit made before it read the rank numbers;
solve_fiber_reference, the vertical-fiber solve that lifted the projection
at every filtration degree; and subalgebra_reference, the incremental
echelon form that picked a subalgebra basis and reduced every structure
product before coordinates were read off the echelon kernel basis;
limit_reference, the limit as weilkit built it before products multiplied
blockwise: the full Fraction table of the product over the scalars
(product_algebra_reference), dense arrow equations off each arrow's
matrix, and subalgebra_reference over that table.
solve_affine_reference and solve_matrix_reference keep the [m | rhs]
eliminations that a product with one factored system replaced, on
rref_reference, and square_sides_reference and cone_commutes_reference (on
maps_agree_reference) the compose-then-convert routes that folding over
converted polynomials replaced in fibered squares and cones.
morphism_apply_reference and tensor_injections_reference keep the dense
morphism image and the generator-image injections that the sparse int
columns and the selection matrices replaced, and filtered_basis_reference
the rank loop that the pivots of one elimination replaced.
generator_images_reference, compose_reference, selection_reference,
tensor_morphism_reference and inclusion_reference keep the dense-Fraction
morphism constructors that int columns replaced: relations decided by
products of powers, and every map handed over as a Matrix to
morphism_from_matrix, the dense WeilMorphism constructor that the
int-column constructor replaced.
multiplicative_reference decides multiplicativity by dense basis-pair
products, and presented_reference lists a presented basis by scanning the
whole box of pure-power bounds, which the staircase walk replaced.
random_element_reference and random_morphism_reference keep the corpus
draws that built each coefficient as a Fraction through qq and each
morphism image as a sum of scaled elements, before the draws became int
numerators over one denominator.  vertical_space_reference,
vertical_left_exact_reference and pullback_point_reference keep the
Kronecker route of linear vertical bundles that reading ker P replaced:
kernels of P (x) (I - e0 aug), arrows and legs lifted to A (x) I, a span
comparison (spans_equal_reference), and one factored P (x) I per pullback.
skewed_copy builds test algebras whose augmentation does not vanish past
the unit.  FractionPolyCoefficients is the polynomial ring as it was on
{exponent tuple: Fraction} dicts, with the dict functions it is made of
(poly_add ... poly_diff); fraction_polys, jacobian_reference,
square_decision_reference and lift_map_reference fold over it with the
package's own fold, the routes that int numerators over one denominator
replaced.  The expression references are the tree walkers weilkit used
before its single fold; they share only the polynomial arithmetic helpers
above.  tokenize_reference, ParserReference, parse_expression_reference
and parse_map_reference are the DSL parser as it was before it matched
tokens with one regular expression: a loop per character, with number
literals read by str.isdigit, and peek()/take() at every level of the
descent; they build their trees with the package's constructors.
FLOATS_REFERENCE, taylor_call_reference and float_jet_reference,
float_apply_map_reference and float_nested_lift_reference keep float
evaluation as it was before a Taylor call added scaled terms: one
constant-element product per term, on a copy of the series coefficients,
and a float ring that scales by a * float(q) in a method of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import sympy

from weilkit.exactlin import (
    NO_SOLUTION,
    NOT_UNIQUE,
    Matrix,
    ModeError,
    SolveFailure,
    _raw_of,
    factor,
    kernel_basis,
    qq,
    vstack,
)
from weilkit.expr import (
    DIGIT_LIMIT,
    EvaluationError,
    Expr,
    NonPolynomialError,
    ParseError,
    SmoothMap,
    _Numbers,
    const,
    fold,
    poly_to_expr,
    var,
)
from weilkit.corpus import random_rational
from weilkit.fibered import FiberedError
from weilkit.smooth import (
    ExtendedElement,
    WeilCoefficients,
    WeilPoint,
    apply_map,
    basis_element,
    coordinate_names,
    embed_base,
    lift_eval,
    nest,
)
from weilkit.weil import (
    AlgebraError,
    MorphismError,
    WeilAlgebra,
    WeilElement,
    WeilMorphism,
    _monomial_label,
    _over_common_denominator,
    generator_elements,
    jet_line,
    limit,
    terminal,
)


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


def add_reference(a, b, sign=1):
    """Entrywise a + sign * b."""
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


# the [m | rhs] eliminations that weilkit's solves made before each became a
# product with one factored system per matrix


def solve_affine_reference(m, rhs):
    """solve_affine the former way: one elimination of [m | rhs], whose left
    block is the rref of m when the system is consistent, so the kernel is
    read off it too.  (particular, kernel) as Fraction tuples, or
    NO_SOLUTION."""
    n = m.cols
    reduced, pivots = rref_reference([list(row) + [qq(x)] for row, x in zip(m.raw, rhs)], n + 1)
    if n in pivots:
        return NO_SOLUTION
    particular = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        particular[p] = reduced[r][n]
    return tuple(particular), [tuple(v) for v in _echelon_kernel(reduced, pivots, n)]


def solve_matrix_reference(m, rhs):
    """solve_matrix the former way: one elimination of [m | rhs] decides
    every column.  With a nonzero kernel, NO_SOLUTION if column 0 is
    inconsistent, else NOT_UNIQUE; with a zero kernel, NO_SOLUTION if any
    column is; else the solution Matrix."""
    if not rhs.cols:
        return Matrix.from_columns([], rows=m.cols)
    n = m.cols
    aug = [list(a) + list(b) for a, b in zip(m.raw, rhs.raw)]
    reduced, pivots = rref_reference(aug, n + rhs.cols)
    rank = sum(p < n for p in pivots)
    bad = [any(row[n + j] for row in reduced[rank:]) for j in range(rhs.cols)]
    if rank < n:
        return NO_SOLUTION if bad[0] else NOT_UNIQUE
    if any(bad):
        return NO_SOLUTION
    return Matrix([row[n:] for row in reduced[:n]], cols=rhs.cols)


def span_contains_reference(basis, vector) -> bool:
    """Does the span of the vectors in basis contain vector?  Equal ranks
    with and without it."""
    n = len(vector)
    rank = len(rref_reference(basis, n)[1])
    return rank == len(rref_reference(list(basis) + [vector], n)[1])


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


def microlinear_reference(
    r, name, apex_dim, dims, legs, arrows, augs, enforce, precondition
):
    """check_microlinear composed the long way: when enforced, the limit-cone
    precondition first, then the lifted numbers at X = R^r, read off the
    r = 1 system and scaled by r.  precondition() returns (ok, certificate)
    of the is_limit_cone decision; the other arguments are those of
    microlinear_numbers.  Returns ("raise", message) for a refused input,
    else (ok, certificate)."""
    if enforce:
        ok, certificate = precondition()
        if not ok:
            return (
                "raise",
                f"input cone is not a limit cone ({certificate}); "
                "the check would be vacuous",
            )
    if r == 0:
        return True, f"{name} is the zero object; both sides vanish"
    rank_c, nullity, contained = microlinear_numbers(1, apex_dim, dims, legs, arrows, augs)
    rank_c, nullity = r * rank_c, r * nullity
    ok = contained and rank_c == r * apex_dim and nullity == rank_c
    return ok, (
        f"{name}: canonical map rank {rank_c} of {r * apex_dim}; "
        f"compatible subspace dimension {nullity}; "
        f"containment {'holds' if contained else 'fails'}"
    )


def difference_rows_reference(dims, terms):
    """A x_s - B x_t built from dense blocks as the definition reads: one
    zero block per object, A added into block s, B (the identity when None)
    subtracted from block t, the blocks laid side by side.  dims are the
    object dimensions; terms are (s, a, t, b) with object indices."""
    out = []
    for s, a, t, b in terms:
        height = len(a)
        blocks = [[[Fraction(0)] * d for _ in range(height)] for d in dims]
        blocks[s] = add_reference(blocks[s], a)
        blocks[t] = add_reference(blocks[t], _identity(height) if b is None else b, -1)
        out += [sum((block[i] for block in blocks), []) for i in range(height)]
    return out


def filtered_basis_reference(w):
    """weilkit's filtered basis and degree labels by one Matrix.rank of the
    growing pick per candidate, from the deepest power of the maximal ideal
    up; presented algebras keep their monomial basis."""
    n = w.dimension
    if w.flavor == "presented":
        units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
        return units, [sum(e) for e in w.basis]
    chain = w._ideal_chain()
    picked, degrees = [], []
    for g in range(len(chain), 0, -1):
        for v in chain[g - 1]:
            if Matrix(picked + [v], cols=n).rank() > len(picked):
                picked.append(v)
                degrees.append(g)
    return [w.one().raw] + picked[::-1], [0] + degrees[::-1]


def nilpotency_degree_reference(table, aug):
    """The least n with m^n = 0, m the augmentation kernel: one more than
    the length of ideal_chain_reference(table, aug)."""
    return len(ideal_chain_reference(table, aug)) + 1


def ideal_chain_reference(table, aug):
    """The rref bases of m, m^2, ... down to the last nonzero power, by
    elimination: m^(k+1) is spanned by the products of a basis of m^k with
    a basis of m, each product summed out of the structure table.
    table[i][j] is the coefficient vector of basis[i] * basis[j], aug the
    augmentation row."""
    d = len(aug)
    # the nonzero structure entries of each basis pair
    entries = [[[(k, c) for k, c in enumerate(vec) if c] for vec in row] for row in table]

    def mul(v, w):
        out = [Fraction(0)] * d
        for i, x in enumerate(v):
            if x:
                for j, y in enumerate(w):
                    if y:
                        for k, c in entries[i][j]:
                            out[k] += x * y * c
        return tuple(out)

    m = kernel_reference([aug], d)
    chain, power = [], m
    while power:
        if len(chain) >= d:
            raise ValueError("augmentation kernel is not nilpotent")
        chain.append(power)
        # each distinct nonzero product once: the span, so the rref, is the same
        products = dict.fromkeys(mul(v, w) for v in power for w in m)
        products.pop((Fraction(0),) * d, None)
        reduced, pivots = rref_reference(list(products), d)
        power = reduced[: len(pivots)]
    return chain


def kernel_reference(rows, ncols):
    """Basis of the right kernel of Fraction rows, one vector per free column."""
    return _echelon_kernel(*rref_reference(rows, ncols), ncols)


def _echelon_kernel(reduced, pivots, ncols):
    """The kernel read off rref rows whose pivots lie in the first ncols."""
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


def lifted_basis_reference(basis, ambient, d):
    """A carrier basis in R^ambient tensored with a d-dimensional algebra:
    coordinate i's element occupies the block [i*d, (i+1)*d)."""
    out = []
    for b in basis:
        for beta in range(d):
            vec = [Fraction(0)] * (ambient * d)
            for i, c in enumerate(b):
                vec[i * d + beta] = Fraction(c)
            out.append(vec)
    return out


def carrier_transport_reference(basis, ambient, sigma_rows, dim_a, dim_b):
    """Does I (x) sigma carry the lifted carrier X (x) A onto X (x) B?

    The dense route: apply I_ambient (x) sigma to every lifted basis vector,
    test each image for membership in the lifted target carrier, then
    compare the rank of the images with the target carrier's dimension.
    basis spans X inside R^ambient; sigma_rows is sigma's dim_b x dim_a
    matrix."""
    big = kron_reference(_identity(ambient), sigma_rows)
    images = [
        matvec_reference(big, v) for v in lifted_basis_reference(basis, ambient, dim_a)
    ]
    target = lifted_basis_reference(basis, ambient, dim_b)
    reduced, pivots = rref_reference(target, ambient * dim_b)

    def contained(v):
        for r, p in enumerate(pivots):
            if v[p]:
                v = [x - v[p] * y for x, y in zip(v, reduced[r])]
        return not any(v)

    carried = all(contained(v) for v in images)
    rank = len(rref_reference(images, ambient * dim_b)[1])
    return carried and rank == len(target)


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


# ----- expression walkers -----------------------------------------------------

_CALLS = ("exp", "log", "sin", "cos", "sqrt")
_BINARY = ("add", "sub", "mul", "div")


def evaluate_numeric_reference(expr, values):
    """A map body at plain numbers (all Fraction, or all float), node by
    node with Python's own / and **; calls need float inputs."""
    op = expr.op
    if op == "const":
        if values and isinstance(values[0], float):
            return float(expr.value)
        return expr.value
    if op == "var":
        return values[expr.value]
    if op == "intpow":
        base = evaluate_numeric_reference(expr.args[0], values)
        return base ** expr.value
    if op in _BINARY:
        a = evaluate_numeric_reference(expr.args[0], values)
        b = evaluate_numeric_reference(expr.args[1], values)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        return a / b
    if op in _CALLS:
        inner = evaluate_numeric_reference(expr.args[0], values)
        if not isinstance(inner, float):
            raise NonPolynomialError(
                f"{op}() has no exact rational value; use float mode"
            )
        return getattr(math, op)(inner)
    raise ValueError(f"unknown node {op!r}")


# ----- polynomials as {exponent tuple: Fraction} dicts ------------------------
# weilkit.expr's polynomial functions before PolyCoefficients held int
# numerators over one denominator; the readers still hand out these dicts.


def poly_const(q, nvars: int):
    q = Fraction(q)
    return {(0,) * nvars: q} if q else {}


def poly_var(i: int, nvars: int):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(1)}


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale(p, c):
    c = Fraction(c)
    if not c:
        return {}
    return {e: c * v for e, v in p.items()}


def poly_sub(p, q):
    return poly_add(p, poly_scale(q, -1))


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_eval(p, point):
    """Evaluate at a tuple of Fractions (or anything with ring ops)."""
    total = None
    for e, c in sorted(p.items()):
        term = c
        for x, k in zip(point, e):
            for _ in range(k):
                term = term * x
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


def poly_diff(p, i: int):
    out = {}
    for e, c in p.items():
        if e[i] == 0:
            continue
        d = list(e)
        d[i] -= 1
        out[tuple(d)] = c * e[i]
    return out


@dataclass(frozen=True)
class FractionPolyCoefficients:
    """weilkit.expr.PolyCoefficients as it was on the Fraction dicts above:
    the same fold protocol and error messages, so folding over it is the
    reference for every reader of the int form."""

    nvars: int
    symbolic = True
    depth = 1

    def zero(self):
        return {}

    def const(self, value):
        return poly_const(qq(value), self.nvars)

    add = staticmethod(poly_add)
    sub = staticmethod(poly_sub)
    mul = staticmethod(poly_mul)
    scale = staticmethod(poly_scale)

    def is_zero(self, p) -> bool:
        return not p

    def exact_scalar(self, p):
        return None if any(sum(e) for e in p) else p.get((0,) * self.nvars, Fraction(0))

    def scalar(self, p) -> Fraction:
        c = self.exact_scalar(p)
        if c is None:
            raise NonPolynomialError(
                "it depends on the inputs, so it has no polynomial inverse"
            )
        return qq(c)

    def invert(self, p):
        c = self.scalar(p)
        if not c:
            raise ZeroDivisionError("zero has no inverse")
        return poly_const(1 / c, self.nvars)

    def call(self, op, x, where):
        raise NonPolynomialError(f"{op}() is not polynomial: {where}")


def _fraction_poly(body, nvars: int, var_names):
    ring = FractionPolyCoefficients(nvars)
    return fold(body, ring, [poly_var(i, nvars) for i in range(nvars)], var_names)


def fraction_polys(f, inner=None, inner_polys=None):
    """f, or f after inner, folded over the Fraction dicts as
    fibered._polys folds over the int form: inner's bodies are converted
    only where f reads them, unless inner_polys are given."""
    if inner is None:
        return [_fraction_poly(b, f.arity_in, f.var_names) for b in f.bodies]
    if inner_polys is None:
        reads = set().union(*(b.variables() for b in f.bodies))
        inner_polys = [
            _fraction_poly(b, inner.arity_in, inner.var_names) if i in reads else None
            for i, b in enumerate(inner.bodies)
        ]
    ring = FractionPolyCoefficients(inner.arity_in)
    return [fold(b, ring, inner_polys, f.var_names) for b in f.bodies]


def square_decision_reference(source, target, top, bottom):
    """FiberedMorphism's decision, made on the Fraction dicts in its order:
    None when the square commutes, else the message of its FiberedError."""
    try:
        top_polys = fraction_polys(top)
        fraction_polys(bottom)
        left = fraction_polys(target.projection, top, top_polys)
        right = fraction_polys(bottom, source.projection)
    except (NonPolynomialError, ZeroDivisionError) as exc:
        return f"squares are decided on polynomial maps only: {exc}"
    if left != right:
        return (
            "square does not commute: projection after top differs from "
            "bottom after projection"
        )
    return None


def jacobian_reference(f, point):
    """The Jacobian of a polynomial map at a point of Fractions, as
    vertical_fiber read it before: each body's Fraction dict
    differentiated, then evaluated one factor at a time."""
    return [
        [poly_eval(poly_diff(p, j), point) for j in range(f.arity_in)]
        for p in fraction_polys(f)
    ]


def lift_map_reference(f, algebra):
    """smooth.lift_map over the Fraction dicts."""
    d, n = algebra.dimension, f.arity_in
    ring = FractionPolyCoefficients(n * d)
    values = [
        ExtendedElement(ring, algebra, [poly_var(i * d + b, n * d) for b in range(d)])
        for i in range(n)
    ]
    template = basis_element(algebra, 0, ring)
    bodies = [
        poly_to_expr(c, n * d)
        for body in f.bodies
        for c in lift_eval(body, values, template=template, var_names=f.var_names).coeffs
    ]
    return SmoothMap(coordinate_names(f.var_names, algebra), tuple(bodies), name=f"{f.name}_lift")


def poly_is_constant(p) -> bool:
    return all(sum(e) == 0 for e in p)


def _poly_pow(p, n: int):
    out = None
    base = p
    k = n
    while k:
        if k & 1:
            out = base if out is None else poly_mul(out, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    if out is None:
        nvars = len(next(iter(p))) if p else 0
        return poly_const(1, nvars)
    return out


def poly_from_expr_reference(expr, nvars: int):
    """Exact polynomial of a body: NonPolynomialError at a call (before its
    argument) or at a non-constant denominator or negatively powered base,
    ZeroDivisionError at a zero constant one."""
    op = expr.op
    if op == "const":
        return poly_const(expr.value, nvars)
    if op == "var":
        if expr.value >= nvars:
            raise ValueError("variable index out of range")
        return poly_var(expr.value, nvars)
    if op == "add":
        return poly_add(
            poly_from_expr_reference(expr.args[0], nvars),
            poly_from_expr_reference(expr.args[1], nvars),
        )
    if op == "sub":
        return poly_sub(
            poly_from_expr_reference(expr.args[0], nvars),
            poly_from_expr_reference(expr.args[1], nvars),
        )
    if op == "mul":
        return poly_mul(
            poly_from_expr_reference(expr.args[0], nvars),
            poly_from_expr_reference(expr.args[1], nvars),
        )
    if op == "div":
        num = poly_from_expr_reference(expr.args[0], nvars)
        den = poly_from_expr_reference(expr.args[1], nvars)
        if not poly_is_constant(den):
            raise NonPolynomialError("division by a non-constant expression")
        c = poly_eval(den, (Fraction(0),) * nvars)
        if c == 0:
            raise ZeroDivisionError("constant denominator is zero")
        return poly_scale(num, Fraction(1) / c)
    if op == "intpow":
        base = poly_from_expr_reference(expr.args[0], nvars)
        if expr.value < 0:
            if not poly_is_constant(base):
                raise NonPolynomialError("negative power of a non-constant expression")
            c = poly_eval(base, (Fraction(0),) * nvars)
            if c == 0:
                raise ZeroDivisionError("zero base with negative power")
            return poly_const(c**expr.value, nvars)
        return _poly_pow(base, expr.value) if base else poly_const(
            0 if expr.value else 1, nvars
        )
    raise NonPolynomialError(f"{op}() is not polynomial")


# ----- the DSL parser, token by token ----------------------------------------
# weilkit.expr's tokenizer and descent before they matched tokens with one
# regular expression and compared them by index: a character loop that reads
# number literals with str.isdigit (so "²" starts one that no number reader
# accepts), peek()/take() at every level, and two conversions per literal.

_DIGIT_RUN = re.compile(r"\d+")


def check_literal_reference(text: str, error=ValueError) -> str:
    """The text, refused if a run of its decimal digits is longer than
    DIGIT_LIMIT; every text is scanned."""
    longest = max(map(len, _DIGIT_RUN.findall(text)), default=0)
    if longest > DIGIT_LIMIT:
        raise error(
            f"a number literal of {longest} digits exceeds the digit limit "
            f"of {DIGIT_LIMIT} digits"
        )
    return text


def tokenize_reference(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", check_literal_reference(text[i:j], ParseError)))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(("op", "->"))
            i += 2
            continue
        if ch in "+-*/^(),":
            tokens.append(("op", ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(("end", ""))
    return tokens


class ParserReference:
    def __init__(self, tokens, var_names):
        self.tokens = tokens
        self.pos = 0
        self.var_names = list(var_names)

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}")
        if value and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def expression(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.unary()
            if op == "/":
                if node.op == "const" and rhs.op == "const":
                    if rhs.value == 0:
                        raise ParseError("division by the constant zero")
                    node = const(node.value / rhs.value)
                else:
                    node = node / rhs
            else:
                node = node * rhs
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.unary()
            return -inner
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            tok = self.take("num")
            if "." in tok[1]:
                raise ParseError("powers must be integers")
            return base ** (sign * int(tok[1]))
        return base

    def atom(self):
        kind, text = self.peek()
        if kind == "num":
            self.take()
            return const(Fraction(text))
        if kind == "name":
            self.take()
            if self.peek() == ("op", "("):
                if text not in _CALLS:
                    raise ParseError(f"unknown function {text!r}")
                self.take("op", "(")
                inner = self.expression()
                self.take("op", ")")
                return Expr(text, (inner,))
            if text not in self.var_names:
                raise ParseError(f"unknown variable {text!r}")
            return var(self.var_names.index(text))
        if (kind, text) == ("op", "("):
            self.take()
            inner = self.expression()
            self.take("op", ")")
            return inner
        raise ParseError(f"unexpected token {text!r}")


def parse_expression_reference(text: str, var_names):
    p = ParserReference(tokenize_reference(text), var_names)
    node = p.expression()
    p.take("end")
    return node


def parse_map_reference(text: str, keyword: str = "map"):
    tokens = tokenize_reference(text)
    pos = 0
    if tokens[pos] == ("name", keyword):
        pos += 1
    if tokens[pos][0] != "name":
        raise ParseError("expected a map name")
    name = tokens[pos][1]
    pos += 1
    p = ParserReference(tokens, [])
    p.pos = pos
    p.take("op", "(")
    names = []
    if p.peek() != ("op", ")"):
        while True:
            names.append(p.take("name")[1])
            if p.peek() == ("op", ","):
                p.take()
            else:
                break
    p.take("op", ")")
    p.take("op", "->")
    p.take("op", "(")
    p.var_names = names
    bodies = []
    if p.peek() != ("op", ")"):
        while True:
            bodies.append(p.expression())
            if p.peek() == ("op", ","):
                p.take()
            else:
                break
    p.take("op", ")")
    p.take("end")
    if len(set(names)) != len(names):
        raise ParseError("variable names repeat")
    return SmoothMap(tuple(names), tuple(bodies), name=name)


# ----- Weil element arithmetic ------------------------------------------------


def weil_product_reference(algebra, a, b):
    """Coefficients of a * b, one Fraction product per pair of basis
    elements.  A presented algebra multiplies standard monomials by adding
    exponent vectors (a sum outside the basis lies in the relation ideal);
    a tabled one reads its structure terms."""
    d = algebra.dimension
    out = [Fraction(0)] * d
    for i in range(d):
        for j in range(d):
            if algebra.flavor == "presented":
                e = tuple(map(operator.add, algebra.basis[i], algebra.basis[j]))
                terms = () if e not in algebra._index else ((algebra._index[e], 1),)
            else:
                terms = algebra._terms(i, j)
            for k, c in terms:
                out[k] += Fraction(a[i]) * Fraction(b[j]) * Fraction(c)
    return out


def weil_sum_reference(a, b, sign=1):
    """Coefficients of a + sign * b."""
    return [Fraction(x) + sign * Fraction(y) for x, y in zip(a, b)]


# ----- float elements ---------------------------------------------------------
# The float element arithmetic that elements over smooth.FLOATS reproduce
# term for term, written out on plain float tuples: sum, scale, product and
# augmentation.


def float_sum_reference(a, b, sign=1):
    """a + b (sign 1) or a - b (sign -1): every term kept, so 0.0 + -0.0
    is 0.0 and -0.0 - 0.0 is -0.0."""
    return tuple(map(operator.add if sign == 1 else operator.sub, a, b))


def float_scale_reference(a, c):
    """c * a, every term kept, so 0.0 * inf is nan."""
    return tuple([c * x for x in a])


def float_product_reference(algebra, a, b):
    """a * b, skipping the zero coefficients of both operands: a presented
    algebra adds the products at monomial codes, a tabled one scales each
    nonzero product by its structure constants as floats."""
    nz_a = [(i, x) for i, x in enumerate(a) if x]
    nz_b = [(j, y) for j, y in enumerate(b) if y]
    acc = [0.0] * algebra.dimension
    if algebra.flavor == "presented":
        codes, by_code = algebra._codes, algebra._by_code
        for i, x in nz_a:
            for j, y in nz_b:
                k = by_code.get(codes[i] + codes[j])
                if k is not None:
                    acc[k] += x * y
    else:
        for i, x in nz_a:
            for j, y in nz_b:
                xy = x * y
                if xy:
                    for k, c in algebra._terms(i, j):
                        acc[k] += xy * float(c)
    return tuple(acc)


def float_augmentation_reference(algebra, a):
    acc = 0.0
    for lam, x in zip(algebra.aug, a):
        if lam:
            acc += float(lam) * x
    return acc


# ----- float evaluation as it was before Taylor calls added scaled terms -------
# FLOATS_REFERENCE scales a coefficient by a * float(q) in a method of its
# own, and taylor_call_reference adds each Taylor term as the product of a
# constant element with the power of the nilpotent part, on its own copy of
# the series coefficients.  Evaluation folds with the package's fold and
# element arithmetic; only these two parts are the former ones.


class _FloatsReference(_Numbers):
    def __init__(self):
        super().__init__(exact=False)

    def scale(self, a, q):
        return a * self.const(q)


FLOATS_REFERENCE = _FloatsReference()


def series_coefficients_reference(op: str, a: float, count: int):
    if op == "exp":
        e = math.exp(a)
        out = [e]
        for j in range(1, count):
            out.append(out[-1] / j)
        return out
    if op == "log":
        if a <= 0.0:
            raise EvaluationError(f"log() needs a positive scalar part, got {a!r}")
        out = [math.log(a)]
        for j in range(1, count):
            out.append((-1.0) ** (j - 1) / (j * a**j))
        return out
    if op == "sin":
        cycle = (math.sin(a), math.cos(a), -math.sin(a), -math.cos(a))
    elif op == "cos":
        cycle = (math.cos(a), -math.sin(a), -math.cos(a), math.sin(a))
    elif op == "sqrt":
        if a <= 0.0:
            raise EvaluationError(f"sqrt() needs a positive scalar part, got {a!r}")
        out = [math.sqrt(a)]
        for j in range(1, count):
            out.append(out[-1] * (1.5 - j) / (j * a))
        return out
    else:
        raise ValueError(op)
    out = []
    fact = 1.0
    for j in range(count):
        if j:
            fact *= j
        out.append(cycle[j % 4] / fact)
    return out


def taylor_call_reference(op: str, x, where):
    s = x.scalar_part()
    if not isinstance(s, float):
        raise ModeError(f"{op}() has no exact rational value; evaluate in float mode ({where})")
    try:
        coeffs = series_coefficients_reference(op, s, x.nilpotency_bound())
    except OverflowError:
        raise EvaluationError(f"{op}() overflows a float at {s!r}: {where}") from None
    n = x - x.like(s)
    acc = x.like(coeffs[0])
    power = None
    for j in range(1, len(coeffs)):
        power = n if power is None else power * n
        if coeffs[j] != 0.0:
            acc = acc + x.like(coeffs[j]) * power
    return acc


class _TaylorCoefficientsReference(WeilCoefficients):
    call = staticmethod(taylor_call_reference)


def _float_lift_reference(f, values, template):
    ring = _TaylorCoefficientsReference(template.like(0))
    return [fold(body, ring, values, f.var_names) for body in f.bodies]


def float_apply_map_reference(f, point):
    """The coefficient tuples of apply_map(f, point), point over FLOATS."""
    w = point.algebra
    values = [ExtendedElement(FLOATS_REFERENCE, w, c.coeffs) for c in point.coords]
    template = basis_element(w, 0, FLOATS_REFERENCE)
    return [r.coeffs for r in _float_lift_reference(f, values, template)]


def float_nested_lift_reference(f, point):
    """The nested route of check_functor_composition, point over FLOATS
    and a tensor-built algebra: per output, the nested result's inner
    coefficient tuples."""
    w = point.algebra
    values = [nest(ExtendedElement(FLOATS_REFERENCE, w, c.coeffs)) for c in point.coords]
    template = nest(basis_element(w, 0, FLOATS_REFERENCE))
    return [tuple(c.coeffs for c in r.coeffs) for r in _float_lift_reference(f, values, template)]


def float_jet_reference(f, at: float, order: int):
    """jet(f, at, order, Mode.FLOAT), with the point seeded as jet seeds it."""
    w, ring = jet_line(order), FLOATS_REFERENCE
    gen = basis_element(w, 1, ring) if order >= 1 else basis_element(w, 0, ring).like(0)
    return [list(r.coeffs) for r in _float_lift_reference(f, [gen.like(at) + gen], gen)]


# ----- presented algebras -----------------------------------------------------


def presented_reference(gens, relations):
    """The standard-monomial data of Q[gens]/(relations), enumerated afresh
    on every call: the reduced relations in graded order, the basis in
    graded order (total degree, then earlier generators first), its labels,
    its mixed-radix monomial codes, the dimension and the nilpotency degree.
    Every generator needs a pure power among the relations."""

    def graded(e):
        return (sum(e), tuple(-x for x in e))

    def divides(r, e):
        return all(a <= b for a, b in zip(r, e))

    rels = sorted({tuple(r) for r in relations}, key=graded)
    rels = [r for r in rels if not any(o != r and divides(o, r) for o in rels)]
    bounds = []
    for i in range(len(gens)):
        pure = [r[i] for r in rels if r[i] and sum(r) == r[i]]
        bounds.append(min(pure))
    basis = sorted(
        (
            e
            for e in itertools.product(*(range(b) for b in bounds))
            if not any(divides(r, e) for r in rels)
        ),
        key=graded,
    )
    strides = [1]
    for b in bounds[:-1]:
        strides.append(strides[-1] * (2 * b - 1))
    labels = []
    for e in basis:
        parts = [g if x == 1 else f"{g}^{x}" for g, x in zip(gens, e) if x]
        labels.append("*".join(parts) or "1")
    return {
        "relations": tuple(rels),
        "basis": tuple(basis),
        "labels": tuple(labels),
        "codes": tuple(sum(x * t for x, t in zip(e, strides)) for e in basis),
        "dimension": len(basis),
        "nilpotency_degree": max(sum(e) for e in basis) + 1,
    }


# ----- the former limit-cone decision ---------------------------------------------


def is_limit_cone_reference(diagram):
    """(ok, certificate) of a cone the long way round: build the limit, solve
    for the mediating matrix, check that it is an algebra map, and ask
    whether it is square of full rank."""
    apex, legs = limit(diagram.without_cone())
    if not diagram.objects:
        ok = diagram.apex.dimension == 1
        return ok, f"empty diagram; apex dimension {diagram.apex.dimension}"
    a = vstack([leg.matrix for leg in legs], cols=apex.dimension)
    b = vstack([leg.matrix for leg in diagram.legs], cols=diagram.apex.dimension)
    mediating = solve_matrix_reference(a, b)
    if isinstance(mediating, SolveFailure):
        return False, "cone does not factor through the computed limit"
    try:
        morphism_from_matrix(diagram.apex, apex, mediating)
    except (MorphismError, ModeError) as exc:
        return False, f"mediating map is not a morphism: {exc}"
    rank = mediating.rank()
    ok = mediating.rows == mediating.cols == rank
    return ok, (
        f"mediating matrix {mediating.rows}x{mediating.cols}, rank {rank}; "
        f"limit dimension {apex.dimension}, apex dimension {diagram.apex.dimension}"
    )


# ----- the former subalgebra route ------------------------------------------------


class _Echelon:
    """Incremental echelon form of independent vectors b_0, b_1, ...

    Each row keeps its pivot, its nonzero entries and its expression in the
    b's, so one reduction decides whether a vector extends the span and,
    when it does not, gives the vector's coordinates in the b's.
    """

    def __init__(self):
        # (pivot, nonzero (index, value) pairs, nonzero (b index, coefficient) pairs)
        self.rows = []

    def _reduce(self, vector):
        vals = list(vector)
        coords = [0] * len(self.rows)
        # each row is zero at the pivots of the rows before it, so one pass
        # in insertion order clears every pivot
        for pivot, entries, combination in self.rows:
            f = vals[pivot]
            if f:
                for j, x in entries:
                    vals[j] -= f * x
                for k, x in combination:
                    coords[k] += f * x
        return vals, coords

    def add(self, vector) -> bool:
        """Take the vector as the next b if it extends the span; say whether."""
        vals, coords = self._reduce(vector)
        pivot = next((j for j, x in enumerate(vals) if x), None)
        if pivot is None:
            return False
        inv = 1 / vals[pivot]
        entries = [(j, x * inv) for j, x in enumerate(vals) if x]
        combination = [(k, -c * inv) for k, c in enumerate(coords) if c]
        combination.append((len(self.rows), inv))
        self.rows.append((pivot, entries, combination))
        return True

    def coords(self, vector):
        """Coordinates in the b's, or None outside their span."""
        vals, coords = self._reduce(vector)
        return None if any(vals) else coords


def subalgebra_reference(w, span_vectors):
    """(subalgebra, inclusion) on any spanning list that contains 1 and is
    closed, as weilkit built it before it read coordinates off the echelon
    kernel basis: the unit first, then each given vector, in order, that
    extends the span so far, and every structure product reduced through an
    incremental echelon form of those picks."""
    span_vectors = [tuple(map(_raw_of, v)) for v in span_vectors]
    unit = w.one().raw
    if unit not in span_vectors and not span_contains_reference(span_vectors, unit):
        raise AlgebraError("subspace does not contain the unit")
    echelon = _Echelon()
    basis_vectors = [v for v in (unit, *span_vectors) if echelon.add(v)]
    elements = [WeilElement._of(w, v) for v in basis_vectors]
    dim = len(elements)
    terms = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            coords = echelon.coords((elements[i] * elements[j]).raw)
            if coords is None:
                raise AlgebraError("subspace is not closed under multiplication")
            terms[i][j] = terms[j][i] = coords
    aug = tuple(e.augmentation() for e in elements)
    sub = tabled_unchecked(terms, aug)
    matrix = Matrix._of_columns(basis_vectors, w.dimension)
    incl = morphism_from_matrix(sub, w, matrix, check=False)
    return sub, incl


def tabled_unchecked(table, aug):
    """The tabled algebra on a dense table of exact coefficient vectors,
    unchecked and with no nilpotency degree computed: each product's
    nonzero entries handed to WeilAlgebra._from_terms as ints over the lcm
    of their denominators."""

    def ints(vec):
        den = math.lcm(*[Fraction(c).denominator for c in vec])
        return den, [(k, int(c * den)) for k, c in enumerate(vec) if c]

    return WeilAlgebra._from_terms([[ints(v) for v in row] for row in table], aug, check=False)


# ----- the former dense product and leg construction -------------------------------


def product_over_k_reference(factors):
    """Structure table of the product over the scalars of factors given as
    (table, aug), with table[i][j] the coefficient vector of basis[i] *
    basis[j]: the joint unit, then e_f - aug[f] e_0 (f >= 1) of each factor.
    Each product of kernel vectors is summed densely and its augmentation
    checked, as weilkit did before it read the sparse terms; a product
    leaving the kernel raises ValueError("augmentation kernel not closed")."""
    dims = [len(aug) for _, aug in factors]
    d = 1 + sum(n - 1 for n in dims)
    out = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for j in range(d):
        out[0][j][j] = out[j][0][j] = Fraction(1)
    off = 1
    for (table, lam), n in zip(factors, dims):
        for i in range(1, n):
            for j in range(i, n):
                acc = [Fraction(c) for c in table[i][j]]
                acc[i] -= lam[j]
                acc[j] -= lam[i]
                acc[0] += lam[i] * lam[j]
                if sum(a * b for a, b in zip(lam, acc)):
                    raise ValueError("augmentation kernel not closed")
                for f in range(1, n):
                    out[off + i - 1][off + j - 1][off + f - 1] = acc[f]
                    out[off + j - 1][off + i - 1][off + f - 1] = acc[f]
        off += n - 1
    return out


def limit_legs_reference(augs, inclusion):
    """extraction(a) @ inclusion for each factor a, augs[a] its augmentation
    row: the dense extraction matrix takes product coordinates to factor
    coordinates, its row 0 is e_0 - sum_f aug[f] e_(offset + f - 1) and its
    row f >= 1 is e_(offset + f - 1)."""
    d = len(inclusion)
    legs, off = [], 1
    for aug in augs:
        n = len(aug)
        extraction = [[Fraction(0)] * d for _ in range(n)]
        extraction[0][0] = Fraction(1)
        for f in range(1, n):
            extraction[0][off + f - 1] = -Fraction(aug[f])
            extraction[f][off + f - 1] = Fraction(1)
        legs.append(matmul_reference(extraction, inclusion, d, len(inclusion[0])))
        off += n - 1
    return legs


def product_algebra_reference(objects):
    """The product over the scalars of the objects as a tabled algebra, on
    product_over_k_reference's dense table; a factor whose augmentation
    kernel is not closed raises AlgebraError, as weilkit does."""
    data = []
    for w in objects:
        n = w.dimension
        data.append(([[w.structure_vector(i, j) for j in range(n)] for i in range(n)], w.aug))
    try:
        table = product_over_k_reference(data)
    except ValueError as exc:
        raise AlgebraError(str(exc)) from None
    unit = tuple(Fraction(int(k == 0)) for k in range(len(table)))
    return tabled_unchecked(table, unit)


def limit_reference(diagram):
    """(apex, legs) of limit(diagram) by the route weilkit took before it
    multiplied blockwise: the full Fraction table of the product
    (product_algebra_reference), each arrow's equations phi . (leg s) -
    (leg t) summed densely off phi's matrix, subalgebra_reference over the
    table on their kernel, and the legs as extraction products
    (limit_legs_reference)."""
    objects = diagram.objects
    if not objects:
        return terminal(), []
    product = product_algebra_reference(objects)
    d = product.dimension
    offsets = list(itertools.accumulate([1] + [w.dimension - 1 for w in objects]))
    rows = []
    for s, t, phi in diagram.arrows:
        ws, wt = objects[s], objects[t]
        block = [[Fraction(0)] * d for _ in range(wt.dimension)]
        for f in range(1, ws.dimension):
            c = offsets[s] + f - 1
            for g in range(wt.dimension):
                block[g][c] += phi.matrix.raw[g][f]
            block[0][c] -= ws.aug[f]
        for g in range(1, wt.dimension):
            c = offsets[t] + g - 1
            block[g][c] -= 1
            block[0][c] += wt.aug[g]
        rows += block
    sub, incl = subalgebra_reference(product, kernel_basis(Matrix(rows, cols=d)))
    inclusion = [list(row) for row in incl.matrix.raw]
    legs = limit_legs_reference([w.aug for w in objects], inclusion)
    return sub, [
        morphism_from_matrix(sub, w, Matrix(leg, cols=sub.dimension), check=False)
        for w, leg in zip(objects, legs)
    ]


def associativity_reference(table):
    """The first (i, j, k > j) whose (e_i e_j) e_k differs from e_i (e_j e_k),
    as weilkit's refusal message, or None: dense element products in the
    scan order weilkit used before it compared sparse terms."""
    d = len(table)

    def mul(v, w):
        out = [Fraction(0)] * d
        for i, x in enumerate(v):
            for j, y in enumerate(w):
                if x and y:
                    for k, c in enumerate(table[i][j]):
                        out[k] += x * y * Fraction(c)
        return out

    basis = [[Fraction(int(k == i)) for k in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            pij = mul(basis[i], basis[j])
            for k in range(j + 1, d):
                if mul(pij, basis[k]) != mul(basis[i], mul(basis[j], basis[k])):
                    return f"product not associative at ({i},{j},{k})"
    return None


# ----- the former vertical-fiber solve -------------------------------------------


def solve_fiber_reference(desc, params):
    """(point, per_degree) of VerticalFiber desc at the given parameters,
    solved as weilkit did before it skipped the lifts of the constant point
    e0*1: the projection is lifted through apply_map at every filtration
    degree, then once more for the verticality recheck.  The frame is
    filtered_basis_reference's, inverted by solve_columns_reference.
    Raises FiberedError with weilkit's messages."""
    p, w = desc.fibered, desc.algebra
    e, b, dim = p.total_dim, p.base_dim, w.dimension
    vectors, slot_degrees = filtered_basis_reference(w)
    frame = [[v[i] for v in vectors] for i in range(dim)]
    frame_inverse = solve_columns_reference(frame, _identity(dim), dim, dim)
    kd = len(desc.kernel)
    params = [qq(v) for v in params]
    filt = [[qq(0)] * dim for _ in range(e)]
    for i in range(e):
        filt[i][0] = qq(desc.base_point[i])

    def materialize():
        return WeilPoint(w, [w.element(matvec_reference(frame, filt[i])) for i in range(e)])

    record, chunk = [], 0
    for degree in sorted({g for g in slot_degrees if g >= 1}):
        slots = [i for i, g in enumerate(slot_degrees) if g == degree]
        image = apply_map(p.projection, materialize())
        image_filt = [matvec_reference(frame_inverse, image.coords[r].raw) for r in range(b)]
        failed = False
        for beta in slots:
            solved = solve_affine_reference(desc.jacobian, [-image_filt[r][beta] for r in range(b)])
            if solved is NO_SOLUTION:
                failed = True
                break
            xi = list(solved[0])
            for t in range(kd):
                xi = [x + params[chunk + t] * kv for x, kv in zip(xi, desc.kernel[t])]
            for i in range(e):
                filt[i][beta] = xi[i]
            chunk += kd
        record.append((degree, len(slots), kd, not failed))
        if failed:
            raise FiberedError(
                f"fiber equations are inconsistent at filtration degree {degree} "
                f"(projection {p.projection.name} is irregular here)"
            )
    final = materialize()
    image = apply_map(p.projection, final)
    if image.coords != embed_base(image, w).coords:
        raise FiberedError("solved point failed the verticality recheck")
    return final, tuple(record)


# ----- the former dense morphism image and tensor injections -----------------------


def morphism_apply_reference(phi, element):
    """Raw coefficients of phi's image of an exact element, by the dense
    loop: every target row is scanned for each nonzero source coefficient
    c, and each nonzero entry m adds m * c, in increasing source index."""
    out = [Fraction(0)] * phi.target.dimension
    for j, c in enumerate(element.raw):
        if c:
            for i, row in enumerate(phi.matrix.raw):
                m = row[j]
                if m:
                    out[i] += m * c
    return tuple(out)


def multiplicative_reference(phi) -> bool:
    """Does phi carry every product of two basis vectors to the product of
    their images?  Dense: the source product's image is read off phi's
    matrix columns, and the images multiply by weil_product_reference."""
    src, tgt = phi.source, phi.target
    cols = [[row[j] for row in phi.matrix.raw] for j in range(src.dimension)]
    for i in range(src.dimension):
        unit_i = [Fraction(int(k == i)) for k in range(src.dimension)]
        for j in range(i, src.dimension):
            unit_j = [Fraction(int(k == j)) for k in range(src.dimension)]
            product = weil_product_reference(src, unit_i, unit_j)
            image = [sum(c * col[r] for c, col in zip(product, cols)) for r in range(tgt.dimension)]
            if image != weil_product_reference(tgt, cols[i], cols[j]):
                return False
    return True


def tensor_injections_reference(w1, w2, w):
    """(inj1, inj2) into w = tensor(w1, w2) of presented factors, from where
    the generators go: w lists w1's generators, then w2's."""
    gens = generator_elements(w)
    n1 = len(w1.gens)
    return (
        WeilMorphism.from_generator_images(w1, w, gens[:n1]),
        WeilMorphism.from_generator_images(w2, w, gens[n1:]),
    )


# ----- the former dense-Fraction morphism constructors -------------------------------


def morphism_from_matrix(source, target, matrix, check=True):
    """The map whose matrix on the bases is the given Fraction Matrix, as the
    former dense WeilMorphism(source, target, matrix, check) built it: the
    shape checked, the entries put over their common denominator and split
    into int columns, the map made by the int-column constructor, and its
    multiplicativity decided on every basis pair unless check is False.  The
    map keeps the matrix it was given, as the dense constructor did."""
    if matrix.shape != (target.dimension, source.dimension):
        raise MorphismError("matrix shape does not match source/target")
    width = source.dimension
    d, nz = _over_common_denominator(enumerate([m for row in matrix.raw for m in row]))
    cols = [[] for _ in range(width)]
    for k, n in nz:
        cols[k % width].append((k // width, n))
    phi = WeilMorphism(source, target, d, cols)
    phi._matrix = matrix
    if check:
        phi._validate_multiplicative()
    return phi


def _dense_morphism(source, target, columns):
    """The morphism around Fraction columns, through the public Matrix route."""
    return morphism_from_matrix(
        source, target, Matrix._of_columns(columns, target.dimension), check=False
    )


def generator_images_reference(source, target, images):
    """WeilMorphism.from_generator_images as it was before int columns, for
    images already known to be target elements of zero augmentation: every
    relation, in order, decided by a product of powers of the images; then
    each basis monomial's image peeled off an earlier column; then a dense
    Fraction matrix."""
    for r in source.relations:
        acc = functools.reduce(operator.mul, [img**e for img, e in zip(images, r) if e])
        if not acc.is_zero:
            label = _monomial_label(r, source.gens)
            raise MorphismError(f"images violate the relation {label}")
    cols = [target.one()]
    for e in source.basis[1:]:
        g = next(i for i, ei in enumerate(e) if ei > 0)
        prev = list(e)
        prev[g] -= 1
        cols.append(cols[source._index[tuple(prev)]] * images[g])
    return _dense_morphism(source, target, [c.raw for c in cols])


def inverse_reference(phi):
    """The inverse of an isomorphism phi, through the dense matrix inverse."""
    return morphism_from_matrix(phi.target, phi.source, phi.matrix.inverse(), check=False)


def compose_reference(outer, inner):
    """outer after inner through the dense matrix product."""
    rows = matmul_reference(
        outer.matrix.raw, inner.matrix.raw, inner.target.dimension, inner.source.dimension
    )
    matrix = Matrix(rows, cols=inner.source.dimension)
    return morphism_from_matrix(inner.source, outer.target, matrix, check=False)


def selection_reference(source, target, picks):
    """The map whose column k is the basis vector picks[k], as the exact 0/1
    selection matrix that built tensor injections and factor shuffles."""
    return _dense_morphism(
        source, target, [[Fraction(int(i == r)) for i in range(target.dimension)] for r in picks]
    )


def tensor_morphism_reference(phi, psi, source, target):
    """phi (x) psi on pair bases, each entry the product of two dense entries."""
    si, ti = source.tensor_info, target.tensor_info
    cols = []
    for i1, i2 in si.pair_of_index:
        vec = [Fraction(0)] * target.dimension
        for (k1, k2), k in ti.index_of_pair.items():
            vec[k] = phi.matrix.raw[k1][i1] * psi.matrix.raw[k2][i2]
        cols.append(vec)
    return _dense_morphism(source, target, cols)


def inclusion_reference(sub, w, kernel):
    """_subalgebra's inclusion with the kernel vectors as its dense columns."""
    return _dense_morphism(sub, w, [tuple(v) for v in kernel])


# ----- the former square conversion ------------------------------------------------


def square_sides_reference(source, target, top, bottom):
    """(target projection after top, bottom after source projection) as
    exact polynomials, the way FiberedMorphism compared them before it
    folded over converted polynomials: each composite built as a fresh
    tree, then converted."""
    left = target.projection.compose(top).to_polys()
    return left, bottom.compose(source.projection).to_polys()


def maps_agree_reference(f, g):
    """Equality of two maps as exact polynomials, each converted on its own:
    how fibered cone squares were compared before they folded."""
    if f.arity_in != g.arity_in or f.arity_out != g.arity_out:
        return False
    return f.to_polys() == g.to_polys()


def cone_commutes_reference(arrows, legs):
    """Does every square of a fibered cone commute?  Each arrow map after
    its source leg is built as a fresh tree, then converted and compared
    with the target leg."""
    return all(
        maps_agree_reference(m.top.compose(legs[s].top), legs[t].top)
        and maps_agree_reference(m.bottom.compose(legs[s].bottom), legs[t].bottom)
        for s, t, m in arrows
    )


# ----- the former Kronecker route of linear vertical bundles ------------------------


def _rank(rows, ncols):
    return len(rref_reference(rows, ncols)[1])


def spans_equal_reference(vectors_a, vectors_b, ncols) -> bool:
    """Do two lists of Fraction vectors span one subspace?  Equal ranks,
    alone and together."""
    rank = _rank(vectors_a, ncols)
    return rank == _rank(vectors_b, ncols) == _rank(list(vectors_a) + list(vectors_b), ncols)


def vertical_space_reference(p, w):
    """The vertical subspace of a linear projection P's lifted total space
    as fibered.py found it before it read ker P: the echelon kernel of
    P (x) (I - e0 aug), flat coordinate-major.  I - e0 aug kills the unit
    slot and keeps the augmentation kernel of w."""
    d = w.dimension
    complement = [[Fraction(i == j) - (w.aug[j] if i == 0 else 0) for j in range(d)] for i in range(d)]
    return kernel_reference(kron_reference(p.linear_rows(), complement), p.total_dim * d)


def vertical_left_exact_reference(diagram, w):
    """(ok, certificate) of check_vertical_left_exact as fibered.py decided
    it before it split each vertical space into unit slots and ker P (x) m:
    the objects' vertical bases in one block-diagonal frame, the arrows and
    legs lifted densely to A (x) I_w, the compatible families as the kernel
    of the arrow equations on that frame, and a span comparison with the
    legs' image of the apex's vertical basis."""
    ident = _identity(w.dimension)
    sizes = [o.total_dim * w.dimension for o in diagram.objects]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    total = sum(sizes)
    within = []  # the frame's columns
    for o, off in zip(diagram.objects, offsets):
        for vec in vertical_space_reference(o, w):
            within.append([Fraction(0)] * off + list(vec) + [Fraction(0)] * (total - off - len(vec)))
    equations = []
    for s, t, m in diagram.arrows:
        for r, row in enumerate(kron_reference(m.top.linear_matrix(), ident)):
            eq = [Fraction(0)] * offsets[s] + row + [Fraction(0)] * (total - offsets[s] - len(row))
            eq[offsets[t] + r] -= 1
            equations.append(eq)
    restricted = [matvec_reference(within, eq) for eq in equations]
    compatible = [
        [sum((c * col[i] for c, col in zip(k, within)), Fraction(0)) for i in range(total)]
        for k in kernel_reference(restricted, len(within))
    ]
    canonical = [row for leg in diagram.legs for row in kron_reference(leg.top.linear_matrix(), ident)]
    apex_basis = vertical_space_reference(diagram.apex, w)
    image = [matvec_reference(canonical, v) for v in apex_basis]
    same = spans_equal_reference(image, compatible, total)
    cert = (
        f"vertical apex dimension {len(apex_basis)}; compatible vertical "
        f"families dimension {len(compatible)}; image {'matches' if same else 'differs'}"
    )
    return same and len(compatible) == len(apex_basis), cert


def pullback_point_reference(rows, total_dim, w, target, rng):
    """fibered_exponential_pullback's sampled point as it was drawn before
    the solve went slot by slot: one factored system of P (x) I_w solved
    against the flat target, then a random multiple of each of its kernel
    vectors, in order."""
    d = w.dimension
    lifted = factor(Matrix(kron_reference(rows, _identity(d)), cols=total_dim * d))
    flat = list(lifted.solve([x for c in target.coords for x in c.raw]))
    for kv in lifted.kernel:
        c = random_rational(rng, 3)
        if c:
            flat = [x + c * y for x, y in zip(flat, kv)]
    return WeilPoint(w, [w.element(flat[i * d : (i + 1) * d]) for i in range(total_dim)])


def skewed_copy(w, c):
    """w on the basis 1, e_i + c[i] (c[0] = 0): a tabled copy whose
    augmentation is c past the unit, so it does not vanish there."""
    table = []
    for i in range(w.dimension):
        row = []
        for j in range(w.dimension):
            v = list(w.structure_vector(i, j))
            v[i] += c[j]
            v[j] += c[i]
            v[0] += c[i] * c[j]
            row.append([v[0] - sum(x * y for x, y in zip(c, v))] + v[1:])
        table.append(row)
    return WeilAlgebra.tabled(table, [Fraction(1)] + list(c[1:]))


# ----- the former corpus draws -----------------------------------------------------


def _drawn_fraction(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_element_reference(rng, w):
    """corpus.random_element as it drew before: a qq Fraction per
    coefficient, height 5."""
    return WeilElement(w, [qq(_drawn_fraction(rng, 5)) for _ in range(w.dimension)])


def random_morphism_reference(rng, source, target):
    """corpus.random_morphism as it drew before: each image a sum of scaled
    nil-basis elements, 25 tries, then zero images."""
    nil_basis = target.maximal_ideal_basis()
    for _ in range(25):
        images = []
        for _ in source.gens:
            el = target.zero()
            for v in nil_basis:
                if rng.random() < 0.5:
                    el = el + WeilElement._of(target, v).scaled(qq(_drawn_fraction(rng, 3)))
            images.append(el)
        try:
            return WeilMorphism.from_generator_images(source, target, images)
        except MorphismError:
            continue
    return WeilMorphism.from_generator_images(
        source, target, [target.zero() for _ in source.gens]
    )
