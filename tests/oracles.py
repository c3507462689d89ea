"""Independent reference computations for the test suite.

Nothing here calls back into the package's evaluation, differentiation, or
limit machinery: derivatives come from sympy, stencil weights from an exact
Vandermonde solve, and subspace comparisons from sympy's exact rank.  The
inputs are plain Fractions, floats, and callables, so a disagreement with
the package is a finding about the package.  The one exception is
is_limit_cone_reference, the limit-cone decision weilkit made before it read
the rank numbers, kept whole on the package's limit, solve and morphism
check so that the short decision can be compared with the long one.  The expression references
at the end are the tree walkers weilkit used before its single fold; they
share only the polynomial arithmetic helpers with the package.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import sympy

from weilkit.exactlin import ModeError, SolveFailure, solve_matrix, vstack
from weilkit.expr import (
    NonPolynomialError,
    poly_add,
    poly_const,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_var,
)
from weilkit.weil import MorphismError, WeilMorphism, limit


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


def greedy_basis_reference(vectors, n):
    """The unit vector e_0, then each vector, in order, that raises the rank
    of those picked so far: one full elimination per candidate."""
    picked = [[Fraction(int(i == 0)) for i in range(n)]]
    for v in vectors:
        candidate = picked + [[Fraction(x) for x in v]]
        if len(rref_reference(candidate, n)[1]) > len(picked):
            picked = candidate
    return picked


def nilpotency_degree_reference(table, aug):
    """The least n with m^n = 0, from the powers of the augmentation kernel
    m: m^(k+1) is spanned by the products of a basis of m^k with a basis of
    m, each product summed out of the structure table.  table[i][j] is the
    coefficient vector of basis[i] * basis[j], aug the augmentation row."""
    d = len(aug)

    def mul(v, w):
        out = [Fraction(0)] * d
        for i, x in enumerate(v):
            for j, y in enumerate(w):
                if x and y:
                    for k, c in enumerate(table[i][j]):
                        out[k] += x * y * c
        return out

    m = kernel_reference([aug], d)
    power, n = m, 1
    while power:
        if n > d:
            raise ValueError("augmentation kernel is not nilpotent")
        products = [mul(v, w) for v in power for w in m]
        reduced, pivots = rref_reference(products, d)
        power, n = reduced[: len(pivots)], n + 1
    return n


def kernel_reference(rows, ncols):
    """Basis of the right kernel of Fraction rows, one vector per free column."""
    reduced, pivots = rref_reference(rows, ncols)
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
    mediating = solve_matrix(a, b)
    if isinstance(mediating, SolveFailure):
        return False, "cone does not factor through the computed limit"
    try:
        WeilMorphism(diagram.apex, apex, mediating, check=True)
    except (MorphismError, ModeError) as exc:
        return False, f"mediating map is not a morphism: {exc}"
    rank = mediating.rank()
    ok = mediating.rows == mediating.cols == rank
    return ok, (
        f"mediating matrix {mediating.rows}x{mediating.cols}, rank {rank}; "
        f"limit dimension {apex.dimension}, apex dimension {diagram.apex.dimension}"
    )


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
