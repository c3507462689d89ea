"""Finite-dimensional local algebras over the exact rationals, and their category.

An algebra here is either *presented* (a quotient of a polynomial ring by
monomial relations, with the standard-monomial basis derived at
construction) or *tabled* (an explicit basis with structure constants).
Presented algebras stay cheap at any size because products of standard
monomials are again standard monomials or zero; tabled algebras are what
equalizers, fiber products, and limits return.

Everything categorical (morphisms, limits, mediating maps) is exact; float
values are rejected on sight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import (
    Matrix,
    Mode,
    ModeError,
    NO_SOLUTION,
    Scalar,
    SolveFailure,
    _raw,
    _scalar,
    _wrap_row,
    hstack,
    kernel_basis,
    qq,
    solve_matrix,
    span_contains,
    unit_vector,
    vstack,
    zero_vector,
)
from .reports import Verdict


class AlgebraError(ValueError):
    """A would-be algebra violates the construction contract."""


class NonNilpotentError(AlgebraError):
    """Well-formed input whose nilpotency requirement fails; kept separate
    from plain AlgebraError so callers can tell bad data from bad syntax."""


class MorphismError(ValueError):
    """A would-be morphism is not unit-preserving / multiplicative / compatible."""


class DiagramError(ValueError):
    """A diagram or cone is malformed, or a mediating map does not exist."""


def _graded_key(exps):
    # total degree first, earlier generators first within a degree
    return (sum(exps), tuple(-e for e in exps))


def _divides(r, e):
    return all(a <= b for a, b in zip(r, e))


def _monomial_label(exps, gens):
    parts = []
    for g, e in zip(gens, exps):
        if e == 1:
            parts.append(g)
        elif e > 1:
            parts.append(f"{g}^{e}")
    return "*".join(parts) if parts else "1"


class WeilAlgebra:
    """A Weil algebra: finite-dimensional, commutative, local, basis[0] = 1."""

    __slots__ = (
        "flavor",
        "gens",
        "relations",
        "basis",
        "_index",
        "dimension",
        "table",
        "aug_covector",
        "nilpotency_degree",
        "labels",
        "tensor_info",
        "_chain",
        "_codes",
        "_by_code",
        "_sparse",
    )

    # ----- construction -------------------------------------------------

    def __init__(self):
        raise TypeError("use make_presented() or WeilAlgebra.tabled()")

    @classmethod
    def _blank(cls):
        self = object.__new__(cls)
        self.tensor_info = None
        self._chain = None
        self._sparse = None
        return self

    @classmethod
    def presented(cls, gens, relations) -> "WeilAlgebra":
        gens = tuple(gens)
        if len(set(gens)) != len(gens):
            raise AlgebraError("generator names repeat")
        for g in gens:
            if not g or not g[0].isalpha() or not g.replace("_", "").isalnum():
                raise AlgebraError(f"bad generator name {g!r}")
        rels = []
        for r in relations:
            r = tuple(int(e) for e in r)
            if len(r) != len(gens):
                raise AlgebraError("relation length does not match generator count")
            if any(e < 0 for e in r):
                raise AlgebraError("negative exponent in a relation")
            if sum(r) == 0:
                raise AlgebraError("constant relation would kill the unit")
            rels.append(r)
        rels = sorted(set(rels), key=_graded_key)
        # drop relations another relation already divides
        rels = tuple(
            r
            for r in rels
            if not any(o != r and _divides(o, r) for o in rels)
        )

        bounds = []
        for i, g in enumerate(gens):
            pure = [
                r[i]
                for r in rels
                if r[i] > 0 and all(e == 0 for j, e in enumerate(r) if j != i)
            ]
            if not pure:
                raise NonNilpotentError(
                    f"generator {g!r} has no pure power among the relations; "
                    "the quotient would be infinite-dimensional"
                )
            bounds.append(min(pure))

        basis = [
            e
            for e in itertools.product(*(range(b) for b in bounds))
            if not any(_divides(r, e) for r in rels)
        ] if gens else [()]
        basis.sort(key=_graded_key)

        self = cls._blank()
        self.flavor = "presented"
        self.gens = gens
        self.relations = rels
        self.basis = tuple(basis)
        self._index = {e: i for i, e in enumerate(self.basis)}
        # mixed-radix monomial codes: exponents of a product of two basis
        # monomials stay below 2*bound - 1, so codes add like exponents
        strides = [1]
        for b in bounds[:-1]:
            strides.append(strides[-1] * (2 * b - 1))
        self._codes = [sum(e * t for e, t in zip(exps, strides)) for exps in self.basis]
        self._by_code = {c: i for i, c in enumerate(self._codes)}
        self.dimension = len(basis)
        self.table = None
        self.aug_covector = unit_vector(self.dimension, 0)
        self.nilpotency_degree = max(sum(e) for e in basis) + 1
        self.labels = tuple(_monomial_label(e, gens) for e in basis)
        return self

    @classmethod
    def tabled(
        cls,
        table,
        aug,
        check: bool = True,
        nilpotency_hint: int | None = None,
    ) -> "WeilAlgebra":
        """Build from structure constants c[i][j] (a coefficient vector per pair).

        The unit must sit at basis index 0.  With check=True the table is
        validated exhaustively: commutative, associative, unital, the
        augmentation is a homomorphism, and the augmentation kernel is
        nilpotent.  Internal constructions that carry a proof pass
        check=False; nilpotency is still established either way.
        """
        table = tuple(
            tuple(tuple(Scalar.exact(c) for c in vec) for vec in row) for row in table
        )
        aug = tuple(Scalar.exact(c) for c in aug)
        d = len(table)
        if d == 0:
            raise AlgebraError("a Weil algebra contains at least the unit")
        if len(aug) != d or any(len(row) != d for row in table) or any(
            len(vec) != d for row in table for vec in row
        ):
            raise AlgebraError("structure table or augmentation has the wrong shape")

        self = cls._blank()
        self.flavor = "tabled"
        self.gens = None
        self.relations = None
        self.basis = None
        self._index = None
        self.dimension = d
        self.table = table
        self.aug_covector = aug
        self.labels = ("1",) + tuple(f"b{i}" for i in range(1, d))

        unit = unit_vector(d, 0)
        if aug[0] != qq(1):
            raise AlgebraError("augmentation of the unit must be 1")
        for j in range(d):
            if table[0][j] != unit_vector(d, j) or table[j][0] != unit_vector(d, j):
                raise AlgebraError("basis element 0 does not act as the unit")
        if check:
            for i in range(d):
                for j in range(i + 1, d):
                    if table[i][j] != table[j][i]:
                        raise AlgebraError(f"product not commutative at ({i},{j})")
            for i in range(d):
                for j in range(d):
                    want = aug[i] * aug[j]
                    got = sum(
                        (aug[k] * table[i][j][k] for k in range(d)),
                        Scalar.zero(Mode.EXACT),
                    )
                    if got != want:
                        raise AlgebraError(
                            f"augmentation is not multiplicative at ({i},{j})"
                        )
            # with commutativity, symmetry of (e_i e_j) e_k in the last two
            # slots gives full associativity
            for i in range(d):
                ei = WeilElement(self, unit_vector(d, i))
                for j in range(d):
                    ej = WeilElement(self, unit_vector(d, j))
                    pij = ei * ej
                    for k in range(j + 1, d):
                        ek = WeilElement(self, unit_vector(d, k))
                        if pij * ek != ei * (ej * ek):
                            raise AlgebraError(
                                f"product not associative at ({i},{j},{k})"
                            )

        self.nilpotency_degree = (
            nilpotency_hint
            if nilpotency_hint is not None
            else len(self._ideal_chain()) + 1
        )
        if check and nilpotency_hint is None:
            pass  # _ideal_chain already raised if the ideal is not nilpotent
        return self

    # ----- structure ----------------------------------------------------

    def _ideal_chain(self):
        """Bases of m, m^2, ... down to the last nonzero power (cached)."""
        if self._chain is not None:
            return self._chain
        aug_matrix = Matrix([self.aug_covector], cols=self.dimension)
        m1 = kernel_basis(aug_matrix)
        chain = []
        current = m1
        while current:
            chain.append(current)
            if len(chain) > self.dimension:
                raise NonNilpotentError("augmentation kernel is not nilpotent")
            products = []
            for v in current:
                ev = WeilElement(self, v)
                for w in m1:
                    products.append((ev * WeilElement(self, w)).coeffs)
            nxt = Matrix(products, cols=self.dimension) if products else Matrix(
                [], cols=self.dimension
            )
            rows, pivots = nxt.rref() if products else ([], [])
            current = [rows[r] for r in range(len(pivots))]
            if current and len(current) >= len(chain[-1]) and chain[-1] == current:
                raise NonNilpotentError("augmentation kernel is not nilpotent")
        self._chain = chain
        return chain

    def maximal_ideal_basis(self):
        chain = self._ideal_chain()
        return chain[0] if chain else []

    def _terms(self, i: int, j: int):
        """Nonzero (index, Fraction) pairs of basis[i] * basis[j]."""
        if self.flavor == "presented":
            k = self._by_code.get(self._codes[i] + self._codes[j])
            return [] if k is None else [(k, _ONE)]
        if self._sparse is None:
            self._sparse = [
                [[(k, c.value) for k, c in enumerate(vec) if c.value] for vec in row]
                for row in self.table
            ]
        return self._sparse[i][j]

    def structure_vector(self, i: int, j: int):
        """Coefficients of basis[i] * basis[j]."""
        if self.flavor == "tabled":
            return self.table[i][j]
        vec = [Scalar.zero(Mode.EXACT)] * self.dimension
        for k, _ in self._terms(i, j):
            vec[k] = Scalar.one(Mode.EXACT)
        return tuple(vec)

    @property
    def is_terminal(self) -> bool:
        return self.dimension == 1

    # ----- elements -----------------------------------------------------

    def element(self, coeffs) -> "WeilElement":
        return WeilElement(self, coeffs)

    def zero(self, mode: Mode = Mode.EXACT) -> "WeilElement":
        return WeilElement._of(self, zero_vector(self.dimension, mode))

    def one(self, mode: Mode = Mode.EXACT) -> "WeilElement":
        return WeilElement._of(self, unit_vector(self.dimension, 0, mode))

    def scalar(self, value) -> "WeilElement":
        value = value if isinstance(value, Scalar) else Scalar(value)
        coeffs = [Scalar.zero(value.mode)] * self.dimension
        coeffs[0] = value
        return WeilElement(self, coeffs)

    def basis_element(self, i: int, mode: Mode = Mode.EXACT) -> "WeilElement":
        return WeilElement._of(self, unit_vector(self.dimension, i, mode))

    # ----- identity -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WeilAlgebra):
            return NotImplemented
        if self.flavor != other.flavor:
            return False
        if self.flavor == "presented":
            return self.gens == other.gens and self.relations == other.relations
        return (
            self.dimension == other.dimension
            and self.aug_covector == other.aug_covector
            and self.table == other.table
        )

    def __hash__(self):
        if self.flavor == "presented":
            return hash((self.flavor, self.gens, self.relations))
        return hash((self.flavor, self.dimension, self.aug_covector, self.table))

    def __repr__(self):
        if self.flavor == "presented":
            return f"WeilAlgebra({describe_presented(self)})"
        return f"WeilAlgebra(tabled, dim {self.dimension})"


def make_presented(gens, relations) -> WeilAlgebra:
    """Quotient Q[gens] by monomial relations (exponent-vector form).

    Every generator needs a pure power among the relations, otherwise the
    quotient is infinite-dimensional and the construction is rejected.
    """
    return WeilAlgebra.presented(gens, relations)


_TERMINAL = None


def terminal() -> WeilAlgebra:
    """The scalars themselves: Q[]/(), the terminal object."""
    global _TERMINAL
    if _TERMINAL is None:
        _TERMINAL = make_presented((), ())
    return _TERMINAL


def dual_numbers(name: str = "x") -> WeilAlgebra:
    return make_presented((name,), ((2,),))


def jet_line(order: int, name: str = "x") -> WeilAlgebra:
    """Q[x]/(x^(order+1)): coefficients of a univariate jet of that order."""
    if order < 0:
        raise AlgebraError("jet order must be >= 0")
    return make_presented((name,), ((order + 1,),))


_SMALL_NAMES = ("x", "y", "z")
_ONE = Fraction(1)


def first_order_infinitesimals(n: int) -> WeilAlgebra:
    """Q[x1..xn] with all degree-2 monomials killed (dimension n+1)."""
    if n < 1:
        raise AlgebraError("need at least one generator")
    names = _SMALL_NAMES[:n] if n <= 3 else tuple(f"x{i+1}" for i in range(n))
    rels = []
    for i in range(n):
        for j in range(i, n):
            r = [0] * n
            r[i] += 1
            r[j] += 1
            rels.append(tuple(r))
    return make_presented(names, rels)


class WeilElement:
    """An element of a fixed Weil algebra: a coefficient vector over its basis."""

    __slots__ = ("algebra", "coeffs")

    @classmethod
    def _of(cls, algebra, coeffs) -> "WeilElement":
        """Element around one-mode Scalars the kernel computed itself."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.coeffs = coeffs
        return self

    def __init__(self, algebra: WeilAlgebra, coeffs):
        self.algebra = algebra
        coeffs = tuple(c if isinstance(c, Scalar) else Scalar(c) for c in coeffs)
        if len(coeffs) != algebra.dimension:
            raise ValueError("coefficient count does not match the basis")
        mode = coeffs[0].mode if coeffs else Mode.EXACT
        if any(c.mode is not mode for c in coeffs):
            raise ModeError("element coefficients mix exact and float modes")
        self.coeffs = coeffs

    @property
    def mode(self) -> Mode:
        return self.coeffs[0].mode

    def _check_peer(self, other):
        if not isinstance(other, WeilElement):
            raise TypeError("expected a WeilElement")
        if other.algebra != self.algebra:
            raise ValueError("elements live in different algebras")

    # each Scalar operation below refuses mixed modes, so the results are
    # one-mode and skip the constructor's checks
    def __add__(self, other):
        self._check_peer(other)
        return WeilElement._of(
            self.algebra, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)])
        )

    def __sub__(self, other):
        self._check_peer(other)
        return WeilElement._of(
            self.algebra, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)])
        )

    def __neg__(self):
        return WeilElement._of(self.algebra, tuple([-a for a in self.coeffs]))

    def scaled(self, c) -> "WeilElement":
        c = c if isinstance(c, Scalar) else Scalar(c)
        return WeilElement._of(self.algebra, tuple([c * a for a in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction, Scalar)):
            return self.scaled(other)
        self._check_peer(other)
        alg = self.algebra
        if other.mode is not self.mode:
            raise ModeError("mixed-mode product of elements")
        exact = self.mode is Mode.EXACT
        acc = [0 if exact else 0.0] * alg.dimension
        nz_a = [(i, c.value) for i, c in enumerate(self.coeffs) if c.value]
        nz_b = [(j, c.value) for j, c in enumerate(other.coeffs) if c.value]
        if alg.flavor == "presented":
            codes = alg._codes
            by_code = alg._by_code
            for i, a in nz_a:
                ci = codes[i]
                for j, b in nz_b:
                    k = by_code.get(ci + codes[j])
                    if k is not None:
                        acc[k] += a * b
        else:
            for i, a in nz_a:
                for j, b in nz_b:
                    ab = a * b
                    if ab:
                        for k, c in alg._terms(i, j):
                            acc[k] += ab * (c if exact else float(c))
        return WeilElement._of(alg, _wrap_row(acc, exact))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("element exponents must be int")
        if n < 0:
            return self.invert() ** (-n)
        out = self.algebra.one(self.mode)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            return self.scaled(Scalar.one(c.mode) / c)
        self._check_peer(other)
        return self * other.invert()

    def invert(self) -> "WeilElement":
        """Inverse via the geometric series on the nilpotent part."""
        s = self.augmentation()
        if s.is_zero:
            raise ZeroDivisionError("element with zero augmentation is not invertible")
        n = self.nilpotent_part()
        t = n.scaled(-(Scalar.one(s.mode) / s))
        acc = self.algebra.one(self.mode)
        power = self.algebra.one(self.mode)
        for _ in range(1, self.algebra.nilpotency_degree):
            power = power * t
            acc = acc + power
        return acc.scaled(Scalar.one(s.mode) / s)

    def augmentation(self) -> Scalar:
        mode = self.mode
        acc = Scalar.zero(mode)
        for lam, c in zip(self.algebra.aug_covector, self.coeffs):
            if not lam.is_zero:
                lv = lam if mode is Mode.EXACT else lam.to_float()
                acc = acc + lv * c
        return acc

    # protocol name the generic evaluator uses
    scalar_part = augmentation

    def nilpotent_part(self) -> "WeilElement":
        return self - self.algebra.scalar(self.augmentation())

    def like(self, value) -> "WeilElement":
        """Embed a constant into the same algebra and mode as this element."""
        if isinstance(value, Scalar):
            value = value.value
        if self.mode is Mode.FLOAT:
            return self.algebra.scalar(float(value))
        return self.algebra.scalar(Scalar.exact(value))

    def nilpotency_bound(self) -> int:
        return self.algebra.nilpotency_degree

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def __str__(self):
        parts = []
        for c, label in zip(self.coeffs, self.algebra.labels):
            if c.is_zero:
                continue
            if label == "1":
                parts.append(str(c))
            elif c == Scalar.one(c.mode):
                parts.append(label)
            else:
                parts.append(f"{c}*{label}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"WeilElement({self})"


class WeilMorphism:
    """A unit-preserving algebra map, stored as its matrix on the bases."""

    __slots__ = ("source", "target", "matrix", "generator_images")

    def __init__(self, source, target, matrix, generator_images=None, check=True):
        if matrix.shape != (target.dimension, source.dimension):
            raise MorphismError("matrix shape does not match source/target")
        if matrix.mode is not Mode.EXACT:
            raise ModeError("morphisms are exact; float entries rejected")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.generator_images = generator_images
        self._validate_cheap()
        if check:
            self._validate_multiplicative()

    # unit preservation and augmentation compatibility are O(dim) and run always
    def _validate_cheap(self):
        unit_col = self.matrix.column(0)
        if unit_col != tuple(unit_vector(self.target.dimension, 0)):
            raise MorphismError("morphism does not preserve the unit")
        aug_t = Matrix([self.target.aug_covector], cols=self.target.dimension)
        aug_s = Matrix([self.source.aug_covector], cols=self.source.dimension)
        if (aug_t @ self.matrix) != aug_s:
            raise MorphismError("morphism is not augmentation-compatible")

    def _validate_multiplicative(self):
        src = self.source
        for i in range(src.dimension):
            fi = self.apply(src.basis_element(i))
            for j in range(i, src.dimension):
                fj = self.apply(src.basis_element(j))
                prod_src = src.basis_element(i) * src.basis_element(j)
                if self.apply(prod_src) != fi * fj:
                    raise MorphismError(
                        f"morphism not multiplicative on basis pair ({i},{j})"
                    )

    @staticmethod
    def from_generator_images(source, target, images, check=True) -> "WeilMorphism":
        """Define a map out of a presented algebra by where the generators go.

        The images must be exact, have zero augmentation, and satisfy the
        source relations; multiplicativity is then automatic.
        """
        if source.flavor != "presented":
            raise MorphismError("generator images need a presented source")
        images = tuple(images)
        if len(images) != len(source.gens):
            raise MorphismError("one image per generator, in order")
        for g, img in zip(source.gens, images):
            if not isinstance(img, WeilElement) or img.algebra != target:
                raise MorphismError(f"image of {g!r} is not an element of the target")
            if img.mode is not Mode.EXACT:
                raise ModeError("morphisms are exact; float image rejected")
            if check and not img.augmentation().is_zero:
                raise MorphismError(f"image of {g!r} has nonzero augmentation")
        if check:
            for r in source.relations:
                acc = target.one()
                for img, e in zip(images, r):
                    if e:
                        acc = acc * img**e
                if not acc.is_zero:
                    label = _monomial_label(r, source.gens)
                    raise MorphismError(f"images violate the relation {label}")
        # image of each basis monomial, peeling one generator at a time
        cols = [None] * source.dimension
        cols[0] = target.one().coeffs
        for t in range(1, source.dimension):
            e = source.basis[t]
            g = next(i for i, ei in enumerate(e) if ei > 0)
            prev = list(e)
            prev[g] -= 1
            prev_idx = source._index[tuple(prev)]
            img = WeilElement(target, cols[prev_idx]) * images[g]
            cols[t] = img.coeffs
        matrix = Matrix.from_columns(cols, rows=target.dimension)
        return WeilMorphism(source, target, matrix, generator_images=images, check=False)

    @staticmethod
    def from_matrix(source, target, matrix, check=True) -> "WeilMorphism":
        return WeilMorphism(source, target, matrix, check=check)

    @staticmethod
    def identity(algebra) -> "WeilMorphism":
        return WeilMorphism(
            algebra, algebra, Matrix.identity(algebra.dimension), check=False
        )

    def apply(self, element: WeilElement) -> WeilElement:
        if element.algebra != self.source:
            raise ValueError("element does not live in the source algebra")
        exact = element.mode is Mode.EXACT
        out = [0 if exact else 0.0] * self.target.dimension
        for j, c in enumerate(element.coeffs):
            c = c.value
            if c:
                for i, row in enumerate(self.matrix.entries):
                    m = row[j].value
                    if m:
                        out[i] += (m if exact else float(m)) * c
        return WeilElement._of(self.target, _wrap_row(out, exact))

    def compose(self, inner: "WeilMorphism") -> "WeilMorphism":
        """self after inner."""
        if inner.target != self.source:
            raise MorphismError("composition endpoints do not match")
        images = None
        if inner.generator_images is not None:
            images = tuple(self.apply(img) for img in inner.generator_images)
        return WeilMorphism(
            inner.source,
            self.target,
            self.matrix @ inner.matrix,
            generator_images=images,
            check=False,
        )

    def is_isomorphism(self) -> bool:
        return self.matrix.is_invertible()

    def inverse(self) -> "WeilMorphism":
        if not self.is_isomorphism():
            raise MorphismError("morphism is not invertible")
        return WeilMorphism(self.target, self.source, self.matrix.inverse(), check=False)

    def __eq__(self, other):
        if not isinstance(other, WeilMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def describe(self) -> str:
        if self.source.flavor == "presented" and self.source.gens:
            imgs = []
            for i, g in enumerate(self.source.gens):
                col = self.matrix.column(self.source._index[_gen_exp(self.source, i)])
                imgs.append(f"{g} -> {WeilElement(self.target, col)}")
            return "; ".join(imgs)
        return f"matrix {self.matrix.rows}x{self.matrix.cols}"

    def __repr__(self):
        return f"WeilMorphism({self.describe()})"


def _gen_exp(algebra, i):
    e = [0] * len(algebra.gens)
    e[i] = 1
    return tuple(e)


def generator_elements(w: WeilAlgebra):
    """The generators of a presented algebra as elements, declaration order."""
    if w.flavor != "presented":
        raise AlgebraError("only presented algebras have named generators")
    return tuple(
        w.basis_element(w._index[_gen_exp(w, i)]) for i in range(len(w.gens))
    )


def augmentation(algebra: WeilAlgebra) -> WeilMorphism:
    """The unique map onto the scalars."""
    return WeilMorphism(
        algebra,
        terminal(),
        Matrix([algebra.aug_covector], cols=algebra.dimension),
        check=False,
    )


def unit_map(algebra: WeilAlgebra) -> WeilMorphism:
    """The unique map from the scalars."""
    return WeilMorphism(
        terminal(),
        algebra,
        Matrix.from_columns([algebra.one().coeffs], rows=algebra.dimension),
        check=False,
    )


# ----- tensor products ---------------------------------------------------


@dataclass(frozen=True)
class TensorInfo:
    left: WeilAlgebra
    right: WeilAlgebra
    pair_of_index: tuple
    index_of_pair: dict

    def __eq__(self, other):  # identity is irrelevant for algebra equality
        return isinstance(other, TensorInfo)

    def __hash__(self):
        return 0


def _fresh_names(taken, wanted):
    out = []
    used = set(taken)
    for g in wanted:
        name = g
        k = 2
        while name in used:
            name = f"{g}{k}"
            k += 1
        used.add(name)
        out.append(name)
    return tuple(out)


def tensor(w1: WeilAlgebra, w2: WeilAlgebra):
    """Tensor product over the scalars.  Returns (W, inj1, inj2).

    Presented factors tensor by disjoint-union presentation (second factor's
    generators renamed if they collide); anything tabled tensors by the
    pair-basis structure-constant product.  The result remembers the basis
    bijection (b1, b2) <-> b so points can be regrouped later.
    """
    if w1.flavor == "presented" and w2.flavor == "presented":
        names2 = _fresh_names(w1.gens, w2.gens)
        gens = w1.gens + names2
        n1, n2 = len(w1.gens), len(names2)
        rels = [r + (0,) * n2 for r in w1.relations]
        rels += [(0,) * n1 + r for r in w2.relations]
        w = make_presented(gens, rels)
        pair_of_index = []
        index_of_pair = {}
        for k, e in enumerate(w.basis):
            i1 = w1._index[e[:n1]]
            i2 = w2._index[e[n1:]]
            pair_of_index.append((i1, i2))
            index_of_pair[(i1, i2)] = k
        w.tensor_info = TensorInfo(w1, w2, tuple(pair_of_index), index_of_pair)
        inj1 = WeilMorphism.from_generator_images(
            w1, w, [w.basis_element(w._index[_gen_exp_padded(i, n1, n2, True)]) for i in range(n1)],
            check=False,
        )
        inj2 = WeilMorphism.from_generator_images(
            w2, w, [w.basis_element(w._index[_gen_exp_padded(i, n1, n2, False)]) for i in range(n2)],
            check=False,
        )
        return w, inj1, inj2

    d1, d2 = w1.dimension, w2.dimension
    pair_of_index = tuple((i1, i2) for i1 in range(d1) for i2 in range(d2))
    index_of_pair = {p: k for k, p in enumerate(pair_of_index)}
    zero = Scalar.zero(Mode.EXACT)
    table = []
    for (i1, i2) in pair_of_index:
        row = []
        for (j1, j2) in pair_of_index:
            vec = [zero] * (d1 * d2)
            for k1, c1 in w1._terms(i1, j1):
                for k2, c2 in w2._terms(i2, j2):
                    vec[index_of_pair[(k1, k2)]] = _scalar(c1 * c2)
            row.append(tuple(vec))
        table.append(tuple(row))
    aug = tuple(
        w1.aug_covector[i1] * w2.aug_covector[i2] for (i1, i2) in pair_of_index
    )
    w = WeilAlgebra.tabled(
        table,
        aug,
        check=False,
        nilpotency_hint=w1.nilpotency_degree + w2.nilpotency_degree - 1,
    )
    w.tensor_info = TensorInfo(w1, w2, pair_of_index, index_of_pair)
    cols1 = [
        unit_vector(d1 * d2, index_of_pair[(i1, 0)]) for i1 in range(d1)
    ]
    cols2 = [
        unit_vector(d1 * d2, index_of_pair[(0, i2)]) for i2 in range(d2)
    ]
    inj1 = WeilMorphism(
        w1, w, Matrix.from_columns(cols1, rows=d1 * d2), check=False
    )
    inj2 = WeilMorphism(
        w2, w, Matrix.from_columns(cols2, rows=d1 * d2), check=False
    )
    return w, inj1, inj2


def _gen_exp_padded(i, n1, n2, left):
    e = [0] * (n1 + n2)
    e[i if left else n1 + i] = 1
    return tuple(e)


def _nonzero_columns(m: Matrix):
    return [[(k, e.value) for k, e in enumerate(col) if e.value] for col in zip(*m.entries)]


def tensor_morphism(phi: WeilMorphism, psi: WeilMorphism, source=None, target=None):
    """phi (x) psi between tensor algebras, acting factorwise on pair bases."""
    if source is None:
        source, _, _ = tensor(phi.source, psi.source)
    if target is None:
        target, _, _ = tensor(phi.target, psi.target)
    si = source.tensor_info
    ti = target.tensor_info
    if si is None or ti is None:
        raise MorphismError("tensor_morphism needs tensor-built source and target")
    cols1, cols2 = _nonzero_columns(phi.matrix), _nonzero_columns(psi.matrix)
    zero = Scalar.zero(Mode.EXACT)
    cols = []
    for (i1, i2) in si.pair_of_index:
        vec = [zero] * target.dimension
        for k1, a in cols1[i1]:
            for k2, b in cols2[i2]:
                vec[ti.index_of_pair[(k1, k2)]] = _scalar(a * b)
        cols.append(tuple(vec))
    return WeilMorphism(
        source, target, Matrix.from_columns(cols, rows=target.dimension), check=False
    )


def as_tabled(w: WeilAlgebra) -> WeilAlgebra:
    """Structure-constant copy of any algebra (used to compare routes)."""
    d = w.dimension
    table = [[w.structure_vector(i, j) for j in range(d)] for i in range(d)]
    return WeilAlgebra.tabled(
        table, w.aug_covector, check=False, nilpotency_hint=w.nilpotency_degree
    )


# ----- subalgebras, products over the scalars, limits ---------------------


class _ColumnSolver:
    """Coordinates with respect to a fixed independent column family."""

    def __init__(self, columns, length):
        self.count = len(columns)
        b = Matrix.from_columns(columns, rows=length)
        aug = hstack([b, Matrix.identity(length)])
        rows, pivots = aug.rref()
        # the identity block forces full row rank; B itself has full column
        # rank exactly when its columns are the leading pivots
        if pivots[: self.count] != list(range(self.count)):
            raise ValueError("columns are not independent")
        self.transform = [
            [(t, c.value) for t, c in enumerate(row[self.count :]) if c.value]
            for row in rows
        ]

    def coords(self, vector):
        vals = [_raw(v, Mode.EXACT) for v in vector]
        out = [sum(c * vals[t] for t, c in row) for row in self.transform]
        if any(out[self.count :]):
            return NO_SOLUTION
        return _wrap_row(out[: self.count], True)


def _subalgebra(w: WeilAlgebra, span_vectors):
    """Tabled subalgebra on a span (which must contain 1 and be closed).

    Returns (subalgebra, inclusion).  Basis choice: the unit first, then a
    deterministic echelon selection from the given spanning vectors.
    """
    unit = tuple(w.one().coeffs)
    if not span_contains(span_vectors, unit):
        raise AlgebraError("subspace does not contain the unit")
    basis_vectors = [unit]
    rank = 1
    for v in span_vectors:
        candidate = basis_vectors + [tuple(v)]
        m = Matrix(candidate, cols=w.dimension)
        if m.rank() > rank:
            basis_vectors.append(tuple(v))
            rank += 1
    solver = _ColumnSolver(basis_vectors, w.dimension)
    dim = len(basis_vectors)
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        ei = WeilElement(w, basis_vectors[i])
        for j in range(i, dim):
            prod = ei * WeilElement(w, basis_vectors[j])
            coords = solver.coords(prod.coeffs)
            if coords is NO_SOLUTION:
                raise AlgebraError("subspace is not closed under multiplication")
            table[i][j] = coords
            table[j][i] = coords
    aug = tuple(WeilElement(w, v).augmentation() for v in basis_vectors)
    sub = WeilAlgebra.tabled(
        table, aug, check=False, nilpotency_hint=w.nilpotency_degree
    )
    incl = WeilMorphism(
        sub,
        w,
        Matrix.from_columns(basis_vectors, rows=w.dimension),
        check=False,
    )
    return sub, incl


def equalizer(phi: WeilMorphism, psi: WeilMorphism):
    """Equalizer of a parallel pair, as a tabled subalgebra with inclusion."""
    if phi.source != psi.source or phi.target != psi.target:
        raise MorphismError("equalizer needs a parallel pair")
    diff = phi.matrix - psi.matrix
    span = kernel_basis(diff)
    return _subalgebra(phi.source, span)


class _ProductOverK:
    """Fiber product over the augmentations of several algebras.

    Basis: the joint unit, then the echelonized augmentation kernel of each
    factor in order.  Extraction matrices give each component; packing
    solves components back into coordinates.
    """

    def __init__(self, algebras):
        self.algebras = list(algebras)
        self.kernels = []
        self.solvers = []
        for w in self.algebras:
            aug_matrix = Matrix([w.aug_covector], cols=w.dimension)
            kb = kernel_basis(aug_matrix)
            self.kernels.append(kb)
            self.solvers.append(_ColumnSolver(kb, w.dimension) if kb else None)
        self.dimension = 1 + sum(len(kb) for kb in self.kernels)
        self.offsets = []
        pos = 1
        for kb in self.kernels:
            self.offsets.append(pos)
            pos += len(kb)

        d = self.dimension
        table = [[None] * d for _ in range(d)]
        unit = unit_vector(d, 0)
        table[0] = [unit_vector(d, j) for j in range(d)]
        for i in range(1, d):
            table[i][0] = unit_vector(d, i)
        for a, kb in enumerate(self.kernels):
            off = self.offsets[a]
            w = self.algebras[a]
            for i in range(len(kb)):
                for j in range(len(kb)):
                    prod = WeilElement(w, kb[i]) * WeilElement(w, kb[j])
                    coords = self.solvers[a].coords(prod.coeffs)
                    if coords is NO_SOLUTION:
                        raise AlgebraError("augmentation kernel not closed")
                    vec = [Scalar.zero(Mode.EXACT)] * d
                    for t, c in enumerate(coords):
                        vec[off + t] = c
                    table[off + i][off + j] = tuple(vec)
            # cross-factor nilpotents multiply to zero
            for b in range(len(self.kernels)):
                if b == a:
                    continue
                offb = self.offsets[b]
                for i in range(len(kb)):
                    for j in range(len(self.kernels[b])):
                        table[off + i][offb + j] = tuple(zero_vector(d))
        aug = [Scalar.one(Mode.EXACT)] + [Scalar.zero(Mode.EXACT)] * (d - 1)
        hint = max((w.nilpotency_degree for w in self.algebras), default=1)
        self.algebra = WeilAlgebra.tabled(
            table, aug, check=False, nilpotency_hint=hint
        )

    def extraction(self, a: int) -> Matrix:
        """Matrix taking product coordinates to the a-th component."""
        w = self.algebras[a]
        cols = [tuple(w.one().coeffs)]
        for b, kb in enumerate(self.kernels):
            for v in kb:
                cols.append(tuple(v) if b == a else zero_vector(w.dimension))
        return Matrix.from_columns(cols, rows=w.dimension)

    def projections(self):
        return [
            WeilMorphism(self.algebra, w, self.extraction(a), check=False)
            for a, w in enumerate(self.algebras)
        ]

    def pack(self, components):
        """Coordinates of a component tuple (augmentations must agree)."""
        common = components[0].augmentation()
        out = [common]
        for a, (w, el) in enumerate(zip(self.algebras, components)):
            if el.augmentation() != common:
                raise ValueError("components disagree on augmentation")
            nil = el - w.scalar(common)
            coords = (
                self.solvers[a].coords(nil.coeffs) if self.kernels[a] else ()
            )
            if coords is NO_SOLUTION:
                raise ValueError("component outside the augmentation kernel span")
            out.extend(coords)
        return tuple(out)


def product_over_k(w1: WeilAlgebra, w2: WeilAlgebra):
    """Categorical product: pairs agreeing under augmentation, componentwise ops.

    Dimension is dim(w1) + dim(w2) - 1.  Returns (P, proj1, proj2).
    """
    prod = _ProductOverK([w1, w2])
    p1, p2 = prod.projections()
    return prod.algebra, p1, p2


@dataclass(frozen=True)
class DiagramInWeil:
    """Finite diagram of Weil algebras, optionally with a cone over it."""

    objects: tuple
    arrows: tuple  # (source index, target index, WeilMorphism)
    apex: WeilAlgebra | None = None
    legs: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        for s, t, phi in self.arrows:
            if not (0 <= s < len(self.objects) and 0 <= t < len(self.objects)):
                raise DiagramError("arrow endpoints out of range")
            if phi.source != self.objects[s] or phi.target != self.objects[t]:
                raise DiagramError("arrow morphism does not match its endpoints")
        if (self.apex is None) != (self.legs is None):
            raise DiagramError("a cone needs both an apex and legs")
        if self.apex is not None:
            object.__setattr__(self, "legs", tuple(self.legs))
            if len(self.legs) != len(self.objects):
                raise DiagramError("one leg per object is required")
            for i, leg in enumerate(self.legs):
                if leg.source != self.apex or leg.target != self.objects[i]:
                    raise DiagramError(f"leg {i} has wrong endpoints")
            for s, t, phi in self.arrows:
                if phi.compose(self.legs[s]) != self.legs[t]:
                    raise DiagramError(
                        f"cone does not commute with arrow {s} -> {t}"
                    )

    @property
    def has_cone(self) -> bool:
        return self.apex is not None

    def without_cone(self) -> "DiagramInWeil":
        return DiagramInWeil(self.objects, self.arrows)

    def with_cone(self, apex, legs) -> "DiagramInWeil":
        return DiagramInWeil(self.objects, self.arrows, apex, tuple(legs))


def limit(diagram: DiagramInWeil):
    """Limit of a finite diagram: the compatible subalgebra of the product
    over the scalars.  Returns (L, legs).  The empty diagram gives the
    terminal algebra."""
    objects = diagram.objects
    if not objects:
        return terminal(), []
    prod = _ProductOverK(objects)
    blocks = []
    for s, t, phi in diagram.arrows:
        es = prod.extraction(s)
        et = prod.extraction(t)
        blocks.append((phi.matrix @ es) - et)
    constraints = vstack(blocks, cols=prod.dimension) if blocks else Matrix(
        [], cols=prod.dimension
    )
    span = kernel_basis(constraints)
    sub, incl = _subalgebra(prod.algebra, span)
    legs = [
        WeilMorphism(
            sub, w, prod.extraction(a) @ incl.matrix, check=False
        )
        for a, w in enumerate(objects)
    ]
    return sub, legs


def limit_cone(diagram: DiagramInWeil) -> DiagramInWeil:
    apex, legs = limit(diagram.without_cone())
    return diagram.without_cone().with_cone(apex, legs)


def _stacked_legs(legs, cols):
    return vstack([leg.matrix for leg in legs], cols=cols)


def is_limit_cone(diagram: DiagramInWeil) -> Verdict:
    """Is the given cone a limit cone?  Decided by whether the mediating map
    into the computed limit is an isomorphism."""
    if not diagram.has_cone:
        raise DiagramError("is_limit_cone needs a cone")
    apex, legs = limit(diagram.without_cone())
    a = _stacked_legs(legs, apex.dimension) if legs else Matrix(
        [], cols=apex.dimension
    )
    b = _stacked_legs(diagram.legs, diagram.apex.dimension) if diagram.legs else Matrix(
        [], cols=diagram.apex.dimension
    )
    if not diagram.objects:
        med = Matrix([[qq(1)]]) if diagram.apex.dimension == 1 else None
        ok = diagram.apex.dimension == 1
        cert = f"empty diagram; apex dimension {diagram.apex.dimension}"
        return Verdict(ok, cert, data=med)
    mediating = solve_matrix(a, b)
    if isinstance(mediating, SolveFailure):
        return Verdict(
            False,
            "cone does not factor through the computed limit",
            data=None,
        )
    try:
        WeilMorphism(diagram.apex, apex, mediating, check=True)
    except (MorphismError, ModeError) as exc:
        return Verdict(False, f"mediating map is not a morphism: {exc}", data=None)
    rank = mediating.rank()
    ok = (
        mediating.rows == mediating.cols == rank
    )
    cert = (
        f"mediating matrix {mediating.rows}x{mediating.cols}, rank {rank}; "
        f"limit dimension {apex.dimension}, apex dimension {diagram.apex.dimension}"
    )
    return Verdict(ok, cert, data=mediating)


def mediating_morphism(outer: DiagramInWeil, limiting: DiagramInWeil) -> WeilMorphism:
    """The unique factorization of one cone through a limiting cone."""
    if not outer.has_cone or not limiting.has_cone:
        raise DiagramError("both diagrams need cones")
    if outer.objects != limiting.objects or outer.arrows != limiting.arrows:
        raise DiagramError("cones sit over different diagrams")
    if not outer.objects:
        if limiting.apex.dimension != 1:
            raise DiagramError("target cone is not a limit: mediating map not unique")
        return augmentation(outer.apex)
    a = _stacked_legs(limiting.legs, limiting.apex.dimension)
    b = _stacked_legs(outer.legs, outer.apex.dimension)
    h = solve_matrix(a, b)
    if h is NO_SOLUTION:
        raise DiagramError("cones are incompatible: no mediating morphism")
    if isinstance(h, SolveFailure):
        raise DiagramError("target cone is not a limit: mediating map not unique")
    return WeilMorphism(outer.apex, limiting.apex, h, check=True)


def filtered_basis(w: WeilAlgebra):
    """A basis adapted to powers of the maximal ideal, with degree labels.

    Returns (vectors, degrees): vectors[0] is the unit with degree 0; a
    vector of degree g lies in m^g but not m^(g+1).  Presented algebras use
    their monomial basis unchanged.
    """
    if w.flavor == "presented":
        vectors = [tuple(unit_vector(w.dimension, i)) for i in range(w.dimension)]
        degrees = [sum(e) for e in w.basis]
        return vectors, degrees
    chain = w._ideal_chain()
    picked = []
    degrees = []
    rank = 0
    for g in range(len(chain), 0, -1):
        for v in chain[g - 1]:
            m = Matrix(picked + [tuple(v)], cols=w.dimension)
            if m.rank() > rank:
                picked.append(tuple(v))
                degrees.append(g)
                rank += 1
    unit = tuple(w.one().coeffs)
    vectors = [unit] + list(reversed(picked))
    degs = [0] + list(reversed(degrees))
    return vectors, degs


def tensor_leaves(w: WeilAlgebra):
    """Leaf factors of an iterated tensor, plus each basis index as a tuple
    of leaf basis indices.  A non-tensor algebra is its own single leaf."""
    info = w.tensor_info
    if info is None:
        return [w], [(i,) for i in range(w.dimension)]
    left_leaves, left_ix = tensor_leaves(info.left)
    right_leaves, right_ix = tensor_leaves(info.right)
    ix = []
    for k in range(w.dimension):
        i1, i2 = info.pair_of_index[k]
        ix.append(left_ix[i1] + right_ix[i2])
    return left_leaves + right_leaves, ix


def factor_permutation_iso(a: WeilAlgebra, b: WeilAlgebra, perm) -> WeilMorphism:
    """The isomorphism between iterated tensors that shuffles factors.

    perm[i] is the position among b's leaves of a's i-th leaf; the leaf
    algebras must match under that assignment.  Basis vectors map to basis
    vectors, so the matrix is a permutation and multiplicativity holds by
    construction.
    """
    leaves_a, ix_a = tensor_leaves(a)
    leaves_b, ix_b = tensor_leaves(b)
    perm = tuple(perm)
    if sorted(perm) != list(range(len(leaves_b))) or len(leaves_a) != len(leaves_b):
        raise MorphismError("permutation does not match the factor counts")
    for i, w in enumerate(leaves_a):
        if leaves_b[perm[i]] != w:
            raise MorphismError(f"leaf {i} does not match its assigned slot")
    index_b = {t: k for k, t in enumerate(ix_b)}
    cols = []
    for k in range(a.dimension):
        t = ix_a[k]
        shuffled = [0] * len(t)
        for i, v in enumerate(t):
            shuffled[perm[i]] = v
        cols.append(unit_vector(b.dimension, index_b[tuple(shuffled)]))
    return WeilMorphism(
        a, b, Matrix.from_columns(cols, rows=b.dimension), check=False
    )


# ----- text formats -------------------------------------------------------


def describe_presented(w: WeilAlgebra) -> str:
    gens = ",".join(w.gens)
    rels = ", ".join(_monomial_label(r, w.gens) for r in w.relations)
    return f"Q[{gens}]/({rels})"


def serialize_algebra(w: WeilAlgebra) -> str:
    """Canonical text form; parse_algebra() inverts it byte-for-byte."""
    if w.flavor == "presented":
        return f"weil {describe_presented(w)}"
    lines = ["weil tabled", f"dim {w.dimension}", "unit 0"]
    lines.append("aug " + " ".join(str(c) for c in w.aug_covector))
    for i in range(w.dimension):
        for j in range(i, w.dimension):
            for k, c in enumerate(w.table[i][j]):
                if not c.is_zero:
                    lines.append(f"c {i} {j} {k} {c}")
    return "\n".join(lines)


def parse_algebra(text: str) -> WeilAlgebra:
    """Parse either algebra format (the leading 'weil' keyword is optional)."""
    stripped = text.strip()
    if stripped.startswith("weil"):
        stripped = stripped[len("weil") :].strip()
    if stripped.startswith("tabled"):
        return _parse_tabled(stripped[len("tabled") :])
    return _parse_presented(stripped)


def _parse_presented(text: str) -> WeilAlgebra:
    s = text.strip()
    if not s.startswith("Q"):
        raise AlgebraError(f"expected Q[...]/(...), got {text!r}")
    s = s[1:].lstrip()
    if not s.startswith("["):
        raise AlgebraError("expected '[' after Q")
    close = s.index("]")
    names_part = s[1:close].strip()
    gens = tuple(n.strip() for n in names_part.split(",")) if names_part else ()
    s = s[close + 1 :].lstrip()
    if not s.startswith("/"):
        raise AlgebraError("expected '/' after the generator list")
    s = s[1:].lstrip()
    if not (s.startswith("(") and s.endswith(")")):
        raise AlgebraError("expected a parenthesized relation list")
    body = s[1:-1].strip()
    rels = []
    if body:
        for chunk in body.split(","):
            rels.append(_parse_monomial(chunk.strip(), gens))
    return make_presented(gens, rels)


def _parse_monomial(text: str, gens) -> tuple:
    exps = [0] * len(gens)
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            name, _, power = factor.partition("^")
            name = name.strip()
            e = int(power.strip())
        else:
            name, e = factor, 1
        if name not in gens:
            raise AlgebraError(f"unknown generator {name!r} in relation {text!r}")
        if e < 1:
            raise AlgebraError(f"bad exponent in relation {text!r}")
        exps[gens.index(name)] += e
    return tuple(exps)


def _parse_tabled(text: str) -> WeilAlgebra:
    dim = None
    aug = None
    entries = []
    for raw in text.strip().splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "dim":
            dim = int(parts[1])
        elif parts[0] == "unit":
            if int(parts[1]) != 0:
                raise AlgebraError("tabled format requires the unit at index 0")
        elif parts[0] == "aug":
            aug = [qq(Fraction(p)) for p in parts[1:]]
        elif parts[0] == "c":
            i, j, k = int(parts[1]), int(parts[2]), int(parts[3])
            entries.append((i, j, k, qq(Fraction(parts[4]))))
        else:
            raise AlgebraError(f"unrecognized line in tabled block: {raw!r}")
    if dim is None or aug is None:
        raise AlgebraError("tabled block needs 'dim' and 'aug' lines")
    if len(aug) != dim:
        raise AlgebraError("augmentation length does not match dim")
    table = [
        [[Scalar.zero(Mode.EXACT) for _ in range(dim)] for _ in range(dim)]
        for _ in range(dim)
    ]
    for i, j, k, c in entries:
        table[i][j][k] = c
        table[j][i][k] = c
    return WeilAlgebra.tabled(table, aug, check=True)
