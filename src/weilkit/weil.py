"""Finite-dimensional local algebras over the exact rationals, and their category.

An algebra here is either *presented* (a quotient of a polynomial ring by
monomial relations, with the standard-monomial basis derived at
construction) or *tabled* (an explicit basis with structure constants,
held as the sparse nonzero terms of each basis product).  Presented
algebras stay cheap at any size because products of standard monomials are
again standard monomials or zero; tabled algebras are what equalizers,
fiber products, and limits return.

Elements may hold floats, for transcendental jets.  Everything categorical
(morphisms, limits, mediating maps) is exact: a float reaching a morphism,
as an image or as an element to map, is a ModeError.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import (
    Matrix,
    Mode,
    ModeError,
    _RAW,
    _mode_of,
    _one_mode,
    _raw_of,
    _unit,
    difference_rows,
    kernel_basis,
    qq,
    vstack,
)
from .expr import _power, check_literal
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


# distinct presentations whose enumeration is kept per process: jets,
# tensors and parsed algebras rebuild the same few presentations again and again
_PRESENTATION_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_PRESENTATION_CACHE_SIZE)
def _enumerate_presentation(gens, rels):
    """What a presented algebra derives from its validated generators and
    relations: (relations, basis, index, codes, by_code, labels, aug,
    nilpotency degree).  The result is shared, so it holds only tuples and
    dicts that no caller mutates."""
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
    basis = tuple(basis)
    # mixed-radix monomial codes: exponents of a product of two basis
    # monomials stay below 2*bound - 1, so codes add like exponents
    strides = [1]
    for b in bounds[:-1]:
        strides.append(strides[-1] * (2 * b - 1))
    codes = tuple(sum(e * t for e, t in zip(exps, strides)) for exps in basis)
    return (
        rels,
        basis,
        {e: i for i, e in enumerate(basis)},
        codes,
        {c: i for i, c in enumerate(codes)},
        tuple(_monomial_label(e, gens) for e in basis),
        _unit(len(basis), 0),
        max(sum(e) for e in basis) + 1,
    )


class WeilAlgebra:
    """A Weil algebra: finite-dimensional, commutative, local, basis[0] = 1."""

    __slots__ = (
        "flavor",
        "gens",
        "relations",
        "basis",
        "_index",
        "dimension",
        "aug",
        "_nilpotency",
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
        """Q[gens] modulo monomial relations (exponent vectors).

        The input is validated on every call, and every call returns a new
        algebra.  What follows from the presentation alone (the reduced
        relations, the basis, its labels, index and monomial codes, the
        augmentation and the nilpotency degree) is enumerated once per
        process and shared by every algebra with that presentation, so none
        of it is ever mutated; `tensor_info` and the cached ideal chain stay
        per object.
        """
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

        self = cls._blank()
        self.flavor = "presented"
        self.gens = gens
        (
            self.relations,
            self.basis,
            self._index,
            self._codes,
            self._by_code,
            self.labels,
            self.aug,
            self._nilpotency,
        ) = _enumerate_presentation(gens, tuple(rels))
        self.dimension = len(self.basis)
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
        validated exhaustively on its nonzero terms: commutative,
        associative, unital, the augmentation is a homomorphism, the
        augmentation kernel is nilpotent, and a nilpotency_hint equals the
        degree the ideal chain gives.  Internal constructions that carry a
        proof pass check=False; nilpotency is still established either way.
        """
        table = [[[qq(c) for c in vec] for vec in row] for row in table]
        aug = tuple(qq(c) for c in aug)
        d = len(table)
        if any(len(vec) != d for row in table for vec in row):
            raise AlgebraError("structure table or augmentation has the wrong shape")
        terms = [
            [tuple((k, c) for k, c in enumerate(vec) if c) for vec in row] for row in table
        ]
        w = cls._from_terms(terms, aug, check, nilpotency_hint)
        if nilpotency_hint is None:
            w._ideal_chain()  # refuses a kernel that is not nilpotent
        return w

    @classmethod
    def _from_terms(cls, terms, aug, check=True, nilpotency_hint=None) -> "WeilAlgebra":
        """A tabled algebra from its sparse structure terms: terms[i][j] holds
        the nonzero (k, Fraction) of basis[i] * basis[j], k increasing, and
        aug is a tuple of Fractions.  check=True checks as in tabled(); with
        check=False nilpotency is the caller's to establish, and the
        nilpotency degree is the hint, or else read off the ideal chain on
        first use."""
        d = len(terms)
        if d == 0:
            raise AlgebraError("a Weil algebra contains at least the unit")
        if len(aug) != d or any(len(row) != d for row in terms):
            raise AlgebraError("structure table or augmentation has the wrong shape")

        self = cls._blank()
        self.flavor = "tabled"
        self.gens = None
        self.relations = None
        self.basis = None
        self._index = None
        self.dimension = d
        self._sparse = tuple(tuple(row) for row in terms)
        self.aug = aug
        self._nilpotency = nilpotency_hint
        self.labels = ("1",) + tuple(f"b{i}" for i in range(1, d))

        if aug[0] != 1:
            raise AlgebraError("augmentation of the unit must be 1")
        for j in range(d):
            if terms[0][j] != ((j, 1),) or terms[j][0] != ((j, 1),):
                raise AlgebraError("basis element 0 does not act as the unit")
        if check:
            for i in range(d):
                for j in range(i + 1, d):
                    if terms[i][j] != terms[j][i]:
                        raise AlgebraError(f"product not commutative at ({i},{j})")
            for i in range(d):
                for j in range(d):
                    if sum(aug[k] * c for k, c in terms[i][j]) != aug[i] * aug[j]:
                        raise AlgebraError(
                            f"augmentation is not multiplicative at ({i},{j})"
                        )
            # with commutativity, symmetry of (e_i e_j) e_k in the last two
            # slots gives full associativity
            for i in range(d):
                for j in range(d):
                    for k in range(j + 1, d):
                        left = _times_basis(terms, terms[i][j], k)
                        if left != _times_basis(terms, terms[j][k], i):
                            raise AlgebraError(f"product not associative at ({i},{j},{k})")
            degree = len(self._ideal_chain()) + 1
            if nilpotency_hint not in (None, degree):
                raise AlgebraError(
                    f"nilpotency hint {nilpotency_hint} disagrees with the "
                    f"nilpotency degree {degree} of the ideal chain"
                )
        return self

    # ----- structure ----------------------------------------------------

    @property
    def nilpotency_degree(self) -> int:
        """The least n with m^n = 0, m the augmentation kernel.  A tensor
        reads d1 + d2 - 1 off its factors, as m1^(d1-1) (x) m2^(d2-1) != 0."""
        if self._nilpotency is None:
            info = self.tensor_info
            if info is not None:
                d1, d2 = info.left.nilpotency_degree, info.right.nilpotency_degree
                self._nilpotency = d1 + d2 - 1
            else:
                self._nilpotency = len(self._ideal_chain()) + 1
        return self._nilpotency

    def _ideal_chain(self):
        """Bases of m, m^2, ... down to the last nonzero power (cached)."""
        if self._chain is not None:
            return self._chain
        d = self.dimension
        if self.flavor == "presented":
            # a monomial quotient: m^k is spanned by the basis monomials of
            # degree >= k, and those unit vectors are already its rref
            degrees = [sum(e) for e in self.basis]
            self._chain = [
                [_unit(d, i) for i, g in enumerate(degrees) if g >= k]
                for k in range(1, max(degrees) + 1)
            ]
            return self._chain
        m1 = kernel_basis(Matrix._of((self.aug,), d))
        chain = []
        current = m1
        while current:
            chain.append(current)
            if len(chain) > d:
                raise NonNilpotentError("augmentation kernel is not nilpotent")
            products = tuple(
                (WeilElement._of(self, v) * WeilElement._of(self, w)).raw
                for v in current
                for w in m1
            )
            rows, pivots = Matrix._of(products, d).rref() if products else ([], [])
            current = rows[: len(pivots)]
            if current and len(current) >= len(chain[-1]) and chain[-1] == current:
                raise NonNilpotentError("augmentation kernel is not nilpotent")
        self._chain = chain
        return chain

    def maximal_ideal_basis(self):
        """Raw Fraction vectors spanning the augmentation kernel."""
        chain = self._ideal_chain()
        return chain[0] if chain else []

    def _terms(self, i: int, j: int):
        """Nonzero (index, Fraction) pairs of basis[i] * basis[j], index increasing."""
        if self.flavor == "presented":
            k = self._by_code.get(self._codes[i] + self._codes[j])
            return () if k is None else ((k, _ONE),)
        return self._sparse[i][j]

    def structure_vector(self, i: int, j: int):
        """Coefficients of basis[i] * basis[j]."""
        vec = [_ZERO] * self.dimension
        for k, c in self._terms(i, j):
            vec[k] = c
        return tuple(vec)

    @property
    def is_terminal(self) -> bool:
        return self.dimension == 1

    # ----- elements -----------------------------------------------------

    def element(self, coeffs) -> "WeilElement":
        return WeilElement(self, coeffs)

    def zero(self, mode: Mode = Mode.EXACT) -> "WeilElement":
        return WeilElement._of(self, (_RAW[mode][0],) * self.dimension, mode)

    def one(self, mode: Mode = Mode.EXACT) -> "WeilElement":
        return WeilElement._of(self, _unit(self.dimension, 0, mode), mode)

    def scalar(self, value) -> "WeilElement":
        value = _raw_of(value)
        mode = _mode_of(value)
        return WeilElement._of(self, (value,) + (_RAW[mode][0],) * (self.dimension - 1), mode)

    def basis_element(self, i: int, mode: Mode = Mode.EXACT) -> "WeilElement":
        return WeilElement._of(self, _unit(self.dimension, i, mode), mode)

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
            and self.aug == other.aug
            and self._sparse == other._sparse
        )

    def __hash__(self):
        if self.flavor == "presented":
            return hash((self.flavor, self.gens, self.relations))
        return hash((self.flavor, self.dimension, self.aug, self._sparse))

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


def terminal() -> WeilAlgebra:
    """The scalars themselves: Q[]/(), the terminal object."""
    return make_presented((), ())


def dual_numbers(name: str = "x") -> WeilAlgebra:
    return make_presented((name,), ((2,),))


def jet_line(order: int, name: str = "x") -> WeilAlgebra:
    """Q[x]/(x^(order+1)): coefficients of a univariate jet of that order."""
    if order < 0:
        raise AlgebraError("jet order must be >= 0")
    return make_presented((name,), ((order + 1,),))


_SMALL_NAMES = ("x", "y", "z")
_ZERO, _ONE = _RAW[Mode.EXACT]


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
    """An element of a fixed Weil algebra: its coefficient vector over the
    basis, held raw in `raw` (all Fractions or all floats) with its one
    `mode`.  `coeffs` hands out the same raw values.

    Exact arithmetic does no work on zero coefficients: a sum touches only
    the entries where the other operand is nonzero, and a product over a
    presented algebra runs on int numerators over one common denominator
    per operand, making each nonzero result coefficient a Fraction once.
    Float sums and scaling keep every term, since 0.0 + -0.0 is 0.0 and
    0.0 * inf is nan."""

    __slots__ = ("algebra", "raw", "mode")

    @classmethod
    def _of(cls, algebra, raw, mode: Mode = Mode.EXACT) -> "WeilElement":
        """Element around a one-mode raw tuple the kernel computed itself."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.raw = raw
        self.mode = mode
        return self

    def __init__(self, algebra: WeilAlgebra, coeffs):
        raw = tuple(_raw_of(c) for c in coeffs)
        if len(raw) != algebra.dimension:
            raise ValueError("coefficient count does not match the basis")
        self.algebra = algebra
        self.raw = raw
        self.mode = _one_mode(raw, "element coefficients")

    @property
    def coeffs(self):
        return self.raw

    def _check_peer(self, other):
        if not isinstance(other, WeilElement):
            raise TypeError("expected a WeilElement")
        if other.algebra != self.algebra:
            raise ValueError("elements live in different algebras")
        if other.mode is not self.mode:
            raise ModeError("mixed-mode operation on exact and float elements")

    def __add__(self, other):
        self._check_peer(other)
        if self.mode is Mode.EXACT:
            return WeilElement._of(self.algebra, _exact_sum(self.raw, other.raw, False))
        return WeilElement._of(
            self.algebra, tuple(map(operator.add, self.raw, other.raw)), self.mode
        )

    def __sub__(self, other):
        self._check_peer(other)
        if self.mode is Mode.EXACT:
            return WeilElement._of(self.algebra, _exact_sum(self.raw, other.raw, True))
        return WeilElement._of(
            self.algebra, tuple(map(operator.sub, self.raw, other.raw)), self.mode
        )

    def __neg__(self):
        return WeilElement._of(self.algebra, tuple([-a for a in self.raw]), self.mode)

    def scaled(self, c) -> "WeilElement":
        c = _raw_of(c)
        if _mode_of(c) is not self.mode:
            raise ModeError("mixed-mode scaling of an element")
        if self.mode is Mode.EXACT:
            raw = tuple([c * a if a else a for a in self.raw])
        else:
            raw = tuple([c * a for a in self.raw])
        return WeilElement._of(self.algebra, raw, self.mode)

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scaled(other)
        self._check_peer(other)
        alg = self.algebra
        exact = self.mode is Mode.EXACT
        # exact presented products run on int numerators over one common
        # denominator per operand; each result becomes a Fraction once
        on_ints = exact and alg.flavor == "presented"
        if on_ints:
            da, nz_a = _over_common_denominator(self.raw)
            db, nz_b = _over_common_denominator(other.raw)
            acc = [0] * alg.dimension
        else:
            nz_a = [(i, a) for i, a in enumerate(self.raw) if a]
            nz_b = [(j, b) for j, b in enumerate(other.raw) if b]
            acc = [_RAW[self.mode][0]] * alg.dimension
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
        if on_ints:
            d = da * db
            acc = [Fraction(n, d) if n else _ZERO for n in acc]
        return WeilElement._of(alg, tuple(acc), self.mode)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("element exponents must be int")
        if n < 0:
            return self.invert() ** (-n)
        return _power(self, n, operator.mul, self.algebra.one(self.mode))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _raw_of(other)  # an int first becomes a Fraction: int / int is a float
            if not c:
                raise ZeroDivisionError("scalar division by zero")
            return self.scaled(1 / c)
        self._check_peer(other)
        return self * other.invert()

    def invert(self) -> "WeilElement":
        return geometric_invert(self)

    def augmentation(self):
        exact = self.mode is Mode.EXACT
        acc = _RAW[self.mode][0]
        for lam, c in zip(self.algebra.aug, self.raw):
            if lam:
                acc += (lam if exact else float(lam)) * c
        return acc

    # protocol name the generic evaluator uses
    scalar_part = augmentation

    def like(self, value) -> "WeilElement":
        """Embed a constant into the same algebra and mode as this element."""
        if self.mode is Mode.FLOAT:
            return self.algebra.scalar(float(value))
        return self.algebra.scalar(qq(value))

    def nilpotency_bound(self) -> int:
        return self.algebra.nilpotency_degree

    @property
    def is_zero(self) -> bool:
        return not any(self.raw)

    def __eq__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        # Fraction(1) == 1.0, so the modes must match as well as the values
        return (
            self.algebra == other.algebra
            and self.mode is other.mode
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.algebra, self.raw))

    def __str__(self):
        parts = []
        for c, label in zip(self.raw, self.algebra.labels):
            if c == 0:
                continue
            if label == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(label)
            else:
                parts.append(f"{c}*{label}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"WeilElement({self})"


def _exact_sum(a, b, subtract: bool):
    """a + b, or a - b, on Fraction tuples.  Only the entries where b is
    nonzero are touched, and where a is zero the entry of b (negated for
    a - b) is taken without Fraction arithmetic."""
    out = list(a)
    for k, y in enumerate(b):
        if y:
            x = out[k]
            if subtract:
                out[k] = x - y if x else -y
            else:
                out[k] = x + y if x else y
    return tuple(out)


def _times_basis(terms, vec, k):
    """{index: nonzero coefficient} of v * basis[k], v given by its terms vec."""
    acc = {}
    for m, c in vec:
        for n, x in terms[m][k]:
            acc[n] = acc.get(n, 0) + c * x
    return {n: v for n, v in acc.items() if v}


def _over_common_denominator(raw):
    """(D, [(i, n), ...]) with raw[i] == n / D for each nonzero Fraction of
    raw, where D is the lcm of their denominators (1 if there are none)."""
    nz = [(i, a.as_integer_ratio()) for i, a in enumerate(raw) if a]
    d = math.lcm(*[q for _, (_, q) in nz])
    return d, [(i, p * (d // q)) for i, (p, q) in nz]


def geometric_invert(x):
    """(s + n)^-1 = s^-1 * sum of (-n/s)^k, with s = x.scalar_part() and
    the sum cut at x.nilpotency_bound().

    Works on any element with +, -, *, scaled(), like(), scalar_part() and
    nilpotency_bound(): plain algebra elements and elements over another
    coefficient ring alike.
    """
    s = x.scalar_part()
    if not s:
        raise ZeroDivisionError("element with zero augmentation is not invertible")
    inv = 1 / _raw_of(s)  # an int scalar part must not turn into a float
    t = (x - x.like(s)).scaled(-inv)
    acc = x.like(1)
    power = None
    for _ in range(1, x.nilpotency_bound()):
        power = t if power is None else power * t
        acc = acc + power
    return acc.scaled(inv)


class WeilMorphism:
    """A unit-preserving algebra map, stored as its matrix on the bases.

    It acts through the matrix's sparse columns, built on first use as int
    numerators over one common denominator: an image (and compose, column
    by column) sums int products and makes each nonzero result a Fraction
    once.  Morphisms act on exact elements only; a float element is a
    ModeError."""

    __slots__ = ("source", "target", "matrix", "_columns")

    def __init__(self, source, target, matrix, check=True):
        if matrix.shape != (target.dimension, source.dimension):
            raise MorphismError("matrix shape does not match source/target")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._columns = None
        self._validate_cheap()
        if check:
            self._validate_multiplicative()

    # unit preservation and augmentation compatibility are O(dim) and run
    # always, on the raw entries
    def _validate_cheap(self):
        raw = self.matrix.raw
        if any(row[0] != int(i == 0) for i, row in enumerate(raw)):
            raise MorphismError("morphism does not preserve the unit")
        pulled = [0] * self.source.dimension
        for lam, row in zip(self.target.aug, raw):
            if lam:
                for j, m in enumerate(row):
                    if m:
                        pulled[j] += lam * m
        if any(p != a for p, a in zip(pulled, self.source.aug)):
            raise MorphismError("morphism is not augmentation-compatible")

    def _validate_multiplicative(self):
        src = self.source
        images = [self.apply(src.basis_element(i)) for i in range(src.dimension)]
        for i in range(src.dimension):
            for j in range(i, src.dimension):
                prod_src = src.basis_element(i) * src.basis_element(j)
                if self.apply(prod_src) != images[i] * images[j]:
                    raise MorphismError(
                        f"morphism not multiplicative on basis pair ({i},{j})"
                    )

    def _int_columns(self):
        """(D, columns): column j lists (i, n) with matrix[i][j] == n / D for
        each nonzero entry, i increasing; D is the lcm of the denominators."""
        if self._columns is None:
            width = self.source.dimension
            d, nz = _over_common_denominator([m for row in self.matrix.raw for m in row])
            cols = [[] for _ in range(width)]
            for k, n in nz:
                cols[k % width].append((k // width, n))
            self._columns = d, cols
        return self._columns

    def _push(self, d, nz):
        """The raw image of the vector whose nonzero entries are n / d, (j, n) in nz."""
        dm, cols = self._int_columns()
        acc = [0] * self.target.dimension
        for j, n in nz:
            for i, m in cols[j]:
                acc[i] += m * n
        d *= dm
        return tuple([Fraction(a, d) if a else _ZERO for a in acc])

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
            if check and img.augmentation():
                raise MorphismError(f"image of {g!r} has nonzero augmentation")
        if check:
            for r in source.relations:
                acc = functools.reduce(operator.mul, [img**e for img, e in zip(images, r) if e])
                if not acc.is_zero:
                    label = _monomial_label(r, source.gens)
                    raise MorphismError(f"images violate the relation {label}")
        # image of each basis monomial, peeling one generator at a time
        cols = [None] * source.dimension
        cols[0] = target.one().raw
        for t in range(1, source.dimension):
            e = source.basis[t]
            g = next(i for i, ei in enumerate(e) if ei > 0)
            prev = list(e)
            prev[g] -= 1
            prev_idx = source._index[tuple(prev)]
            cols[t] = (WeilElement._of(target, cols[prev_idx]) * images[g]).raw
        matrix = Matrix._of_columns(cols, target.dimension)
        return WeilMorphism(source, target, matrix, check=False)

    @staticmethod
    def identity(algebra) -> "WeilMorphism":
        return WeilMorphism(
            algebra, algebra, Matrix.identity(algebra.dimension), check=False
        )

    def apply(self, element: WeilElement) -> WeilElement:
        if element.algebra != self.source:
            raise ValueError("element does not live in the source algebra")
        if element.mode is not Mode.EXACT:
            raise ModeError("morphisms are exact; float element rejected")
        out = self._push(*_over_common_denominator(element.raw))
        return WeilElement._of(self.target, out)

    def compose(self, inner: "WeilMorphism") -> "WeilMorphism":
        """self after inner: each column of inner pushed through self."""
        if inner.target != self.source:
            raise MorphismError("composition endpoints do not match")
        d, cols = inner._int_columns()
        matrix = Matrix._of_columns([self._push(d, col) for col in cols], self.target.dimension)
        return WeilMorphism(inner.source, self.target, matrix, check=False)

    def is_isomorphism(self) -> bool:
        return self.matrix.is_invertible()

    def inverse(self) -> "WeilMorphism":
        try:
            matrix = self.matrix.inverse()
        except ValueError:
            raise MorphismError("morphism is not invertible") from None
        return WeilMorphism(self.target, self.source, matrix, check=False)

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
                j = self.source._index[_gen_exp(self.source, i)]
                col = tuple(row[j] for row in self.matrix.raw)
                imgs.append(f"{g} -> {WeilElement._of(self.target, col)}")
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
        Matrix._of((algebra.aug,), algebra.dimension),
        check=False,
    )


def unit_map(algebra: WeilAlgebra) -> WeilMorphism:
    """The unique map from the scalars."""
    return WeilMorphism(
        terminal(),
        algebra,
        Matrix._of_columns([algebra.one().raw], algebra.dimension),
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
    d1, d2 = w1.dimension, w2.dimension
    if w1.flavor == "presented" and w2.flavor == "presented":
        names2 = _fresh_names(w1.gens, w2.gens)
        n1, n2 = len(w1.gens), len(names2)
        rels = [r + (0,) * n2 for r in w1.relations]
        rels += [(0,) * n1 + r for r in w2.relations]
        w = make_presented(w1.gens + names2, rels)
        pair_of_index = tuple((w1._index[e[:n1]], w2._index[e[n1:]]) for e in w.basis)
    else:
        pair_of_index = tuple((i1, i2) for i1 in range(d1) for i2 in range(d2))
        # pair (k1, k2) sits at k1 * d2 + k2, so terms stay index-increasing
        terms = [
            [
                tuple(
                    (k1 * d2 + k2, c1 * c2)
                    for k1, c1 in w1._terms(i1, j1)
                    for k2, c2 in w2._terms(i2, j2)
                )
                for (j1, j2) in pair_of_index
            ]
            for (i1, i2) in pair_of_index
        ]
        aug = tuple(w1.aug[i1] * w2.aug[i2] for (i1, i2) in pair_of_index)
        w = WeilAlgebra._from_terms(terms, aug, check=False)
    index_of_pair = {p: k for k, p in enumerate(pair_of_index)}
    w.tensor_info = TensorInfo(w1, w2, pair_of_index, index_of_pair)
    picks1 = [index_of_pair[(i1, 0)] for i1 in range(d1)]
    picks2 = [index_of_pair[(0, i2)] for i2 in range(d2)]
    inj1 = WeilMorphism(w1, w, _selection(d1 * d2, picks1), check=False)
    inj2 = WeilMorphism(w2, w, _selection(d1 * d2, picks2), check=False)
    return w, inj1, inj2


def _selection(rows: int, picks) -> Matrix:
    """The exact 0/1 matrix whose column k has its one in row picks[k]."""
    out = [[_ZERO] * len(picks) for _ in range(rows)]
    for k, r in enumerate(picks):
        out[r][k] = _ONE
    return Matrix._of(tuple(map(tuple, out)), len(picks))


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
    (d1, cols1), (d2, cols2) = phi._int_columns(), psi._int_columns()
    cols = []
    for (i1, i2) in si.pair_of_index:
        vec = [_ZERO] * target.dimension
        for k1, a in cols1[i1]:
            for k2, b in cols2[i2]:
                vec[ti.index_of_pair[(k1, k2)]] = Fraction(a * b, d1 * d2)
        cols.append(vec)
    return WeilMorphism(
        source, target, Matrix._of_columns(cols, target.dimension), check=False
    )


# ----- subalgebras, products over the scalars, limits ---------------------


def _subalgebra(w: WeilAlgebra, kernel):
    """Tabled subalgebra on the span of an echelon kernel basis, as
    kernel_basis returns it; the span must contain 1 and be closed.

    Returns (subalgebra, inclusion), on the kernel basis itself.  Each
    vector ends in a 1 at its own free column, where every other vector is
    0, so the coordinates of a vector in the span are its entries at those
    columns, and a vector lies in the span exactly when nothing is left
    after taking that combination away.  Limits and equalizers preserve the
    unit, so column 0 of their equations is zero, column 0 is free and the
    unit comes first.
    """
    if not kernel or kernel[0] != w.one().raw:
        raise AlgebraError("subspace does not contain the unit")
    free = [max(j for j, x in enumerate(v) if x) for v in kernel]
    nonzeros = [[(j, x) for j, x in enumerate(v) if x] for v in kernel]
    elements = [WeilElement._of(w, v) for v in kernel]
    dim = len(elements)
    terms = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            residual = list((elements[i] * elements[j]).raw)
            coords = tuple((k, residual[f]) for k, f in enumerate(free) if residual[f])
            for k, c in coords:
                for col, x in nonzeros[k]:
                    residual[col] -= c * x
            if any(residual):
                raise AlgebraError("subspace is not closed under multiplication")
            terms[i][j] = terms[j][i] = coords
    aug = tuple(e.augmentation() for e in elements)
    sub = WeilAlgebra._from_terms(terms, aug, check=False)
    incl = WeilMorphism(sub, w, Matrix._of_columns(kernel, w.dimension), check=False)
    return sub, incl


def equalizer(phi: WeilMorphism, psi: WeilMorphism):
    """Equalizer of a parallel pair, as a tabled subalgebra with inclusion."""
    if phi.source != psi.source or phi.target != psi.target:
        raise MorphismError("equalizer needs a parallel pair")
    return _subalgebra(phi.source, kernel_basis(phi.matrix - psi.matrix))


class _ProductOverK:
    """Fiber product over the augmentations of several algebras.

    Basis: the joint unit, then the augmentation kernel of each factor in
    order.  Every algebra has aug[0] = 1, so factor a's kernel has the basis
    e_f - aug[f] e_0 (f >= 1), and a kernel vector's coordinates are its
    entries past index 0.  Products, legs and arrow constraints are all read
    off that basis index by index, from each factor's nonzero structure
    terms: coordinate f >= 1 of (e_i - aug[i] e_0)(e_j - aug[j] e_0) is
    c_ij[f] - aug[j] [f = i] - aug[i] [f = j].
    """

    def __init__(self, algebras):
        self.algebras = list(algebras)
        self.offsets = []
        pos = 1
        for w in self.algebras:
            self.offsets.append(pos)
            pos += w.dimension - 1
        d = self.dimension = pos

        terms = [[()] * d for _ in range(d)]
        terms[0] = [((j, _ONE),) for j in range(d)]
        for i in range(1, d):
            terms[i][0] = ((i, _ONE),)
        # cross-factor nilpotents multiply to zero
        for w, off in zip(self.algebras, self.offsets):
            lam = w.aug
            for i in range(1, w.dimension):
                for j in range(i, w.dimension):
                    cij = w._terms(i, j)
                    # the product's augmentation is aug(cij) - aug[i] aug[j]
                    if sum(lam[k] * c for k, c in cij) != lam[i] * lam[j]:
                        raise AlgebraError("augmentation kernel not closed")
                    acc = dict(cij)
                    if lam[j]:
                        acc[i] = acc.get(i, _ZERO) - lam[j]
                    if lam[i]:
                        acc[j] = acc.get(j, _ZERO) - lam[i]
                    p, q = off + i - 1, off + j - 1
                    terms[p][q] = terms[q][p] = tuple(
                        (off + f - 1, a) for f, a in sorted(acc.items()) if f and a
                    )
        self.algebra = WeilAlgebra._from_terms(terms, _unit(d, 0), check=False)

    def _leg(self, a: int, source: WeilAlgebra, rows) -> WeilMorphism:
        """Component a of the map from source whose matrix into the product
        has raw rows `rows`: the rows at the factor's offset, under row 0
        less the aug-weighted sum of them."""
        w, off = self.algebras[a], self.offsets[a]
        picked = rows[off : off + w.dimension - 1]
        top = list(rows[0])
        for lam, row in zip(w.aug[1:], picked):
            if lam:
                for j, x in enumerate(row):
                    if x:
                        top[j] -= lam * x
        matrix = Matrix._of((tuple(top), *picked), source.dimension)
        return WeilMorphism(source, w, matrix, check=False)

    def arrow_constraint(self, s: int, t: int, phi: WeilMorphism) -> Matrix:
        """phi . (leg s) - (leg t) on the product's coordinates, built by index."""
        ws, wt = self.algebras[s], self.algebras[t]
        rows = [[_ZERO] * self.dimension for _ in range(wt.dimension)]
        # column 0 is the joint unit, which phi preserves: it stays zero
        off = self.offsets[s]
        for f in range(1, ws.dimension):
            c = off + f - 1
            for row, m in zip(rows, phi.matrix.raw):
                row[c] += m[f]
            rows[0][c] -= ws.aug[f]
        off = self.offsets[t]
        for g in range(1, wt.dimension):
            c = off + g - 1
            rows[g][c] -= _ONE
            rows[0][c] += wt.aug[g]
        return Matrix._of(tuple(map(tuple, rows)), self.dimension)

    def projections(self):
        rows = Matrix.identity(self.dimension).raw
        return [self._leg(a, self.algebra, rows) for a in range(len(self.algebras))]


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
    constraints = vstack(
        [prod.arrow_constraint(s, t, phi) for s, t, phi in diagram.arrows],
        cols=prod.dimension,
    )
    sub, incl = _subalgebra(prod.algebra, kernel_basis(constraints))
    return sub, [prod._leg(a, sub, incl.matrix.raw) for a in range(len(objects))]


def limit_cone(diagram: DiagramInWeil) -> DiagramInWeil:
    apex, legs = limit(diagram.without_cone())
    return diagram.without_cone().with_cone(apex, legs)


def _rank_one_numbers(cone: DiagramInWeil):
    """(rank of the stacked legs, dimension of the compatible subspace) of a
    cone: the subspace of the direct sum of the objects cut out by the arrow
    equations and by equal augmentations across the objects.

    The stacked legs always land in that subspace, so the containment is
    not computed: DiagramInWeil checks phi . leg_s = leg_t for every arrow,
    which zeroes the arrow rows, and every leg preserves augmentations
    (WeilMorphism checks it on construction), so each gluing row
    aug_i . leg_i - aug_j . leg_j is aug_apex - aug_apex = 0.
    """
    obj_dims = [w.dimension for w in cone.objects]
    total = sum(obj_dims)
    offsets = [sum(obj_dims[:i]) for i in range(len(obj_dims))]
    canonical = vstack([leg.matrix for leg in cone.legs], cols=cone.apex.dimension)

    terms = [(offsets[s], phi.matrix.raw, offsets[t], None) for s, t, phi in cone.arrows]
    # base points must also be identified across the family: that gluing is
    # what the scalar-fibered product encodes, and it is implied by the
    # arrows only when the diagram is connected
    augs = [[w.aug] for w in cone.objects]
    terms += [
        (offsets[i], augs[i], offsets[i + 1], augs[i + 1])
        for i in range(len(cone.objects) - 1)
    ]
    constraints = difference_rows(total, terms)
    return canonical.rank(), total - constraints.rank()


def is_limit_cone(diagram: DiagramInWeil) -> Verdict:
    """Is the given cone a limit cone?  Every leg must be an algebra map; a
    leg built with check=False is the caller's promise of that.

    The computed limit's stacked legs are an injective algebra map onto the
    compatible subspace of _rank_one_numbers, and the cone's stacked legs
    land in that subspace, so the mediating map into the limit always
    exists, is an algebra map, and has the rank of the cone's stacked legs.
    The cone is a limit cone exactly when that map is square of full rank:
    rank = apex dimension = compatible subspace dimension.
    """
    if not diagram.has_cone:
        raise DiagramError("is_limit_cone needs a cone")
    apex_dim = diagram.apex.dimension
    if not diagram.objects:
        return Verdict(apex_dim == 1, f"empty diagram; apex dimension {apex_dim}")
    rank, dim = _rank_one_numbers(diagram)
    return Verdict(
        rank == apex_dim == dim,
        f"mediating matrix {dim}x{apex_dim}, rank {rank}; "
        f"limit dimension {dim}, apex dimension {apex_dim}",
    )


def filtered_basis(w: WeilAlgebra):
    """A basis adapted to powers of the maximal ideal, with degree labels.

    Returns (vectors, degrees): vectors (raw Fractions) [0] is the unit with
    degree 0; a vector of degree g lies in m^g but not m^(g+1).  Presented
    algebras use their monomial basis unchanged.
    """
    if w.flavor == "presented":
        vectors = [_unit(w.dimension, i) for i in range(w.dimension)]
        degrees = [sum(e) for e in w.basis]
        return vectors, degrees
    chain = w._ideal_chain()
    # deepest power first: a vector extends the span of those before it
    # exactly when its column is a pivot
    labelled = [(v, g) for g in range(len(chain), 0, -1) for v in chain[g - 1]]
    _, pivots = Matrix._of_columns([v for v, _ in labelled], w.dimension).rref()
    picked = [labelled[c] for c in reversed(pivots)]
    return [w.one().raw] + [v for v, _ in picked], [0] + [g for _, g in picked]


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
    picks = []
    for t in ix_a:
        shuffled = [0] * len(t)
        for i, v in enumerate(t):
            shuffled[perm[i]] = v
        picks.append(index_b[tuple(shuffled)])
    return WeilMorphism(a, b, _selection(b.dimension, picks), check=False)


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
    lines.append("aug " + " ".join(str(c) for c in w.aug))
    for i in range(w.dimension):
        for j in range(i, w.dimension):
            for k, c in w._terms(i, j):
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
    close = s.find("]")
    if close < 0:
        raise AlgebraError("expected ']' after the generator list")
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
            power = check_literal(power.strip(), AlgebraError)
            try:
                e = int(power)
            except ValueError:
                raise AlgebraError(f"bad exponent in relation {text!r}") from None
        else:
            name, e = factor, 1
        if name not in gens:
            raise AlgebraError(f"unknown generator {name!r} in relation {text!r}")
        if e < 1:
            raise AlgebraError(f"bad exponent in relation {text!r}")
        exps[gens.index(name)] += e
    return tuple(exps)


# fields per line, keyword included; an 'aug' line has one per basis element
_TABLED_FIELDS = {"dim": 2, "unit": 2, "c": 5}


def _tabled_number(convert, field: str, line: str):
    try:
        return convert(field)
    except (ValueError, ZeroDivisionError):
        raise AlgebraError(f"malformed number in tabled line {line!r}") from None


def _parse_tabled(text: str) -> WeilAlgebra:
    dim = None
    aug = None
    entries = []
    for raw in text.strip().splitlines():
        line = check_literal(raw.strip(), AlgebraError)
        if not line:
            continue
        parts = line.split()
        # Fraction reads 1e5000, whose short digit runs pass check_literal
        if parts[0] in ("aug", "c") and "e" in line.lower():
            raise AlgebraError(f"exponent notation is not read in tabled blocks: {line!r}")
        if len(parts) != _TABLED_FIELDS.get(parts[0], len(parts)):
            raise AlgebraError(f"wrong number of fields in tabled line {line!r}")
        if parts[0] == "dim":
            dim = _tabled_number(int, parts[1], line)
        elif parts[0] == "unit":
            if _tabled_number(int, parts[1], line) != 0:
                raise AlgebraError("tabled format requires the unit at index 0")
        elif parts[0] == "aug":
            aug = tuple(_tabled_number(Fraction, p, line) for p in parts[1:])
        elif parts[0] == "c":
            i, j, k = (_tabled_number(int, p, line) for p in parts[1:4])
            entries.append((line, i, j, k, _tabled_number(Fraction, parts[4], line)))
        else:
            raise AlgebraError(f"unrecognized line in tabled block: {raw!r}")
    if dim is None or aug is None:
        raise AlgebraError("tabled block needs 'dim' and 'aug' lines")
    if len(aug) != dim:
        raise AlgebraError("augmentation length does not match dim")
    # a later line for the same product overrides an earlier one
    products = {}
    for line, i, j, k, c in entries:
        if not all(0 <= n < dim for n in (i, j, k)):
            raise AlgebraError(f"index out of range for dim {dim} in line {line!r}")
        products.setdefault((min(i, j), max(i, j)), {})[k] = c
    # _from_terms's unit checks, made before the dim x dim table exists
    if dim and aug[0] != 1:
        raise AlgebraError("augmentation of the unit must be 1")
    for j in range(dim):
        if {k: c for k, c in products.get((0, j), {}).items() if c} != {j: 1}:
            raise AlgebraError("basis element 0 does not act as the unit")
    terms = [[()] * dim for _ in range(dim)]
    for (i, j), vec in products.items():
        terms[i][j] = terms[j][i] = tuple((k, vec[k]) for k in sorted(vec) if vec[k])
    return WeilAlgebra._from_terms(terms, aug, check=True)
