"""Finite-dimensional local algebras over the exact rationals, and their category.

An algebra here is either *presented* (a quotient of a polynomial ring by
monomial relations, with the standard-monomial basis derived at
construction) or *tabled* (an explicit basis with structure constants,
held once, as int numerators of the nonzero terms of each basis product
over one common denominator).  Presented algebras stay cheap at any size
because products of standard monomials are again standard monomials or
zero; tabled algebras are what equalizers, fiber products, and limits
return.

Elements are exact: their coefficients are read through qq, so a float is
a ModeError where an element is built.  An element stores int numerators
over one common denominator, in lowest terms, and its arithmetic (and a
morphism's action on it) runs on those ints; Fractions are made only where
a reader (`raw`, `coeffs`, `augmentation`) hands coefficients out.  Float
evaluation (transcendental jets) runs in smooth, over a float coefficient
ring, and a float element reaching anything here (an operation, or a
morphism as an image or as an element to map) is a ModeError too.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import (
    Matrix,
    ModeError,
    _ONE,
    _ZERO,
    _raw_of,
    _unit,
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


class BudgetError(AlgebraError):
    """Well-formed input whose algebra would exceed the dimension budget."""


class MorphismError(ValueError):
    """A would-be morphism is not unit-preserving / multiplicative / compatible."""


class DiagramError(ValueError):
    """A diagram or cone is malformed, or a mediating map does not exist."""


def _graded_key(exps):
    # total degree first, earlier generators first within a degree
    return (sum(exps), tuple(map(operator.neg, exps)))


def _divides(r, e):
    return all(map(operator.le, r, e))


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

# the largest dimension a presented algebra or a tensor product may have:
# listing a basis, or pairing two, stops past it
DIMENSION_BUDGET = 50_000


def _over_budget(what: str) -> BudgetError:
    return BudgetError(f"{what} has dimension above the dimension budget of {DIMENSION_BUDGET}")


@functools.lru_cache(maxsize=_PRESENTATION_CACHE_SIZE)
def _enumerate_presentation(gens, rels):
    """What a presented algebra derives from its validated generators and
    relations: (relations, basis, index, codes, by_code, labels, aug,
    nilpotency degree, peels).  The result is shared, so it holds only
    tuples and dicts that no caller mutates."""
    # drop relations another relation already divides: in graded order, a
    # divisor comes first, and one that is dropped has a kept divisor itself
    kept = []
    for r in sorted(set(rels), key=_graded_key):
        if not any(_divides(o, r) for o in kept):
            kept.append(r)
    rels = tuple(kept)

    # after the reduction each generator has at most one pure power
    bounds, mixed = [None] * len(gens), []
    for r in rels:
        support = [i for i, a in enumerate(r) if a]
        if len(support) == 1:
            bounds[support[0]] = r[support[0]]
        else:
            mixed.append(r)
    for g, b in zip(gens, bounds):
        if b is None:
            raise NonNilpotentError(
                f"generator {g!r} has no pure power among the relations; "
                "the quotient would be infinite-dimensional"
            )

    # the basis is the relations' staircase, an order ideal: walk exponents in
    # lexicographic order, and carry left at the first divisible monomial,
    # since every multiple of it that keeps the earlier exponents is divisible.
    # Only e[i] has just grown, so of the pure powers only x_i's can divide e
    e = [0] * len(gens)
    basis, i = [tuple(e)], len(e) - 1
    while i >= 0:
        e[i] += 1
        if e[i] >= bounds[i] or any(_divides(r, e) for r in mixed):
            e[i] = 0
            i -= 1
        else:
            basis.append(tuple(e))
            if len(basis) > DIMENSION_BUDGET:
                raise _over_budget("the quotient")
            i = len(e) - 1
    basis.sort(key=_graded_key)
    basis = tuple(basis)
    # mixed-radix monomial codes: exponents of a product of two basis
    # monomials stay below 2*bound - 1, so codes add like exponents
    strides = [1]
    for b in bounds[:-1]:
        strides.append(strides[-1] * (2 * b - 1))
    codes = tuple(sum(map(operator.mul, exps, strides)) for exps in basis)
    index = {e: i for i, e in enumerate(basis)}
    # (degree, g, k, relation or None) for each relation, then each basis
    # monomial past the unit, degree by degree: the monomial is x_g *
    # basis[k], g its first generator.  A divisor of a basis monomial is
    # one, and so is a reduced relation less any of its generators
    peels = []
    for e in sorted(rels + basis[1:], key=sum):
        g = next(i for i, a in enumerate(e) if a)
        k = index[e[:g] + (e[g] - 1,) + e[g + 1 :]]
        peels.append((sum(e), g, k, None if e in index else e))
    return (
        rels,
        basis,
        index,
        codes,
        {c: i for i, c in enumerate(codes)},
        tuple(_monomial_label(e, gens) for e in basis),
        _unit(len(basis), 0),
        max(sum(e) for e in basis) + 1,
        tuple(peels),
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
        "_table",
        "_aug_ints",
        "_peels",
    )

    # ----- construction -------------------------------------------------

    def __init__(self):
        raise TypeError("use make_presented() or WeilAlgebra.tabled()")

    @classmethod
    def _blank(cls):
        self = object.__new__(cls)
        self.tensor_info = None
        self._chain = None
        self._table = None
        self._aug_ints = None
        return self

    @classmethod
    def presented(cls, gens, relations) -> "WeilAlgebra":
        """Q[gens] modulo monomial relations (exponent vectors).

        The input is validated on every call, and every call returns a new
        algebra.  What follows from the presentation alone (the reduced
        relations, the basis, its labels, index and monomial codes, the
        augmentation, the nilpotency degree, and the peels that generator
        images are multiplied along) is enumerated once per process and
        shared by every algebra with that presentation, so none of it is
        ever mutated; `tensor_info` and the cached ideal chain stay per
        object.
        """
        gens = tuple(gens)
        if len(set(gens)) != len(gens):
            raise AlgebraError("generator names repeat")
        for g in gens:
            if not g or not g[0].isalpha() or not g.replace("_", "").isalnum():
                raise AlgebraError(f"bad generator name {g!r}")
        rels = []
        for r in relations:
            r = tuple(map(int, r))
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
            self._peels,
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
        terms = [[_over_common_denominator(enumerate(vec)) for vec in row] for row in table]
        w = cls._from_terms(terms, aug, check, nilpotency_hint)
        if nilpotency_hint is None:
            w._ideal_chain()  # refuses a kernel that is not nilpotent
        return w

    @classmethod
    def _from_terms(cls, terms, aug, check=True, nilpotency_hint=None) -> "WeilAlgebra":
        """A tabled algebra from its structure terms: terms[i][j] is (q,
        pairs), basis[i] * basis[j] having the coefficient n / q (q > 0) at
        each (k, n) of pairs, n a nonzero int and k increasing; aug is a
        tuple of Fractions.  The table is stored here only, once, as ints
        (T, rows): rows[i][j] lists (k, n) for the coefficient n / T, T the
        lcm of the reduced denominators, so equal algebras hold equal ints.
        check=True checks as in tabled(); with check=False nilpotency is the
        caller's to establish, and the nilpotency degree is the hint, or
        else read off the ideal chain on first use."""
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
        t = math.lcm(*[q // math.gcd(q, n) for row in terms for q, vec in row for _, n in vec])
        table = tuple(
            tuple(tuple([(k, n * t // q) for k, n in vec]) for q, vec in row) for row in terms
        )
        self._table = t, table
        self.aug = aug
        self._nilpotency = nilpotency_hint
        self.labels = ("1",) + tuple(f"b{i}" for i in range(1, d))

        if aug[0] != 1:
            raise AlgebraError("augmentation of the unit must be 1")
        for j in range(d):
            if table[0][j] != ((j, t),) or table[j][0] != ((j, t),):
                raise AlgebraError("basis element 0 does not act as the unit")
        if check:
            for i in range(d):
                for j in range(i + 1, d):
                    if table[i][j] != table[j][i]:
                        raise AlgebraError(f"product not commutative at ({i},{j})")
            for i in range(d):
                for j in range(d):
                    if sum(aug[k] * n for k, n in table[i][j]) != aug[i] * aug[j] * t:
                        raise AlgebraError(f"augmentation is not multiplicative at ({i},{j})")
            # with commutativity, symmetry of (e_i e_j) e_k in the last two
            # slots gives full associativity (both sides scaled by T^2)
            for i in range(d):
                for j in range(d):
                    for k in range(j + 1, d):
                        left = _times_basis(table, table[i][j], k)
                        if left != _times_basis(table, table[j][k], i):
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
        m1 = self.maximal_ideal_basis()
        # eliminations hand out exact Fractions, so they skip qq on the way in
        m1_elements = [WeilElement._ints(self, *_canonical(w)) for w in m1]
        chain = []
        current = m1
        while current:
            chain.append(current)
            if len(chain) > d:
                raise NonNilpotentError("augmentation kernel is not nilpotent")
            products = tuple(
                (WeilElement._ints(self, *_canonical(v)) * w).raw
                for v in current
                for w in m1_elements
            )
            rows, pivots = Matrix._of(products, d).rref() if products else ([], [])
            current = rows[: len(pivots)]
            if current and len(current) >= len(chain[-1]) and chain[-1] == current:
                raise NonNilpotentError("augmentation kernel is not nilpotent")
        self._chain = chain
        return chain

    def maximal_ideal_basis(self):
        """Raw Fraction vectors e_f - aug[f] e_0 (f >= 1), the ideal chain's
        first entry: aug[0] = 1, so they are the echelon kernel of the
        augmentation row (a presented algebra's aug is e_0: its unit vectors)."""
        n, aug = self.dimension, self.aug
        return [(-aug[f],) + _unit(n, f)[1:] for f in range(1, n)]

    def _terms(self, i: int, j: int):
        """Nonzero (index, Fraction) pairs of basis[i] * basis[j], index
        increasing; a tabled algebra makes them from its ints on each read."""
        if self.flavor == "presented":
            k = self._by_code.get(self._codes[i] + self._codes[j])
            return () if k is None else ((k, _ONE),)
        t, rows = self._table
        return tuple([(k, Fraction(n, t)) for k, n in rows[i][j]])

    def _int_aug(self):
        """(D, [(k, n), ...]): aug[k] == n / D at each nonzero k (cached)."""
        if self._aug_ints is None:
            self._aug_ints = _over_common_denominator(enumerate(self.aug))
        return self._aug_ints

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

    def zero(self) -> "WeilElement":
        return WeilElement._ints(self, 1, (0,) * self.dimension)

    def one(self) -> "WeilElement":
        return self.basis_element(0)

    def scalar(self, value) -> "WeilElement":
        p, q = qq(value).as_integer_ratio()
        return WeilElement._ints(self, q, (p,) + (0,) * (self.dimension - 1))

    def basis_element(self, i: int) -> "WeilElement":
        nums = [0] * self.dimension
        nums[i] = 1
        return WeilElement._ints(self, 1, tuple(nums))

    # ----- identity -----------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, WeilAlgebra):
            return NotImplemented
        if self.flavor != other.flavor:
            return False
        if self.flavor == "presented":
            return self.gens == other.gens and self.relations == other.relations
        return (
            self.dimension == other.dimension
            and self.aug == other.aug
            and self._table == other._table
        )

    def __hash__(self):
        if self.flavor == "presented":
            return hash((self.flavor, self.gens, self.relations))
        return hash((self.flavor, self.dimension, self.aug, self._table))

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
    """An exact element of a fixed Weil algebra: its coefficient vector over
    the basis, stored as int numerators `nums` over one positive int
    denominator `den`.  The pair is canonical (den is the lcm of the reduced
    denominators, so gcd(den, *nums) == 1), and equal elements store equal
    ints.  The readers `raw` and `coeffs` make the coefficients as a
    Fraction tuple on each read.  A float coefficient, scalar or operand is
    a ModeError.

    Arithmetic runs on the ints and ends in one gcd reduction per result: a
    sum brings both operands over the lcm of their denominators, and a
    product skips zero numerators, adding int products at monomial codes
    (presented) or along int structure terms (tabled)."""

    __slots__ = ("algebra", "den", "nums")

    @classmethod
    def _ints(cls, algebra, den, nums) -> "WeilElement":
        """Element with coefficients nums[i] / den, a canonical pair."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.den = den
        self.nums = nums
        return self

    @classmethod
    def _reduced(cls, algebra, den, nums) -> "WeilElement":
        """Element with coefficients nums[i] / den (den > 0), made canonical."""
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
        return cls._ints(algebra, den, tuple(nums))

    @classmethod
    def _of(cls, algebra, raw) -> "WeilElement":
        """Element around exact coefficients a caller already holds (another
        element's, or elimination output): read through qq, so a float is a
        ModeError, with no check of their count against the basis."""
        return cls._ints(algebra, *_canonical(tuple(map(qq, raw))))

    def __init__(self, algebra: WeilAlgebra, coeffs):
        raw = tuple(map(qq, coeffs))
        if len(raw) != algebra.dimension:
            raise ValueError("coefficient count does not match the basis")
        self.algebra = algebra
        self.den, self.nums = _canonical(raw)

    @property
    def raw(self):
        return tuple([Fraction(n, self.den) if n else _ZERO for n in self.nums])

    coeffs = raw

    def _check_peer(self, other):
        if not isinstance(other, WeilElement):
            # float elements (over smooth's float ring) are refused by type
            raise ModeError("expected an exact WeilElement")
        if other.algebra != self.algebra:
            raise ValueError("elements live in different algebras")

    def _combined(self, other, sign: int) -> "WeilElement":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_peer(other)
        da, db = self.den, other.den
        d = da if da == db else math.lcm(da, db)
        ma, mb = d // da, sign * (d // db)
        return WeilElement._reduced(
            self.algebra, d, [a * ma + b * mb for a, b in zip(self.nums, other.nums)]
        )

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __neg__(self):
        return WeilElement._ints(self.algebra, self.den, tuple([-n for n in self.nums]))

    def scaled(self, c) -> "WeilElement":
        p, q = qq(c).as_integer_ratio()
        return WeilElement._reduced(self.algebra, self.den * q, [p * n for n in self.nums])

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scaled(other)
        self._check_peer(other)
        alg = self.algebra
        acc = [0] * alg.dimension
        nz_b = [(j, b) for j, b in enumerate(other.nums) if b]
        d = self.den * other.den
        if alg.flavor == "presented":
            codes, get = alg._codes, alg._by_code.get
            nz_b = [(codes[j], b) for j, b in nz_b]
            for i, a in enumerate(self.nums):
                if a:
                    ci = codes[i]
                    for cj, b in nz_b:
                        k = get(ci + cj)
                        if k is not None:
                            acc[k] += a * b
        else:
            t, table = alg._table
            d *= t
            for i, a in enumerate(self.nums):
                if a:
                    row = table[i]
                    for j, b in nz_b:
                        ab = a * b
                        for k, c in row[j]:
                            acc[k] += ab * c
        return WeilElement._reduced(alg, d, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("element exponents must be int")
        if n < 0:
            return self.invert() ** (-n)
        return _power(self, n, operator.mul, self.like(1))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = qq(other)  # an int first becomes a Fraction: int / int is a float
            if not c:
                raise ZeroDivisionError("scalar division by zero")
            return self.scaled(1 / c)
        self._check_peer(other)
        return self * other.invert()

    def invert(self) -> "WeilElement":
        return geometric_invert(self)

    def augmentation(self):
        d, lam = self.algebra._int_aug()
        nums = self.nums
        return Fraction(sum([m * nums[k] for k, m in lam]), d * self.den)

    # protocol name the generic evaluator uses
    scalar_part = augmentation

    def like(self, value) -> "WeilElement":
        """Embed a constant into the same algebra."""
        return self.algebra.scalar(value)

    def nilpotency_bound(self) -> int:
        return self.algebra.nilpotency_degree

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        return (
            self.algebra == other.algebra and self.den == other.den and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def __str__(self):
        parts = []
        for c, label in zip(self.coeffs, self.algebra.labels):
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


def _times_basis(terms, vec, k):
    """{index: nonzero coefficient} of v * basis[k], v given by its terms vec."""
    acc = {}
    for m, c in vec:
        for n, x in terms[m][k]:
            acc[n] = acc.get(n, 0) + c * x
    return {n: v for n, v in acc.items() if v}


def _over_common_denominator(pairs):
    """(D, [(i, n), ...]) with a == n / D for each (i, a) of pairs whose
    Fraction a is nonzero, where D is the lcm of their denominators (1 if
    there are none)."""
    nz = [(i, a.as_integer_ratio()) for i, a in pairs if a]
    d = math.lcm(*[q for _, (_, q) in nz])
    return d, [(i, p * (d // q)) for i, (p, q) in nz]


def _canonical(raw):
    """(den, nums) of a Fraction tuple: raw[i] == nums[i] / den, den the lcm
    of the reduced denominators, so gcd(den, *nums) == 1."""
    d, nz = _over_common_denominator(enumerate(raw))
    nums = [0] * len(raw)
    for i, n in nz:
        nums[i] = n
    return d, tuple(nums)


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
    """A unit-preserving algebra map, held as its sparse int columns.

    The state is (D, columns): column j lists (i, n) with matrix[i][j] ==
    n / D for each nonzero entry on the bases, i increasing, where D is the
    lcm of the reduced denominators, so gcd(D, *every n) == 1 and equal maps
    hold equal ints.  Construction, apply, compose, == and hash run on the
    ints: an image sums int products over the element's numerators.  The
    Fraction `matrix` is made on its first read and kept.  Morphisms act on
    exact elements only; a float element is a ModeError."""

    __slots__ = ("source", "target", "_columns", "_matrix")

    def __init__(self, source, target, matrix, check=True):
        if matrix.shape != (target.dimension, source.dimension):
            raise MorphismError("matrix shape does not match source/target")
        width = source.dimension
        d, nz = _over_common_denominator(enumerate([m for row in matrix.raw for m in row]))
        cols = [[] for _ in range(width)]
        for k, n in nz:
            cols[k % width].append((k // width, n))
        self._start(source, target, d, cols, check, matrix)

    @classmethod
    def _reduced(cls, source, target, d, cols, check=False) -> "WeilMorphism":
        """The morphism whose column j has the entries n / d, (i, n) in
        cols[j] with n nonzero and i increasing, made canonical."""
        g = math.gcd(d, *[n for col in cols for _, n in col])
        if g != 1:
            d //= g
            cols = [[(i, n // g) for i, n in col] for col in cols]
        self = object.__new__(cls)
        self._start(source, target, d, cols, check)
        return self

    def _start(self, source, target, d, cols, check, matrix=None):
        self.source, self.target, self._matrix = source, target, matrix
        self._columns = d, tuple(map(tuple, cols))
        self._validate_cheap()
        if check:
            self._validate_multiplicative()

    @property
    def matrix(self) -> Matrix:
        """The Fraction matrix on the bases, made on first read and kept."""
        if self._matrix is None:
            d, cols = self._columns
            rows = [[_ZERO] * len(cols) for _ in range(self.target.dimension)]
            for j, col in enumerate(cols):
                for i, n in col:
                    rows[i][j] = Fraction(n, d)
            self._matrix = Matrix._of(tuple(map(tuple, rows)), len(cols))
        return self._matrix

    # unit preservation and augmentation compatibility run always, on the
    # int columns: column 0 is e_0, and aug_target . M == aug_source
    def _validate_cheap(self):
        d, cols = self._columns
        if cols[0] != ((0, d),):
            raise MorphismError("morphism does not preserve the unit")
        dt, lam = self.target._int_aug()
        ds, mu = self.source._int_aug()
        lam = dict(lam)
        expected = [0] * len(cols)
        for j, n in mu:
            expected[j] = n * dt * d
        for col, e in zip(cols, expected):
            if ds * sum([lam[i] * m for i, m in col if i in lam]) != e:
                raise MorphismError("morphism is not augmentation-compatible")

    def _validate_multiplicative(self):
        # the image of basis[i] * basis[j] is pushed from its int structure
        # terms; pairs with the unit hold once _validate_cheap has passed
        src = self.source
        images = [self.apply(src.basis_element(i)) for i in range(src.dimension)]
        t, table = (1, None) if src.flavor == "presented" else src._table
        for i in range(1, src.dimension):
            for j in range(i, src.dimension):
                terms = [(k, 1) for k, _ in src._terms(i, j)] if table is None else table[i][j]
                if WeilElement._reduced(self.target, *self._push(t, terms)) != images[i] * images[j]:
                    raise MorphismError(
                        f"morphism not multiplicative on basis pair ({i},{j})"
                    )

    def _push(self, d, nz):
        """(D, nums), not reduced: the image of the vector whose nonzero
        entries are n / d, (j, n) in nz, is nums[i] / D."""
        dm, cols = self._columns
        acc = [0] * self.target.dimension
        for j, n in nz:
            for i, m in cols[j]:
                acc[i] += m * n
        return d * dm, acc

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
        lam = target._int_aug()[1]
        for g, img in zip(source.gens, images):
            if getattr(img, "algebra", None) != target:
                raise MorphismError(f"image of {g!r} is not an element of the target")
            if not isinstance(img, WeilElement):
                raise ModeError("morphisms are exact; float image rejected")
            if check and sum([m * img.nums[k] for k, m in lam]):
                raise MorphismError(f"image of {g!r} has nonzero augmentation")
        # each relation's and each basis monomial's image, degree by degree,
        # is its first generator's image times the column of the basis
        # monomial it leaves: one product per relation, as soon as the columns
        # below its degree exist.  Checked images lie in the maximal ideal, so
        # from a presented target's nilpotency degree on every image is 0 (a
        # tabled target's degree may be an unchecked hint, so no cut there)
        presented = check and target.flavor == "presented"
        top = target._nilpotency if presented else math.inf
        cols = [target.one()]
        for degree, g, k, rel in source._peels:
            if degree >= top:
                break
            if rel is None:
                cols.append(images[g] if k == 0 else cols[k] * images[g])
            elif check and not (images[g] if k == 0 else cols[k] * images[g]).is_zero:
                label = _monomial_label(rel, source.gens)
                raise MorphismError(f"images violate the relation {label}")
        cols += [target.zero()] * (source.dimension - len(cols))
        d = math.lcm(*[c.den for c in cols])
        ints = [[(i, n * (d // c.den)) for i, n in enumerate(c.nums) if n] for c in cols]
        return WeilMorphism._reduced(source, target, d, ints)

    @staticmethod
    def identity(algebra) -> "WeilMorphism":
        units = [((j, 1),) for j in range(algebra.dimension)]
        return WeilMorphism._reduced(algebra, algebra, 1, units)

    def apply(self, element: WeilElement) -> WeilElement:
        if element.algebra != self.source:
            raise ValueError("element does not live in the source algebra")
        if not isinstance(element, WeilElement):
            raise ModeError("morphisms are exact; float element rejected")
        nz = [(j, n) for j, n in enumerate(element.nums) if n]
        return WeilElement._reduced(self.target, *self._push(element.den, nz))

    def compose(self, inner: "WeilMorphism") -> "WeilMorphism":
        """self after inner: each column of inner pushed through self."""
        if inner.target != self.source:
            raise MorphismError("composition endpoints do not match")
        d, cols = inner._columns
        pushed = [self._push(d, col)[1] for col in cols]
        cols = [[(i, n) for i, n in enumerate(acc) if n] for acc in pushed]
        return WeilMorphism._reduced(inner.source, self.target, d * self._columns[0], cols)

    def is_isomorphism(self) -> bool:
        return self.matrix.is_invertible()

    def __eq__(self, other):
        if not isinstance(other, WeilMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._columns == other._columns
        )

    def __hash__(self):
        return hash((self.source, self.target, self._columns))

    def describe(self) -> str:
        src = self.source
        if src.flavor == "presented" and src.gens:
            gens = zip(src.gens, generator_elements(src))
            return "; ".join(f"{g} -> {self.apply(x)}" for g, x in gens)
        return f"matrix {self.target.dimension}x{src.dimension}"

    def __repr__(self):
        return f"WeilMorphism({self.describe()})"


def _gen_exp(algebra, i):
    e = [0] * len(algebra.gens)
    e[i] = 1
    return tuple(e)


def generator_elements(w: WeilAlgebra):
    """The generators of a presented algebra as elements, declaration order;
    a generator killed at first order (not in the basis) is zero."""
    if w.flavor != "presented":
        raise AlgebraError("only presented algebras have named generators")
    index = (w._index.get(_gen_exp(w, i)) for i in range(len(w.gens)))
    return tuple(w.zero() if k is None else w.basis_element(k) for k in index)


def augmentation(algebra: WeilAlgebra) -> WeilMorphism:
    """The unique map onto the scalars."""
    d, lam = algebra._int_aug()
    cols = [()] * algebra.dimension
    for k, n in lam:
        cols[k] = ((0, n),)
    return WeilMorphism._reduced(algebra, terminal(), d, cols)


def unit_map(algebra: WeilAlgebra) -> WeilMorphism:
    """The unique map from the scalars."""
    return WeilMorphism._reduced(terminal(), algebra, 1, [((0, 1),)])


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
    if d1 * d2 > DIMENSION_BUDGET:
        raise _over_budget("the tensor product")
    if w1.flavor == "presented" and w2.flavor == "presented":
        names2 = _fresh_names(w1.gens, w2.gens)
        n1, n2 = len(w1.gens), len(names2)
        rels = [r + (0,) * n2 for r in w1.relations]
        rels += [(0,) * n1 + r for r in w2.relations]
        w = make_presented(w1.gens + names2, rels)
        pair_of_index = tuple((w1._index[e[:n1]], w2._index[e[n1:]]) for e in w.basis)
    else:
        pair_of_index = tuple((i1, i2) for i1 in range(d1) for i2 in range(d2))
        # each factor's int terms, a presented one's read off its monomial
        # codes; pair (k1, k2) sits at k1 * d2 + k2, so terms stay index-increasing
        (t1, s1), (t2, s2) = (
            w._table or (1, [[[(k, 1) for k, _ in w._terms(i, j)] for j in n] for i in n])
            for w, n in ((w1, range(d1)), (w2, range(d2)))
        )
        terms = [
            [
                (t1 * t2, [(k1 * d2 + k2, a * b) for k1, a in s1[i1][j1] for k2, b in s2[i2][j2]])
                for (j1, j2) in pair_of_index
            ]
            for (i1, i2) in pair_of_index
        ]
        aug = tuple(w1.aug[i1] * w2.aug[i2] for (i1, i2) in pair_of_index)
        w = WeilAlgebra._from_terms(terms, aug, check=False)
    index_of_pair = {p: k for k, p in enumerate(pair_of_index)}
    w.tensor_info = TensorInfo(w1, w2, pair_of_index, index_of_pair)
    inj1 = WeilMorphism._reduced(w1, w, 1, [((index_of_pair[(i, 0)], 1),) for i in range(d1)])
    inj2 = WeilMorphism._reduced(w2, w, 1, [((index_of_pair[(0, i)], 1),) for i in range(d2)])
    return w, inj1, inj2


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
    (d1, cols1), (d2, cols2) = phi._columns, psi._columns
    cols = [
        sorted((ti.index_of_pair[(k1, k2)], a * b) for k1, a in cols1[i1] for k2, b in cols2[i2])
        for (i1, i2) in si.pair_of_index
    ]
    return WeilMorphism._reduced(source, target, d1 * d2, cols)


# ----- subalgebras, products over the scalars, limits ---------------------


def _subalgebra(kernel, aug, multiply):
    """Tabled subalgebra on the span of an echelon kernel basis, as
    kernel_basis returns it, and the inclusion's int columns (common, cols).
    The span must contain 1 and be closed under multiply, which takes two
    (den, nums) int vectors to their product as one; aug is the ambient's
    _int_aug.  Each vector ends in a 1 at its own free column, where every
    other vector is 0, so the coordinates of a vector in the span are its
    entries at those columns, and a vector lies in the span exactly when
    nothing is left after taking that combination away.  Limits and
    equalizers preserve the unit, so column 0 of their equations is zero,
    column 0 is free and the unit comes first.
    """
    if not kernel or kernel[0] != _unit(len(kernel[0]), 0):
        raise AlgebraError("subspace does not contain the unit")
    free = [max(j for j, x in enumerate(v) if x) for v in kernel]
    vectors = [_canonical(v) for v in kernel]
    # the kernel vectors' numerators over their common denominator
    common = math.lcm(*[den for den, _ in vectors])
    nonzeros = [[(j, n * (common // e)) for j, n in enumerate(nums) if n] for e, nums in vectors]
    dim = len(vectors)
    terms = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            # the product less the combination of its free entries, times den * common
            den, nums = multiply(vectors[i], vectors[j])
            residual = [n * common for n in nums]
            coords = [(k, nums[f]) for k, f in enumerate(free) if nums[f]]
            for k, c in coords:
                for col, x in nonzeros[k]:
                    residual[col] -= c * x
            if any(residual):
                raise AlgebraError("subspace is not closed under multiplication")
            terms[i][j] = terms[j][i] = den, coords
    d, lam = aug
    aug = tuple(Fraction(sum([m * nums[k] for k, m in lam]), d * den) for den, nums in vectors)
    return WeilAlgebra._from_terms(terms, aug, check=False), (common, nonzeros)


def equalizer(phi: WeilMorphism, psi: WeilMorphism):
    """Equalizer of a parallel pair, as a tabled subalgebra with inclusion."""
    if phi.source != psi.source or phi.target != psi.target:
        raise MorphismError("equalizer needs a parallel pair")
    w = phi.source

    def times(x, y):
        p = WeilElement._ints(w, *x) * WeilElement._ints(w, *y)
        return p.den, p.nums

    # phi - psi on each basis vector, from the two maps' int columns
    pushed = [(phi._push(1, [(j, 1)]), psi._push(1, [(j, 1)])) for j in range(w.dimension)]
    diff = [[Fraction(x * e - y * d, d * e) for x, y in zip(a, b)] for (d, a), (e, b) in pushed]
    diff = Matrix._of_columns(diff, phi.target.dimension)
    sub, (d, cols) = _subalgebra(kernel_basis(diff), w._int_aug(), times)
    return sub, WeilMorphism._reduced(sub, w, d, cols)


def _kernel_block(w: WeilAlgebra, off: int):
    """(T, rows) of w's block at offset off of a product: rows[i - 1][j - 1]
    lists (off + f - 1, n) for each nonzero coordinate n / T, f >= 1, of
    (e_i - aug[i] e_0)(e_j - aug[j] e_0)."""
    if w.flavor == "presented":  # aug is e_0; a product of monomials is one, or 0
        codes, get = w._codes[1:], w._by_code.get
        rows = [[get(a + b) for b in codes] for a in codes]
        return 1, [[() if k is None else ((k + off - 1, 1),) for k in row] for row in rows]
    (t, table), (da, lam) = w._table, _canonical(w.aug)
    rows = [[None] * (w.dimension - 1) for _ in range(w.dimension - 1)]
    for i in range(1, w.dimension):
        for j in range(i, w.dimension):
            cij = table[i][j]
            # the product's augmentation is aug(cij) - aug[i] aug[j]
            if da * sum([lam[k] * c for k, c in cij]) != t * lam[i] * lam[j]:
                raise AlgebraError("augmentation kernel not closed")
            acc = {k: c * da for k, c in cij}
            acc[i] = acc.get(i, 0) - lam[j] * t
            acc[j] = acc.get(j, 0) - lam[i] * t
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = tuple(
                (off + f - 1, c) for f, c in sorted(acc.items()) if f and c
            )
    return t * da, rows


class _ProductOverK:
    """Fiber product over the augmentations of several algebras.

    Basis: the joint unit, then the augmentation kernel of each factor in
    order.  Every algebra has aug[0] = 1, so factor a's kernel has the basis
    e_f - aug[f] e_0 (f >= 1), and a kernel vector's coordinates are its
    entries past index 0.  Each factor keeps one int block (_kernel_block)
    read off its nonzero structure terms: coordinate f >= 1 of (e_i - aug[i]
    e_0)(e_j - aug[j] e_0) is c_ij[f] - aug[j] [f = i] - aug[i] [f = j].
    Nilpotents of different factors multiply to zero, so products go block
    by block; _subalgebra tables only the limit, which for the discrete
    diagram of product_over_k is the whole product.
    """

    def __init__(self, algebras):
        self.algebras = list(algebras)
        self.offsets, self.blocks = [], []
        pos = 1
        for w in self.algebras:
            self.offsets.append(pos)
            self.blocks.append((pos, pos + w.dimension - 1, *_kernel_block(w, pos)))
            pos += w.dimension - 1
        self.dimension = pos
        self.t = math.lcm(*[bt for _, _, bt, _ in self.blocks])

    def multiply(self, x, y):
        """The product of two (den, nums) int vectors, over den_x den_y t: the
        unit part, the two unit cross terms, and each factor's own block."""
        (dx, a), (dy, b) = x, y
        t, a0, b0 = self.t, a[0], b[0]
        acc = [t * (a0 * q + b0 * p) for p, q in zip(a, b)]
        acc[0] = t * a0 * b0
        for start, stop, bt, rows in self.blocks:
            nz_b = [(j, q * (t // bt)) for j, q in enumerate(b[start:stop]) if q]
            for p, row in zip(a[start:stop], rows):
                if p:
                    for j, q in nz_b:
                        for k, c in row[j]:
                            acc[k] += p * q * c
        return dx * dy * t, acc

    def _leg(self, a: int, source: WeilAlgebra, columns) -> WeilMorphism:
        """Component a of the map from source whose int columns into the
        product are `columns`: the entries at the factor's offset, under
        entry 0 less the aug-weighted sum of them."""
        w, off = self.algebras[a], self.offsets[a]
        (t, lam), (d, cols) = w._int_aug(), columns
        lam = dict(lam)
        out = []
        for col in cols:
            top, picked = 0, []
            for i, n in col:
                if i == 0:
                    top += n * t
                elif off <= i < off + w.dimension - 1:
                    f = i - off + 1
                    top -= lam.get(f, 0) * n
                    picked.append((f, n * t))
            out.append([(0, top)] + picked if top else picked)
        return WeilMorphism._reduced(source, w, d * t, out)

    def constraints(self, arrows) -> Matrix:
        """Rows 1, 2, ... of phi . (leg s) - (leg t) for each arrow (s, t, phi),
        stacked, from phi's int columns.  Row 0 adds nothing to the span: phi
        preserves augmentations, so the aug-weighted sum of the rows is 0."""
        raw = []
        for s, t, phi in arrows:
            d, cols = phi._columns
            rows = [[0] * self.dimension for _ in range(phi.target.dimension)]
            # column 0 is the joint unit, which phi preserves: it stays zero
            off = self.offsets[s] - 1
            for f in range(1, phi.source.dimension):
                for g, n in cols[f]:
                    rows[g][off + f] += n
            off = self.offsets[t] - 1
            for g in range(1, phi.target.dimension):
                rows[g][off + g] -= d
            raw += [tuple([Fraction(n, d) if n else _ZERO for n in row]) for row in rows[1:]]
        return Matrix._of(tuple(raw), self.dimension)


def product_over_k(w1: WeilAlgebra, w2: WeilAlgebra):
    """Categorical product: pairs agreeing under augmentation, componentwise
    ops, the limit of the discrete diagram on w1 and w2.

    Dimension is dim(w1) + dim(w2) - 1.  Returns (P, proj1, proj2).
    """
    p, (p1, p2) = limit(DiagramInWeil((w1, w2), ()))
    return p, p1, p2


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
    kernel = kernel_basis(prod.constraints(diagram.arrows))
    sub, incl = _subalgebra(kernel, (1, [(0, 1)]), prod.multiply)
    return sub, [prod._leg(a, sub, incl) for a in range(len(objects))]


def limit_cone(diagram: DiagramInWeil) -> DiagramInWeil:
    apex, legs = limit(diagram.without_cone())
    return diagram.without_cone().with_cone(apex, legs)


def _rank_one_numbers(cone: DiagramInWeil):
    """(rank of the stacked legs, dimension of the compatible subspace) of a
    cone: the families in the product over the scalars that satisfy the
    arrow equations limit eliminates, so the limit's dimension.

    The stacked legs land in that subspace, so the containment is not
    computed: every leg preserves augmentations (WeilMorphism checks it),
    and DiagramInWeil checks phi . leg_s = leg_t for every arrow.
    """
    if not cone.objects:  # the product of no objects still has its unit coordinate
        return 0, 0
    prod = _ProductOverK(cone.objects)
    legs = vstack([leg.matrix for leg in cone.legs], cols=cone.apex.dimension)
    return legs.rank(), prod.dimension - prod.constraints(cone.arrows).rank()


def _limit_verdict(cone: DiagramInWeil, rank: int, dim: int) -> Verdict:
    """is_limit_cone's verdict on a cone from its _rank_one_numbers."""
    apex_dim = cone.apex.dimension
    if not cone.objects:
        return Verdict(apex_dim == 1, f"empty diagram; apex dimension {apex_dim}")
    return Verdict(
        rank == apex_dim == dim,
        f"mediating matrix {dim}x{apex_dim}, rank {rank}; "
        f"limit dimension {dim}, apex dimension {apex_dim}",
    )


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
    return _limit_verdict(diagram, *_rank_one_numbers(diagram))


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
    _, pivots = Matrix._of_columns([v for v, _ in labelled], w.dimension)._echelon()
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
    return WeilMorphism._reduced(a, b, 1, [((k, 1),) for k in picks])


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
    t, rows = w._table
    for i in range(w.dimension):
        for j in range(i, w.dimension):
            for k, n in rows[i][j]:  # the text of str(Fraction(n, t))
                g = math.gcd(n, t)
                lines.append(f"c {i} {j} {k} {n // g}" + ("" if g == t else f"/{t // g}"))
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
    terms = [[(1, ())] * dim for _ in range(dim)]
    for (i, j), vec in products.items():
        terms[i][j] = terms[j][i] = _over_common_denominator(sorted(vec.items()))
    return WeilAlgebra._from_terms(terms, aug, check=True)
