"""Applying a Weil functor to a smooth map: exact higher-order forward AD.

A point of the lifted space R^n ^ W is n coordinates, each an element of W.
Evaluating a map body on such coordinates truncates its Taylor expansion at
the nilpotency degree of W: polynomial operations are literal, division is
a finite geometric series (the denominator needs an invertible scalar
part), and transcendental calls sum the classical series against the
nilpotent part, which only makes sense in float mode.

lift_eval runs expr.fold over a thin ring of elements, with the rules
plain numbers and polynomials obey, for two element types: plain algebra
elements, and elements of W whose coefficients lie in another commutative
ring, given as a small value object.  With coefficients in a second Weil
algebra such an element is one functor applied after another; with exact
polynomials in the input coordinates (expr.PolyCoefficients) it
materializes the lifted map as a new SmoothMap.  The inverse is one
geometric series for both, shared with plain elements.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .exactlin import Mode, ModeError, _RAW, qq
from .expr import (
    EvaluationError,
    Expr,
    NonPolynomialError,
    PolyCoefficients,
    SmoothMap,
    fold,
    poly_to_expr,
    poly_var,
)
from .reports import Verdict
from .weil import (
    WeilAlgebra,
    WeilElement,
    WeilMorphism,
    geometric_invert,
    jet_line,
    make_presented,
    terminal,
)


# ----- points --------------------------------------------------------------


@dataclass(frozen=True)
class WeilPoint:
    """A tuple of coordinates in one algebra: a point of R^n ^ W."""

    algebra: WeilAlgebra
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        for c in self.coords:
            if not isinstance(c, WeilElement) or c.algebra != self.algebra:
                raise ValueError("coordinates must all live in the stated algebra")
        modes = {c.mode for c in self.coords}
        if len(modes) > 1:
            raise ModeError("point coordinates mix exact and float modes")

    @staticmethod
    def from_scalars(algebra: WeilAlgebra, values, mode: Mode = Mode.EXACT):
        """Embed ordinary numbers along the unit (zero nilpotent part)."""
        coords = []
        for v in values:
            if mode is Mode.FLOAT:
                coords.append(algebra.scalar(float(v)))
            else:
                coords.append(algebra.scalar(qq(v)))
        return WeilPoint(algebra, coords)

    @property
    def mode(self) -> Mode:
        return self.coords[0].mode if self.coords else Mode.EXACT

    @property
    def arity(self) -> int:
        return len(self.coords)

    def base(self):
        """The underlying ordinary point: all augmentations."""
        return tuple(c.augmentation() for c in self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def embed_base(point: WeilPoint, algebra: WeilAlgebra) -> WeilPoint:
    """Re-embed the underlying ordinary point into a (possibly different) algebra."""
    return WeilPoint.from_scalars(algebra, point.base(), point.mode)


def apply_morphism(phi: WeilMorphism, point: WeilPoint) -> WeilPoint:
    """Coordinatewise action of an algebra map: the reparametrization R^n ^ phi."""
    if point.algebra != phi.source:
        raise ValueError("point does not live over the morphism's source")
    return WeilPoint(phi.target, [phi.apply(c) for c in point.coords])


# ----- evaluation on elements -------------------------------------------------


def _series_coefficients(op: str, a: float, count: int):
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


def _taylor_call(op: str, x, where: str):
    if getattr(x, "symbolic", False):
        raise NonPolynomialError(f"{op}() cannot appear in a symbolic lift: {where}")
    s = x.scalar_part()
    if not isinstance(s, float):
        raise ModeError(
            f"{op}() has no exact rational value; evaluate in float mode ({where})"
        )
    try:
        coeffs = _series_coefficients(op, s, x.nilpotency_bound())
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


class _ElementRing:
    """Elements of one algebra, plain or over a coefficient ring, as a ring
    for expr.fold; template fixes the algebra, the mode and the ring."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    invert = staticmethod(geometric_invert)
    call = staticmethod(_taylor_call)

    def __init__(self, template):
        self.const = template.like
        self.symbolic = getattr(template, "symbolic", False)

    def exact_scalar(self, x):
        s = None if self.symbolic else x.scalar_part()
        return None if isinstance(s, float) else s


def lift_eval(expr: Expr, values, template=None, var_names=None):
    """Evaluate an expression on ring elements (truncated Taylor semantics).

    values[i] feeds variable i; template supplies the ring when there are
    no variables at all.  Any element type with +, -, *, scaled(), like(),
    scalar_part() and nilpotency_bound() works.
    """
    ring = _ElementRing(values[0] if template is None else template)
    return fold(expr, ring, values, var_names)


def apply_map(f: SmoothMap, point: WeilPoint) -> WeilPoint:
    """The lifted map on points: each body evaluated on the coordinates."""
    if f.arity_in != point.arity:
        raise ValueError(
            f"map takes {f.arity_in} inputs, point has {point.arity} coordinates"
        )
    template = point.algebra.one(point.mode)
    out = [
        lift_eval(b, list(point.coords), template=template, var_names=f.var_names)
        for b in f.bodies
    ]
    return WeilPoint(point.algebra, out)


def evaluate_at_scalars(f: SmoothMap, values):
    """Ordinary evaluation, as the lift over the one-dimensional algebra."""
    point = WeilPoint.from_scalars(terminal(), values)
    return [c.coeffs[0] for c in apply_map(f, point).coords]


# ----- elements over a coefficient ring ----------------------------------------


@dataclass(frozen=True)
class WeilCoefficients:
    """Coefficients that are elements of a Weil algebra, all in one mode."""

    algebra: WeilAlgebra
    mode: Mode
    symbolic = False

    @property
    def depth(self) -> int:
        """Nilpotency degree of the coefficients' own nilpotents."""
        return self.algebra.nilpotency_degree

    def zero(self):
        return self.algebra.zero(self.mode)

    def const(self, value):
        return self.zero().like(value)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)

    def scale(self, a, q):
        return a.scaled(float(q) if self.mode is Mode.FLOAT else q)

    def is_zero(self, a) -> bool:
        return a.is_zero

    def scalar(self, a):
        return a.augmentation()


class ExtendedElement:
    """An element of W with coefficients in a commutative ring: one ring
    element per basis vector of W.

    Products convolve along W's structure constants while the coefficient
    products happen in the ring.  With Weil-algebra coefficients this is an
    element of (R ^ W_inner) ^ W, one functor applied after the other, kept
    apart from collapsing to the tensor algebra first; with polynomial
    coefficients it is the lifted map in symbolic form.
    """

    __slots__ = ("ring", "algebra", "coeffs")

    def __init__(self, ring, algebra: WeilAlgebra, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != algebra.dimension:
            raise ValueError("one coefficient per basis vector")
        self.ring = ring
        self.algebra = algebra
        self.coeffs = coeffs

    @staticmethod
    def constant(ring, algebra: WeilAlgebra, value) -> "ExtendedElement":
        zero = ring.zero()
        return ExtendedElement(
            ring, algebra, [ring.const(value)] + [zero] * (algebra.dimension - 1)
        )

    @property
    def symbolic(self) -> bool:
        return self.ring.symbolic

    def _peer(self, other):
        if (
            not isinstance(other, ExtendedElement)
            or other.ring != self.ring
            or other.algebra != self.algebra
        ):
            raise ValueError("elements live over different rings or algebras")

    def __add__(self, other):
        self._peer(other)
        add = self.ring.add
        return ExtendedElement(
            self.ring, self.algebra, [add(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._peer(other)
        sub = self.ring.sub
        return ExtendedElement(
            self.ring, self.algebra, [sub(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def scaled(self, c) -> "ExtendedElement":
        scale = self.ring.scale
        return ExtendedElement(self.ring, self.algebra, [scale(a, c) for a in self.coeffs])

    def __mul__(self, other):
        self._peer(other)
        ring, alg = self.ring, self.algebra
        out = [ring.zero()] * alg.dimension
        nz_b = [(j, b) for j, b in enumerate(other.coeffs) if not ring.is_zero(b)]
        for i, a in enumerate(self.coeffs):
            if ring.is_zero(a):
                continue
            for j, b in nz_b:
                ab = ring.mul(a, b)
                for k, c in alg._terms(i, j):
                    out[k] = ring.add(out[k], ab if c == 1 else ring.scale(ab, c))
        return ExtendedElement(ring, alg, out)

    def like(self, value) -> "ExtendedElement":
        """A constant over the same ring and algebra."""
        return ExtendedElement.constant(self.ring, self.algebra, value)

    def scalar_part(self):
        """The ring's scalar part of the augmentation."""
        ring = self.ring
        acc = ring.zero()
        for lam, c in zip(self.algebra.aug, self.coeffs):
            if lam:
                acc = ring.add(acc, c if lam == 1 else ring.scale(c, lam))
        return ring.scalar(acc)

    def nilpotency_bound(self) -> int:
        return self.ring.depth + self.algebra.nilpotency_degree - 1

    def __repr__(self):
        body = ", ".join(f"[{c}]" for c in self.coeffs)
        return f"ExtendedElement({body})"


def nest(element: WeilElement) -> ExtendedElement:
    """Regroup an element of a tensor algebra as inner-valued outer coefficients.

    The element's algebra must have been built by tensor(); the left factor
    becomes the inner algebra.
    """
    info = element.algebra.tensor_info
    if info is None:
        raise ValueError("nest() needs an element of a tensor-built algebra")
    coeffs = []
    for i2 in range(info.right.dimension):
        inner = tuple(
            element.raw[info.index_of_pair[(i1, i2)]] for i1 in range(info.left.dimension)
        )
        coeffs.append(WeilElement._of(info.left, inner, element.mode))
    return ExtendedElement(WeilCoefficients(info.left, element.mode), info.right, coeffs)


def flatten(nested: ExtendedElement, algebra: WeilAlgebra) -> WeilElement:
    """Inverse of nest(), into the given tensor-built algebra."""
    info = algebra.tensor_info
    if info is None:
        raise ValueError("flatten() needs a tensor-built target algebra")
    ring = nested.ring
    if (
        not isinstance(ring, WeilCoefficients)
        or info.left != ring.algebra
        or info.right != nested.algebra
    ):
        raise ValueError("tensor factors do not match the nested element")
    out = [_RAW[ring.mode][0]] * algebra.dimension
    for i2, c in enumerate(nested.coeffs):
        for i1, v in enumerate(c.raw):
            out[info.index_of_pair[(i1, i2)]] = v
    return WeilElement._of(algebra, tuple(out), ring.mode)


def check_functor_composition(f: SmoothMap, point: WeilPoint) -> Verdict:
    """One functor after another versus the tensor functor, at one point.

    The point lives over a tensor-built algebra W1 (x) W2.  Route A
    evaluates directly there; route B regroups each coordinate into nested
    form, evaluates with two-level arithmetic, and flattens back.
    """
    info = point.algebra.tensor_info
    if info is None:
        raise ValueError("point must live over a tensor-built algebra")
    direct = apply_map(f, point)

    nested_values = [nest(c) for c in point.coords]
    template = nest(point.algebra.one(point.mode))
    routed = [
        lift_eval(b, nested_values, template=template, var_names=f.var_names)
        for b in f.bodies
    ]
    flattened = [flatten(r, point.algebra) for r in routed]
    ok, detail = _agreement(direct.coords, flattened, point.mode, "routes agree exactly")
    return Verdict(
        ok,
        f"composite-vs-tensor on map {f.name}: {detail}",
        exactness="exact" if point.mode is Mode.EXACT else "sampled",
    )


def check_reparametrization_naturality(
    f: SmoothMap, phi: WeilMorphism, point: WeilPoint
) -> Verdict:
    """Changing the algebra commutes with applying the lifted map.  Algebra
    maps are exact, so a float point is a ModeError."""
    if point.algebra != phi.source:
        raise ValueError("point must live over the morphism's source algebra")
    lhs = apply_morphism(phi, apply_map(f, point))
    rhs = apply_map(f, apply_morphism(phi, point))
    return Verdict(
        lhs.coords == rhs.coords,
        f"reparametrization naturality on map {f.name}: both orders agree exactly",
        exactness="exact",
    )


def _agreement(xs, ys, mode: Mode, exact_detail: str):
    """(ok, detail) for two lists of elements: equal in exact mode, within
    a relative gap of 1e-9 per coefficient in float mode."""
    if mode is Mode.EXACT:
        return all(a == b for a, b in zip(xs, ys)), exact_detail
    worst = 0.0
    for a, b in zip(xs, ys):
        for x, y in zip(a.raw, b.raw):
            xv, yv = float(x), float(y)
            worst = max(worst, abs(xv - yv) / max(1.0, abs(xv), abs(yv)))
    return not worst > 1e-9, f"largest relative gap {worst:.3e}"


# ----- jets ------------------------------------------------------------------


def jet(f: SmoothMap, at, order: int, mode: Mode = Mode.EXACT):
    """Taylor coefficients of a one-input map: per output, the list
    [f(a), f'(a), f''(a)/2!, ...] up to the requested order."""
    if f.arity_in != 1:
        raise ValueError("jet() handles one-input maps; use mixed_jet for several")
    w = jet_line(order)
    a = float(at) if mode is Mode.FLOAT else qq(at)
    gen = w.basis_element(1, mode) if order >= 1 else w.zero(mode)
    coord = w.scalar(a) + gen
    result = apply_map(f, WeilPoint(w, [coord]))
    return [list(c.coeffs) for c in result.coords]


def mixed_jet(f: SmoothMap, at, orders, mode: Mode = Mode.EXACT):
    """Mixed Taylor coefficients: per output, a dict keyed by the exponent
    tuple (e1..en), holding the coefficient of t1^e1 ... tn^en, which is the
    mixed partial derivative divided by e1! ... en!."""
    orders = tuple(int(o) for o in orders)
    if len(orders) != f.arity_in:
        raise ValueError("one order per input is required")
    if any(o < 0 for o in orders):
        raise ValueError("orders must be >= 0")
    names = tuple(f"t{i+1}" for i in range(len(orders)))
    rels = []
    for i, o in enumerate(orders):
        r = [0] * len(orders)
        r[i] = o + 1
        rels.append(tuple(r))
    w = make_presented(names, rels)
    coords = []
    for i, value in enumerate(at):
        a = float(value) if mode is Mode.FLOAT else qq(value)
        gen_exp = tuple(1 if j == i else 0 for j in range(len(orders)))
        coord = w.scalar(a)
        if orders[i] >= 1:
            coord = coord + w.basis_element(w._index[gen_exp], mode)
        coords.append(coord)
    result = apply_map(f, WeilPoint(w, coords))
    out = []
    for c in result.coords:
        out.append({e: v for e, v in zip(w.basis, c.coeffs)})
    return out, w


# ----- symbolic lift ---------------------------------------------------------


def coordinate_names(f_names, algebra: WeilAlgebra):
    return tuple(f"{v}_{b}" for v in f_names for b in range(algebra.dimension))


def lift_map(f: SmoothMap, algebra: WeilAlgebra) -> SmoothMap:
    """Materialize the lifted map as a polynomial map on coordinates.

    Input i's element of the algebra occupies the variable block
    [i*dim, (i+1)*dim); outputs follow the same layout.  Bodies must stay
    polynomial (division only by values with constant invertible scalar
    part); anything transcendental is rejected.
    """
    d = algebra.dimension
    n = f.arity_in
    total = n * d
    ring = PolyCoefficients(total)
    values = [
        ExtendedElement(ring, algebra, [poly_var(i * d + b, total) for b in range(d)])
        for i in range(n)
    ]
    template = ExtendedElement.constant(ring, algebra, 1)
    results = []
    for body in f.bodies:
        results.append(
            lift_eval(body, values, template=template, var_names=f.var_names)
        )
    names = coordinate_names(f.var_names, algebra)
    bodies = []
    for r in results:
        for c in r.coeffs:
            bodies.append(poly_to_expr(c, total))
    return SmoothMap(names, tuple(bodies), name=f"{f.name}_lift")
