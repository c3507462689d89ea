"""Applying a Weil functor to a smooth map: exact higher-order forward AD.

A point of the lifted space R^n ^ W is n coordinates, each an element of W.
Evaluating a map body on such coordinates truncates its Taylor expansion at
the nilpotency degree of W: polynomial operations are literal, division is
a finite geometric series (the denominator needs an invertible scalar
part), and transcendental calls sum the classical series against the
nilpotent part, which only makes sense over floats.

lift_eval runs expr.fold over WeilCoefficients, the elements of one
algebra as a ring with the protocol plain numbers and polynomials share,
for two element types: exact algebra elements, and elements of W whose
coefficients lie in another ring of that protocol (ExtendedElement).  Over
FLOATS, the one float ring, such an element is a float point's coordinate;
with coefficients in a second Weil algebra (WeilCoefficients again) it is
one functor applied after another; with exact polynomials in the input
coordinates (expr.PolyCoefficients) it materializes the lifted map as a
new SmoothMap.  The inverse is one geometric series for all of them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import Mode, ModeError, qq
from .expr import (
    FLOATS,
    EvaluationError,
    Expr,
    NonPolynomialError,
    PolyCoefficients,
    SmoothMap,
    fold,
    poly_to_expr,
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
    """A tuple of coordinates in one algebra, all exact or all over FLOATS:
    a point of R^n ^ W."""

    algebra: WeilAlgebra
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        for c in self.coords:
            floats = isinstance(c, ExtendedElement) and c.ring is FLOATS
            if not (floats or isinstance(c, WeilElement)) or c.algebra != self.algebra:
                raise ValueError("coordinates must all live in the stated algebra")
        if len({isinstance(c, WeilElement) for c in self.coords}) > 1:
            raise ModeError("point coordinates mix exact and float modes")

    @staticmethod
    def from_scalars(algebra: WeilAlgebra, values, ring=None):
        """Embed ordinary numbers along the unit (zero nilpotent part),
        exactly or over a ring such as FLOATS."""
        one = basis_element(algebra, 0, ring)
        return WeilPoint(algebra, [one.like(v) for v in values])

    @property
    def ring(self):
        """FLOATS for a float point; None for an exact one."""
        c = self.coords[0] if self.coords else None
        return c.ring if isinstance(c, ExtendedElement) else None

    @property
    def arity(self) -> int:
        return len(self.coords)

    def base(self):
        """The underlying ordinary point: all augmentations."""
        return tuple(c.scalar_part() for c in self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def embed_base(point: WeilPoint, algebra: WeilAlgebra) -> WeilPoint:
    """Re-embed the underlying ordinary point into a (possibly different) algebra."""
    return WeilPoint.from_scalars(algebra, point.base(), point.ring)


def basis_element(algebra: WeilAlgebra, i: int, ring=None):
    """Basis element i of algebra (0 is the unit): exact, or over a ring."""
    if ring is None:
        return algebra.basis_element(i)
    coeffs = [ring.const(int(j == i)) for j in range(algebra.dimension)]
    return ExtendedElement(ring, algebra, coeffs)


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
    for c in coeffs[1:]:
        power = n if power is None else power * n
        if c != 0.0:
            # an infinite or nan c times a zero slot is nan, which a product skips
            acc = acc + (power.scaled(c) if math.isfinite(c) else x.like(c) * power)
    return acc


@dataclass(frozen=True)
class WeilCoefficients:
    """The elements of one algebra, all of the kind of the zero element
    given (exact, over FLOATS, nested, or symbolic), as a ring: what
    lift_eval folds over, and the coefficients of a nested element."""

    zero_element: object

    @property
    def depth(self) -> int:
        """Nilpotency degree of the coefficients' own nilpotents."""
        return self.zero_element.algebra.nilpotency_degree

    @property
    def symbolic(self) -> bool:
        """Whether the elements' coefficients are polynomials in the inputs."""
        z = self.zero_element
        return isinstance(z, ExtendedElement) and z.symbolic

    def zero(self):
        return self.zero_element

    def const(self, value):
        return self.zero_element.like(value)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    invert = staticmethod(geometric_invert)
    call = staticmethod(_taylor_call)

    def scale(self, a, q):
        # float(q) on a float element; exact, symbolic and nested ones take q
        return a.scaled(float(q) if isinstance(a, ExtendedElement) and a.ring is FLOATS else q)

    def is_zero(self, a) -> bool:
        return a.is_zero

    def scalar(self, a):
        return a.augmentation()

    def exact_scalar(self, x):
        """x's exact scalar part; None when it is symbolic or a float."""
        s = None if self.symbolic else x.scalar_part()
        return None if isinstance(s, float) else s


def lift_eval(expr: Expr, values, template=None, var_names=None):
    """Evaluate an expression on ring elements (truncated Taylor semantics).

    values[i] feeds variable i; template supplies the ring when there are
    no variables at all.  Any element type with +, -, *, scaled(), like(),
    scalar_part() and nilpotency_bound() works.
    """
    template = values[0] if template is None else template
    return fold(expr, WeilCoefficients(template.like(0)), values, var_names)


def apply_map(f: SmoothMap, point: WeilPoint) -> WeilPoint:
    """The lifted map on points: each body evaluated on the coordinates."""
    if f.arity_in != point.arity:
        raise ValueError(
            f"map takes {f.arity_in} inputs, point has {point.arity} coordinates"
        )
    template = basis_element(point.algebra, 0, point.ring)
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


class ExtendedElement:
    """An element of W with coefficients in a commutative ring: one ring
    element per basis vector of W.

    Products convolve along W's structure, by monomial code or sparse
    terms in the order exact products visit them, while the coefficient
    products happen in the ring.  Over FLOATS this is a float element of W;
    with Weil-algebra coefficients an element of (R ^ W_inner) ^ W, one
    functor applied after the other, kept apart from collapsing to the
    tensor algebra first; with polynomial coefficients the lifted map in
    symbolic form.
    """

    __slots__ = ("ring", "algebra", "coeffs")

    def __init__(self, ring, algebra: WeilAlgebra, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != algebra.dimension:
            raise ValueError("one coefficient per basis vector")
        self.ring = ring
        self.algebra = algebra
        self.coeffs = coeffs

    @property
    def symbolic(self) -> bool:
        return self.ring.symbolic

    def _peer(self, other):
        if isinstance(other, WeilElement):
            raise ModeError("exact elements and elements over a ring do not mix")
        if not isinstance(other, ExtendedElement):
            raise TypeError("expected an element over a coefficient ring")
        if other.ring != self.ring or other.algebra != self.algebra:
            raise ValueError("elements live over different rings or algebras")

    def _zipped(self, other, op):
        self._peer(other)
        return ExtendedElement(self.ring, self.algebra, map(op, self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._zipped(other, self.ring.add)

    def __sub__(self, other):
        return self._zipped(other, self.ring.sub)

    def __neg__(self):
        scale = self.ring.scale
        return ExtendedElement(self.ring, self.algebra, [scale(a, -1) for a in self.coeffs])

    def scaled(self, c) -> "ExtendedElement":
        """c times this element; over FLOATS, c must be a float."""
        if self.ring is FLOATS and not isinstance(c, float):
            raise ModeError("mixed-mode scaling of an element")
        scale = self.ring.scale
        return ExtendedElement(self.ring, self.algebra, [scale(a, c) for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scaled(other)
        self._peer(other)
        ring, alg = self.ring, self.algebra
        add, mul, is_zero = ring.add, ring.mul, ring.is_zero
        out = [ring.zero()] * alg.dimension
        nz_a = [(i, a) for i, a in enumerate(self.coeffs) if not is_zero(a)]
        nz_b = [(j, b) for j, b in enumerate(other.coeffs) if not is_zero(b)]
        if alg.flavor == "presented":
            codes, get = alg._codes, alg._by_code.get
            nz_b = [(codes[j], b) for j, b in nz_b]
            for i, a in nz_a:
                ci = codes[i]
                for cj, b in nz_b:
                    k = get(ci + cj)
                    if k is not None:
                        out[k] = add(out[k], mul(a, b))
        else:
            scale = ring.scale
            for i, a in nz_a:
                for j, b in nz_b:
                    ab = mul(a, b)
                    for k, c in alg._terms(i, j):
                        out[k] = add(out[k], ab if c == 1 else scale(ab, c))
        return ExtendedElement(ring, alg, out)

    __rmul__ = __mul__
    __pow__ = WeilElement.__pow__  # reads only like(), invert() and *
    invert = geometric_invert

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(1 / qq(other))
        self._peer(other)
        return self * other.invert()

    def like(self, value) -> "ExtendedElement":
        """A constant over the same ring and algebra."""
        ring = self.ring
        coeffs = (ring.const(value),) + (ring.zero(),) * (self.algebra.dimension - 1)
        return ExtendedElement(ring, self.algebra, coeffs)

    def scalar_part(self):
        """The ring's scalar part of the augmentation."""
        ring = self.ring
        acc = ring.zero()
        for lam, c in zip(self.algebra.aug, self.coeffs):
            if lam:
                acc = ring.add(acc, c if lam == 1 else ring.scale(c, lam))
        return ring.scalar(acc)

    augmentation = scalar_part

    def nilpotency_bound(self) -> int:
        return self.ring.depth + self.algebra.nilpotency_degree - 1

    @property
    def is_zero(self) -> bool:
        return all(map(self.ring.is_zero, self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, ExtendedElement):
            return NotImplemented
        return (self.ring, self.algebra, self.coeffs) == (other.ring, other.algebra, other.coeffs)

    # both read only coeffs and the algebra
    __hash__, __str__ = WeilElement.__hash__, WeilElement.__str__

    def __repr__(self):
        body = ", ".join(f"[{c}]" for c in self.coeffs)
        return f"ExtendedElement({body})"


def _rebuilt(template, algebra: WeilAlgebra, coeffs):
    """An element of algebra with these coefficients, of template's kind."""
    if isinstance(template, WeilElement):
        return WeilElement._of(algebra, tuple(coeffs))
    return ExtendedElement(template.ring, algebra, coeffs)


def nest(element) -> ExtendedElement:
    """Regroup an element of a tensor algebra as inner-valued outer
    coefficients of the same kind (exact, or over FLOATS).

    The element's algebra must have been built by tensor(); the left factor
    becomes the inner algebra.
    """
    info = element.algebra.tensor_info
    if info is None:
        raise ValueError("nest() needs an element of a tensor-built algebra")
    flat = element.coeffs  # an exact element makes its Fractions on each read
    coeffs = []
    for i2 in range(info.right.dimension):
        inner = [flat[info.index_of_pair[(i1, i2)]] for i1 in range(info.left.dimension)]
        coeffs.append(_rebuilt(element, info.left, inner))
    return ExtendedElement(WeilCoefficients(coeffs[0].like(0)), info.right, coeffs)


def flatten(nested: ExtendedElement, algebra: WeilAlgebra):
    """Inverse of nest(), into the given tensor-built algebra."""
    info = algebra.tensor_info
    if info is None:
        raise ValueError("flatten() needs a tensor-built target algebra")
    ring = nested.ring
    if (
        not isinstance(ring, WeilCoefficients)
        or info.left != ring.zero().algebra
        or info.right != nested.algebra
    ):
        raise ValueError("tensor factors do not match the nested element")
    out = [None] * algebra.dimension
    for i2, c in enumerate(nested.coeffs):
        for i1, v in enumerate(c.coeffs):
            out[info.index_of_pair[(i1, i2)]] = v
    return _rebuilt(ring.zero(), algebra, out)


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
    template = nest(basis_element(point.algebra, 0, point.ring))
    routed = [
        lift_eval(b, nested_values, template=template, var_names=f.var_names)
        for b in f.bodies
    ]
    flattened = [flatten(r, point.algebra) for r in routed]
    exact = point.ring is None
    ok, detail = _agreement(direct.coords, flattened, exact, "routes agree exactly")
    return Verdict(
        ok,
        f"composite-vs-tensor on map {f.name}: {detail}",
        exactness="exact" if exact else "sampled",
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


def _agreement(xs, ys, exact: bool, exact_detail: str):
    """(ok, detail) for two lists of elements: equal when exact, within a
    relative gap of 1e-9 per coefficient over floats."""
    if exact:
        return all(a == b for a, b in zip(xs, ys)), exact_detail
    worst = 0.0
    for a, b in zip(xs, ys):
        for x, y in zip(a.coeffs, b.coeffs):
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
    ring = FLOATS if mode is Mode.FLOAT else None
    gen = basis_element(w, 1, ring) if order >= 1 else basis_element(w, 0, ring).like(0)
    result = apply_map(f, WeilPoint(w, [gen.like(at) + gen]))
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
    ring = FLOATS if mode is Mode.FLOAT else None
    coords = []
    for i, value in enumerate(at):
        gen_exp = tuple(1 if j == i else 0 for j in range(len(orders)))
        coord = basis_element(w, 0, ring).like(value)
        if orders[i] >= 1:
            coord = coord + basis_element(w, w._index[gen_exp], ring)
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
        ExtendedElement(ring, algebra, [ring.var(i * d + b) for b in range(d)])
        for i in range(n)
    ]
    template = basis_element(algebra, 0, ring)
    results = []
    for body in f.bodies:
        results.append(
            lift_eval(body, values, template=template, var_names=f.var_names)
        )
    names = coordinate_names(f.var_names, algebra)
    bodies = []
    for r in results:
        for c in r.coeffs:
            bodies.append(poly_to_expr(ring.fractions(c), total))
    return SmoothMap(names, tuple(bodies), name=f"{f.name}_lift")
