"""Projections as geometric objects and the directions they do not see.

A fibered object is a polynomial projection between coordinate spaces.
Lifting the whole arrow through a truncated-Taylor functor gives another
arrow; the points of the lifted total space whose image is infinitesimally
constant form the vertical part, cut out by an equalizer condition.
Everything here is exact and decided fiberwise: squares commute as
polynomials, membership is an exact evaluation, a fiber over a base point
is read off the Jacobian there and a member of it is solved degree by
degree through the nilpotent filtration only when asked for, and the
limit-preservation checks come with rank certificates whenever the data
is linear.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import corpus
from .axioms import (
    NEGATIVE_CONTROL, ModelObject, _identity_cone, _lifted_verdict, limit_cone_numbers
)
from .exactlin import (
    NO_SOLUTION,
    Factored,
    Matrix,
    _unit,
    difference_rows,
    factor,
    kernel_basis,
    qq,
    vstack,
)
from .expr import (
    NonPolynomialError,
    PolyCoefficients,
    SmoothMap,
    fold,
    int_poly,
    jacobian,
    linear_map,
    parse_map,
)
from .reports import Check, Report, Verdict
from .smooth import WeilPoint, apply_map, apply_morphism, embed_base, lift_map
from .weil import (
    DiagramError,
    DiagramInWeil,
    WeilAlgebra,
    WeilMorphism,
    dual_numbers,
    factor_permutation_iso,
    filtered_basis,
    first_order_infinitesimals,
    jet_line,
    tensor,
    tensor_morphism,
    terminal,
)


class FiberedError(Exception):
    """Violation of a fibered-object contract."""


def _as_fraction(v, what: str) -> Fraction:
    if isinstance(v, float):
        raise FiberedError(f"{what} must be exact; got a float")
    return Fraction(v)


@dataclass(frozen=True)
class FiberedObject:
    """A projection R^total_dim -> R^base_dim treated as one object."""

    projection: SmoothMap

    @property
    def total_dim(self) -> int:
        return self.projection.arity_in

    @property
    def base_dim(self) -> int:
        return self.projection.arity_out

    @staticmethod
    def from_text(text: str) -> "FiberedObject":
        return FiberedObject(parse_map(text, keyword="fibered"))

    @staticmethod
    def identity(d: int) -> "FiberedObject":
        return FiberedObject(SmoothMap.identity(d))

    @staticmethod
    def coordinate_projection(e: int, b: int) -> "FiberedObject":
        """Keep the first b of e coordinates."""
        if not 0 <= b <= e:
            raise FiberedError("base dimension must lie between 0 and total")
        rows = [
            [Fraction(1 if j == i else 0) for j in range(e)] for i in range(b)
        ]
        return FiberedObject(linear_map(rows, n_in=e, name=f"proj{e}to{b}"))

    @property
    def name(self) -> str:
        return f"{self.projection.name}: R^{self.total_dim} -> R^{self.base_dim}"

    def linear_rows(self):
        """Coefficient rows when the projection is linear, else None."""
        return self.projection.linear_matrix()

    @property
    def is_linear(self) -> bool:
        return self.linear_rows() is not None


def _polys(f: SmoothMap, inner: SmoothMap | None = None, inner_polys=None):
    """f, or f after inner, as canonical int polynomials (PolyCoefficients).
    No composite is built: f's bodies fold over inner's polynomials, which
    are inner_polys when already converted, else those of the inner bodies
    f reads (the ones compose would substitute).  A map that is not
    polynomial (a call, or a denominator that depends on the inputs) is a
    FiberedError."""
    try:
        if inner is None:
            return [int_poly(b, f.arity_in, f.var_names) for b in f.bodies]
        if inner_polys is None:
            reads = set().union(*(b.variables() for b in f.bodies))
            inner_polys = [
                int_poly(b, inner.arity_in, inner.var_names) if i in reads else None
                for i, b in enumerate(inner.bodies)
            ]
        ring = PolyCoefficients(inner.arity_in)
        return [fold(b, ring, inner_polys, f.var_names) for b in f.bodies]
    except (NonPolynomialError, ZeroDivisionError) as exc:
        raise FiberedError(f"squares are decided on polynomial maps only: {exc}") from None


@dataclass(frozen=True)
class FiberedMorphism:
    """A pair of polynomial maps forming a square over two projections that
    commutes as an identity of polynomials: top is converted once and the
    target projection folds over it, and bottom, checked on its own, folds
    over the source projection (see _polys)."""

    source: FiberedObject
    target: FiberedObject
    top: SmoothMap
    bottom: SmoothMap

    def __post_init__(self):
        if self.top.arity_in != self.source.total_dim or (
            self.top.arity_out != self.target.total_dim
        ):
            raise FiberedError("top map arities do not match the total spaces")
        if self.bottom.arity_in != self.source.base_dim or (
            self.bottom.arity_out != self.target.base_dim
        ):
            raise FiberedError("bottom map arities do not match the base spaces")
        top = _polys(self.top)
        _polys(self.bottom)
        left = _polys(self.target.projection, self.top, top)
        if left != _polys(self.bottom, self.source.projection):
            raise FiberedError(
                "square does not commute: projection after top differs from "
                "bottom after projection"
            )

    @staticmethod
    def identity(p: FiberedObject) -> "FiberedMorphism":
        return FiberedMorphism(
            p, p, SmoothMap.identity(p.total_dim), SmoothMap.identity(p.base_dim)
        )

    def compose(self, inner: "FiberedMorphism") -> "FiberedMorphism":
        if inner.target != self.source:
            raise FiberedError("composition endpoints do not match")
        return FiberedMorphism(
            inner.source,
            self.target,
            self.top.compose(inner.top),
            self.bottom.compose(inner.bottom),
        )


@dataclass(frozen=True)
class FiberedDiagram:
    """A finite diagram of fibered objects, optionally with a cone on top
    whose squares commute as polynomials: each arrow map is folded over its
    source leg's polynomials and compared with its target leg's (see
    _polys), so no composite is built."""

    objects: tuple
    arrows: tuple
    apex: FiberedObject | None = None
    legs: tuple = ()

    def __post_init__(self):
        for s, t, m in self.arrows:
            if not (0 <= s < len(self.objects) and 0 <= t < len(self.objects)):
                raise FiberedError("arrow endpoints out of range")
            if m.source != self.objects[s] or m.target != self.objects[t]:
                raise FiberedError("arrow endpoints do not match its objects")
        if (self.apex is None) != (len(self.legs) == 0):
            raise FiberedError("a cone needs both an apex and legs")
        if self.apex is not None:
            if len(self.legs) != len(self.objects):
                raise FiberedError("one leg per object is required")
            for i, leg in enumerate(self.legs):
                if leg.source != self.apex or leg.target != self.objects[i]:
                    raise FiberedError(f"leg {i} endpoints are wrong")
            for s, t, m in self.arrows:
                src, tgt = self.legs[s], self.legs[t]
                if not (
                    _polys(m.top, src.top) == _polys(tgt.top)
                    and _polys(m.bottom, src.bottom) == _polys(tgt.bottom)
                ):
                    raise FiberedError(
                        f"cone does not commute over the arrow {s} -> {t}"
                    )

    @property
    def has_cone(self) -> bool:
        return self.apex is not None


# ----- the lifted arrow -------------------------------------------------------


def arrow_weil_functor(w: WeilAlgebra, p: FiberedObject) -> FiberedObject:
    """Lift the whole arrow: both spaces tensor with w, the projection
    becomes its truncated Taylor expansion in symbolic form."""
    try:
        lifted = lift_map(p.projection, w)
    except NonPolynomialError as exc:
        raise FiberedError(
            f"cannot lift {p.projection.name} symbolically: {exc}"
        ) from exc
    return FiberedObject(lifted)


def arrow_weil_on_morphism(w: WeilAlgebra, m: FiberedMorphism) -> FiberedMorphism:
    return FiberedMorphism(
        arrow_weil_functor(w, m.source),
        arrow_weil_functor(w, m.target),
        lift_map(m.top, w),
        lift_map(m.bottom, w),
    )


# ----- the vertical part ------------------------------------------------------


def _linear_rows_matrix(p: FiberedObject) -> Matrix:
    rows = p.linear_rows()
    if rows is None:
        raise FiberedError(
            f"{p.projection.name} is not linear; this path needs a linear projection"
        )
    return Matrix(rows, cols=p.total_dim)


def vertical_space_basis(p: FiberedObject, w: WeilAlgebra):
    """For a linear projection P: a basis of the vertical subspace of the
    lifted total space (flat layout, coordinate-major).  P lifts to
    P (x) id_w, so that subspace is R^e (x) 1 plus ker P (x) m, m the
    augmentation kernel of w (w.maximal_ideal_basis()), in that order."""
    pairs = [(u, _unit(w.dimension, 0)) for u in Matrix.identity(p.total_dim).raw]
    pairs += [(k, m) for k in kernel_basis(_linear_rows_matrix(p)) for m in w.maximal_ideal_basis()]
    return [tuple(x * y for x in u for y in m) for u, m in pairs]


def vertical_membership(p: FiberedObject, w: WeilAlgebra, x: WeilPoint) -> bool:
    """Is the lifted projection infinitesimally constant at x?  Decided by
    exact coefficient comparison, so a float point is a FiberedError."""
    if x.algebra != w:
        raise FiberedError("point does not live over the stated algebra")
    if x.ring is not None:
        raise FiberedError("vertical membership is exact; got a float point")
    if x.arity != p.total_dim:
        raise FiberedError(
            f"point has {x.arity} coordinates, total space has {p.total_dim}"
        )
    image = apply_map(p.projection, x)
    return image.coords == embed_base(image, w).coords


@dataclass(frozen=True)
class VerticalFiber:
    """Degree-graded description of the vertical points over one base point.

    Only the Jacobian at the base point, factored once, and the filtered
    basis are computed; everything else is read off them, and nothing is
    solved until point() asks for a member.  At a regular point
    (full-row-rank Jacobian) the fiber is parametrized by one copy of the
    Jacobian kernel per nilpotent filtration slot.
    """

    fibered: FiberedObject
    algebra: WeilAlgebra
    base_point: tuple
    jacobian: Matrix
    kernel: tuple
    slot_degrees: tuple
    _system: Factored = field(repr=False, compare=False)
    _frame: Matrix = field(repr=False)

    @cached_property
    def _frame_inverse(self) -> Matrix:
        """The filtered frame's inverse: one elimination per fiber, on the
        first point() that needs an image."""
        return self._frame.inverse()

    @property
    def jacobian_rank(self) -> int:
        return self.fibered.total_dim - len(self.kernel)

    @property
    def regular(self) -> bool:
        return self.jacobian_rank == self.fibered.base_dim

    @property
    def dimension(self) -> int:
        """Free parameters in the graded parametrization."""
        return len(self.kernel) * sum(1 for g in self.slot_degrees if g >= 1)

    @property
    def origin(self) -> WeilPoint:
        """The member with every parameter zero: the constant point e0*1."""
        return WeilPoint.from_scalars(self.algebra, self.base_point)

    @property
    def per_degree(self) -> tuple:
        """(degree, slots, parameters per slot, solved) for each nilpotent
        degree, in increasing order, of the origin's equations: solved
        throughout, for the reason given under consistent."""
        degrees = sorted({g for g in self.slot_degrees if g >= 1})
        kd = len(self.kernel)
        return tuple((g, self.slot_degrees.count(g), kd, True) for g in degrees)

    @property
    def consistent(self) -> bool:
        """Always True: the origin's equations are homogeneous (every
        right-hand side is zero), so its solve cannot fail, at irregular
        points too.  The exact obstruction system of each degree, still
        open on the roadmap, is what will replace this attribute."""
        return True

    def point(self, params) -> WeilPoint:
        """The member for the given parameters, by a product with the
        factored Jacobian at each filtration slot, degree by degree.  Until
        a solved slot is nonzero the point is still e0*1, which the
        projection sends to F(e0)*1, so every right-hand side is zero: a
        degree lifts the projection only when an earlier degree left a
        nonzero slot.  The first inconsistent degree raises a FiberedError,
        and so does a result that fails the verticality recheck."""
        p, w = self.fibered, self.algebra
        e, b, dim = p.total_dim, p.base_dim, w.dimension
        kd = len(self.kernel)
        params = [_as_fraction(v, "fiber parameter") for v in params]
        if len(params) != self.dimension:
            raise FiberedError(f"expected {self.dimension} parameters, got {len(params)}")
        filt = [[c] + [qq(0)] * (dim - 1) for c in self.base_point]

        def materialize() -> WeilPoint:
            return WeilPoint(w, [w.element(list(self._frame.apply(f))) for f in filt])

        chunk = 0
        moved = False  # has a solved slot left the constant point e0*1?
        for degree in sorted({g for g in self.slot_degrees if g >= 1}):
            if moved:
                image = apply_map(p.projection, materialize())
                image_filt = [self._frame_inverse.apply(image.coords[r].raw) for r in range(b)]
            else:  # the point is e0*1 and its image F(e0)*1 has no nilpotent part
                image_filt = [(qq(0),) * dim] * b
            for beta in [i for i, g in enumerate(self.slot_degrees) if g == degree]:
                solved = self._system.solve([-image_filt[r][beta] for r in range(b)])
                if solved is NO_SOLUTION:
                    raise FiberedError(
                        f"fiber equations are inconsistent at filtration degree {degree} "
                        f"(projection {p.projection.name} is irregular here)"
                    )
                xi = list(solved)
                for t in range(kd):
                    c = params[chunk + t]
                    if c:
                        xi = [x + c * kv for x, kv in zip(xi, self.kernel[t])]
                for i in range(e):
                    filt[i][beta] = xi[i]
                moved = moved or any(xi)
                chunk += kd
        final = materialize()
        if not vertical_membership(p, w, final):
            raise FiberedError("solved point failed the verticality recheck")
        return final


def vertical_fiber(p: FiberedObject, w: WeilAlgebra, e0) -> VerticalFiber:
    """The vertical points sitting over the ordinary point e0, as the
    Jacobian there, factored (the one elimination), and the filtered
    basis of w.  Nothing is solved here; VerticalFiber.point solves a
    member.

    Exact rationals only, and the projection must be polynomial: the
    filtration grading is what makes each stage a linear solve.
    """
    base = tuple(_as_fraction(v, "base point coordinate") for v in e0)
    if len(base) != p.total_dim:
        raise FiberedError(
            f"base point has {len(base)} coordinates, total space has {p.total_dim}"
        )
    if p.projection.uses_transcendental():
        raise FiberedError(
            f"{p.projection.name} is not polynomial; the graded solver only "
            "handles polynomial projections"
        )
    jac = Matrix(jacobian(p.projection, base), cols=p.total_dim)
    vectors, degrees = filtered_basis(w)
    system = factor(jac)
    return VerticalFiber(
        fibered=p,
        algebra=w,
        base_point=base,
        jacobian=jac,
        kernel=tuple(system.kernel),
        slot_degrees=tuple(degrees),
        _system=system,
        _frame=Matrix.from_columns(vectors),
    )


def vertical_functor_on_morphism(
    m: FiberedMorphism, w: WeilAlgebra, x: WeilPoint
) -> WeilPoint:
    """Push a vertical point through the lifted top map.

    Rejects non-vertical input and float points; asserts the image is
    vertical again and that collapsing to the base commutes with the top
    map.
    """
    if not vertical_membership(m.source, w, x):
        raise FiberedError("input point is not vertical over the source")
    result = apply_map(m.top, x)
    if not vertical_membership(m.target, w, result):
        raise FiberedError(
            "image lost verticality; the square cannot have commuted"
        )
    if list(result.base()) != m.top(list(x.base())):
        raise FiberedError("base anchor does not commute with the top map")
    return result


REPRESENTATION = Check("representation", "exact")
# "equalizes" is decided by exact evaluation of each sampled cone's columns;
# "factors" and "unique" hold by construction: each cone is frame @ coeffs,
# a combination of the independent vertical basis
MEDIATION = Check("mediation", "exact")
NO_FACTORING_OUTSIDE = Check("no-factoring-outside", "exact")


def check_vertical_equalizer(
    p: FiberedObject, w: WeilAlgebra, samples: int = 20, seed: int = 0
) -> Report:
    """Universal property of the vertical subspace of a linear projection:
    sampled maps that equalize the two composites factor through it, and
    uniquely; maps that do not equalize cannot factor."""
    rng = random.Random(seed)
    report = Report(f"vertical equalizer: {p.name} over {w.dimension}-dim algebra")
    basis = vertical_space_basis(p, w)
    dim, size = w.dimension, p.total_dim * w.dimension
    frame = Matrix.from_columns(basis, rows=size)
    system = factor(frame)  # z factors when C z = 0, uniquely as the kernel is 0

    def vertical(flat) -> bool:  # flat is coordinate-major
        coords = [w.element(list(flat[i : i + dim])) for i in range(0, size, dim)]
        return vertical_membership(p, w, WeilPoint(w, coords))

    report.add(REPRESENTATION, f"{len(basis)} basis members", all(map(vertical, basis)),
               "every representation basis vector is a vertical point")

    for i in range(samples):
        width = rng.randint(1, 2)
        coeffs = [[corpus.random_rational(rng, 5) for _ in range(width)] for _ in basis]
        z = frame @ Matrix(coeffs, cols=width)
        columns = [z.column(j) for j in range(width)]
        equalizes = all(map(vertical, columns))
        factors = all(system.solve(col) is not NO_SOLUTION for col in columns)
        report.add(MEDIATION, f"sampled cone {i} of width {width}",
                   equalizes and factors and not system.kernel,
                   "equalizes and factors uniquely through the vertical subspace")

    if len(basis) < size:  # P and the nilpotents of w are both nonzero
        probes = ([corpus.random_rational(rng, 5) for _ in range(size)] for _ in range(20))
        outsider = next((probe for probe in probes if not vertical(probe)), None)
        if outsider is not None:
            report.add(NO_FACTORING_OUTSIDE, "non-equalizing probe",
                       system.solve(outsider) is NO_SOLUTION,
                       "a map that fails the equalizer condition cannot factor")
    return report


# ----- limit-preservation checks ---------------------------------------------


def check_fibered_microlinear(
    p: FiberedObject,
    d: DiagramInWeil,
    samples: int = 6,
    seed: int = 0,
    enforce_limit_input: bool = True,
) -> Verdict:
    """Both spaces of the arrow perceive the cone as a limit.

    Limits of arrows are computed componentwise, so the decision is the
    conjunction of the two component checks; the lifted projection is also
    verified to commute with every leg, which is the glue that makes the
    componentwise limit an arrow-level one.
    """
    return _fibered_verdict(p, d, limit_cone_numbers(d, enforce_limit_input), samples, seed)


def _fibered_verdict(p: FiberedObject, d: DiagramInWeil, numbers, samples: int, seed: int):
    """check_fibered_microlinear's verdict from the cone's r = 1 numbers."""
    v_total = _lifted_verdict(ModelObject.coordinate(p.total_dim), d, *numbers)
    v_base = _lifted_verdict(ModelObject.coordinate(p.base_dim), d, *numbers)

    rng = random.Random(seed)
    glue_ok = True
    for _ in range(samples):
        z = corpus.random_point(rng, d.apex, p.total_dim)
        image = apply_map(p.projection, z)
        for leg in d.legs:
            lhs = apply_map(p.projection, apply_morphism(leg, z))
            rhs = apply_morphism(leg, image)
            if lhs.coords != rhs.coords:
                glue_ok = False
    ok = v_total.ok and v_base.ok and glue_ok
    cert = (
        f"total space: {v_total.certificate}; base space: {v_base.certificate}; "
        f"lifted projection commutes with all {len(d.legs)} legs on "
        f"{samples} sampled points"
    )
    return Verdict(ok, cert, exactness="sampled")


def check_vertical_left_exact(d: FiberedDiagram, w: WeilAlgebra) -> Verdict:
    """Does taking vertical parts turn this cone into a limit cone?

    Decided by exact ranks of the unlifted maps, on the total spaces and on
    the kernels of the projections, so only for linear diagrams: a
    nonlinear projection, arrow or leg is refused with a FiberedError that
    names the first one.
    """
    if not d.has_cone:
        raise DiagramError("the diagram needs a cone to check")
    spaces = (d.apex,) + tuple(d.objects)
    for i, o in enumerate(spaces):
        if not o.is_linear:
            where = "the apex" if i == 0 else f"object {i - 1}"
            raise FiberedError(f"{where} ({o.name}) is not linear")
    arrows = [(s, t, _linear_top(m, f"the arrow {s} -> {t}")) for s, t, m in d.arrows]
    legs = vstack([_linear_top(leg, f"leg {i}") for i, leg in enumerate(d.legs)],
                  cols=d.apex.total_dim)
    kernels = [Matrix.from_columns(kernel_basis(_linear_rows_matrix(o)), rows=o.total_dim)
               for o in spaces]
    total = _linear_cone_numbers(arrows, legs, [Matrix.identity(o.total_dim) for o in spaces])
    kernel = _linear_cone_numbers(arrows, legs, kernels)
    # each vertical space is its unit slots plus ker P (x) m, m the
    # augmentation kernel of w, and every lifted map A (x) I keeps that
    # split: each number is the total spaces' plus dim m times the kernels'
    slots = w.dimension - 1
    rank, nullity = (t + slots * k for t, k in zip(total, kernel))
    apex_dim = d.apex.total_dim + slots * kernels[0].cols
    # the legs commute with the arrows and with the projections (checked by
    # FiberedDiagram and FiberedMorphism), so their image lies among the
    # compatible families, and is all of them exactly when the ranks agree
    same_span = rank == nullity
    ok = same_span and nullity == apex_dim
    cert = (
        f"vertical apex dimension {apex_dim}; compatible vertical "
        f"families dimension {nullity}; image {'matches' if same_span else 'differs'}"
    )
    return Verdict(ok, cert, exactness="exact")


def _linear_top(m: FiberedMorphism, what: str) -> Matrix:
    rows = m.top.linear_matrix()
    if rows is None:
        raise FiberedError(f"{what} ({m.top.name}) is not linear")
    return Matrix(rows, cols=m.source.total_dim)


def _linear_cone_numbers(arrows, legs: Matrix, frames):
    """(rank of the stacked legs on the span of the apex frame, dimension of
    the families in the spans of the object frames that the arrows match)
    of a linear cone at r = 1.  frames[0] is the apex's and frames[1:] the
    objects', each of independent columns; arrows are (s, t, top matrix)."""
    apex, objects = frames[0], frames[1:]
    sizes = [f.cols for f in objects]
    terms = [(s, (a @ objects[s]).raw, t, objects[t].raw) for s, t, a in arrows]
    return (legs @ apex).rank(), sum(sizes) - difference_rows(sizes, terms).rank()


def check_vertical_microlinearity(
    p: FiberedObject,
    d: DiagramInWeil,
    e0,
    enforce_limit_input: bool = True,
) -> Verdict:
    """The fiber of vertical points over e0 perceives the cone as a limit.

    Splitting off the unit component reduces the linear model to the
    microlinearity of the tangent-kernel space; at regular points of a
    polynomial projection the graded parametrization carries that answer
    to the actual fibers, and the verdict says which path decided.
    """
    numbers = limit_cone_numbers(d, enforce_limit_input)
    fib = vertical_fiber(p, d.apex, e0)
    kernel_object = ModelObject(
        "limit",
        f"ker(d{p.projection.name} at base point)",
        p.total_dim,
        len(fib.kernel),
    )
    if p.is_linear:
        v = _lifted_verdict(kernel_object, d, *numbers)
        return Verdict(
            v.ok,
            f"linear projection; fibers are kernel translates: {v.certificate}",
            exactness="exact",
        )
    if fib.regular:
        v = _lifted_verdict(kernel_object, d, *numbers)
        transported = _transport_fiber_points(d, fib)
        ok = v.ok and transported
        cert = (
            f"regular point, graded parametrization: {v.certificate}; "
            f"fiber transports {'agree' if transported else 'disagree'}"
        )
        return Verdict(ok, cert, exactness="graded")
    return Verdict(
        _transport_fiber_points(d, fib),
        "irregular base point; only sampled transports of the partial fiber "
        f"data were checked (consistent={fib.consistent})",
        exactness="sampled",
    )


def _transport_fiber_points(d, fib) -> bool:
    p = fib.fibered
    points = [fib.origin]
    if fib.dimension:
        rng = random.Random(5)
        try:
            points.append(
                fib.point([corpus.random_rational(rng, 4) for _ in range(fib.dimension)])
            )
        except FiberedError:
            return False
    for x in points:
        images = []
        for i, leg in enumerate(d.legs):
            y = apply_morphism(leg, x)
            if not vertical_membership(p, d.objects[i], y):
                return False
            if y.base() != fib.base_point:
                return False
            images.append(y)
        for s, t, phi in d.arrows:
            if apply_morphism(phi, images[s]).coords != images[t].coords:
                return False
    return True


# ----- exponential pullbacks --------------------------------------------------


@dataclass(frozen=True)
class InfinitesimalArrow:
    """An arrow whose total and base spaces are both infinitesimal, so
    exponentiation by either side is a tensor; `connecting` is the algebra
    map in the function-pullback direction (base algebra into total)."""

    connecting: WeilMorphism

    @property
    def total(self) -> WeilAlgebra:
        return self.connecting.target

    @property
    def base(self) -> WeilAlgebra:
        return self.connecting.source

    @staticmethod
    def identity(w: WeilAlgebra) -> "InfinitesimalArrow":
        return InfinitesimalArrow(WeilMorphism.identity(w))

    @staticmethod
    def trivial() -> "InfinitesimalArrow":
        return InfinitesimalArrow.identity(terminal())


CONNECTING_MAP_SHUFFLE = Check("connecting-map-shuffle", "exact")
SHUFFLES_INVERTIBLE = Check("shuffles-invertible", "exact")
# decided on `samples` random solved pairs
PULLBACK_POINT_TRANSPORT = Check("pullback-point-transport", "sampled")


def fibered_exponential_pullback(
    p: FiberedObject,
    q: InfinitesimalArrow,
    w1: WeilAlgebra,
    w2: WeilAlgebra,
    samples: int = 8,
    seed: int = 0,
) -> Report:
    """Raising an arrow to an infinitesimal arrow, then tensoring.

    Points of the exponential are pairs (u over the total algebra, v over
    the base algebra) tied together by the lifted projection against the
    connecting map.  The check verifies that grouping the extra tensor
    factors before or after forming these pairs gives the same pairs,
    through explicit factor shuffles: exact at the algebra-map level,
    point-by-point on solved samples.
    """
    rng = random.Random(seed)
    # one elimination of the projection: it lifts to P (x) I, which is P on
    # each slot, so P's kernel parametrizes the fibers slot by slot, each
    # sample is a product, and no cokernel means surjective
    system = factor(_linear_rows_matrix(p))
    if system.cokernel:
        raise FiberedError("sampling pullback points needs a surjective linear projection")
    inner, _, _ = tensor(w1, w2)
    a_total, _, _ = tensor(inner, q.total)
    a_base, _, _ = tensor(inner, q.base)
    left_total, _, _ = tensor(w1, q.total)
    b_total, _, _ = tensor(left_total, w2)
    left_base, _, _ = tensor(w1, q.base)
    b_base, _, _ = tensor(left_base, w2)

    shuffle_total = factor_permutation_iso(a_total, b_total, (0, 2, 1))
    shuffle_base = factor_permutation_iso(a_base, b_base, (0, 2, 1))
    conn_left = tensor_morphism(
        WeilMorphism.identity(inner), q.connecting, source=a_base, target=a_total
    )
    conn_right = tensor_morphism(
        tensor_morphism(WeilMorphism.identity(w1), q.connecting),
        WeilMorphism.identity(w2),
        source=b_base,
        target=b_total,
    )
    tag = []
    if w1.is_terminal:
        tag.append("left factor trivial")
    if q.total.is_terminal and q.base.is_terminal:
        tag.append("exponent arrow trivial")
    instance = (
        f"{p.name}; exponent arrow {q.total.dimension}->{q.base.dimension}"
        + (f" ({'; '.join(tag)})" if tag else "")
    )
    report = Report(f"exponential pullback: {instance}")

    report.add(CONNECTING_MAP_SHUFFLE, instance,
               shuffle_total.compose(conn_left) == conn_right.compose(shuffle_base),
               "the shuffles intertwine the two connecting maps exactly")
    report.add(SHUFFLES_INVERTIBLE, instance,
               shuffle_total.is_isomorphism() and shuffle_base.is_isomorphism(),
               "both transports are isomorphisms")

    # the permutation (0, 2, 1) is its own inverse
    shuffle_back = factor_permutation_iso(b_total, a_total, (0, 2, 1))
    pair_failures = 0
    for _ in range(samples):
        v = corpus.random_point(rng, a_base, p.base_dim)
        target = apply_morphism(conn_left, v)
        u = _pullback_point(system, a_total, target, rng)
        if apply_map(p.projection, u).coords != target.coords:
            pair_failures += 1
            continue
        u2 = apply_morphism(shuffle_total, u)
        v2 = apply_morphism(shuffle_base, v)
        lhs = apply_map(p.projection, u2)
        rhs = apply_morphism(conn_right, v2)
        if lhs.coords != rhs.coords:
            pair_failures += 1
            continue
        back = apply_morphism(shuffle_back, u2)
        if back.coords != u.coords:
            pair_failures += 1
    report.add(PULLBACK_POINT_TRANSPORT, instance, pair_failures == 0,
               f"{samples} solved pairs stay pullback pairs through the shuffle"
               if pair_failures == 0 else f"{pair_failures}/{samples} pairs broke")
    return report


def _pullback_point(system: Factored, w: WeilAlgebra, target: WeilPoint, rng) -> WeilPoint:
    """A point u over w with P u = target, P factored as system, moved along
    a random multiple of each kernel vector of P (x) I: slot k of u solves P
    against slot k of the target, and that kernel is each kernel vector of P
    in each slot, drawn in the order of its free columns."""
    slots = range(w.dimension)
    u = [list(c) for c in zip(*(system.solve([y.raw[k] for y in target.coords]) for k in slots))]
    for kv in system.kernel:
        for k in slots:
            c = corpus.random_rational(rng, 3)
            if c:
                for coord, y in zip(u, kv):
                    coord[k] += c * y
    return WeilPoint(w, [w.element(coord) for coord in u])


# ----- examples and suites ----------------------------------------------------


def sphere_distance() -> FiberedObject:
    return FiberedObject.from_text("fibered sphere(x,y,z) -> (x^2+y^2+z^2)")


def _random_standard_fibered(rng: random.Random) -> FiberedObject:
    e = rng.randint(2, 4)
    b = rng.randint(1, e - 1)
    return FiberedObject.coordinate_projection(e, b)


def _random_block_morphism(
    rng: random.Random, src: FiberedObject, tgt: FiberedObject
) -> FiberedMorphism:
    """Linear square between coordinate projections: base block on top of
    an arbitrary mixing block, so the square commutes by shape."""
    b1, b2 = src.base_dim, tgt.base_dim
    e1, e2 = src.total_dim, tgt.total_dim
    bottom_rows = [
        [Fraction(corpus.random_rational(rng, 3)) for _ in range(b1)]
        for _ in range(b2)
    ]
    top_rows = []
    for r in range(e2):
        row = []
        for c in range(e1):
            if r < b2:
                row.append(bottom_rows[r][c] if c < b1 else Fraction(0))
            else:
                row.append(Fraction(corpus.random_rational(rng, 3)))
        top_rows.append(row)
    return FiberedMorphism(
        src,
        tgt,
        linear_map(top_rows, n_in=e1, name="ftop"),
        linear_map(bottom_rows, n_in=b1, name="fbase"),
    )


def _projection_pullback_cone() -> FiberedDiagram:
    """Pullback of two coordinate projections along their shared base,
    with the apex presented as a plain coordinate projection: every map is
    a coordinate projection, and every bottom map the identity of R."""
    p1 = FiberedObject.coordinate_projection(3, 1)
    p2 = FiberedObject.coordinate_projection(2, 1)
    p0 = FiberedObject.identity(1)
    apex = FiberedObject.coordinate_projection(4, 1)

    def keep(src, tgt, indices) -> FiberedMorphism:
        top = SmoothMap.projection(src.total_dim, indices)
        return FiberedMorphism(src, tgt, top, SmoothMap.identity(1))

    arrows = ((0, 2, keep(p1, p0, [0])), (1, 2, keep(p2, p0, [0])))
    legs = (keep(apex, p1, [0, 1, 2]), keep(apex, p2, [0, 3]), keep(apex, p0, [0]))
    return FiberedDiagram((p1, p2, p0), arrows, apex, legs)


def _broken_pullback_cone() -> FiberedDiagram:
    """Same shape, but one leg collapses a fiber coordinate: the cone still
    commutes yet is no longer a limit."""
    good = _projection_pullback_cone()
    collapsed = linear_map([[1, 0, 0, 0], [0, 0, 0, 0]], name="leg2broken")
    bad_leg2 = FiberedMorphism(good.apex, good.objects[1], collapsed, SmoothMap.identity(1))
    return FiberedDiagram(
        good.objects, good.arrows, good.apex, (good.legs[0], bad_leg2, good.legs[2])
    )


SQUARE_GUARD = Check("square-guard", "exact")
TRIVIAL_LIFT = Check("trivial-lift", "exact")
LINEAR_LIFT = Check("linear-lift", "exact")
LIFTED_SQUARE = Check("lifted-square", "exact")
FIBERED_MICROLINEAR = Check("fibered-microlinear", "sampled")


def fibered_suite(
    seed: int = 0, samples: int = 12, negative_controls: bool = False
) -> Report:
    rng = random.Random(seed)
    report = Report(
        "fibered negative controls" if negative_controls else "fibered objects"
    )
    sphere = sphere_distance()
    proj = FiberedObject.coordinate_projection(2, 1)

    if negative_controls:
        count = min(max(4, samples // 3), samples * 4)
        for i, (kind, mutant) in enumerate(corpus.mutated_cones(rng, count)):
            numbers = limit_cone_numbers(mutant, enforce_limit_input=False)
            v = _fibered_verdict(proj, mutant, numbers, samples=6, seed=0)
            component = _lifted_verdict(ModelObject.coordinate(proj.total_dim), mutant, *numbers)
            report.add(NEGATIVE_CONTROL, f"{kind}-mutated cone {i}",
                       (not v.ok) and (not component.ok),
                       "arrow-level check and component check both refuse")
        doubled = linear_map([[Fraction(2)]], name="doubled")
        report.add_refusal(SQUARE_GUARD, "non-commuting square", FiberedError,
                           lambda: FiberedMorphism(proj, proj, SmoothMap.identity(2), doubled),
                           "accepted a broken square")
        return report

    k = terminal()
    lifted_k = arrow_weil_functor(k, sphere)
    pt = [Fraction(1), Fraction(2), Fraction(-1)]
    report.add(TRIVIAL_LIFT, "sphere distance over the scalars",
               lifted_k.total_dim == 3 and lifted_k.projection(pt) == sphere.projection(pt),
               "lift over the scalars acts as the original projection")

    d = dual_numbers()
    lifted_proj = arrow_weil_functor(d, proj)
    got = lifted_proj.linear_rows()
    want = _linear_rows_matrix(proj).kron(Matrix.identity(2))
    report.add(LINEAR_LIFT, "coordinate projection over the tangent algebra",
               got is not None and Matrix(got, cols=4) == want,
               "lift of a linear projection is the blockwise matrix")

    for i in range(max(3, samples // 4)):
        src = _random_standard_fibered(rng)
        tgt = _random_standard_fibered(rng)
        m = _random_block_morphism(rng, src, tgt)
        lifted = arrow_weil_on_morphism(d, m)
        report.add(LIFTED_SQUARE, f"random block square {i}",
                   lifted.source.total_dim == src.total_dim * 2,
                   "lifting a morphism keeps the square commuting")

    cones = [corpus.random_limit_cone(rng) for _ in range(3)]
    for i, cone in enumerate(cones):
        numbers = limit_cone_numbers(cone)
        for obj, label in ((FiberedObject.identity(2), "identity arrow"),
                           (proj, "coordinate projection"),
                           (sphere, "sphere distance")):
            report.add(FIBERED_MICROLINEAR, f"{label} over cone {i}", _fibered_verdict(
                obj, cone, numbers, samples=6, seed=rng.randrange(1 << 30)))

    p3 = FiberedObject.coordinate_projection(3, 1)
    d2 = first_order_infinitesimals(2)
    combos = [
        (p3, InfinitesimalArrow.identity(d), d, d2, "identity exponent arrow"),
        (p3, InfinitesimalArrow.trivial(), d, d2, "trivial exponent arrow"),
        (p3, InfinitesimalArrow.identity(d), k, d2, "trivial left factor"),
    ]
    for p_obj, q, wa, wb, label in combos:
        sub = fibered_exponential_pullback(
            p_obj, q, wa, wb, samples=max(4, samples // 3), seed=rng.randrange(1 << 30)
        )
        report.extend(sub)
    return report


LEFT_EXACT_CONTROL = Check("left-exact-control", "exact")
VERTICAL_MICROLINEAR_CONTROL = Check("vertical-microlinear-control", "exact")
MEMBERSHIP_GUARD = Check("membership-guard", "exact")
MEMBERSHIP = Check("membership", "exact")
FIBER = Check("fiber", "exact")
FIBER_SOUNDNESS = Check("fiber-soundness", "sampled")
FUNCTOR = Check("functor", "exact")
FUNCTOR_SAMPLED = Check("functor", "sampled")
LEFT_EXACT = Check("left-exact", "exact")
VERTICAL_MICROLINEAR = Check("vertical-microlinear", "exact")
VERTICAL_MICROLINEAR_GRADED = Check("vertical-microlinear", "graded")


def vertical_suite(
    seed: int = 0, samples: int = 12, negative_controls: bool = False
) -> Report:
    rng = random.Random(seed)
    report = Report(
        "vertical negative controls" if negative_controls else "vertical bundles"
    )
    d = dual_numbers()
    proj = FiberedObject.coordinate_projection(2, 1)
    sphere = sphere_distance()

    if negative_controls:
        v = check_vertical_left_exact(_broken_pullback_cone(), d)
        report.add(LEFT_EXACT_CONTROL, "collapsed-leg pullback cone", not v.ok, v.certificate)
        mutant = corpus.mutate_cone(corpus.random_limit_cone(rng), "inflate")
        vm = check_vertical_microlinearity(
            FiberedObject.coordinate_projection(3, 1), mutant, [0, 0, 0],
            enforce_limit_input=False,
        )
        report.add(VERTICAL_MICROLINEAR_CONTROL, "inflated cone", not vm.ok, vm.certificate)
        bad = WeilPoint(d, [d.element([qq(0), qq(1)]), d.element([qq(0), qq(0)])])
        report.add_refusal(MEMBERSHIP_GUARD, "non-vertical input", FiberedError,
                           lambda: vertical_functor_on_morphism(
                               FiberedMorphism.identity(proj), d, bad),
                           "accepted bad input")
        return report

    a, b, c = qq(3), qq(-2), qq(5)
    flat_pt = WeilPoint(d, [d.element([a, qq(0)]), d.element([b, c])])
    report.add(MEMBERSHIP, "coordinate projection, motion only along the fiber",
               vertical_membership(proj, d, flat_pt),
               "nilpotent motion in the dropped coordinate stays vertical")
    moving = WeilPoint(d, [d.element([a, qq(1)]), d.element([b, qq(0)])])
    report.add(MEMBERSHIP, "coordinate projection, motion along the base",
               not vertical_membership(proj, d, moving), "base-directed motion is rejected")
    sphere_flat = WeilPoint.from_scalars(d, [1, 2, 3])
    report.add(MEMBERSHIP, "sphere distance, no nilpotent part",
               vertical_membership(sphere, d, sphere_flat),
               "purely scalar points are always vertical")

    fib = vertical_fiber(sphere, d, [1, 0, 0])
    span_ok = sorted(fib.kernel) == [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0)),
    ]
    report.add(FIBER, "sphere distance at (1,0,0) over the tangent algebra",
               fib.regular and fib.dimension == 2 and span_ok,
               f"dimension {fib.dimension}, kernel of the gradient [2,0,0]")
    ident = FiberedObject.identity(3)
    fi = vertical_fiber(ident, jet_line(2), [2, -1, 7])
    origin_ok = all(c.raw[1:] == (Fraction(0),) * 2 for c in fi.origin.coords)
    report.add(FIBER, "identity projection over second-order jets",
               fi.dimension == 0 and origin_ok, "only the scalar embedding is vertical")
    fj = vertical_fiber(proj, jet_line(2), [4, 9])
    report.add(FIBER, "coordinate projection over second-order jets",
               fj.regular and fj.dimension == 2,
               f"{fj.dimension} free parameters, one per nilpotent filtration slot")

    sound = True
    for i in range(max(4, samples // 3)):
        params = [corpus.random_rational(rng, 4) for _ in range(fj.dimension)]
        try:
            fj.point(params)  # rechecks membership, and raises when it fails
        except FiberedError:
            sound = False
    report.add(FIBER_SOUNDNESS, "sampled fiber members", sound,
               "every materialized fiber point passes membership exactly")

    ident_m = FiberedMorphism.identity(proj)
    fj_d = vertical_fiber(proj, d, [4, 9])
    x0d = fj_d.point([qq(1)])
    report.add(FUNCTOR, "identity morphism on a vertical point",
               vertical_functor_on_morphism(ident_m, d, x0d).coords == x0d.coords,
               "identity acts as identity")
    naturality = True
    functorial = True
    for i in range(max(4, samples // 2)):
        src = _random_standard_fibered(rng)
        mid = _random_standard_fibered(rng)
        tgt = _random_standard_fibered(rng)
        m1 = _random_block_morphism(rng, src, mid)
        m2 = _random_block_morphism(rng, mid, tgt)
        e0 = [corpus.random_rational(rng, 4) for _ in range(src.total_dim)]
        f_src = vertical_fiber(src, d, e0)
        x = f_src.point(
            [corpus.random_rational(rng, 4) for _ in range(f_src.dimension)]
        )
        try:
            y = vertical_functor_on_morphism(m1, d, x)
            z = vertical_functor_on_morphism(m2, d, y)
        except FiberedError:
            naturality = False
            break
        direct = vertical_functor_on_morphism(m2.compose(m1), d, x)
        if direct.coords != z.coords:
            functorial = False
    report.add(FUNCTOR_SAMPLED, "base anchors commute across random block squares", naturality,
               "vertical images stay vertical with the anchored base point")
    report.add(FUNCTOR_SAMPLED, "double application equals composite", functorial,
               "functoriality on sampled vertical points")

    eq_rep = check_vertical_equalizer(proj, d, samples=max(4, samples // 2), seed=seed)
    report.extend(eq_rep)

    single = FiberedDiagram(
        (proj,), (), proj, (FiberedMorphism.identity(proj),)
    )
    report.add(LEFT_EXACT, "one-object cone", check_vertical_left_exact(single, d))
    report.add(LEFT_EXACT, "pullback of coordinate projections",
               check_vertical_left_exact(_projection_pullback_cone(), d))

    cone = corpus.random_limit_cone(rng)
    p31 = FiberedObject.coordinate_projection(3, 1)
    vm = check_vertical_microlinearity(p31, cone, [0, 0, 0])
    report.add(VERTICAL_MICROLINEAR, "linear projection over a seeded cone",
               vm.ok and vm.exactness == "exact", vm.certificate)
    ident_cone = _identity_cone(first_order_infinitesimals(2))
    report.add(VERTICAL_MICROLINEAR, "single-object identity cone",
               check_vertical_microlinearity(p31, ident_cone, [1, 2, 3]))
    vs = check_vertical_microlinearity(sphere, cone, [qq(1), qq(0), qq(0)])
    report.add(VERTICAL_MICROLINEAR_GRADED, "sphere distance at a regular point",
               vs.ok and vs.exactness == "graded", vs.certificate)
    return report
