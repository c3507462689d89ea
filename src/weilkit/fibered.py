"""Projections as geometric objects and the directions they do not see.

A fibered object is a polynomial projection between coordinate spaces.
Lifting the whole arrow through a truncated-Taylor functor gives another
arrow; the points of the lifted total space whose image is infinitesimally
constant form the vertical part, cut out by an equalizer condition.
Everything here is exact and decided fiberwise: squares commute as
polynomials, membership is an exact evaluation, fibers over a base point
are solved degree by degree through the nilpotent filtration, and the
limit-preservation checks come with rank certificates whenever the data
is linear.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import corpus
from .axioms import ModelObject, _lifted_verdict, check_microlinear, limit_cone_numbers
from .exactlin import (
    NO_SOLUTION,
    Matrix,
    Mode,
    SolveFailure,
    difference_rows,
    kernel_basis,
    qq,
    solve_affine,
    solve_unique,
    spans_equal,
    vstack,
)
from .expr import (
    NonPolynomialError,
    SmoothMap,
    linear_map,
    parse_map,
    poly_diff,
    poly_eval,
)
from .reports import Report, Verdict
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

    total_dim: int
    base_dim: int
    projection: SmoothMap

    def __post_init__(self):
        if self.projection.arity_in != self.total_dim:
            raise FiberedError(
                f"projection takes {self.projection.arity_in} inputs, "
                f"declared total dimension is {self.total_dim}"
            )
        if self.projection.arity_out != self.base_dim:
            raise FiberedError(
                f"projection has {self.projection.arity_out} outputs, "
                f"declared base dimension is {self.base_dim}"
            )

    @staticmethod
    def from_map(projection: SmoothMap) -> "FiberedObject":
        return FiberedObject(projection.arity_in, projection.arity_out, projection)

    @staticmethod
    def from_text(text: str) -> "FiberedObject":
        return FiberedObject.from_map(parse_map(text, keyword="fibered"))

    @staticmethod
    def identity(d: int) -> "FiberedObject":
        return FiberedObject.from_map(SmoothMap.identity(d))

    @staticmethod
    def coordinate_projection(e: int, b: int) -> "FiberedObject":
        """Keep the first b of e coordinates."""
        if not 0 <= b <= e:
            raise FiberedError("base dimension must lie between 0 and total")
        rows = [
            [Fraction(1 if j == i else 0) for j in range(e)] for i in range(b)
        ]
        return FiberedObject(e, b, linear_map(rows, n_in=e, name=f"proj{e}to{b}"))

    @property
    def name(self) -> str:
        return f"{self.projection.name}: R^{self.total_dim} -> R^{self.base_dim}"

    def linear_rows(self):
        """Coefficient rows when the projection is linear, else None."""
        return self.projection.linear_matrix()

    @property
    def is_linear(self) -> bool:
        return self.linear_rows() is not None


def _maps_agree(f: SmoothMap, g: SmoothMap) -> bool:
    """Equality of two maps as exact polynomials.  A map that is not one (a
    call, or a denominator that depends on the inputs) is a FiberedError."""
    if f.arity_in != g.arity_in or f.arity_out != g.arity_out:
        return False
    try:
        return f.to_polys() == g.to_polys()
    except (NonPolynomialError, ZeroDivisionError) as exc:
        raise FiberedError(f"squares are decided on polynomial maps only: {exc}") from None


@dataclass(frozen=True)
class FiberedMorphism:
    """A pair of maps forming a square over two projections that commutes
    as an identity of polynomials (see _maps_agree)."""

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
        left = self.target.projection.compose(self.top)
        right = self.bottom.compose(self.source.projection)
        if not _maps_agree(left, right):
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
    """A finite diagram of fibered objects, optionally with a cone on top."""

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
                top = m.top.compose(self.legs[s].top)
                bottom = m.bottom.compose(self.legs[s].bottom)
                if not (
                    _maps_agree(top, self.legs[t].top)
                    and _maps_agree(bottom, self.legs[t].bottom)
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
    return FiberedObject(p.total_dim * w.dimension, p.base_dim * w.dimension, lifted)


def arrow_weil_on_morphism(w: WeilAlgebra, m: FiberedMorphism) -> FiberedMorphism:
    return FiberedMorphism(
        arrow_weil_functor(w, m.source),
        arrow_weil_functor(w, m.target),
        lift_map(m.top, w),
        lift_map(m.bottom, w),
    )


# ----- the vertical part ------------------------------------------------------


def _unit_complement(w: WeilAlgebra) -> Matrix:
    """I minus (unit tensor augmentation): kills the scalar component and
    keeps the nilpotent one."""
    d = w.dimension
    return Matrix(
        [[Fraction(i == j) - (w.aug[j] if i == 0 else 0) for j in range(d)] for i in range(d)],
        cols=d,
    )


def _linear_rows_matrix(p: FiberedObject) -> Matrix:
    rows = p.linear_rows()
    if rows is None:
        raise FiberedError(
            f"{p.projection.name} is not linear; this path needs a linear projection"
        )
    return Matrix(rows, cols=p.total_dim)


def vertical_equations(p: FiberedObject, w: WeilAlgebra) -> Matrix:
    """For a linear projection: the matrix whose kernel is the vertical
    subspace of the lifted total space (flat layout, coordinate-major)."""
    pm = _linear_rows_matrix(p)
    return pm.kron(_unit_complement(w))


def vertical_space_basis(p: FiberedObject, w: WeilAlgebra):
    return kernel_basis(vertical_equations(p, w))


def _point_from_flat(w: WeilAlgebra, flat, arity: int) -> WeilPoint:
    d = w.dimension
    coords = [w.element(list(flat[i * d : (i + 1) * d])) for i in range(arity)]
    return WeilPoint(w, coords)


def _flat_from_point(x: WeilPoint):
    return tuple(v for c in x.coords for v in c.raw)


def vertical_membership(p: FiberedObject, w: WeilAlgebra, x: WeilPoint) -> bool:
    """Is the lifted projection infinitesimally constant at x?  Decided by
    exact coefficient comparison, so a float point is a FiberedError."""
    if x.algebra != w:
        raise FiberedError("point does not live over the stated algebra")
    if x.mode is not Mode.EXACT:
        raise FiberedError("vertical membership is exact; got a float point")
    if x.arity != p.total_dim:
        raise FiberedError(
            f"point has {x.arity} coordinates, total space has {p.total_dim}"
        )
    image = apply_map(p.projection, x)
    return image.coords == embed_base(image, w).coords


@dataclass
class VerticalFiber:
    """Degree-graded description of the vertical points over one base point.

    At a regular point (full-row-rank Jacobian) the fiber is parametrized
    by one copy of the Jacobian kernel per nilpotent filtration slot;
    point() materializes the member for given parameter values by solving
    the filtration degrees in order.  No degree lifts the projection
    before a solved slot is nonzero, and the origin (every parameter zero)
    is the constant point e0*1, so solving it lifts the projection only
    once, for the final recheck.  Irregular points keep whatever
    per-degree data the solve produced and are flagged.
    """

    fibered: FiberedObject
    algebra: WeilAlgebra
    base_point: tuple
    jacobian: Matrix
    jacobian_rank: int
    regular: bool
    kernel: tuple
    slot_degrees: tuple
    per_degree: tuple = ()
    consistent: bool = True
    origin: WeilPoint | None = None
    _frame: Matrix = field(default=None, repr=False)
    _frame_inverse: Matrix = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        """Free parameters in the graded parametrization."""
        nil_slots = sum(1 for g in self.slot_degrees if g >= 1)
        return (self.fibered.total_dim - self.jacobian_rank) * nil_slots

    def point(self, params) -> WeilPoint:
        pt, _ = _solve_fiber(self, params, record=None)
        return pt


def _solve_fiber(desc: VerticalFiber, params, record):
    """Fill the filtration degrees in order; linear solve at each slot.

    Until a solved slot is nonzero the point is still e0*1, which the
    projection sends to F(e0)*1, so every right-hand side is zero: a
    degree lifts the projection through apply_map only when an earlier
    degree left a nonzero slot.  The verticality recheck always lifts.
    """
    e = desc.fibered.total_dim
    b = desc.fibered.base_dim
    w = desc.algebra
    dim = w.dimension
    kd = e - desc.jacobian_rank
    params = [_as_fraction(v, "fiber parameter") for v in params]
    nil_slots = [i for i, g in enumerate(desc.slot_degrees) if g >= 1]
    if len(params) != kd * len(nil_slots):
        raise FiberedError(
            f"expected {kd * len(nil_slots)} parameters, got {len(params)}"
        )
    filt = [[qq(0)] * dim for _ in range(e)]
    for i in range(e):
        filt[i][0] = desc.base_point[i]

    def materialize() -> WeilPoint:
        coords = []
        for i in range(e):
            ambient = desc._frame.apply(filt[i])
            coords.append(w.element(list(ambient)))
        return WeilPoint(w, coords)

    chunk = 0
    moved = False  # has a solved slot left the constant point e0*1?
    for degree in sorted({g for g in desc.slot_degrees if g >= 1}):
        slots = [i for i, g in enumerate(desc.slot_degrees) if g == degree]
        if moved:
            image = apply_map(desc.fibered.projection, materialize())
            image_filt = [
                desc._frame_inverse.apply(image.coords[r].raw) for r in range(b)
            ]
        else:  # the point is e0*1 and its image F(e0)*1 has no nilpotent part
            image_filt = [(qq(0),) * dim] * b
        failed = False
        for beta in slots:
            rhs = [-image_filt[r][beta] for r in range(b)]
            solved = solve_affine(desc.jacobian, rhs)
            if solved is NO_SOLUTION:
                failed = True
                break
            particular, _ = solved
            xi = list(particular)
            for t in range(kd):
                c = params[chunk + t]
                if c:
                    xi = [
                        x + c * kv for x, kv in zip(xi, desc.kernel[t])
                    ]
            for i in range(e):
                filt[i][beta] = xi[i]
            moved = moved or any(xi)
            chunk += kd
        if record is not None:
            record.append((degree, len(slots), kd, not failed))
        if failed:
            raise FiberedError(
                f"fiber equations are inconsistent at filtration degree {degree} "
                f"(projection {desc.fibered.projection.name} is irregular here)"
            )
    final = materialize()
    image = apply_map(desc.fibered.projection, final)
    if image.coords != embed_base(image, w).coords:
        raise FiberedError("solved point failed the verticality recheck")
    return final, record


def vertical_fiber(p: FiberedObject, w: WeilAlgebra, e0) -> VerticalFiber:
    """Solve for the vertical points sitting over the ordinary point e0.

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
    polys = p.projection.to_polys()
    jac_rows = []
    for poly in polys:
        row = []
        for j in range(p.total_dim):
            row.append(poly_eval(poly_diff(poly, j), base))
        jac_rows.append(row)
    jac = Matrix(jac_rows, cols=p.total_dim)
    kern = tuple(kernel_basis(jac))
    rank = p.total_dim - len(kern)
    vectors, degrees = filtered_basis(w)
    frame = Matrix.from_columns(vectors)
    desc = VerticalFiber(
        fibered=p,
        algebra=w,
        base_point=base,
        jacobian=jac,
        jacobian_rank=rank,
        regular=rank == p.base_dim,
        kernel=kern,
        slot_degrees=tuple(degrees),
        _frame=frame,
        _frame_inverse=frame.inverse(),
    )
    record = []
    kd = p.total_dim - rank
    nil_slots = sum(1 for g in degrees if g >= 1)
    try:
        origin, _ = _solve_fiber(desc, [0] * (kd * nil_slots), record)
        desc.origin = origin
        desc.consistent = True
    except FiberedError:
        desc.origin = None
        desc.consistent = False
    desc.per_degree = tuple(record)
    return desc


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


def check_vertical_equalizer(
    p: FiberedObject, w: WeilAlgebra, samples: int = 20, seed: int = 0
) -> Report:
    """Universal property of the vertical subspace of a linear projection:
    sampled maps that equalize the two composites factor through it, and
    uniquely; maps that do not equalize cannot factor."""
    rng = random.Random(seed)
    report = Report(f"vertical equalizer: {p.name} over {w.dimension}-dim algebra")
    eqs = vertical_equations(p, w)
    basis = kernel_basis(eqs)
    frame = Matrix.from_columns(basis) if basis else None

    members_ok = True
    for vec in basis:
        pt = _point_from_flat(w, vec, p.total_dim)
        if not vertical_membership(p, w, pt):
            members_ok = False
    report.add(
        "representation",
        f"{len(basis)} basis members",
        members_ok,
        "every representation basis vector is a vertical point",
    )

    for i in range(samples):
        width = rng.randint(1, 2)
        coeffs = Matrix(
            [
                [corpus.random_rational(rng, 5) for _ in range(width)]
                for _ in basis
            ],
            cols=width,
        )
        z = frame @ coeffs if frame is not None else Matrix.zeros(eqs.cols, width)
        residual = eqs @ z
        equalizes = not any(any(row) for row in residual.raw)
        unique = True
        factors = True
        for j in range(width):
            col = z.column(j)
            sol = (
                solve_unique(frame, col)
                if frame is not None
                else (NO_SOLUTION if any(col) else ())
            )
            if isinstance(sol, SolveFailure):
                factors = sol is not NO_SOLUTION
                unique = False
        report.add(
            "mediation",
            f"sampled cone {i} of width {width}",
            equalizes and factors and unique,
            "equalizes and factors uniquely through the vertical subspace",
        )

    if any(any(row) for row in eqs.raw):
        outsider = None
        for _ in range(20):
            probe = [corpus.random_rational(rng, 5) for _ in range(eqs.cols)]
            if any(eqs.apply(probe)):
                outsider = probe
                break
        if outsider is not None:
            sol = solve_unique(frame, outsider) if frame is not None else NO_SOLUTION
            report.add(
                "no-factoring-outside",
                "non-equalizing probe",
                sol is NO_SOLUTION,
                "a map that fails the equalizer condition cannot factor",
            )
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
    numbers = limit_cone_numbers(d, enforce_limit_input)
    v_total = _lifted_verdict(ModelObject.coordinate(p.total_dim), d, *numbers)
    v_base = _lifted_verdict(ModelObject.coordinate(p.base_dim), d, *numbers)

    rng = random.Random(seed)
    glue_ok = True
    for _ in range(samples):
        z = corpus.random_point(rng, d.apex, p.total_dim)
        for leg in d.legs:
            lhs = apply_map(p.projection, apply_morphism(leg, z))
            rhs = apply_morphism(leg, apply_map(p.projection, z))
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

    Decided by exact ranks on the vertical subspaces, so only for linear
    diagrams: a nonlinear projection, arrow or leg is refused with a
    FiberedError that names the first one.
    """
    if not d.has_cone:
        raise DiagramError("the diagram needs a cone to check")
    for i, o in enumerate((d.apex,) + tuple(d.objects)):
        if not o.is_linear:
            where = "the apex" if i == 0 else f"object {i - 1}"
            raise FiberedError(f"{where} ({o.name}) is not linear")
    for s, t, m in d.arrows:
        if m.top.linear_matrix() is None:
            raise FiberedError(f"the arrow {s} -> {t} ({m.top.name}) is not linear")
    for i, leg in enumerate(d.legs):
        if leg.top.linear_matrix() is None:
            raise FiberedError(f"leg {i} ({leg.top.name}) is not linear")
    dim = w.dimension
    bases = [vertical_space_basis(o, w) for o in d.objects]
    offsets = []
    pos = 0
    for o in d.objects:
        offsets.append(pos)
        pos += o.total_dim * dim
    total_cols = pos

    bdiag_cols = []
    for i, basis in enumerate(bases):
        for vec in basis:
            col = [qq(0)] * total_cols
            for r, c in enumerate(vec):
                col[offsets[i] + r] = c
            bdiag_cols.append(tuple(col))
    within = Matrix.from_columns(bdiag_cols, rows=total_cols)

    terms = []
    for s, t, m in d.arrows:
        a_top = Matrix(m.top.linear_matrix(), cols=m.source.total_dim)
        terms.append((offsets[s], a_top.kron(Matrix.identity(dim)).raw, offsets[t], None))
    constraints = difference_rows(total_cols, terms)

    compatible_vectors = [within.apply(k) for k in kernel_basis(constraints @ within)]
    nullity = len(compatible_vectors)

    apex_basis = vertical_space_basis(d.apex, w)
    canonical_blocks = [
        Matrix(leg.top.linear_matrix(), cols=d.apex.total_dim).kron(Matrix.identity(dim))
        for leg in d.legs
    ]
    canonical = vstack(canonical_blocks, cols=d.apex.total_dim * dim)
    image_vectors = [canonical.apply(v) for v in apex_basis]

    same_span = spans_equal(image_vectors, compatible_vectors)
    # within has independent columns, so the compatible vectors are
    # independent: with equal spans, the image is injective exactly when
    # the apex basis is as long as the nullity
    ok = same_span and nullity == len(apex_basis)
    cert = (
        f"vertical apex dimension {len(apex_basis)}; compatible vertical "
        f"families dimension {nullity}; image {'matches' if same_span else 'differs'}"
    )
    return Verdict(ok, cert, exactness="exact")


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
    base = tuple(_as_fraction(v, "base point coordinate") for v in e0)
    fib = vertical_fiber(p, d.apex, base)
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
    if fib.regular and fib.consistent:
        v = _lifted_verdict(kernel_object, d, *numbers)
        transported = _transport_fiber_points(p, d, fib, base)
        ok = v.ok and transported
        cert = (
            f"regular point, graded parametrization: {v.certificate}; "
            f"fiber transports {'agree' if transported else 'disagree'}"
        )
        return Verdict(ok, cert, exactness="graded")
    transported = (
        _transport_fiber_points(p, d, fib, base) if fib.origin is not None else False
    )
    return Verdict(
        transported,
        "irregular base point; only sampled transports of the partial fiber "
        f"data were checked (consistent={fib.consistent})",
        exactness="sampled",
    )


def _transport_fiber_points(p, d, fib, base) -> bool:
    rng = random.Random(5)
    draws = [[0] * fib.dimension]
    if fib.dimension:
        draws.append(
            [corpus.random_rational(rng, 4) for _ in range(fib.dimension)]
        )
    for params in draws:
        try:
            x = fib.point(params)
        except FiberedError:
            return False
        images = []
        for i, leg in enumerate(d.legs):
            y = apply_morphism(leg, x)
            if not vertical_membership(p, d.objects[i], y):
                return False
            if y.base() != base:
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

    total: WeilAlgebra
    base: WeilAlgebra
    connecting: WeilMorphism

    def __post_init__(self):
        if self.connecting.source != self.base or (
            self.connecting.target != self.total
        ):
            raise FiberedError(
                "connecting map must send the base algebra into the total algebra"
            )

    @staticmethod
    def identity(w: WeilAlgebra) -> "InfinitesimalArrow":
        return InfinitesimalArrow(w, w, WeilMorphism.identity(w))

    @staticmethod
    def trivial() -> "InfinitesimalArrow":
        k = terminal()
        return InfinitesimalArrow(k, k, WeilMorphism.identity(k))


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
    pm = _linear_rows_matrix(p)
    if pm.rank() != p.base_dim:
        raise FiberedError(
            "sampling pullback points needs a surjective linear projection"
        )
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

    report.add(
        "connecting-map-shuffle",
        instance,
        shuffle_total.compose(conn_left) == conn_right.compose(shuffle_base),
        "the shuffles intertwine the two connecting maps exactly",
    )
    report.add(
        "shuffles-invertible",
        instance,
        shuffle_total.is_isomorphism() and shuffle_base.is_isomorphism(),
        "both transports are isomorphisms",
    )

    lifted = pm.kron(Matrix.identity(a_total.dimension))
    vert = kernel_basis(lifted) if p.base_dim < p.total_dim else []
    vert = [[(k, y) for k, y in enumerate(kv) if y] for kv in vert]  # nonzero entries
    # the permutation (0, 2, 1) is its own inverse
    shuffle_back = factor_permutation_iso(b_total, a_total, (0, 2, 1))
    pair_failures = 0
    for _ in range(samples):
        v = corpus.random_point(rng, a_base, p.base_dim)
        target = apply_morphism(conn_left, v)
        solved = solve_affine(lifted, _flat_from_point(target))
        if solved is NO_SOLUTION:
            pair_failures += 1
            continue
        particular, _ = solved
        flat_u = list(particular)
        for kv in vert:
            c = corpus.random_rational(rng, 3)
            if c:
                for k, y in kv:
                    flat_u[k] += c * y
        u = _point_from_flat(a_total, flat_u, p.total_dim)
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
    report.add(
        "pullback-point-transport",
        instance,
        pair_failures == 0,
        f"{samples} solved pairs stay pullback pairs through the shuffle"
        if pair_failures == 0
        else f"{pair_failures}/{samples} pairs broke",
    )
    return report


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
            v = check_fibered_microlinear(
                proj, mutant, enforce_limit_input=False
            )
            component = check_microlinear(
                ModelObject.coordinate(proj.total_dim),
                mutant,
                enforce_limit_input=False,
            )
            report.add(
                "negative-control",
                f"{kind}-mutated cone {i}",
                (not v.ok) and (not component.ok),
                "arrow-level check and component check both refuse",
            )
        try:
            FiberedMorphism(
                proj,
                proj,
                SmoothMap.identity(2),
                linear_map([[Fraction(2)]], name="doubled"),
            )
            report.add(
                "square-guard", "non-commuting square", False, "accepted a broken square"
            )
        except FiberedError as exc:
            report.add("square-guard", "non-commuting square", True, str(exc))
        return report

    k = terminal()
    lifted_k = arrow_weil_functor(k, sphere)
    pt = [Fraction(1), Fraction(2), Fraction(-1)]
    report.add(
        "trivial-lift",
        "sphere distance over the scalars",
        lifted_k.total_dim == 3
        and lifted_k.projection(pt) == sphere.projection(pt),
        "lift over the scalars acts as the original projection",
    )

    d = dual_numbers()
    lifted_proj = arrow_weil_functor(d, proj)
    got = lifted_proj.linear_rows()
    want = _linear_rows_matrix(proj).kron(Matrix.identity(2))
    report.add(
        "linear-lift",
        "coordinate projection over the tangent algebra",
        got is not None
        and Matrix(got, cols=4) == want,
        "lift of a linear projection is the blockwise matrix",
    )

    for i in range(max(3, samples // 4)):
        src = _random_standard_fibered(rng)
        tgt = _random_standard_fibered(rng)
        m = _random_block_morphism(rng, src, tgt)
        lifted = arrow_weil_on_morphism(d, m)
        report.add(
            "lifted-square",
            f"random block square {i}",
            lifted.source.total_dim == src.total_dim * 2,
            "lifting a morphism keeps the square commuting",
        )

    cones = [corpus.random_limit_cone(rng) for _ in range(3)]
    for i, cone in enumerate(cones):
        for obj, label in ((FiberedObject.identity(2), "identity arrow"),
                           (proj, "coordinate projection"),
                           (sphere, "sphere distance")):
            v = check_fibered_microlinear(obj, cone, seed=rng.randrange(1 << 30))
            report.add(
                "fibered-microlinear",
                f"{label} over cone {i}",
                v,
                v.certificate,
            )

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
        report.add(
            "left-exact-control",
            "collapsed-leg pullback cone",
            not v.ok,
            v.certificate,
        )
        cone = corpus.random_limit_cone(rng)
        mutant = corpus.mutate_cone(cone, "inflate")
        vm = check_vertical_microlinearity(
            FiberedObject.coordinate_projection(3, 1),
            mutant,
            [0, 0, 0],
            enforce_limit_input=False,
        )
        report.add(
            "vertical-microlinear-control",
            "inflated cone",
            not vm.ok,
            vm.certificate,
        )
        bad = WeilPoint(d, [d.element([qq(0), qq(1)]), d.element([qq(0), qq(0)])])
        try:
            vertical_functor_on_morphism(FiberedMorphism.identity(proj), d, bad)
            report.add(
                "membership-guard", "non-vertical input", False, "accepted bad input"
            )
        except FiberedError as exc:
            report.add("membership-guard", "non-vertical input", True, str(exc))
        return report

    a, b, c = qq(3), qq(-2), qq(5)
    flat_pt = WeilPoint(d, [d.element([a, qq(0)]), d.element([b, c])])
    report.add(
        "membership",
        "coordinate projection, motion only along the fiber",
        vertical_membership(proj, d, flat_pt),
        "nilpotent motion in the dropped coordinate stays vertical",
    )
    moving = WeilPoint(d, [d.element([a, qq(1)]), d.element([b, qq(0)])])
    report.add(
        "membership",
        "coordinate projection, motion along the base",
        not vertical_membership(proj, d, moving),
        "base-directed motion is rejected",
    )
    sphere_flat = WeilPoint.from_scalars(d, [1, 2, 3])
    report.add(
        "membership",
        "sphere distance, no nilpotent part",
        vertical_membership(sphere, d, sphere_flat),
        "purely scalar points are always vertical",
    )

    fib = vertical_fiber(sphere, d, [1, 0, 0])
    span_ok = sorted(fib.kernel) == [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0)),
    ]
    report.add(
        "fiber",
        "sphere distance at (1,0,0) over the tangent algebra",
        fib.regular and fib.dimension == 2 and span_ok,
        f"dimension {fib.dimension}, kernel of the gradient [2,0,0]",
    )
    ident = FiberedObject.identity(3)
    fi = vertical_fiber(ident, jet_line(2), [2, -1, 7])
    origin_ok = fi.origin is not None and all(
        c.raw[1:] == (Fraction(0),) * 2
        for c in fi.origin.coords
    )
    report.add(
        "fiber",
        "identity projection over second-order jets",
        fi.dimension == 0 and origin_ok,
        "only the scalar embedding is vertical",
    )
    fj = vertical_fiber(proj, jet_line(2), [4, 9])
    report.add(
        "fiber",
        "coordinate projection over second-order jets",
        fj.regular and fj.dimension == 2,
        f"{fj.dimension} free parameters, one per nilpotent filtration slot",
    )

    sound = True
    for i in range(max(4, samples // 3)):
        params = [corpus.random_rational(rng, 4) for _ in range(fj.dimension)]
        x = fj.point(params)
        if not vertical_membership(proj, jet_line(2), x):
            sound = False
    v = Verdict(
        sound, "every materialized fiber point passes membership exactly", "sampled"
    )
    report.add("fiber-soundness", "sampled fiber members", v, v.certificate)

    ident_m = FiberedMorphism.identity(proj)
    fj_d = vertical_fiber(proj, d, [4, 9])
    x0d = fj_d.point([qq(1)])
    report.add(
        "functor",
        "identity morphism on a vertical point",
        vertical_functor_on_morphism(ident_m, d, x0d).coords == x0d.coords,
        "identity acts as identity",
    )
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
    v = Verdict(
        naturality, "vertical images stay vertical with the anchored base point", "sampled"
    )
    report.add("functor", "base anchors commute across random block squares", v, v.certificate)
    v = Verdict(functorial, "functoriality on sampled vertical points", "sampled")
    report.add("functor", "double application equals composite", v, v.certificate)

    eq_rep = check_vertical_equalizer(proj, d, samples=max(4, samples // 2), seed=seed)
    report.extend(eq_rep)

    single = FiberedDiagram(
        (proj,), (), proj, (FiberedMorphism.identity(proj),)
    )
    v = check_vertical_left_exact(single, d)
    report.add("left-exact", "one-object cone", v, v.certificate)
    v = check_vertical_left_exact(_projection_pullback_cone(), d)
    report.add("left-exact", "pullback of coordinate projections", v, v.certificate)

    cone = corpus.random_limit_cone(rng)
    p31 = FiberedObject.coordinate_projection(3, 1)
    vm = check_vertical_microlinearity(p31, cone, [0, 0, 0])
    report.add(
        "vertical-microlinear",
        "linear projection over a seeded cone",
        vm.ok and vm.exactness == "exact",
        vm.certificate,
    )
    w22 = first_order_infinitesimals(2)
    ident_cone = DiagramInWeil(
        (w22,), ((0, 0, WeilMorphism.identity(w22)),), w22, (WeilMorphism.identity(w22),)
    )
    vm = check_vertical_microlinearity(p31, ident_cone, [1, 2, 3])
    report.add(
        "vertical-microlinear", "single-object identity cone", vm, vm.certificate
    )
    vs = check_vertical_microlinearity(sphere, cone, [qq(1), qq(0), qq(0)])
    report.add(
        "vertical-microlinear",
        "sphere distance at a regular point",
        vs.ok and vs.exactness == "graded",
        vs.certificate,
    )
    return report
