"""Microlinearity and tensor-exponent checks over a linear model category.

Model objects are coordinate spaces and their finite limits along linear
maps.  For such objects every lifted arrow acts coordinate-blockwise, so
"this cone stays a limit after lifting" is decided by exact rank
computations whose ranks scale by the carrier's dimension; a model object
is therefore held by its dimension, and the checkers hand back the ranks
as certificates.  Exponent objects are infinitesimal: X raised to such an
exponent is X tensored with the exponent's algebra, and the tensor-shuffle
identities are verified through explicitly constructed isomorphisms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import corpus
from .exactlin import Mode, difference_rows
from .exactlin import kernel_basis  # noqa: F401 (unused here; bench/tests requires the alias)
from .expr import SmoothMap
from .reports import Check, Report, Verdict
from .smooth import (
    apply_map,
    apply_morphism,
    check_functor_composition,
    check_reparametrization_naturality,
    evaluate_at_scalars,
)
from .weil import (
    DiagramError,
    DiagramInWeil,
    MorphismError,
    WeilAlgebra,
    WeilMorphism,
    _rank_one_numbers,
    dual_numbers,
    factor_permutation_iso,
    first_order_infinitesimals,
    is_limit_cone,
    jet_line,
    limit_cone,
    tensor,
    tensor_morphism,
    terminal,
)


@dataclass(frozen=True)
class ModelObject:
    """A coordinate space or a finite limit of them along linear maps.

    The carrier is a linear subspace of R^ambient_dim of dimension dim.
    Lifted arrows act on it coordinate-blockwise, so every check reads the
    carrier through its dimension alone, and that is all it holds.
    """

    kind: str
    name: str
    ambient_dim: int
    dim: int

    @staticmethod
    def coordinate(d: int) -> "ModelObject":
        return ModelObject("coordinate", f"R^{d}", d, d)

    @staticmethod
    def limit_of(dims, arrows, name: str | None = None) -> "ModelObject":
        """Limit of coordinate spaces R^dims[i] along linear SmoothMaps.

        arrows are (source index, target index, map); a non-linear map is
        rejected, since the carrier would stop being a subspace.
        """
        dims = list(dims)
        offsets = []
        pos = 0
        for d in dims:
            offsets.append(pos)
            pos += d
        total = pos
        terms = []
        for s, t, f in arrows:
            lin = f.linear_matrix()
            if lin is None:
                raise ValueError(
                    f"limit arrow {f.name} is not linear; "
                    "only linear defining maps give subspace carriers"
                )
            if f.arity_in != dims[s] or f.arity_out != dims[t]:
                raise ValueError("arrow arities do not match the objects")
            terms.append((offsets[s], lin, offsets[t], None))
        dim = total - difference_rows(total, terms).rank()
        return ModelObject(
            "limit", name or f"limit({'x'.join(map(str, dims))})", total, dim
        )

    @staticmethod
    def linear_equalizer(f: SmoothMap, g: SmoothMap) -> "ModelObject":
        if f.arity_in != g.arity_in or f.arity_out != g.arity_out:
            raise ValueError("equalizer needs a parallel pair")
        return ModelObject.limit_of(
            [f.arity_in, f.arity_out], [(0, 1, f), (0, 1, g)], f"eq({f.name},{g.name})"
        )

    @staticmethod
    def linear_pullback(f: SmoothMap, g: SmoothMap) -> "ModelObject":
        if f.arity_out != g.arity_out:
            raise ValueError("pullback needs a cospan")
        return ModelObject.limit_of(
            [f.arity_in, g.arity_in, f.arity_out],
            [(0, 2, f), (1, 2, g)],
            f"pb({f.name},{g.name})",
        )

    def tensor_with(self, w: WeilAlgebra, name: str | None = None) -> "ModelObject":
        """The lifted carrier X (x) W: coordinate i's element of w occupies
        the flat block [i*dim(w), (i+1)*dim(w)), so both sizes scale by
        dim(w)."""
        d = w.dimension
        kind = self.kind if self.kind == "coordinate" else "limit"
        return ModelObject(
            kind,
            name or f"{self.name}(x){_short_algebra_name(w)}",
            self.ambient_dim * d,
            self.dim * d,
        )


def _short_algebra_name(w: WeilAlgebra) -> str:
    if w.is_terminal:
        return "Q"
    if w.flavor == "presented":
        from .weil import describe_presented

        return describe_presented(w)
    return f"tabled[{w.dimension}]"


@dataclass(frozen=True)
class InfinitesimalExponent:
    """An exponent object small enough to be a Spec: raising to it is
    tensoring with its algebra."""

    algebra: WeilAlgebra

    @property
    def name(self) -> str:
        return f"Spec({_short_algebra_name(self.algebra)})"


def infinitesimal_exponent_of(x: ModelObject, y: InfinitesimalExponent) -> ModelObject:
    """X to the power of an infinitesimal exponent: the tensored carrier."""
    return x.tensor_with(y.algebra, name=f"{x.name}^{y.name}")


# ----- microlinearity --------------------------------------------------------


def limit_cone_numbers(cone: DiagramInWeil, enforce_limit_input: bool = True):
    """The r = 1 numbers of a cone, after its limit-cone precondition.

    Returns (rank of the canonical map, compatible subspace dimension) at
    X = R.  With enforce_limit_input, a cone that is not a limit cone raises
    DiagramError.  These are the numbers is_limit_cone decides by, so it
    runs only when they refuse: to word the refusal, and to accept the
    empty diagram under a terminal apex, whose numbers read the empty
    direct sum rather than its limit.
    """
    if not cone.has_cone:
        raise DiagramError("microlinearity needs a cone over the diagram")
    rank_c, nullity = _rank_one_numbers(cone)
    if enforce_limit_input and not rank_c == cone.apex.dimension == nullity:
        pre = is_limit_cone(cone)
        if not pre.ok:
            raise DiagramError(
                f"input cone is not a limit cone ({pre.certificate}); "
                "the check would be vacuous"
            )
    return rank_c, nullity


def check_microlinear(
    x: ModelObject,
    cone: DiagramInWeil,
    enforce_limit_input: bool = True,
) -> Verdict:
    """Does lifting X over this cone give a limit cone again?

    The cone must be a limit cone of algebras; that precondition is
    enforced (reject with reason, see limit_cone_numbers) unless
    enforce_limit_input=False, which the negative-control batteries use to
    probe deliberately broken cones.  The decision itself is exact linear
    algebra.
    """
    return _lifted_verdict(x, cone, *limit_cone_numbers(cone, enforce_limit_input))


def _lifted_verdict(x: ModelObject, cone: DiagramInWeil, rank_c: int, nullity: int) -> Verdict:
    """check_microlinear's verdict for X from the cone's r = 1 numbers."""
    r = x.dim
    if r == 0:
        return Verdict(True, f"{x.name} is the zero object; both sides vanish")
    # Lifting X = R^r puts I_r (x) B in place of every block B, so each
    # matrix is a row and column permutation of I_r (x) its r = 1 form:
    # ranks scale by r.
    rank_c *= r
    nullity *= r
    apex_d = cone.apex.dimension
    ok = rank_c == r * apex_d and nullity == rank_c
    cert = (
        f"{x.name}: canonical map rank {rank_c} of {r * apex_d}; "
        f"compatible subspace dimension {nullity}; containment holds"
    )
    return Verdict(ok, cert, exactness="exact")


# ----- tensor-exponent identities --------------------------------------------

SHUFFLE_ISO = Check("shuffle-iso", "exact")
SHUFFLE_MULTIPLICATIVE = Check("shuffle-multiplicative", "exact")
CARRIER_TRANSPORT = Check("carrier-transport", "exact")
SHUFFLE_NATURALITY = Check("shuffle-naturality", "sampled")


def check_weil_exponentiable(
    x: ModelObject,
    y: InfinitesimalExponent,
    w1: WeilAlgebra,
    w2: WeilAlgebra,
    samples: int = 20,
    seed: int = 0,
) -> Report:
    """Raising to an infinitesimal exponent commutes with tensoring.

    Both arrangements reduce to iterated tensors differing by a factor
    shuffle; the shuffle isomorphism is constructed explicitly, checked as
    an isomorphism and as multiplicative on basis pairs, and checked to
    commute with lifted maps on random points.  The degenerate arrangements
    (exponent trivial, left factor trivial) run through the same machinery.
    """
    rng = random.Random(seed)
    wy = y.algebra
    report = Report(f"tensor-exponent: X={x.name}, Y={y.name}")
    inner_a, _, _ = tensor(w1, w2)
    a_side, _, _ = tensor(inner_a, wy)
    inner_b, _, _ = tensor(w1, wy)
    b_side, _, _ = tensor(inner_b, w2)
    tag = _degeneracy_tag(w1, wy)
    instance = (
        f"{x.name}^{y.name} with factors "
        f"{_short_algebra_name(w1)}, {_short_algebra_name(w2)}{tag}"
    )

    sigma = factor_permutation_iso(a_side, b_side, (0, 2, 1))
    iso = sigma.is_isomorphism()
    report.add(SHUFFLE_ISO, instance, iso,
               f"permutation matrix {sigma.matrix.rows}x{sigma.matrix.cols} invertible")

    try:
        sigma._validate_multiplicative()  # on every pair of basis vectors
        mult_ok = True
    except MorphismError:
        mult_ok = False
    report.add(SHUFFLE_MULTIPLICATIVE, instance, mult_ok,
               "products transport through the shuffle exactly")

    # X (x) sigma acts as I_X (x) sigma, of rank dim X * rank sigma, and sigma
    # is square: the lifted carriers correspond exactly when sigma is invertible
    report.add(CARRIER_TRANSPORT, instance, x.dim == 0 or iso,
               f"lifted carrier maps onto lifted carrier, rank {x.dim * a_side.dimension}")

    if x.kind == "coordinate":
        n = x.ambient_dim
        point_failures = 0
        for _ in range(samples):
            f = corpus.random_poly_map(rng, n, n, depth=2)
            p = corpus.random_point(rng, a_side, n)
            lhs = apply_morphism(sigma, apply_map(f, p))
            rhs = apply_map(f, apply_morphism(sigma, p))
            if lhs.coords != rhs.coords:
                point_failures += 1
        report.add(SHUFFLE_NATURALITY, instance, point_failures == 0,
                   f"{samples} random (map, point) draws agree exactly"
                   if point_failures == 0 else f"{point_failures}/{samples} draws disagree")
    return report


def _degeneracy_tag(w1: WeilAlgebra, wy: WeilAlgebra) -> str:
    notes = []
    if wy.is_terminal:
        notes.append("exponent trivial")
    if w1.is_terminal:
        notes.append("left factor trivial")
    return f" ({'; '.join(notes)})" if notes else ""


# ----- double limits ----------------------------------------------------------


def tensor_of_cones(c1: DiagramInWeil, c2: DiagramInWeil) -> DiagramInWeil:
    """The grid diagram of pairwise tensors, with the tensored cone on top.

    For connected input shapes, two limit cones give a limit cone again:
    connected limits are cut out by the arrow equations alone, and
    tensoring over the scalars preserves kernels of linear maps.  A
    disconnected factor breaks this (its limit glues the scalar parts of
    the pieces once, while the grid limit re-glues them per component),
    so callers wanting limit cones must feed connected diagrams.
    is_limit_cone makes the property an exact check either way.
    """
    if not (c1.has_cone and c2.has_cone):
        raise DiagramError("both inputs need cones")
    n2 = len(c2.objects)
    grid_objects = []
    for wa in c1.objects:
        for wb in c2.objects:
            grid_objects.append(tensor(wa, wb)[0])

    def at(i, j):
        return i * n2 + j

    arrows = []
    for s, t, phi in c1.arrows:
        for j, wb in enumerate(c2.objects):
            arrows.append(
                (
                    at(s, j),
                    at(t, j),
                    tensor_morphism(
                        phi,
                        WeilMorphism.identity(wb),
                        source=grid_objects[at(s, j)],
                        target=grid_objects[at(t, j)],
                    ),
                )
            )
    for i, wa in enumerate(c1.objects):
        for s, t, psi in c2.arrows:
            arrows.append(
                (
                    at(i, s),
                    at(i, t),
                    tensor_morphism(
                        WeilMorphism.identity(wa),
                        psi,
                        source=grid_objects[at(i, s)],
                        target=grid_objects[at(i, t)],
                    ),
                )
            )
    apex, _, _ = tensor(c1.apex, c2.apex)
    legs = []
    for i in range(len(c1.objects)):
        for j in range(n2):
            legs.append(
                tensor_morphism(
                    c1.legs[i],
                    c2.legs[j],
                    source=apex,
                    target=grid_objects[at(i, j)],
                )
            )
    return DiagramInWeil(tuple(grid_objects), tuple(arrows), apex, tuple(legs))


# ----- suites -----------------------------------------------------------------


def _identity_cone(w: WeilAlgebra) -> DiagramInWeil:
    return DiagramInWeil(
        (w,), ((0, 0, WeilMorphism.identity(w)),), w, (WeilMorphism.identity(w),)
    )


LIFT_IDENTITY = Check("lift-identity", "exact")
LIFT_COMPOSITION = Check("lift-composition", "exact")
TERMINAL_COLLAPSE = Check("terminal-collapse", "exact")
COMPOSITE_VS_TENSOR = Check("composite-vs-tensor", "exact")
REPARAMETRIZATION = Check("reparametrization", "exact")
COMPOSITE_VS_TENSOR_FLOAT = Check("composite-vs-tensor-float", "sampled")


def axioms_suite(seed: int = 0, samples: int = 20, mode: Mode = Mode.EXACT) -> Report:
    """Functor laws: identity, composition, terminal collapse, the
    composite-vs-tensor identity, and naturality of reparametrization."""
    rng = random.Random(seed)
    report = Report("functor axioms")
    algebras = corpus.standard_algebras()

    for i in range(max(3, samples // 4)):
        name, w = algebras[i % len(algebras)]
        n = rng.randint(1, 3)
        p = corpus.random_point(rng, w, n)
        ident = SmoothMap.identity(n)
        report.add(LIFT_IDENTITY, f"{name}, {n} coords, draw {i}",
                   apply_map(ident, p).coords == p.coords, "lifted identity fixes the point")

    for i in range(samples):
        name, w = algebras[i % len(algebras)]
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        f = corpus.random_poly_map(rng, n, m, depth=2)
        g = corpus.random_poly_map(rng, m, k, depth=2)
        p = corpus.random_point(rng, w, n)
        lhs = apply_map(g.compose(f), p)
        rhs = apply_map(g, apply_map(f, p))
        report.add(LIFT_COMPOSITION, f"{name}, {g.name} after {f.name}, draw {i}",
                   lhs.coords == rhs.coords, "lift of a composite equals the composite of lifts")

    for i in range(max(3, samples // 4)):
        n = rng.randint(1, 3)
        f = corpus.random_poly_map(rng, n, n, depth=2)
        values = [corpus.random_rational(rng, 5) for _ in range(n)]
        collapsed = evaluate_at_scalars(f, values)
        direct = f([Fraction(v) for v in values])
        report.add(TERMINAL_COLLAPSE, f"{f.name} at scalar draw {i}",
                   collapsed == list(direct), "lift over the scalars is plain evaluation")

    pair_pool = [
        (dual_numbers(), dual_numbers("y")),
        (dual_numbers(), jet_line(2)),
        (first_order_infinitesimals(2), dual_numbers()),
        (jet_line(2), jet_line(3, "s")),
    ]
    flats = [tensor(w1, w2)[0] for w1, w2 in pair_pool]
    for i in range(samples):
        w1, w2 = pair_pool[i % len(pair_pool)]
        flat = flats[i % len(pair_pool)]
        n = rng.randint(1, 2)
        f = corpus.random_poly_map(rng, n, rng.randint(1, 2), depth=3)
        p = corpus.random_point(rng, flat, n)
        report.add(COMPOSITE_VS_TENSOR,
                   f"{_short_algebra_name(w1)} then {_short_algebra_name(w2)}, draw {i}",
                   check_functor_composition(f, p))

    for i in range(samples):
        source = corpus.random_presented_algebra(rng, max_dim=6)
        target = corpus.random_presented_algebra(rng, max_dim=6)
        middle = corpus.random_presented_algebra(rng, max_dim=6)
        phi = corpus.random_morphism(rng, source, middle)
        psi = corpus.random_morphism(rng, middle, target)
        n = rng.randint(1, 2)
        f = corpus.random_poly_map(rng, n, rng.randint(1, 2), depth=2)
        p = corpus.random_point(rng, source, n)
        v1 = check_reparametrization_naturality(f, phi, p)
        composed = psi.compose(phi)
        two_step = apply_morphism(psi, apply_morphism(phi, p))
        one_step = apply_morphism(composed, p)
        report.add(REPARAMETRIZATION, f"draw {i}: {f.name} across two random algebra maps",
                   v1.ok and two_step.coords == one_step.coords,
                   "naturality square and composition of coordinate changes agree")

    if mode is Mode.FLOAT:
        for i in range(max(3, samples // 4)):
            flat = flats[i % len(pair_pool)]
            n = rng.randint(1, 2)
            f = corpus.random_transcendental_map(rng, n, 1)
            p = corpus.random_point(rng, flat, n, mode=Mode.FLOAT, base_shift=3)
            report.add(COMPOSITE_VS_TENSOR_FLOAT, f"transcendental draw {i}",
                       check_functor_composition(f, p))
    return report


IDENTITY_CONE = Check("identity-cone", "exact")
LIMIT_PRESERVED = Check("limit-preserved", "exact")
NEGATIVE_CONTROL = Check("negative-control", "exact")
PRECONDITION_GUARD = Check("precondition-guard", "exact")


def microlinearity_suite(
    seed: int = 0, samples: int = 20, negative_controls: bool = False
) -> Report:
    """Positive battery over generated limit cones, or with
    negative_controls=True the mutation battery (controls must FAIL)."""
    rng = random.Random(seed)
    report = Report(
        "microlinearity negative controls" if negative_controls else "microlinearity"
    )
    spaces = [ModelObject.coordinate(d) for d in (1, 2, 3)]

    if not negative_controls:
        w = first_order_infinitesimals(2)
        report.add(IDENTITY_CONE, f"R^3 over {_short_algebra_name(w)}",
                   check_microlinear(spaces[2], _identity_cone(w)))
        for i in range(samples):
            cone = corpus.random_limit_cone(rng)
            x = spaces[i % len(spaces)]
            report.add(LIMIT_PRESERVED, f"{x.name} over seeded cone {i} "
                       f"({len(cone.objects)} objects, apex dim {cone.apex.dimension})",
                       check_microlinear(x, cone))
        return report

    for i, (kind, mutant) in enumerate(corpus.mutated_cones(rng, samples)):
        x = spaces[i % len(spaces)]
        v = check_microlinear(x, mutant, enforce_limit_input=False)
        report.add(NEGATIVE_CONTROL, f"{x.name} over {kind}-mutated cone {i}", not v.ok,
                   f"checker correctly refuses: {v.certificate}"
                   if not v.ok else "checker wrongly accepted a broken cone")

    mutant = corpus.mutate_cone(corpus.random_limit_cone(rng), "inflate")
    report.add_refusal(PRECONDITION_GUARD, "mutated cone with enforcement on", DiagramError,
                       lambda: check_microlinear(spaces[0], mutant),
                       "broken cone slipped past the precondition", "rejected as required: ")
    return report


def exponentiability_suite(seed: int = 0, samples: int = 20) -> Report:
    rng = random.Random(seed)
    report = Report("tensor exponentiability")
    d = dual_numbers()
    d2 = first_order_infinitesimals(2)
    j2 = jet_line(2)
    combos = [
        (ModelObject.coordinate(2), InfinitesimalExponent(d), d, d),
        (ModelObject.coordinate(1), InfinitesimalExponent(d2), d, j2),
        (ModelObject.coordinate(3), InfinitesimalExponent(j2), d2, d),
        # degenerate arrangements: trivial exponent, trivial left factor
        (ModelObject.coordinate(2), InfinitesimalExponent(terminal()), d, d2),
        (ModelObject.coordinate(2), InfinitesimalExponent(d), terminal(), j2),
    ]
    per = max(4, samples // len(combos))
    for i, (x, y, w1, w2) in enumerate(combos):
        sub = check_weil_exponentiable(
            x, y, w1, w2, samples=per, seed=rng.randrange(1 << 30)
        )
        report.extend(sub)
    return report


BASE_OBJECT = Check("base-object", "exact")
DERIVED_MICROLINEAR = Check("derived-microlinear", "exact")
DERIVED_EXPONENTIABLE = Check("derived-exponentiable", "exact")
DERIVED_EXPONENTIABLE_SAMPLED = Check("derived-exponentiable", "sampled")
DOUBLE_LIMIT = Check("double-limit", "exact")
DOUBLE_LIMIT_LIFTED = Check("double-limit-lifted", "exact")


def closure_suite(seed: int = 0) -> Report:
    """Derived objects of verified objects pass the same checks.

    Covers lifted carriers, finite limits of coordinate spaces, and
    infinitesimal exponentials, plus the double-limit commutation that the
    limit-closure argument leans on.  Failures here would contradict
    theorems, so every instance is a hard expectation.
    """
    rng = random.Random(seed)
    report = Report("closure of the verified classes")
    d = dual_numbers()
    d2 = first_order_infinitesimals(2)

    base = [ModelObject.coordinate(n) for n in (1, 2)]
    cones = [corpus.random_limit_cone(rng) for _ in range(3)]
    numbers = [limit_cone_numbers(cone) for cone in cones]
    for x in base:
        for i, cone in enumerate(cones):
            report.add(BASE_OBJECT, f"{x.name} over cone {i}",
                       _lifted_verdict(x, cone, *numbers[i]))

    derived = []
    for x in base:
        derived.append(x.tensor_with(d))
        derived.append(x.tensor_with(d2))
    lin_f = SmoothMap(("u", "v", "w"), tuple(_lin_bodies(rng, 3, 2)), name="L1")
    lin_g = SmoothMap(("u", "v", "w"), tuple(_lin_bodies(rng, 3, 2)), name="L2")
    derived.append(ModelObject.linear_equalizer(lin_f, lin_g))
    pb_f = SmoothMap(("u", "v"), tuple(_lin_bodies(rng, 2, 1)), name="P1")
    pb_g = SmoothMap(("u",), tuple(_lin_bodies(rng, 1, 1)), name="P2")
    derived.append(ModelObject.linear_pullback(pb_f, pb_g))
    y = InfinitesimalExponent(d)
    derived.append(infinitesimal_exponent_of(base[0], y))

    for x in derived:
        for i, cone in enumerate(cones):
            report.add(DERIVED_MICROLINEAR, f"{x.name} over cone {i}",
                       _lifted_verdict(x, cone, *numbers[i]))

    # each outcome of the exponent check, under the derived check of its tag
    as_derived = {c.exactness: c for c in (DERIVED_EXPONENTIABLE, DERIVED_EXPONENTIABLE_SAMPLED)}
    for x in derived[:3]:
        sub = check_weil_exponentiable(x, y, d, d2, samples=4, seed=rng.randrange(1 << 30))
        for o in sub.outcomes:
            report.add(as_derived[o.exactness], o.instance, o.passed, o.detail)

    ident_d = WeilMorphism.identity(d)
    kill = corpus.collapse_to_scalars(d)
    eq_cone = limit_cone(
        DiagramInWeil((d, d), ((0, 1, ident_d), (0, 1, kill)))
    )
    from .weil import augmentation

    cospan_cone = limit_cone(
        DiagramInWeil(
            (d, terminal(), d),
            ((0, 1, augmentation(d)), (2, 1, augmentation(d))),
        )
    )
    grid = tensor_of_cones(eq_cone, cospan_cone)
    report.add(DOUBLE_LIMIT, "equalizer cone (x) pullback cone, both orders", is_limit_cone(grid))
    report.add(DOUBLE_LIMIT_LIFTED, "R^2 over the grid cone",
               check_microlinear(ModelObject.coordinate(2), grid))
    return report


def _lin_bodies(rng: random.Random, n_in: int, n_out: int):
    from .expr import const, var

    bodies = []
    for _ in range(n_out):
        e = const(0)
        for i in range(n_in):
            c = corpus.random_rational(rng, 3)
            if c:
                e = e + const(c) * var(i)
        bodies.append(e)
    return bodies
