"""Seeded instance generators shared by the verification suites and tests.

Everything draws from an explicit random.Random so a (seed, config) pair
reproduces the same battery byte for byte.  Generators prefer rejection
with a deterministic fallback over clever construction; the fallbacks are
always valid instances.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .exactlin import Matrix, Mode, _unit, qq
from .expr import FLOATS, Expr, SmoothMap, const, var
from .smooth import ExtendedElement, WeilPoint
from .weil import (
    DiagramInWeil,
    MorphismError,
    WeilAlgebra,
    WeilElement,
    WeilMorphism,
    _canonical,
    augmentation,
    dual_numbers,
    first_order_infinitesimals,
    jet_line,
    limit_cone,
    make_presented,
    tensor,
    unit_map,
)


def standard_algebras():
    """Small named algebras every battery should touch."""
    d = dual_numbers()
    return [
        ("dual", d),
        ("dual-pair", tensor(d, dual_numbers("y"))[0]),
        ("order2-jets", jet_line(2)),
        ("two-directions", first_order_infinitesimals(2)),
        ("order3-jets", jet_line(3)),
    ]


def _draw(rng: random.Random, height: int):
    """(num, den) of a random rational of the given height, den > 0 and the
    pair not reduced: the one draw behind every random coefficient."""
    num = rng.randint(-height, height)
    return num, rng.randint(1, height)


def random_rational(rng: random.Random, height: int = 7) -> Fraction:
    return Fraction(*_draw(rng, height))


_GEN_POOL = ("x", "y", "z", "w")


def random_presented_algebra(
    rng: random.Random, max_gens: int = 3, max_dim: int = 8
) -> WeilAlgebra:
    for _ in range(40):
        n = rng.randint(1, max_gens)
        gens = _GEN_POOL[:n]
        rels = []
        for i in range(n):
            r = [0] * n
            r[i] = rng.randint(2, 4 if n == 1 else 3)
            rels.append(tuple(r))
        # occasional mixed monomial relations cut the basis down
        for _ in range(rng.randint(0, n)):
            r = [0] * n
            a, b = rng.randrange(n), rng.randrange(n)
            r[a] += 1
            r[b] += 1
            if sum(r) >= 2:
                rels.append(tuple(r))
        w = make_presented(gens, rels)
        if 2 <= w.dimension <= max_dim:
            return w
    return first_order_infinitesimals(2)


def random_element(rng: random.Random, w: WeilAlgebra) -> WeilElement:
    """Random exact element, coefficients of height 5."""
    pairs = [_draw(rng, 5) for _ in range(w.dimension)]
    den = math.lcm(*[q for _, q in pairs])
    return WeilElement._reduced(w, den, [p * (den // q) for p, q in pairs])


def random_point(
    rng: random.Random,
    w: WeilAlgebra,
    arity: int,
    mode: Mode = Mode.EXACT,
    base_shift: int = 0,
) -> WeilPoint:
    """Point with the given number of coordinates; base_shift pushes every
    scalar part up by that amount (handy to stay clear of poles)."""
    coords = []
    for _ in range(arity):
        el = random_element(rng, w)
        if base_shift:
            el = el + w.scalar(qq(base_shift))
        if mode is Mode.FLOAT:
            el = ExtendedElement(FLOATS, w, map(float, el.raw))
        coords.append(el)
    return WeilPoint(w, coords)


def random_morphism(
    rng: random.Random, source: WeilAlgebra, target: WeilAlgebra
) -> WeilMorphism:
    """Random map out of a presented algebra: 25 tries, then zero images."""
    if source.flavor != "presented":
        raise ValueError("random morphisms need a presented source")
    nil_basis = [_canonical(v) for v in target.maximal_ideal_basis()]
    for _ in range(25):
        images = []
        for _ in source.gens:
            # the sum of the drawn multiples, as int numerators over den
            den, nums = 1, [0] * target.dimension
            for dv, nv in nil_basis:
                if rng.random() < 0.5:
                    p, q = _draw(rng, 3)
                    d = math.lcm(den, dv * q)
                    m, t = d // den, p * (d // (dv * q))
                    nums = [a * m + t * n for a, n in zip(nums, nv)]
                    den = d
            images.append(WeilElement._reduced(target, den, nums))
        try:
            return WeilMorphism.from_generator_images(source, target, images)
        except MorphismError:
            continue
    return WeilMorphism.from_generator_images(
        source, target, [target.zero() for _ in source.gens]
    )


def random_parallel_pair(rng: random.Random):
    source = random_presented_algebra(rng)
    target = random_presented_algebra(rng)
    return random_morphism(rng, source, target), random_morphism(rng, source, target)


def random_cospan(rng: random.Random):
    middle = random_presented_algebra(rng)
    left = random_presented_algebra(rng)
    right = random_presented_algebra(rng)
    return (
        random_morphism(rng, left, middle),
        random_morphism(rng, right, middle),
    )


def random_diagram(rng: random.Random) -> DiagramInWeil:
    shape = rng.choice(["parallel", "cospan", "arrow", "discrete", "chain"])
    if shape == "parallel":
        f, g = random_parallel_pair(rng)
        return DiagramInWeil((f.source, f.target), ((0, 1, f), (0, 1, g)))
    if shape == "cospan":
        f, g = random_cospan(rng)
        return DiagramInWeil(
            (f.source, f.target, g.source), ((0, 1, f), (2, 1, g))
        )
    if shape == "arrow":
        source = random_presented_algebra(rng)
        target = random_presented_algebra(rng)
        f = random_morphism(rng, source, target)
        return DiagramInWeil((source, target), ((0, 1, f),))
    if shape == "discrete":
        return DiagramInWeil(
            (random_presented_algebra(rng), random_presented_algebra(rng)), ()
        )
    a = random_presented_algebra(rng)
    b = random_presented_algebra(rng)
    c = random_presented_algebra(rng)
    f = random_morphism(rng, a, b)
    g = random_morphism(rng, b, c)
    return DiagramInWeil((a, b, c), ((0, 1, f), (1, 2, g)))


def random_limit_cone(rng: random.Random) -> DiagramInWeil:
    return limit_cone(random_diagram(rng))


def collapse_to_scalars(w: WeilAlgebra) -> WeilMorphism:
    """The endo that keeps the scalar part only: unit after augmentation."""
    return unit_map(w).compose(augmentation(w))


def drop_added_factor(wd: WeilAlgebra) -> WeilMorphism:
    """For a tensor-built algebra, the map killing the right factor's
    nilpotents: identity (x) augmentation, landing back in the left factor."""
    info = wd.tensor_info
    if info is None:
        raise ValueError("needs a tensor-built algebra")
    d = info.left.dimension
    cols = [_unit(d, i1) if i2 == 0 else (0,) * d for (i1, i2) in info.pair_of_index]
    return WeilMorphism(wd, info.left, Matrix.from_columns(cols, rows=d), check=False)


def mutate_cone(cone: DiagramInWeil, kind: str) -> DiagramInWeil | None:
    """A commuting cone that is no longer a limit cone.

    "collapse": precompose every leg with the scalar-part projection of the
    apex (needs apex dimension >= 2 to change anything).
    "inflate": replace the apex by apex (x) dual numbers, legs factoring
    through the projection that kills the new nilpotent.
    """
    if not cone.has_cone:
        raise ValueError("mutate_cone needs a cone")
    if kind == "collapse":
        if cone.apex.dimension < 2:
            return None
        squash = collapse_to_scalars(cone.apex)
        legs = tuple(leg.compose(squash) for leg in cone.legs)
        return DiagramInWeil(cone.objects, cone.arrows, cone.apex, legs)
    if kind == "inflate":
        fat, _, _ = tensor(cone.apex, dual_numbers("m"))
        proj = drop_added_factor(fat)
        legs = tuple(leg.compose(proj) for leg in cone.legs)
        return DiagramInWeil(cone.objects, cone.arrows, fat, legs)
    raise ValueError(f"unknown mutation {kind!r}")


def mutated_cones(rng: random.Random, count: int):
    """`count` negative controls as (kind, mutant): seeded limit cones,
    collapsed at even positions and inflated at odd ones or when the apex
    is too small to collapse."""
    for i in range(count):
        cone = random_limit_cone(rng)
        kind = "collapse" if i % 2 == 0 else "inflate"
        mutant = mutate_cone(cone, kind)
        if mutant is None:
            kind, mutant = "inflate", mutate_cone(cone, "inflate")
        yield kind, mutant


# ----- random maps ----------------------------------------------------------


def random_poly_expr(rng: random.Random, nvars: int, depth: int = 3) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        if nvars and rng.random() < 0.75:
            return var(rng.randrange(nvars))
        return const(random_rational(rng, 4))
    kind = rng.choice(["add", "sub", "mul", "pow"])
    if kind == "pow":
        return random_poly_expr(rng, nvars, depth - 1) ** rng.randint(2, 3)
    a = random_poly_expr(rng, nvars, depth - 1)
    b = random_poly_expr(rng, nvars, depth - 1)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    return a * b


def random_poly_map(
    rng: random.Random, n_in: int, n_out: int, depth: int = 3
) -> SmoothMap:
    names = tuple(f"u{i+1}" for i in range(n_in))
    bodies = tuple(random_poly_expr(rng, n_in, depth) for _ in range(n_out))
    return SmoothMap(names, bodies, name=f"rand{n_in}to{n_out}")


def random_transcendental_map(rng: random.Random, n_in: int, n_out: int) -> SmoothMap:
    """Float-mode map mixing calls with polynomial glue; safe near base
    points shifted well above zero."""
    from .expr import cos as cos_, exp as exp_, log as log_, sin as sin_, sqrt as sqrt_

    names = tuple(f"u{i+1}" for i in range(n_in))
    wrappers = [sin_, cos_, exp_, log_, sqrt_]
    bodies = []
    for _ in range(n_out):
        core = random_poly_expr(rng, n_in, 2)
        wrap = rng.choice(wrappers)
        if wrap in (log_, sqrt_):
            core = core * core + const(2)
        bodies.append(wrap(core) + random_poly_expr(rng, n_in, 1))
    return SmoothMap(names, tuple(bodies), name=f"trans{n_in}to{n_out}")
