"""Release gate: one test per shipped guarantee.

Each test prints a numbered verdict line even under capture, so a plain
pytest run ends with a readable scorecard.  Counts, tolerances, and seeds
are frozen here on purpose; loosening them is a release decision, not a
test fix.
"""

import io
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
import sympy

import oracles
from weilkit import corpus
from weilkit.axioms import (
    ModelObject,
    check_microlinear,
    closure_suite,
    exponentiability_suite,
)
from weilkit.cli import main as cli_main
from weilkit.exactlin import Mode, vstack
from weilkit.expr import parse_map
from weilkit.fibered import (
    FiberedError,
    FiberedObject,
    InfinitesimalArrow,
    _random_block_morphism,
    _random_standard_fibered,
    check_vertical_equalizer,
    check_vertical_microlinearity,
    fibered_exponential_pullback,
    sphere_distance,
    vertical_fiber,
    vertical_functor_on_morphism,
)
from weilkit.smooth import (
    apply_morphism,
    check_functor_composition,
    check_reparametrization_naturality,
    jet,
    mixed_jet,
)
from weilkit.weil import (
    DiagramInWeil,
    WeilMorphism,
    dual_numbers,
    equalizer,
    first_order_infinitesimals,
    generator_elements,
    jet_line,
    limit,
    tensor,
    terminal,
)


@pytest.fixture
def stamp(capsys):
    def _stamp(number: int, label: str, ok: bool):
        with capsys.disabled():
            print(f"acceptance {number}: {'PASS' if ok else 'FAIL'}  {label}")
        assert ok, f"acceptance criterion {number} failed: {label}"

    return _stamp


def _rows(m):
    return [[c for c in m.row(i)] for i in range(m.rows)]


def _cols(m):
    return [[c for c in m.column(j)] for j in range(m.cols)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ----- 1: core constructions against a direct linear solve -----------------------


def test_core_constructions_match_direct_solve_oracle(stamp):
    """Tensor dimensions multiply; equalizers and pullbacks carve out the
    same subspaces a one-big-system solve finds, with zero tolerance."""
    rng = random.Random(101)
    ok = True
    for _ in range(50):
        a = corpus.random_presented_algebra(rng)
        b = corpus.random_presented_algebra(rng)
        t, _, _ = tensor(a, b)
        ok = ok and t.dimension == a.dimension * b.dimension

        phi, psi = corpus.random_parallel_pair(rng)
        sub, incl = equalizer(phi, psi)
        wanted = oracles.equalizer_space(_rows(phi.matrix), _rows(psi.matrix))
        ok = ok and sub.dimension == len(wanted)
        ok = ok and oracles.same_span(
            _cols(incl.matrix), wanted, phi.source.dimension
        )

        f, g = corpus.random_cospan(rng)
        diagram = DiagramInWeil(
            (f.source, f.target, g.source), ((0, 1, f), (2, 1, g))
        )
        apex, legs = limit(diagram)
        # pairs (image in A, image in B) of the limit basis, stacked
        stacked = vstack([legs[0].matrix, legs[2].matrix], cols=apex.dimension)
        wanted = oracles.pullback_space(
            _rows(f.matrix),
            _rows(g.matrix),
            [c for c in f.source.aug],
            [c for c in g.source.aug],
        )
        ok = ok and apex.dimension == len(wanted)
        ok = ok and oracles.same_span(
            _cols(stacked), wanted, f.source.dimension + g.source.dimension
        )
    stamp(1, "tensor, equalizer, pullback match the direct solve (50 seeded)", ok)


# ----- 2: stacked lifts equal the tensor lift -------------------------------------


def test_stacked_lifts_equal_the_tensor_lift(stamp):
    rng = random.Random(202)
    d = dual_numbers()
    pool = [
        d,
        tensor(d, dual_numbers("y"))[0],
        jet_line(2),
        first_order_infinitesimals(2),
    ]
    ok = True
    for _ in range(100):
        w, _, _ = tensor(rng.choice(pool), rng.choice(pool))
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        f = corpus.random_poly_map(rng, m, n, depth=rng.randint(1, 5))
        point = corpus.random_point(rng, w, m)
        v = check_functor_composition(f, point)
        ok = ok and v.ok and v.exactness == "exact"
    stamp(2, "two lifts in a row equal the tensor lift (100 seeded)", ok)


# ----- 3: reparametrization is a bifunctor ----------------------------------------


def test_reparametrization_is_functorial_and_natural(stamp):
    rng = random.Random(303)
    ok = True
    for _ in range(100):
        a = corpus.random_presented_algebra(rng)
        b = corpus.random_presented_algebra(rng)
        c = corpus.random_presented_algebra(rng)
        phi = corpus.random_morphism(rng, a, b)
        psi = corpus.random_morphism(rng, b, c)
        f = corpus.random_poly_map(
            rng, rng.randint(1, 3), rng.randint(1, 3), depth=rng.randint(1, 4)
        )
        point = corpus.random_point(rng, a, f.arity_in)
        chained = apply_morphism(psi, apply_morphism(phi, point))
        direct = apply_morphism(psi.compose(phi), point)
        ok = ok and chained.coords == direct.coords
        v = check_reparametrization_naturality(f, phi, point)
        ok = ok and v.ok and v.exactness == "exact"
    stamp(3, "reparametrization chains compose and commute (100 seeded)", ok)


# ----- 4: jets against derivative oracles ------------------------------------------

_POLY_JETS = [
    ("u^4 - 3*u + 1", "u**4 - 3*u + 1", Fraction(2)),
    ("(u^2 + 1)^3", "(u**2 + 1)**3", Fraction(-1, 2)),
    ("u^5/4 - u^3 + u/7", "u**5/4 - u**3 + u/7", Fraction(1, 3)),
    ("(u - 1)*(u + 2)*(u^2 + u + 1)", "(u - 1)*(u + 2)*(u**2 + u + 1)", Fraction(-2)),
    ("u^2*(u - 5)^2", "u**2*(u - 5)**2", Fraction(5)),
    ("7", "7", Fraction(3)),
    ("u", "u", Fraction(-4)),
    ("(2*u + 1)^4", "(2*u + 1)**4", Fraction(1, 2)),
    ("u^6 - u^4 + u^2 - 1", "u**6 - u**4 + u**2 - 1", Fraction(-1)),
    ("(u^3 - 2)^2/9", "(u**3 - 2)**2/9", Fraction(3, 2)),
]

_CALL_JETS = [
    ("exp(sin(u))", lambda t: math.exp(math.sin(t)), 0.7),
    ("sin(exp(u))", lambda t: math.sin(math.exp(t)), 0.4),
    ("log(2 + sin(u))", lambda t: math.log(2 + math.sin(t)), 0.9),
    ("exp(log(1 + u^2))", lambda t: math.exp(math.log(1 + t * t)), 0.5),
    ("sin(log(1 + u))*exp(u)", lambda t: math.sin(math.log(1 + t)) * math.exp(t), 0.3),
    ("log(exp(u) + sin(u)^2)", lambda t: math.log(math.exp(t) + math.sin(t) ** 2), 1.1),
]


def test_jets_match_derivative_oracles(stamp):
    """Order-4 jets: exact on polynomials against symbolic derivatives,
    within 1e-6 relative on call compositions against central differences,
    and the first mixed coefficient within 1e-9 of the symbolic value."""
    ok = True
    for i, (text, sym_text, at) in enumerate(_POLY_JETS):
        f = parse_map(f"p{i}(u) -> ({text})")
        got = [s for s in jet(f, at, 4, Mode.EXACT)[0]]
        want = [
            oracles.to_fraction(v)
            for v in oracles.taylor_coeffs_symbolic(sym_text, "u", at, 4)
        ]
        ok = ok and got == want

    for i, (text, fn, at) in enumerate(_CALL_JETS):
        f = parse_map(f"c{i}(u) -> ({text})")
        got = [float(s) for s in jet(f, at, 4, Mode.FLOAT)[0]]
        want = oracles.fd_taylor_coeffs(fn, at, 4)
        ok = ok and all(_rel(g, w) <= 1e-6 for g, w in zip(got, want))

    f = parse_map("m(u, v) -> (sin(u)*v)")
    out, _ = mixed_jet(f, (1.0, 2.0), (1, 1), Mode.FLOAT)
    got = float(out[0][(1, 1)])
    want = float(oracles.mixed_coeff_symbolic("sin(u)*v", ("u", "v"), (1, 2), (1, 1)))
    ok = ok and abs(got - want) <= 1e-9 * max(1.0, abs(want))
    stamp(4, "order-4 jets match symbolic and finite-difference oracles", ok)


# ----- 5: microlinearity checker calibration ---------------------------------------


def test_microlinearity_checker_calibration(stamp):
    """Coordinate spaces pass on genuine limit cones and fail on every
    mutated cone, with exact rank certificates on the positive side."""
    rng = random.Random(505)
    cones = []
    ok = True
    for i in range(20):
        cone = corpus.random_limit_cone(rng)
        cones.append(cone)
        v = check_microlinear(ModelObject.coordinate(1 + i % 3), cone)
        ok = ok and v.ok and v.exactness == "exact" and "rank" in v.certificate
    for i, cone in enumerate(cones):
        mutant = corpus.mutate_cone(cone, "collapse" if i % 2 == 0 else "inflate")
        if mutant is None:
            # collapse is a no-op on one-dimensional apexes
            mutant = corpus.mutate_cone(cone, "inflate")
        v = check_microlinear(
            ModelObject.coordinate(1 + i % 3), mutant, enforce_limit_input=False
        )
        ok = ok and not v.ok
    stamp(5, "20 limit cones accepted with rank certificates, 20 mutants rejected", ok)


# ----- 6: derived objects stay verified --------------------------------------------


def test_derived_objects_stay_verified(stamp):
    closure = closure_suite(seed=606)
    exponent = exponentiability_suite(seed=606, samples=12)
    failures = [o for rep in (closure, exponent) for o in rep.outcomes if not o.passed]
    ok = closure.ok and exponent.ok and not failures
    stamp(6, "lifted, limited, and exponentiated carriers all recheck clean", ok)


# ----- 7: vertical bundle battery --------------------------------------------------


def test_vertical_bundle_battery(stamp):
    d = dual_numbers()
    sphere = sphere_distance()

    # fiber of the square-norm projection at a regular point
    u1, u2, u3 = sympy.symbols("u1 u2 u3")
    grad = [
        sympy.diff(u1**2 + u2**2 + u3**2, v).subs({u1: 1, u2: 0, u3: 0})
        for v in (u1, u2, u3)
    ]
    kernel_oracle = oracles.equalizer_space([grad], [[0, 0, 0]])
    fib = vertical_fiber(sphere, d, [1, 0, 0])
    ok = fib.regular and fib.dimension == 2 and len(kernel_oracle) == 2
    ok = ok and oracles.same_span(
        [[s for s in v] for v in fib.kernel], kernel_oracle, 3
    )

    # universal property of the vertical subspace, 20 sampled cones
    rep = check_vertical_equalizer(
        FiberedObject.coordinate_projection(3, 1), d, samples=20, seed=74
    )
    mediation = [o for o in rep.outcomes if o.check == "mediation"]
    ok = ok and rep.ok and len(mediation) == 20

    # pushing vertical points through morphism squares, 50 points
    rng = random.Random(708)
    checked = 0
    while checked < 50:
        src = _random_standard_fibered(rng)
        mid = _random_standard_fibered(rng)
        tgt = _random_standard_fibered(rng)
        m1 = _random_block_morphism(rng, src, mid)
        m2 = _random_block_morphism(rng, mid, tgt)
        anchor = [corpus.random_rational(rng, 4) for _ in range(src.total_dim)]
        fiber = vertical_fiber(src, d, anchor)
        x = fiber.point(
            [corpus.random_rational(rng, 4) for _ in range(fiber.dimension)]
        )
        try:
            y = vertical_functor_on_morphism(m1, d, x)
            z = vertical_functor_on_morphism(m2, d, y)
        except FiberedError:
            ok = False
            break
        direct = vertical_functor_on_morphism(m2.compose(m1), d, x)
        ok = ok and direct.coords == z.coords
        checked += 1

    # fiberwise limit perception: exact for linear projections, graded for
    # the sphere, and mutants must be refused on both paths
    rng = random.Random(711)
    proj = FiberedObject.coordinate_projection(3, 1)
    for _ in range(3):
        cone = corpus.random_limit_cone(rng)
        lin = check_vertical_microlinearity(proj, cone, [0, 0, 0])
        ok = ok and lin.ok and lin.exactness == "exact"
        sph = check_vertical_microlinearity(sphere, cone, [1, 0, 0])
        ok = ok and sph.ok and sph.exactness == "graded"
        mutant = corpus.mutate_cone(cone, "inflate")
        neg_lin = check_vertical_microlinearity(
            proj, mutant, [0, 0, 0], enforce_limit_input=False
        )
        neg_sph = check_vertical_microlinearity(
            sphere, mutant, [1, 0, 0], enforce_limit_input=False
        )
        ok = ok and not neg_lin.ok and not neg_sph.ok
    stamp(7, "vertical fiber, equalizer, functor squares, fiberwise limits", ok)


# ----- 8: exponential pullback identification --------------------------------------


def test_exponential_pullback_identification(stamp):
    rng = random.Random(808)
    d = dual_numbers()
    d2 = first_order_infinitesimals(2)
    embed = WeilMorphism.from_generator_images(d, d2, [generator_elements(d2)[0]])
    arrows = [
        InfinitesimalArrow.identity(d),
        InfinitesimalArrow.identity(d2),
        InfinitesimalArrow.trivial(),
        InfinitesimalArrow(embed),
    ]
    pool = [d, d2, jet_line(2), terminal()]
    ok = True
    for i in range(20):
        rep = fibered_exponential_pullback(
            _random_standard_fibered(rng),
            arrows[i % len(arrows)],
            rng.choice(pool),
            rng.choice(pool),
            samples=4,
            seed=i,
        )
        ok = ok and rep.ok
    stamp(8, "regrouping tensor factors preserves pullback pairs (20 seeded)", ok)


# ----- 9: reports are deterministic -------------------------------------------------


def _run_captured(*args):
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli_main(list(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def test_fixed_seed_reports_are_byte_identical(stamp):
    ok = True
    for args in (
        ("verify", "axioms", "--seed", "11", "--samples", "8"),
        ("verify", "vertical", "--seed", "4", "--samples", "6"),
        ("verify", "microlinear", "--seed", "3", "--samples", "6", "--output", "kv"),
    ):
        first = _run_captured(*args)
        second = _run_captured(*args)
        ok = ok and first == second and first[0] == 0 and first[1]
    stamp(9, "verification output is byte-identical run to run", ok)
