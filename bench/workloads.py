"""The four benchmark workloads, each built as one cycle of operations.

``build(name, seed, records)`` returns a list of ``Op``, one cycle.  An op
is one public weilkit call (``call``) and a check of its result
(``check``); the runner times ``call`` only.  An op may hold several places
in a cycle; its latency is then its median over all of them.  Inputs come from ``seed`` during the build:
maps, algebras and command lines are written as text by ``gen`` and parsed
by weilkit's own parsers, and limit cones come from ``weilkit.corpus``.

Float jets, cones and commands are drawn from universes of items whose
outputs are pinned in ``records.json``.  ``strata.json`` splits each
universe into groups of items of like cost, and a seed draws one item from
each group, so every seed gets a like mix of cheap and dear items.  The
groups are part of the workload's definition: they were measured once and
are never re-measured.  Seeds below HELD_OUT draw from the tuning
universe; seeds from HELD_OUT on draw from a disjoint held-out universe.

Ops reach weilkit through module attributes looked up at call time
(``wk.jet``, ``cli.main``), so a tracer that rebinds those names sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import weilkit as wk
from weilkit import cli, corpus

import gen

WORKLOADS = ("jets", "cones", "verify", "commands")

HELD_OUT = 101  # the first seed of the held-out universe
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "strata.json")) as _fh:
    STRATA = json.load(_fh)

FLOAT_TOL = 1e-9  # the relative tolerance check_functor_composition uses


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def num(c) -> Fraction | float:
    """A coefficient as a plain number, whatever scalar type carries it."""
    return getattr(c, "value", c)


def build(name: str, seed: int, records: dict) -> list:
    return _BUILDERS[name](seed, records)


def universe(seed: int) -> str:
    return "held_out" if seed >= HELD_OUT else "tuning"


def _groups(path) -> dict:
    node = STRATA
    for key in path:
        node = node[key]
    return node


def draw(rng, seed: int, *path) -> list:
    """One item from each group of the seed's universe under STRATA[path]."""
    return [rng.choice(g) for g in _groups(path)[universe(seed)]]


def items(*path) -> list:
    """Every item of both universes under STRATA[path]."""
    return sorted(i for u in _groups(path).values() for g in u for i in g)


# ----- jets -----------------------------------------------------------------------

# one block of ten ops; a fifth of them are float-mode jets
_JET_BLOCK = ("jet12", "jet40", "float", "mixed222", "apply", "jet12", "jet40", "float", "mixed333", "apply")
_JET_BLOCKS = 8

# tensor factors for apply_map, each product of dimension 12
_APPLY_FACTORS = (
    ((("x",), (3,)), (("y",), (4,))),
    ((("x",), (4,)), (("y",), (3,))),
    ((("x",), (2,)), (("y",), (6,))),
    ((("x",), (2,)), (("y",), (2,)), (("z",), (3,))),
)


def _memo(compute):
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]

    return get


# per jet order, the degrees its ops cycle through (with the four forms)
_JET_DEGREES = {12: (4, 5, 6, 8), 40: (3, 4, 4, 5)}


def _jet_op(rng, order, j):
    """The j-th jet op of its order; form and degree follow j, so every
    seed gets the same mix and only the numbers change."""
    at = gen.rat(rng, 4, 3)
    degree = _JET_DEGREES[order][(j // 4) % 4]
    text, poly = gen.univariate_poly(rng, degree, gen.FORMS[j % 4])
    f = wk.parse_map(f"f(u) -> ({text})")
    expected = _memo(lambda: gen.taylor_shift(poly, (at,), (order,)))

    def check(out):
        want = expected()
        return len(out) == 1 and [num(c) for c in out[0]] == [
            want.get((k,), 0) for k in range(order + 1)
        ]

    return Op(f"jet{order}", lambda: wk.jet(f, at, order), check)


def _mixed_op(rng, n, order, j):
    names = ("u", "v", "w")[:n]
    at = tuple(gen.rat(rng, 3, 2) for _ in names)
    text, poly = gen.multivariate_poly(rng, names, 4, 3, product=j % 2 == 1)
    f = wk.parse_map(f"f({', '.join(names)}) -> ({text})")
    orders = (order,) * n
    expected = _memo(lambda: gen.taylor_shift(poly, at, orders))

    def check(result):
        out, _ = result
        want = expected()
        table = out[0]
        if len(out) != 1 or len(table) != (order + 1) ** n:
            return False
        return all(
            max(e) <= order and num(v) == want.get(e, 0) for e, v in table.items()
        )

    kind = "mixed" + str(order) * n
    return Op(kind, lambda: wk.mixed_jet(f, at, orders), check)


def _apply_op(rng, j):
    factors = _APPLY_FACTORS[j % len(_APPLY_FACTORS)]
    gens = tuple(g for fgens, _ in factors for g in fgens)
    bounds = tuple(b for _, fb in factors for b in fb)
    algebras = [wk.parse_algebra(gen.box_algebra_text(fg, fb)) for fg, fb in factors]
    w = algebras[0]
    for other in algebras[1:]:
        w = wk.tensor(w, other)[0]
    names = ("u1", "u2")
    bodies = [gen.multivariate_poly(rng, names, 3 + k, 3, product=(j // 4 + k) % 2 == 1) for k in range(2)]
    f = wk.parse_map(f"f(u1, u2) -> ({bodies[0][0]}, {bodies[1][0]})")
    basis = tuple(w.basis)
    coords = [[gen.rat(rng, 5, 4) for _ in basis] for _ in names]
    point = wk.WeilPoint(w, [w.element(c) for c in coords])

    def keep(e):
        return all(k < b for k, b in zip(e, bounds))

    def oracle():
        if tuple(w.gens) != gens:
            return None
        xs = [{e: c for e, c in zip(basis, cs) if c} for cs in coords]
        outs = []
        for _, poly in bodies:
            acc = {}
            for m, c in poly.items():
                term = {(0,) * len(gens): c}
                for x, k in zip(xs, m):
                    term = gen.p_mul(term, gen.p_pow(x, k, len(gens), keep), keep)
                acc = gen.p_add(acc, term)
            outs.append([acc.get(e, 0) for e in basis])
        return outs

    expected = _memo(oracle)

    def check(result):
        want = expected()
        if want is None or len(result.coords) != 2:
            return False
        return all(
            [num(c) for c in coord.coeffs] == row
            for coord, row in zip(result.coords, want)
        )

    return Op("apply", lambda: wk.apply_map(f, point), check)


def float_item(k: int):
    """Universe item k of the float jets: (map text, point, order)."""
    rng = random.Random(70_000 + k)
    return gen.float_map_text(rng), rng.randint(-8, 8) / 8, 12


def _float_op(k, records):
    text, at, order = float_item(k)
    f = wk.parse_map(text)
    rec = records.get("float", {}).get(str(k))

    def check(out):
        if rec is None or rec["text"] != digest(text) or len(out) != 1:
            return False
        got = [float(num(c)) for c in out[0]]
        return len(got) == len(rec["values"]) and all(
            abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))
            for a, b in zip(got, rec["values"])
        )

    return Op("float", lambda: wk.jet(f, at, order, wk.Mode.FLOAT), check)


def _build_jets(seed, records):
    rng = random.Random(seed)
    floats = draw(rng, seed, "float")
    seen = {}  # kind -> ops of that kind so far
    ops = []
    for _ in range(_JET_BLOCKS):
        for kind in _JET_BLOCK:
            j = seen[kind] = seen.get(kind, -1) + 1
            if kind == "float":
                ops.append(_float_op(floats[j], records))
            elif kind.startswith("jet"):
                ops.append(_jet_op(rng, int(kind[3:]), j))
            elif kind.startswith("mixed"):
                ops.append(_mixed_op(rng, 3, int(kind[5]), j))
            else:
                ops.append(_apply_op(rng, j))
    return ops


# ----- cones ------------------------------------------------------------------------

CONE_KINDS = ("limit", "is_limit_cone", "microlinear1", "microlinear2", "microlinear3", "mutant")


def _diagram(rng, max_dim, max_total, connected, max_objects=3):
    while True:
        d = corpus.random_diagram(rng)
        dims = [o.dimension for o in d.objects]
        if connected and not d.arrows and len(d.objects) > 1:
            continue
        if max(dims) <= max_dim and sum(dims) <= max_total and len(dims) <= max_objects:
            return d


def cone_item(i: int):
    """Universe item i: (cone, mutated cone).  Every fourth item is a grid
    cone, the tensor of two connected two-object limit cones."""
    rng = random.Random(50_000 + i)
    if i % 4 == 3:
        c1 = wk.limit_cone(_diagram(rng, 2, 4, connected=True, max_objects=2))
        c2 = wk.limit_cone(_diagram(rng, 2, 4, connected=True, max_objects=2))
        cone = wk.tensor_of_cones(c1, c2)
    else:
        cone = wk.limit_cone(_diagram(rng, 6, 14, connected=False))
    mutant = corpus.mutate_cone(cone, "collapse" if i % 2 == 0 else "inflate")
    if mutant is None:
        mutant = corpus.mutate_cone(cone, "inflate")
    return cone, mutant


def limit_text(apex, legs) -> str:
    lines = [wk.serialize_algebra(apex)]
    for leg in legs:
        lines.extend(",".join(str(num(c)) for c in row) for row in leg.matrix.entries)
    return "\n".join(lines)


def cone_calls(cone, mutant):
    """kind -> zero-argument call, with outputs reduced to plain data."""

    def verdict(v):
        return [bool(v.ok), v.certificate]

    def micro(d):
        return lambda: verdict(wk.check_microlinear(wk.ModelObject.coordinate(d), cone))

    def limit():
        apex, legs = wk.limit(cone.without_cone())
        return digest(limit_text(apex, legs))

    return {
        "limit": limit,
        "is_limit_cone": lambda: verdict(wk.is_limit_cone(cone)),
        "microlinear1": micro(1),
        "microlinear2": micro(2),
        "microlinear3": micro(3),
        "mutant": lambda: verdict(
            wk.check_microlinear(
                wk.ModelObject.coordinate(2), mutant, enforce_limit_input=False
            )
        ),
    }


def pick_cones(rng, seed: int) -> list:
    return draw(rng, seed, "cones")


def _build_cones(seed, records):
    rng = random.Random(seed)
    ops = []
    for i in pick_cones(rng, seed):
        rec = records.get("cones", {}).get(str(i), {})
        calls = cone_calls(*cone_item(i))
        for kind in CONE_KINDS:
            want = rec.get(kind)
            ops.append(Op(kind, calls[kind], lambda out, want=want: want is not None and out == want))
    rng.shuffle(ops)
    return ops


# ----- verify -----------------------------------------------------------------------

VERIFY_SUITES = {
    "axioms": ["verify", "axioms"],
    "axioms.float": ["verify", "axioms", "--mode", "float"],
    "microlinear": ["verify", "microlinear"],
    "microlinear.neg": ["verify", "microlinear", "--negative-controls"],
    "fibered": ["verify", "fibered"],
    "fibered.neg": ["verify", "fibered", "--negative-controls"],
    "vertical": ["verify", "vertical"],
    "vertical.neg": ["verify", "vertical", "--negative-controls"],
    "exponentiable": ["verify", "exponentiable"],
}


def cli_output(argv):
    """cli.main in this process: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def run_cli(argv):
    code, text = cli_output(argv)
    return [code, digest(text)]


def _cli_op(kind, argv, want):
    return Op(kind, lambda: run_cli(argv), lambda out: want is not None and out == want)


# suites that take about a second or less: one run of them is too short to
# ride out a burst of outside load, so they run in SHORT_PASSES passes
SHORT_SUITES = ("axioms", "axioms.float", "fibered", "fibered.neg", "vertical", "vertical.neg")
SHORT_PASSES = 5


def _build_verify(seed, records):
    """Every suite in a fixed order at its default seed, then the short
    suites again in SHORT_PASSES - 1 more passes; `seed` is unused.

    What one suite leaves behind (heap size, collector state) changes the
    next one's time by a fifth, so a seeded order would only add noise.
    """
    recs = records.get("verify", {})
    ops = {n: _cli_op(f"verify.{n}", argv, recs.get(n)) for n, argv in VERIFY_SUITES.items()}
    return list(ops.values()) + [ops[n] for n in SHORT_SUITES if n in ops] * (SHORT_PASSES - 1)


# ----- commands ---------------------------------------------------------------------

_VERTICAL_ALGEBRAS = ("Q[d]/(d^2)", "Q[d]/(d^3)", "Q[d,e]/(d^2, e^2)", "Q[d,e]/(d^2, e^2, d*e)")


def _positional(text):
    """Parenthesize an expression argparse would read as an option."""
    return f"({text})" if text.startswith("-") else text


def _cmd_jet(rng):
    text, _ = gen.univariate_poly(rng, rng.randint(2, 6), rng.choice(gen.FORMS))
    at = gen.qtext(gen.rat(rng, 5, 3))
    return ["jet", _positional(text), f"--at={at}", "--order", str(rng.randint(2, 8))]


def _cmd_mixed(rng):
    names = ("x", "y", "z")[: rng.randint(2, 3)]
    text, _ = gen.multivariate_poly(rng, names, rng.randint(2, 4), 3, rng.random() < 0.5)
    at = ",".join(gen.qtext(gen.rat(rng, 3, 2)) for _ in names)
    return ["jet", _positional(text), f"--at={at}", "--mixed", "--order", str(rng.randint(1, 2))]


def _small_algebra(rng, gens):
    bounds = [rng.randint(2, 4) for _ in gens]
    mixed = []
    if len(gens) > 1 and rng.random() < 0.4:
        mixed.append((0, 1))
    text = gen.box_algebra_text(gens, bounds, [f"{gens[a]}*{gens[b]}" for a, b in mixed])
    return text, bounds, mixed


def _cmd_info(rng):
    text, _, _ = _small_algebra(rng, ("x", "y", "z")[: rng.randint(1, 3)])
    return ["weil", "info", text]


def _cmd_tensor(rng):
    a, _, _ = _small_algebra(rng, ("x", "y")[: rng.randint(1, 2)])
    b, _, _ = _small_algebra(rng, ("s", "t")[: rng.randint(1, 2)])
    return ["weil", "tensor", a, b]


def _cmd_equalizer(rng):
    gens = ("x", "y")[: rng.randint(1, 2)]
    src, bounds, mixed = _small_algebra(rng, gens)
    m = rng.randint(3, 5)
    images = [gen.morphism_images(rng, gens, bounds, mixed, "t", m) for _ in range(2)]
    return ["weil", "equalizer", src, f"Q[t]/(t^{m})", *images]


def _cmd_limit(rng):
    m = rng.randint(3, 4)
    argv = ["weil", "limit", f"Q[t]/(t^{m})"]
    for k, g in enumerate(("x", "y")[: rng.randint(1, 2)]):
        b = rng.randint(2, 3)
        argv.insert(3 + k, gen.box_algebra_text((g,), (b,)))
        arrow = gen.morphism_images(rng, (g,), (b,), (), "t", m)
        argv += ["--arrow", f"{k + 1} 0 {arrow}"]
    return argv


def _cmd_vertical(rng):
    while True:
        total = rng.randint(2, 3)
        base = rng.randint(1, total - 1)
        names = ("x", "y", "z")[:total]
        polys = [
            gen.multivariate_poly(rng, names, rng.randint(2, 3), 2, rng.random() < 0.5)[1]
            for _ in range(base)
        ]
        point = [gen.rat(rng, 3, 2) for _ in names]
        jac = [[gen.p_eval(gen.p_diff(p, j), point) for j in range(total)] for p in polys]
        if gen.jacobian_rank(jac) == base:  # regular points only
            break
    bodies = ", ".join(gen.p_text(p, names) for p in polys)
    fibered = f"fibered p({', '.join(names)}) -> ({bodies})"
    point_text = ",".join(gen.qtext(q) for q in point)
    return ["vertical", "--", fibered, rng.choice(_VERTICAL_ALGEBRAS), point_text]


_CMD_KINDS = {
    "jet": _cmd_jet,
    "jet.mixed": _cmd_mixed,
    "weil.info": _cmd_info,
    "weil.tensor": _cmd_tensor,
    "weil.equalizer": _cmd_equalizer,
    "weil.limit": _cmd_limit,
    "vertical": _cmd_vertical,
}


def command_item(kind: str, k: int):
    """Universe item k of one command kind; odd items ask for kv output."""
    rng = random.Random(f"{kind}:{k}")
    argv = _CMD_KINDS[kind](rng)
    return argv if k % 2 == 0 else argv[:1] + ["--output", "kv"] + argv[1:]


def _build_commands(seed, records):
    rng = random.Random(seed)
    recs = records.get("commands", {})
    ops = []
    for kind in _CMD_KINDS:
        for k in draw(rng, seed, "commands", kind):
            argv = command_item(kind, k)
            rec = recs.get(f"{kind}:{k}")
            want = rec["out"] if rec and rec["argv"] == digest("\0".join(argv)) else None
            ops.append(_cli_op(kind, argv, want))
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "jets": _build_jets,
    "cones": _build_cones,
    "verify": _build_verify,
    "commands": _build_commands,
}
