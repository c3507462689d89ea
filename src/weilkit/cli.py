"""Command-line surface: jets, verification batteries, algebra utilities.

Every subcommand takes the same four control flags (--mode, --seed,
--samples, --output) and the same exit-code contract: 0 when everything
asked for passed, 1 when a check or evaluation failed, 2 when the input
could not be parsed or the flags are invalid.  Output for a fixed flag
set and seed is byte-identical between runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from .axioms import (
    axioms_suite,
    closure_suite,
    exponentiability_suite,
    microlinearity_suite,
)
from .exactlin import Mode, ModeError
from .expr import (
    _CALLS,
    DIGIT_LIMIT,
    _Parser,
    _tokenize,
    ParseError,
    SmoothMap,
    check_literal,
    parse_expression,
)
from .fibered import FiberedError, FiberedObject, fibered_suite, vertical_fiber, vertical_suite
from .smooth import jet, lift_eval, mixed_jet
from .weil import (
    AlgebraError,
    BudgetError,
    DiagramError,
    DiagramInWeil,
    MorphismError,
    NonNilpotentError,
    WeilMorphism,
    _monomial_label,
    equalizer,
    generator_elements,
    limit,
    parse_algebra,
    serialize_algebra,
    tensor,
)

# the printed-digit limit: no exact number is printed with more digits
_PRINTED_DIGITS = DIGIT_LIMIT
_PRINTED_CEILING = 10**_PRINTED_DIGITS


def _fmt(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"the float result {value!r} is not finite")
        return repr(value)
    if max(abs(value.numerator), value.denominator) >= _PRINTED_CEILING:
        raise ValueError(
            f"a number to print exceeds the printed-digit limit of {_PRINTED_DIGITS} digits"
        )
    return str(value)


class _Printer:
    """Collects output lines; kv style flattens everything to key=value."""

    def __init__(self, style: str):
        self.style = style
        self.lines = []

    def pair(self, key: str, value):
        if self.style == "kv":
            self.lines.append(f"{key.replace(' ', '_')}={value}")
        else:
            self.lines.append(f"{key}: {value}")

    def raw(self, text: str, kv_key: str | None = None):
        if self.style == "kv":
            if kv_key is None:
                return
            for i, line in enumerate(text.split("\n")):
                self.lines.append(f"{kv_key}.{i}={line}")
        else:
            self.lines.append(text)

    def flush(self) -> None:
        for line in self.lines:
            print(line)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ----- jet ---------------------------------------------------------------


def _free_names(tokens):
    names = []
    for kind, value in tokens:
        if kind == "name" and value not in _CALLS and value not in names:
            names.append(value)
    return names


def _parse_values(text: str, mode: Mode):
    out = []
    for tok in text.split(","):
        tok = check_literal(tok.strip(), ParseError)
        if not tok:
            raise ParseError("empty value in the --at list")
        try:
            value = float(tok) if mode is Mode.FLOAT else Fraction(tok)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad value {tok!r} in the --at list") from exc
        # float() reads inf, nan and 1e400, which Fraction() refuses
        if isinstance(value, float) and not math.isfinite(value):
            raise ParseError(f"bad value {tok!r} in the --at list")
        out.append(value)
    return out


def cmd_jet(args) -> int:
    mode = Mode.FLOAT if args.mode == "float" else Mode.EXACT
    at = _parse_values(args.at, mode)
    tokens = _tokenize(args.expr)
    names = _free_names(tokens)
    if len(names) > len(at):
        missing = ", ".join(names[len(at):])
        raise ParseError(f"--at gives {len(at)} values but the expression also uses {missing}")
    while len(names) < len(at):
        names.append(f"x{len(names)+1}" if names else "u")
    body = _Parser(tokens, names).whole()
    f = SmoothMap(tuple(names), (body,), name="f")
    style = args.output
    out = _Printer(style)
    displacements = tuple(f"d{n}" for n in names)
    if args.mixed:
        order = 1 if args.order is None else args.order
        tables, algebra = mixed_jet(f, at, [order] * len(names), mode)
        out.raw(
            f"mixed jet of {args.expr} at ({', '.join(_fmt(v) for v in at)}), "
            f"order {order} in each input"
        )
        for exps in algebra.basis:
            out.pair(_monomial_label(exps, displacements), _fmt(tables[0][exps]))
    else:
        if len(names) != 1:
            raise ParseError("plain jets take one input; use --mixed for several")
        order = 2 if args.order is None else args.order
        coeffs = jet(f, at[0], order, mode)[0]
        out.raw(f"jet of {args.expr} at ({_fmt(at[0])}), order {order}")
        for k, c in enumerate(coeffs):
            label = "1" if k == 0 else (
                displacements[0] if k == 1 else f"{displacements[0]}^{k}"
            )
            out.pair(label, _fmt(c))
    out.flush()
    return 0


# ----- verify ------------------------------------------------------------


def _battery(a) -> dict:
    """The flags of a suite that has a negative-control battery."""
    return {"seed": a.seed, "samples": a.samples, "negative_controls": a.negative_controls}


# suite -> (whether it runs in float mode too, whether it has a negative
# battery, its report builders in print order); a builder takes the parsed
# flags and the mode, and looks its suite up by name when it runs
_SUITES = {
    "axioms": (True, False, (lambda a, m: axioms_suite(seed=a.seed, samples=a.samples, mode=m),)),
    "microlinear": (False, True, (lambda a, _: microlinearity_suite(**_battery(a)),)),
    "exponentiable": (False, False, (lambda a, _: exponentiability_suite(a.seed, a.samples),
                                     lambda a, _: closure_suite(seed=a.seed))),
    "fibered": (False, True, (lambda a, _: fibered_suite(**_battery(a)),)),
    "vertical": (False, True, (lambda a, _: vertical_suite(**_battery(a)),)),
}


def cmd_verify(args) -> int:
    mode = Mode.FLOAT if args.mode == "float" else Mode.EXACT
    runs_float, has_negative, builders = _SUITES[args.suite]
    if mode is Mode.FLOAT and not runs_float:
        return _fail(f"suite {args.suite!r} runs in exact mode only", 2)
    if args.negative_controls and not has_negative:
        return _fail(f"suite {args.suite!r} has no negative-control battery", 2)
    reports = [build(args, mode) for build in builders]
    for rep in reports:
        print(rep.render(args.output))
    return 0 if all(rep.ok for rep in reports) else 1


# ----- weil --------------------------------------------------------------


def _print_algebra(w, out: _Printer) -> None:
    out.pair("dimension", w.dimension)
    out.pair("basis", ",".join(w.labels) if out.style == "kv" else ", ".join(w.labels))
    out.pair("nilpotency degree", w.nilpotency_degree)
    out.raw(serialize_algebra(w), kv_key="serialized")


def _parse_images(text: str, source, target) -> WeilMorphism:
    """'x -> y; z -> y^2' builds the map out of source by generator images."""
    gens = list(generator_elements(target))
    seen = {}
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if "->" not in piece:
            raise ParseError(f"expected 'generator -> expression', got {piece!r}")
        lhs, rhs = piece.split("->", 1)
        g = lhs.strip()
        if g not in source.gens:
            raise ParseError(f"{g!r} is not a generator of the source algebra")
        if g in seen:
            raise ParseError(f"generator {g!r} mapped twice")
        body = parse_expression(rhs, target.gens)
        call = body.first_call()
        if call is not None:
            raise ParseError(f"{call}() is not allowed in morphism images")
        seen[g] = lift_eval(body, gens, template=target.one(), var_names=target.gens)
    missing = [g for g in source.gens if g not in seen]
    if missing:
        raise ParseError(f"no image given for generator(s) {', '.join(missing)}")
    return WeilMorphism.from_generator_images(
        source, target, [seen[g] for g in source.gens]
    )


def _parse_arrow(spec: str, objects):
    parts = spec.split(None, 2)
    if len(parts) != 3:
        raise ParseError(
            f"--arrow wants 'SOURCE TARGET images', got {spec!r}"
        )
    try:
        s, t = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"arrow endpoints must be object indices: {spec!r}") from exc
    if not (0 <= s < len(objects) and 0 <= t < len(objects)):
        raise ParseError(f"arrow endpoints out of range in {spec!r}")
    return s, t, _parse_images(parts[2], objects[s], objects[t])


def cmd_weil(args) -> int:
    out = _Printer(args.output)
    if args.action == "info":
        _print_algebra(parse_algebra(args.inputs[0]), out)
    elif args.action == "tensor":
        if len(args.inputs) < 2:
            raise ParseError("tensor wants two algebras")
        w = parse_algebra(args.inputs[0])
        for text in args.inputs[1:]:
            w, _, _ = tensor(w, parse_algebra(text))
        _print_algebra(w, out)
    elif args.action == "equalizer":
        if len(args.inputs) != 4:
            raise ParseError(
                "equalizer wants: SOURCE TARGET 'images of first map' 'images of second map'"
            )
        src = parse_algebra(args.inputs[0])
        tgt = parse_algebra(args.inputs[1])
        phi = _parse_images(args.inputs[2], src, tgt)
        psi = _parse_images(args.inputs[3], src, tgt)
        sub, inclusion = equalizer(phi, psi)
        out.pair("dimension", sub.dimension)
        for i in range(sub.dimension):
            member = inclusion.apply(sub.basis_element(i))
            out.pair(f"member.{i}" if out.style == "kv" else "member", member)
    else:
        if not args.inputs:
            raise ParseError("limit wants at least one algebra")
        objects = [parse_algebra(text) for text in args.inputs]
        arrows = [_parse_arrow(spec, objects) for spec in args.arrow or []]
        apex, legs = limit(DiagramInWeil(tuple(objects), tuple(arrows)))
        out.pair("dimension", apex.dimension)
        out.raw(serialize_algebra(apex), kv_key="serialized")
        for i, leg in enumerate(legs):
            for r, row in enumerate(leg.matrix.raw):
                cells = ",".join(_fmt(c) for c in row)
                if out.style == "kv":
                    out.pair(f"leg.{i}.row.{r}", cells)
                else:
                    out.pair(f"leg {i} row {r}", cells)
    out.flush()
    return 0


# ----- vertical ----------------------------------------------------------


def cmd_vertical(args) -> int:
    if args.mode == "float":
        return _fail("the vertical fiber solve needs exact mode", 2)
    p = FiberedObject.from_text(args.fibered)
    w = parse_algebra(args.algebra)
    e0 = _parse_values(args.point, Mode.EXACT)
    fib = vertical_fiber(p, w, e0)
    out = _Printer(args.output)
    out.pair("projection", p.name if out.style != "kv" else p.projection.name)
    if out.style == "kv":
        out.pair("total_dim", p.total_dim)
        out.pair("base_dim", p.base_dim)
    out.pair("algebra dimension", w.dimension)
    out.pair("base point", ",".join(_fmt(v) for v in fib.base_point))
    out.pair("jacobian rank", fib.jacobian_rank)
    out.pair("regular", "true" if fib.regular else "false")
    out.pair("consistent", "true" if fib.consistent else "false")
    out.pair("free parameters", fib.dimension)
    for i, vec in enumerate(fib.kernel):
        out.pair(
            f"kernel.{i}" if out.style == "kv" else "kernel direction",
            ",".join(_fmt(c) for c in vec),
        )
    for degree, slots, params, solved in fib.per_degree:
        if out.style == "kv":
            out.pair(f"degree.{degree}.slots", slots)
            out.pair(f"degree.{degree}.params_per_slot", params)
            out.pair(f"degree.{degree}.solved", "true" if solved else "false")
        else:
            out.pair(
                f"degree {degree}",
                f"{slots} slot(s), {params} parameter(s) each, "
                + ("solved" if solved else "inconsistent"),
            )
    out.pair("origin", fib.origin)
    if not fib.regular:
        out.raw(
            "note: base point is irregular; the data above is partial",
            kv_key="note",
        )
    out.flush()
    return 0


# ----- wiring ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=("exact", "float"), default="exact")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--samples", type=int, default=20)
    common.add_argument("--output", choices=("text", "kv"), default="text")

    parser = argparse.ArgumentParser(
        prog="weilkit",
        description="truncated-polynomial jets and the checks behind them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_jet = sub.add_parser("jet", parents=[common], help="Taylor coefficients of an expression")
    p_jet.add_argument("expr")
    p_jet.add_argument("--at", required=True, help="comma-separated input values")
    p_jet.add_argument("--order", type=int, default=None)
    p_jet.add_argument("--mixed", action="store_true", help="one jet variable per input")
    p_jet.set_defaults(func=cmd_jet)

    p_verify = sub.add_parser("verify", parents=[common], help="run a check battery")
    p_verify.add_argument("suite", choices=tuple(_SUITES))
    p_verify.add_argument("--negative-controls", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_weil = sub.add_parser("weil", parents=[common], help="algebra constructions")
    p_weil.add_argument("action", choices=("tensor", "equalizer", "limit", "info"))
    p_weil.add_argument("inputs", nargs="*")
    p_weil.add_argument(
        "--arrow",
        action="append",
        help="limit only: 'SOURCE TARGET gen -> expr; ...' (repeatable)",
    )
    p_weil.set_defaults(func=cmd_weil)

    p_vert = sub.add_parser(
        "vertical", parents=[common], help="solve a vertical fiber over a base point"
    )
    p_vert.add_argument("fibered", help="projection, e.g. 'fibered pi(x,y) -> (x)'")
    p_vert.add_argument("algebra", help="e.g. 'Q[d]/(d^2)'")
    p_vert.add_argument("point", help="comma-separated base point")
    p_vert.set_defaults(func=cmd_vertical)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one weilkit command line and return its exit code.

    The parser is built once per process, on the first call, and each call
    parses only its own argv.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (NonNilpotentError, BudgetError) as exc:
        return _fail(str(exc), 1)
    except (ParseError, AlgebraError) as exc:
        return _fail(str(exc), 2)
    except (
        ModeError,
        MorphismError,
        DiagramError,
        FiberedError,
        ZeroDivisionError,
        ValueError,
    ) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
