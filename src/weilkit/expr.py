"""Expression trees for smooth maps, one fold that evaluates them over a
ring, and exact polynomial dictionaries.

A map body is a small AST over + - * / integer powers and the usual
transcendental calls.  Variables are stored by index; names live on the
enclosing SmoothMap and only matter for parsing, printing and error
messages.  The printer and parser are inverse on canonical strings, byte
for byte.

fold() is the one evaluator, over plain numbers (evaluate_numeric), exact
polynomials (poly_from_expr) or Weil elements (smooth.lift_eval).  In each
ring a denominator or a negatively powered base must be invertible, an
exact power's scalar part has a budget of 2^20 bits, and calls need floats.

Polynomials are dicts {exponent tuple -> Fraction}; they are the exact
backbone for Jacobians, lifted maps, and commuting-square checks.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exactlin import Mode, qq


class ParseError(ValueError):
    """The DSL text is malformed."""


class NonPolynomialError(ValueError):
    """Raised where only polynomial bodies are meaningful."""


class EvaluationError(ValueError):
    """A map body cannot be evaluated in the ring at hand."""


class NotInvertibleError(EvaluationError, ZeroDivisionError):
    """A denominator or a negatively powered base has no inverse in the ring."""


_CALLS = ("exp", "log", "sin", "cos", "sqrt")


@dataclass(frozen=True)
class Expr:
    op: str
    args: tuple = ()
    value: object = None  # Fraction for const, int for var index / power

    def _wrap(self, other):
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, Fraction)):
            return const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._wrap(other)
        return Expr("add", (self, other)) if other is not NotImplemented else other

    def __radd__(self, other):
        other = self._wrap(other)
        return Expr("add", (other, self)) if other is not NotImplemented else other

    def __sub__(self, other):
        other = self._wrap(other)
        return Expr("sub", (self, other)) if other is not NotImplemented else other

    def __rsub__(self, other):
        other = self._wrap(other)
        return Expr("sub", (other, self)) if other is not NotImplemented else other

    def __mul__(self, other):
        other = self._wrap(other)
        return Expr("mul", (self, other)) if other is not NotImplemented else other

    def __rmul__(self, other):
        other = self._wrap(other)
        return Expr("mul", (other, self)) if other is not NotImplemented else other

    def __truediv__(self, other):
        other = self._wrap(other)
        return Expr("div", (self, other)) if other is not NotImplemented else other

    def __rtruediv__(self, other):
        other = self._wrap(other)
        return Expr("div", (other, self)) if other is not NotImplemented else other

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("powers in map bodies are integers")
        return Expr("intpow", (self,), n)

    def __neg__(self):
        if self.op == "const":
            return const(-self.value)
        return Expr("sub", (const(0), self))

    def variables(self) -> set:
        if self.op == "var":
            return {self.value}
        out = set()
        for a in self.args:
            out |= a.variables()
        return out

    def first_call(self):
        """The first function name in the tree, in pre-order, or None."""
        if self.op in _CALLS:
            return self.op
        return next(filter(None, (a.first_call() for a in self.args)), None)


def const(q) -> Expr:
    return Expr("const", (), Fraction(q))


def var(index: int) -> Expr:
    return Expr("var", (), int(index))


def exp(e: Expr) -> Expr:
    return Expr("exp", (e,))


def log(e: Expr) -> Expr:
    return Expr("log", (e,))


def sin(e: Expr) -> Expr:
    return Expr("sin", (e,))


def cos(e: Expr) -> Expr:
    return Expr("cos", (e,))


def sqrt(e: Expr) -> Expr:
    return Expr("sqrt", (e,))


# ----- polynomial dictionaries ---------------------------------------------


def poly_const(q, nvars: int):
    q = Fraction(q)
    return {(0,) * nvars: q} if q else {}


def poly_var(i: int, nvars: int):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(1)}


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale(p, c):
    c = Fraction(c)
    if not c:
        return {}
    return {e: c * v for e, v in p.items()}


def poly_sub(p, q):
    return poly_add(p, poly_scale(q, -1))


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_eval(p, point):
    """Evaluate at a tuple of Fractions (or anything with ring ops)."""
    total = None
    for e, c in sorted(p.items()):
        term = c
        for x, k in zip(point, e):
            for _ in range(k):
                term = term * x
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


def poly_diff(p, i: int):
    out = {}
    for e, c in p.items():
        if e[i] == 0:
            continue
        d = list(e)
        d[i] -= 1
        out[tuple(d)] = c * e[i]
    return out


def _poly_term_key(e):
    return (sum(e), tuple(-c for c in e))


def poly_to_expr(p, nvars: int) -> Expr:
    """Canonical expression of a polynomial (graded term order)."""
    if not p:
        return const(0)
    total = None
    for e in sorted(p, key=_poly_term_key):
        c = p[e]
        factors = [
            var(i) if k == 1 else var(i) ** k for i, k in enumerate(e) if k > 0
        ]
        if not factors:
            term = const(c)
        else:
            if c in (1, -1):
                head = factors[0]
                rest = factors[1:]
            else:
                head = const(c)
                rest = factors
            term = head
            for f in rest:
                term = term * f
            if c == -1:
                term = -term
        total = term if total is None else total + term
    return total


# ----- one fold over a ring ------------------------------------------------

# an exact power whose scalar part would need more than 2^this bits is refused
_POWER_BUDGET_LOG2 = 20


def fold(expr: Expr, ring, values, var_names=None):
    """Evaluate expr over a ring; values[i] feeds variable i.

    The ring supplies const(q), add, sub, mul, invert(x) (raising
    ZeroDivisionError when x has no inverse), exact_scalar(x) (the exact
    scalar part the power budget reads, or None) and call(op, x, where).
    Errors name the node in var_names (by default x0, x1, ...).
    """
    binary = {"add": ring.add, "sub": ring.sub, "mul": ring.mul}

    def describe(node):
        return serialize_expression(node, var_names or [f"x{i}" for i in range(len(values))])

    def inverse(x, node, what):
        try:
            return ring.invert(x)
        except ZeroDivisionError as exc:
            raise NotInvertibleError(f"{what} in {describe(node)}: {exc}") from None
        except NonPolynomialError as exc:
            raise NonPolynomialError(f"{what} in {describe(node)}: {exc}") from None

    def run(node):
        op = node.op
        if op == "const":
            return ring.const(node.value)
        if op == "var":
            return values[node.value]
        if op in binary:
            return binary[op](run(node.args[0]), run(node.args[1]))
        if op == "div":
            num = run(node.args[0])
            den = inverse(run(node.args[1]), node, "denominator is not invertible")
            return ring.mul(num, den)
        if op in _CALLS:
            return ring.call(op, run(node.args[0]), describe(node))
        if op != "intpow":
            raise ValueError(f"unknown node {op!r}")
        base, n = run(node.args[0]), node.value
        if n < 0:
            base, n = inverse(base, node, "negative power of a non-invertible value"), -n
        # float scalar parts overflow instead of growing, and symbolic ones
        # may depend on the inputs: only exact ones are budgeted.  Past 0 and
        # +-1 each factor adds at least one bit, so a larger n fails before
        # n * log2 could overflow a float.
        s = ring.exact_scalar(base)
        if s is not None and s not in (0, 1, -1):
            budget = 1 << _POWER_BUDGET_LOG2
            if n > budget or n * math.log2(max(abs(s.numerator), s.denominator)) > budget:
                raise EvaluationError(
                    f"exact power {describe(node)} exceeds the budget of "
                    f"2^{_POWER_BUDGET_LOG2} bits for its scalar part"
                )
        return _power(base, n, ring.mul, ring.const(Fraction(1)))

    return run(expr)


def _power(base, n: int, mul, one):
    """base^n for n >= 0 by square and multiply, starting at the first
    factor: x^2 is one product, x^3 two.  x^1 is the one product one*x,
    which turns a float -0.0 coefficient into 0.0 as every longer power
    does."""
    if n <= 1:
        return mul(one, base) if n else one
    out = None
    while n:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


class _Numbers:
    """Plain numbers as a ring: all Fraction (exact) or all float."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)

    def __init__(self, exact: bool):
        self.exact = exact

    def const(self, q):
        return q if self.exact else float(q)

    @staticmethod
    def invert(x):
        if not x:
            raise ZeroDivisionError("zero has no inverse")
        return 1 / x

    def exact_scalar(self, x):
        return x if self.exact else None

    def call(self, op, x, where):
        if self.exact:
            raise NonPolynomialError(
                f"{op}() has no exact rational value; use float mode ({where})"
            )
        return getattr(math, op)(x)


@dataclass(frozen=True)
class PolyCoefficients:
    """Exact polynomials in nvars inputs: the ring of poly_from_expr, and
    the coefficients of a symbolic lift (smooth.lift_map)."""

    nvars: int
    mode = Mode.EXACT
    symbolic = True
    depth = 1

    def zero(self):
        return {}

    def const(self, value):
        return poly_const(qq(value), self.nvars)

    add = staticmethod(poly_add)
    sub = staticmethod(poly_sub)
    mul = staticmethod(poly_mul)
    scale = staticmethod(poly_scale)

    def is_zero(self, p) -> bool:
        return not p

    def exact_scalar(self, p):
        """The value of a constant polynomial; None when p depends on the inputs."""
        return None if any(sum(e) for e in p) else p.get((0,) * self.nvars, Fraction(0))

    def scalar(self, p) -> Fraction:
        c = self.exact_scalar(p)
        if c is None:
            raise NonPolynomialError(
                "it depends on the inputs, so it has no polynomial inverse"
            )
        return qq(c)

    def invert(self, p):
        c = self.scalar(p)
        if not c:
            raise ZeroDivisionError("zero has no inverse")
        return poly_const(1 / c, self.nvars)

    def call(self, op, x, where):
        raise NonPolynomialError(f"{op}() is not polynomial: {where}")


def evaluate_numeric(expr: Expr, values, var_names=None):
    """Evaluate at plain numbers (all Fraction, or all float); calls need floats."""
    exact = not (values and isinstance(values[0], float))
    return fold(expr, _Numbers(exact), values, var_names)


def poly_from_expr(expr: Expr, nvars: int, var_names=None):
    """Exact polynomial of an expression: NonPolynomialError for calls and
    for denominators that depend on the inputs, NotInvertibleError (a
    ZeroDivisionError) for zero ones."""
    ring = PolyCoefficients(nvars)
    return fold(expr, ring, [poly_var(i, nvars) for i in range(nvars)], var_names)


# ----- smooth maps ---------------------------------------------------------


@dataclass(frozen=True)
class SmoothMap:
    """A map R^n -> R^m given by one expression body per output."""

    var_names: tuple
    bodies: tuple
    name: str = field(default="f", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        object.__setattr__(self, "bodies", tuple(self.bodies))
        n = len(self.var_names)
        for b in self.bodies:
            for i in b.variables():
                if i >= n:
                    raise ValueError("body uses a variable beyond the signature")

    @property
    def arity_in(self) -> int:
        return len(self.var_names)

    @property
    def arity_out(self) -> int:
        return len(self.bodies)

    @staticmethod
    def identity(n: int) -> "SmoothMap":
        return SmoothMap(_default_names(n), tuple(var(i) for i in range(n)), name="id")

    @staticmethod
    def projection(n: int, indices) -> "SmoothMap":
        """R^n -> R^len(indices), keeping the coordinates at indices."""
        return SmoothMap(_default_names(n), tuple(var(i) for i in indices), name="proj")

    @staticmethod
    def stack(maps) -> "SmoothMap":
        """Concatenate outputs of maps sharing one input space."""
        maps = list(maps)
        names = maps[0].var_names
        for m in maps[1:]:
            if m.arity_in != len(names):
                raise ValueError("stacked maps must share the input arity")
        bodies = tuple(b for m in maps for b in m.bodies)
        return SmoothMap(names, bodies, name="stack")

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        """self after inner."""
        if inner.arity_out != self.arity_in:
            raise ValueError(
                f"composition mismatch: inner gives {inner.arity_out}, "
                f"outer takes {self.arity_in}"
            )
        bodies = tuple(_substitute(b, inner.bodies) for b in self.bodies)
        return SmoothMap(inner.var_names, bodies, name=f"{self.name}.{inner.name}")

    def uses_transcendental(self) -> bool:
        return any(b.first_call() for b in self.bodies)

    def to_polys(self):
        return [poly_from_expr(b, self.arity_in, self.var_names) for b in self.bodies]

    def linear_matrix(self):
        """The matrix of a homogeneous linear map, or None."""
        try:
            polys = self.to_polys()
        except (NonPolynomialError, ZeroDivisionError):
            return None
        rows = []
        for p in polys:
            row = [Fraction(0)] * self.arity_in
            for e, c in p.items():
                if sum(e) != 1:
                    return None
                row[e.index(1)] = c
            rows.append(row)
        return rows

    def __call__(self, values):
        values = list(values)
        return [evaluate_numeric(b, values, self.var_names) for b in self.bodies]

    def __repr__(self):
        return f"SmoothMap({serialize_map(self)})"


def _default_names(n: int):
    if n <= 3:
        return ("u", "v", "w")[:n]
    return tuple(f"x{i+1}" for i in range(n))


def linear_map(rows, n_in: int | None = None, name: str = "lin") -> SmoothMap:
    """The SmoothMap with the given exact coefficient rows (one per output)."""
    if n_in is None:
        if not rows:
            raise ValueError("n_in is required when there are no rows")
        n_in = len(rows[0])
    bodies = []
    for row in rows:
        if len(row) != n_in:
            raise ValueError("ragged coefficient rows")
        body = const(0)
        for j, c in enumerate(row):
            q = qq(c)
            if q:
                body = body + const(q) * var(j)
        bodies.append(body)
    return SmoothMap(_default_names(n_in), tuple(bodies), name=name)


def _substitute(expr: Expr, replacements):
    if expr.op == "var":
        return replacements[expr.value]
    if expr.op == "const":
        return expr
    return Expr(expr.op, tuple(_substitute(a, replacements) for a in expr.args), expr.value)


# ----- parsing -------------------------------------------------------------

# no number literal is read, and no exact number printed, with a run of
# more decimal digits than this
DIGIT_LIMIT = 4300
_DIGIT_RUN = re.compile(r"\d+")


def check_literal(text: str, error=ValueError) -> str:
    """The text of a number literal, refused with `error` before anything
    converts it if it holds a run of more than DIGIT_LIMIT digits."""
    longest = max(map(len, _DIGIT_RUN.findall(text)), default=0)
    if longest > DIGIT_LIMIT:
        raise error(
            f"a number literal of {longest} digits exceeds the digit limit "
            f"of {DIGIT_LIMIT} digits"
        )
    return text


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", check_literal(text[i:j], ParseError)))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(("op", "->"))
            i += 2
            continue
        if ch in "+-*/^(),":
            tokens.append(("op", ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens, var_names):
        self.tokens = tokens
        self.pos = 0
        self.var_names = list(var_names)

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}")
        if value and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def expression(self) -> Expr:
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.unary()
            if op == "/":
                if node.op == "const" and rhs.op == "const":
                    if rhs.value == 0:
                        raise ParseError("division by the constant zero")
                    node = const(node.value / rhs.value)
                else:
                    node = node / rhs
            else:
                node = node * rhs
        return node

    def unary(self) -> Expr:
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.unary()
            return -inner
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            tok = self.take("num")
            if "." in tok[1]:
                raise ParseError("powers must be integers")
            return base ** (sign * int(tok[1]))
        return base

    def atom(self) -> Expr:
        kind, text = self.peek()
        if kind == "num":
            self.take()
            return const(Fraction(text))
        if kind == "name":
            self.take()
            if self.peek() == ("op", "("):
                if text not in _CALLS:
                    raise ParseError(f"unknown function {text!r}")
                self.take("op", "(")
                inner = self.expression()
                self.take("op", ")")
                return Expr(text, (inner,))
            if text not in self.var_names:
                raise ParseError(f"unknown variable {text!r}")
            return var(self.var_names.index(text))
        if (kind, text) == ("op", "("):
            self.take()
            inner = self.expression()
            self.take("op", ")")
            return inner
        raise ParseError(f"unexpected token {text!r}")


def parse_expression(text: str, var_names) -> Expr:
    p = _Parser(_tokenize(text), var_names)
    node = p.expression()
    p.take("end")
    return node


def parse_map(text: str, keyword: str = "map") -> SmoothMap:
    """Parse 'map f(u,v) -> (body, body)'.  The keyword prefix is optional."""
    tokens = _tokenize(text)
    pos = 0
    if tokens[pos] == ("name", keyword):
        pos += 1
    if tokens[pos][0] != "name":
        raise ParseError("expected a map name")
    name = tokens[pos][1]
    pos += 1
    p = _Parser(tokens, [])
    p.pos = pos
    p.take("op", "(")
    names = []
    if p.peek() != ("op", ")"):
        while True:
            names.append(p.take("name")[1])
            if p.peek() == ("op", ","):
                p.take()
            else:
                break
    p.take("op", ")")
    p.take("op", "->")
    p.take("op", "(")
    p.var_names = names
    bodies = []
    if p.peek() != ("op", ")"):
        while True:
            bodies.append(p.expression())
            if p.peek() == ("op", ","):
                p.take()
            else:
                break
    p.take("op", ")")
    p.take("end")
    if len(set(names)) != len(names):
        raise ParseError("variable names repeat")
    return SmoothMap(tuple(names), tuple(bodies), name=name)


# ----- printing ------------------------------------------------------------

_LEVEL_ATOM = 4
_LEVEL_POW = 3
_LEVEL_TERM = 2
_LEVEL_SUM = 1


def _fmt(expr: Expr, var_names):
    op = expr.op
    if op == "const":
        q = expr.value
        if q < 0:
            return f"(-{-q})", _LEVEL_ATOM
        # "3/4" reparses as a division, so it must not claim atom precedence
        if q.denominator != 1:
            return str(q), _LEVEL_TERM
        return str(q), _LEVEL_ATOM
    if op == "var":
        return var_names[expr.value], _LEVEL_ATOM
    if op == "sub" and expr.args[0] == const(0):
        inner = _paren(expr.args[1], var_names, _LEVEL_POW)
        return f"-{inner}", _LEVEL_TERM
    if op == "add":
        l = _paren(expr.args[0], var_names, _LEVEL_SUM)
        r = _paren(expr.args[1], var_names, _LEVEL_TERM)
        return f"{l} + {r}", _LEVEL_SUM
    if op == "sub":
        l = _paren(expr.args[0], var_names, _LEVEL_SUM)
        r = _paren(expr.args[1], var_names, _LEVEL_TERM)
        return f"{l} - {r}", _LEVEL_SUM
    if op == "mul":
        l = _paren(expr.args[0], var_names, _LEVEL_TERM)
        r = _paren(expr.args[1], var_names, _LEVEL_POW)
        return f"{l}*{r}", _LEVEL_TERM
    if op == "div":
        l = _paren(expr.args[0], var_names, _LEVEL_TERM)
        r = _paren(expr.args[1], var_names, _LEVEL_POW)
        return f"{l}/{r}", _LEVEL_TERM
    if op == "intpow":
        base = _paren(expr.args[0], var_names, _LEVEL_ATOM)
        return f"{base}^{expr.value}", _LEVEL_POW
    if op in _CALLS:
        inner, _ = _fmt(expr.args[0], var_names)
        return f"{op}({inner})", _LEVEL_ATOM
    raise ValueError(f"unknown node {op!r}")


def _paren(expr: Expr, var_names, min_level: int) -> str:
    s, level = _fmt(expr, var_names)
    return f"({s})" if level < min_level else s


def serialize_expression(expr: Expr, var_names) -> str:
    return _fmt(expr, var_names)[0]


def serialize_map(m: SmoothMap, keyword: str = "map") -> str:
    vars_part = ",".join(m.var_names)
    bodies = ", ".join(serialize_expression(b, m.var_names) for b in m.bodies)
    return f"{keyword} {m.name}({vars_part}) -> ({bodies})"
