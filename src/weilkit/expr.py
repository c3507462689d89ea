"""Expression trees for smooth maps, one fold that evaluates them over a
ring, and exact polynomial dictionaries.

A map body is a small AST over + - * / integer powers and the usual
transcendental calls.  Variables are stored by index; names live on the
enclosing SmoothMap and only matter for parsing, printing and error
messages.  The printer and parser are inverse on canonical strings, byte
for byte.  The tokenizer is one regular expression, one match per token
(a number literal is a run of decimal digits, str.isdecimal, with at most
one dot), and the descent compares tokens by index with module constants.

fold() is the one evaluator, over plain numbers (evaluate_numeric, with
the module rings FLOATS and RATIONALS), exact polynomials (int_poly)
or Weil elements (smooth.lift_eval), and the three rings share one
protocol (see fold).  It is a plain recursion that builds no closures, so
reference counting frees each evaluation.  In each ring a denominator or a
negatively powered base must be invertible, an exact power's scalar part
has a budget of 2^20 bits, and calls need floats.

A polynomial is int numerators over one denominator (PolyCoefficients),
canonical, so equal polynomials are equal pairs: the exact backbone for
Jacobians, lifted maps, and commuting-square checks.  Readers such as
poly_from_expr hand out {exponent tuple -> Fraction} dicts.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exactlin import qq


class ParseError(ValueError):
    """The DSL text is malformed."""


class NonPolynomialError(ValueError):
    """Raised where only polynomial bodies are meaningful."""


class EvaluationError(ValueError):
    """A map body cannot be evaluated in the ring at hand."""


class NotInvertibleError(EvaluationError, ZeroDivisionError):
    """A denominator or a negatively powered base has no inverse in the ring."""


_CALLS = ("exp", "log", "sin", "cos", "sqrt")
_BINARY = ("add", "sub", "mul", "div")  # the ring's add, sub and mul; div inverts


def _operator(op: str, reflected: bool = False):
    """Expr's binary operator op; the other side may be an int or a Fraction."""

    def apply(self, other):
        if isinstance(other, (int, Fraction)):
            other = const(other)
        elif not isinstance(other, Expr):
            return NotImplemented
        return Expr(op, (other, self) if reflected else (self, other))

    return apply


@dataclass(frozen=True)
class Expr:
    op: str
    args: tuple = ()
    value: object = None  # Fraction for const, int for var index / power

    __add__, __radd__ = _operator("add"), _operator("add", True)
    __sub__, __rsub__ = _operator("sub"), _operator("sub", True)
    __mul__, __rmul__ = _operator("mul"), _operator("mul", True)
    __truediv__, __rtruediv__ = _operator("div"), _operator("div", True)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("powers in map bodies are integers")
        return Expr("intpow", (self,), n)

    def __neg__(self):
        if self.op == "const":
            return const(-self.value)
        return Expr("sub", (const(0), self))

    def variables(self) -> set:
        out, stack = set(), [self]
        while stack:
            node = stack.pop()
            if node.op == "var":
                out.add(node.value)
            stack += node.args
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


# ----- polynomials ---------------------------------------------------------


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

    Every ring (_Numbers, PolyCoefficients, smooth.WeilCoefficients) has
    one protocol.  fold reads const(q), add, sub, mul, invert(x) (raising
    ZeroDivisionError when x has no inverse), exact_scalar(x) (the exact
    scalar part the power budget reads, or None) and call(op, x, where);
    smooth.ExtendedElement reads zero(), scale(a, q), is_zero(a),
    scalar(a), depth and symbolic from its coefficient ring.  Errors name
    the node in var_names (by default x0, x1, ...): where formats as the
    call node's text, which is made only then.
    """
    return _fold(expr, ring, values, var_names)


class _Where:
    """A node's text in error messages, made only when one formats it."""

    def __init__(self, node, values, names):
        self.node, self.values, self.names = node, values, names

    def __str__(self):
        names = self.names or [f"x{i}" for i in range(len(self.values))]
        return serialize_expression(self.node, names)


def _inverse(x, what, node, ring, values, names):
    try:
        return ring.invert(x)
    except (ZeroDivisionError, NonPolynomialError) as exc:
        error = NonPolynomialError if isinstance(exc, NonPolynomialError) else NotInvertibleError
        raise error(f"{what} in {_Where(node, values, names)}: {exc}") from None


def _over_budget(s, n: int) -> bool:
    """Would s^n, s exact, need more than 2^_POWER_BUDGET_LOG2 bits?  Past 0 and
    +-1 each factor adds a bit, so a larger n fails before n * log2 overflows."""
    budget = 1 << _POWER_BUDGET_LOG2
    return s not in (0, 1, -1) and (
        n > budget or n * math.log2(max(abs(s.numerator), s.denominator)) > budget
    )


def _fold(node, ring, values, names):
    op, args = node.op, node.args
    if op == "const":
        return ring.const(node.value)
    if op == "var":
        return values[node.value]
    if op in _BINARY:
        a, b = _fold(args[0], ring, values, names), _fold(args[1], ring, values, names)
        if op != "div":
            return getattr(ring, op)(a, b)
        return ring.mul(a, _inverse(b, "denominator is not invertible", node, ring, values, names))
    if op in _CALLS:
        x = _fold(args[0], ring, values, names)
        return ring.call(op, x, _Where(node, values, names))
    if op != "intpow":
        raise ValueError(f"unknown node {op!r}")
    base, n = _fold(args[0], ring, values, names), node.value
    if n < 0:
        what = "negative power of a non-invertible value"
        base, n = _inverse(base, what, node, ring, values, names), -n
    # float scalar parts overflow instead of growing, and symbolic ones
    # may depend on the inputs: only exact ones are budgeted
    s = ring.exact_scalar(base)
    if s is not None and _over_budget(s, n):
        raise EvaluationError(
            f"exact power {_Where(node, values, names)} exceeds the budget of "
            f"2^{_POWER_BUDGET_LOG2} bits for its scalar part"
        )
    return _power(base, n, ring.mul, ring.const(Fraction(1)))


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
    """Plain numbers as a ring: all Fraction (exact) or all float; also a
    coefficient ring of smooth.ExtendedElement, and FLOATS, the float one,
    carries float evaluation on Weil algebras."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)
    depth, symbolic = 1, False

    def __init__(self, exact: bool):
        self.exact = exact
        self._zero = self.const(Fraction(0))

    def const(self, q):
        return q if self.exact else float(q)

    def zero(self):
        return self._zero

    # a times q; a float a meets a Fraction q as a * float(q), by Fraction's fallback
    scale = staticmethod(operator.mul)

    @staticmethod
    def scalar(a):
        return a

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


def _reduced(den: int, nums: dict):
    """nums / den without zero numerators and with gcd(den, *numerators) == 1."""
    if 0 in nums.values():
        nums = {e: n for e, n in nums.items() if n}
    g = math.gcd(den, *nums.values()) if den > 1 else 1
    return (den, nums) if g == 1 else (den // g, {e: n // g for e, n in nums.items()})


@dataclass(frozen=True)
class PolyCoefficients:
    """Exact polynomials in nvars inputs: the ring of int_poly, and the
    coefficients of a symbolic lift (smooth.lift_map).

    A polynomial is (den, nums): nonzero int numerators {exponent tuple:
    n} over one positive int denominator, with gcd(den, *numerators) == 1,
    so equal polynomials are equal pairs; zero is (1, {}).  fractions()
    reads one as {exponent tuple: Fraction}."""

    nvars: int
    symbolic = True
    depth = 1

    def zero(self):
        return 1, {}

    def const(self, value):
        q = qq(value)
        return (q.denominator, {(0,) * self.nvars: q.numerator}) if q else (1, {})

    def var(self, i: int):
        return 1, {tuple(int(j == i) for j in range(self.nvars)): 1}

    @staticmethod
    def fractions(p) -> dict:
        return {e: Fraction(n, p[0]) for e, n in p[1].items()}

    @staticmethod
    def add(p, q, sign=1):
        (dp, a), (dq, b) = p, q
        g = math.gcd(dp, dq)
        sa, sb = dq // g, sign * (dp // g)
        out = {e: n * sa for e, n in a.items()} if sa != 1 else dict(a)
        get = out.get
        for e, n in b.items():
            out[e] = get(e, 0) + n * sb
        return _reduced(dp * sa, out)

    def sub(self, p, q):
        return self.add(p, q, -1)

    @staticmethod
    def mul(p, q):
        (dp, a), (dq, b) = p, q
        out = {}
        get = out.get
        for e1, n1 in a.items():
            for e2, n2 in b.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = get(e, 0) + n1 * n2
        return _reduced(dp * dq, out)

    @staticmethod
    def scale(p, c):
        c, (den, nums) = Fraction(c), p
        return _reduced(den * c.denominator, {e: n * c.numerator for e, n in nums.items() if c})

    def is_zero(self, p) -> bool:
        return not p[1]

    def exact_scalar(self, p):
        """The value of a constant polynomial; None when p depends on the inputs."""
        den, nums = p
        return None if any(map(any, nums)) else Fraction(nums.get((0,) * self.nvars, 0), den)

    def scalar(self, p) -> Fraction:
        c = self.exact_scalar(p)
        if c is None:
            raise NonPolynomialError("it depends on the inputs, so it has no polynomial inverse")
        return c

    def invert(self, p):
        c = self.scalar(p)
        if not c:
            raise ZeroDivisionError("zero has no inverse")
        return self.const(1 / c)

    def call(self, op, x, where):
        raise NonPolynomialError(f"{op}() is not polynomial: {where}")


FLOATS = _Numbers(exact=False)
RATIONALS = _Numbers(exact=True)


def evaluate_numeric(expr: Expr, values, var_names=None):
    """Evaluate at plain numbers (all Fraction, or all float); calls need floats."""
    ring = FLOATS if values and isinstance(values[0], float) else RATIONALS
    return fold(expr, ring, values, var_names)


def int_poly(expr: Expr, nvars: int, var_names=None):
    """Exact polynomial of an expression, in PolyCoefficients' int form:
    NonPolynomialError for calls and for denominators that depend on the
    inputs, NotInvertibleError (a ZeroDivisionError) for zero ones."""
    ring = PolyCoefficients(nvars)
    return fold(expr, ring, [ring.var(i) for i in range(nvars)], var_names)


def poly_from_expr(expr: Expr, nvars: int, var_names=None):
    """int_poly's polynomial as {exponent tuple: Fraction}."""
    return PolyCoefficients.fractions(int_poly(expr, nvars, var_names))


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


def jacobian(f: SmoothMap, point):
    """The exact Jacobian of f at a point of Fractions x_i = a_i / b_i, read
    off each body's int polynomial over one common denominator: in a
    partial derivative's term, x_i^k is a_i^k * b_i^(top_i - k), with
    top_i the largest such k, from one table of powers, each refused
    past the power budget (bases 0 and +-1 are exempt)."""
    n = f.arity_in
    polys = [int_poly(b, n, f.var_names) for b in f.bodies]
    # (row, column, numerator, exponents) of each partial derivative's terms
    terms = [(r, j, c * e[j], e[:j] + (e[j] - 1,) + e[j + 1:])
             for r, (_, nums) in enumerate(polys) for e, c in nums.items()
             for j in range(n) if e[j]]
    top = [max([d[i] for *_, d in terms], default=0) for i in range(n)]
    for name, x, k in zip(f.var_names, point, top):
        if _over_budget(x, k):
            raise EvaluationError(
                f"exact power {name}^{k} at {name} = {x} in the Jacobian exceeds "
                f"the budget of 2^{_POWER_BUDGET_LOG2} bits for its scalar part"
            )
    table = {(i, k): pow(point[i].numerator, k) * pow(point[i].denominator, top[i] - k)
             for i, k in {ik for *_, d in terms for ik in enumerate(d)}}
    sums = [[0] * n for _ in polys]
    for r, j, c, d in terms:
        sums[r][j] += c * math.prod(map(table.__getitem__, enumerate(d)))
    common = math.prod(pow(x.denominator, k) for x, k in zip(point, top))
    return [[Fraction(s, den * common) for s in row] for row, (den, _) in zip(sums, polys)]


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
    converts it if it holds a run of more than DIGIT_LIMIT decimal digits.
    A run is never longer than the text that holds it, so only a longer
    text is scanned."""
    if len(text) > DIGIT_LIMIT:
        longest = max(map(len, _DIGIT_RUN.findall(text)), default=0)
        if longest > DIGIT_LIMIT:
            raise error(
                f"a number literal of {longest} digits exceeds the digit limit "
                f"of {DIGIT_LIMIT} digits"
            )
    return text


# one match per token, in order: whitespace; a number, a run of decimal
# digits (str.isdecimal: "²" is a digit no number reader accepts) with at
# most one dot; a name, which must start with a letter or "_"; an
# operator; any other character, which is an error
_TOKEN = re.compile(r"\s+|(\d+\.?\d*|\.\d+)|(\w+)|(->|[-+*/^(),])|(.)", re.S)
_OPS = {op: ("op", op) for op in ("->", *"+-*/^(),")}
_PLUS, _MINUS, _TIMES, _OVER, _CARET, _OPEN, _CLOSE, _COMMA = map(_OPS.get, "+-*/^(),")
_END = ("end", "")


def _tokenize(text: str):
    """[(kind, text)] ending in _END; operators are the _OPS tuples."""
    tokens = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        num, name, op, other = m.groups()
        if num:
            append(("num", check_literal(num, ParseError)))
        elif op:
            append(_OPS[op])
        elif name and (name[0].isalpha() or name[0] == "_"):
            append(("name", name))
        elif name or other:
            raise ParseError(f"unexpected character {m[0][0]!r} at offset {m.start()}")
    append(_END)
    return tokens


class _Parser:
    """Recursive descent over a token list: each level compares the token at
    pos with the token constants above and steps pos on; take() reads a
    token that must be there and words the error when it is not."""

    def __init__(self, tokens, var_names):
        self.tokens = tokens
        self.pos = 0
        self.var_names = list(var_names)

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}")
        if value and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def listed(self, read):
        """read() once per item of a comma-separated list, then its ")"."""
        items = []
        if self.tokens[self.pos] != _CLOSE:
            items.append(read())
            while self.tokens[self.pos] == _COMMA:
                self.pos += 1
                items.append(read())
        self.take("op", ")")
        return items

    def whole(self) -> Expr:
        """The expression the tokens spell, up to their end."""
        node = self.expression()
        self.take("end")
        return node

    def expression(self) -> Expr:
        node = self.term()
        tokens = self.tokens
        while (tok := tokens[self.pos]) == _PLUS or tok == _MINUS:
            self.pos += 1
            node = Expr("add" if tok == _PLUS else "sub", (node, self.term()))
        return node

    def term(self) -> Expr:
        node = self.unary()
        tokens = self.tokens
        while (tok := tokens[self.pos]) == _TIMES or tok == _OVER:
            self.pos += 1
            rhs = self.unary()
            if tok == _TIMES:
                node = Expr("mul", (node, rhs))
            elif node.op != "const" or rhs.op != "const":
                node = Expr("div", (node, rhs))
            elif rhs.value == 0:
                raise ParseError("division by the constant zero")
            else:
                node = Expr("const", (), node.value / rhs.value)
        return node

    def unary(self) -> Expr:
        if self.tokens[self.pos] == _MINUS:
            self.pos += 1
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.tokens[self.pos] != _CARET:
            return base
        self.pos += 1
        sign = 1
        if self.tokens[self.pos] == _MINUS:
            self.pos += 1
            sign = -1
        text = self.take("num")[1]
        if "." in text:
            raise ParseError("powers must be integers")
        return Expr("intpow", (base,), sign * int(text))

    def atom(self) -> Expr:
        kind, text = tok = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return Expr("const", (), Fraction(text) if "." in text else Fraction(int(text)))
        if kind == "name":
            if self.tokens[self.pos] != _OPEN:
                if text not in self.var_names:
                    raise ParseError(f"unknown variable {text!r}")
                return Expr("var", (), self.var_names.index(text))
            if text not in _CALLS:
                raise ParseError(f"unknown function {text!r}")
            self.pos += 1
            inner = self.expression()
            self.take("op", ")")
            return Expr(text, (inner,))
        if tok == _OPEN:
            inner = self.expression()
            self.take("op", ")")
            return inner
        raise ParseError(f"unexpected token {text!r}")


def parse_expression(text: str, var_names) -> Expr:
    return _Parser(_tokenize(text), var_names).whole()


def parse_map(text: str, keyword: str = "map") -> SmoothMap:
    """Parse 'map f(u,v) -> (body, body)'.  The keyword prefix is optional."""
    tokens = _tokenize(text)
    pos = int(tokens[0] == ("name", keyword))
    if tokens[pos][0] != "name":
        raise ParseError("expected a map name")
    p = _Parser(tokens, [])
    p.pos = pos + 1
    p.take("op", "(")
    names = p.listed(lambda: p.take("name")[1])
    p.take("op", "->")
    p.take("op", "(")
    p.var_names = names
    bodies = p.listed(p.expression)
    p.take("end")
    if len(set(names)) != len(names):
        raise ParseError("variable names repeat")
    return SmoothMap(tuple(names), tuple(bodies), name=tokens[pos][1])


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
