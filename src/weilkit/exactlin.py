"""Exact rational scalars and the dense linear algebra everything else reduces to.

Two scalar modes exist: exact (arbitrary-precision rationals) and float
(doubles, for the analytic primitives).  Mixing them in one operation is a
bug in the caller, so it raises instead of silently promoting.  All
structural decisions (kernels, ranks, solvability) are exact-only.
"""

from __future__ import annotations

import enum
from fractions import Fraction


class Mode(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"


class ModeError(TypeError):
    """Raised when exact and float values meet in one operation."""


class SolveFailure(enum.Enum):
    NO_SOLUTION = "no solution"
    NOT_UNIQUE = "not unique"


NO_SOLUTION = SolveFailure.NO_SOLUTION
NOT_UNIQUE = SolveFailure.NOT_UNIQUE


class Scalar:
    """A rational or a double, tagged so the two never mix silently.

    ints and Fractions coerce to exact mode; Python floats to float mode.
    An int may meet a float Scalar (the conversion is exact), a Fraction
    may not.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, Scalar):
            value = value.value
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, (int, str)):
            value = Fraction(value)
        if not isinstance(value, (Fraction, float)):
            raise TypeError(f"cannot build a Scalar from {type(value).__name__}")
        self.value = value

    @property
    def mode(self) -> Mode:
        # a float test: Fraction's isinstance goes through the ABC machinery
        return Mode.FLOAT if isinstance(self.value, float) else Mode.EXACT

    @staticmethod
    def exact(value) -> "Scalar":
        if isinstance(value, float):
            raise ModeError("float given where an exact rational is required")
        return value if isinstance(value, Scalar) else Scalar(value)

    @staticmethod
    def zero(mode: Mode) -> "Scalar":
        return _ZERO if mode is Mode.EXACT else _FZERO

    @staticmethod
    def one(mode: Mode) -> "Scalar":
        return _ONE if mode is Mode.EXACT else _FONE

    def __add__(self, other):
        return _scalar(self.value + _raw(other, self.mode))

    __radd__ = __add__

    def __sub__(self, other):
        return _scalar(self.value - _raw(other, self.mode))

    def __rsub__(self, other):
        return _scalar(_raw(other, self.mode) - self.value)

    def __mul__(self, other):
        return _scalar(self.value * _raw(other, self.mode))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _raw(other, self.mode)
        if other == 0:
            raise ZeroDivisionError("scalar division by zero")
        return _scalar(self.value / other)

    def __rtruediv__(self, other):
        other = _raw(other, self.mode)
        if self.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return _scalar(other / self.value)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("Scalar exponents must be int")
        if n < 0 and self.is_zero:
            raise ZeroDivisionError("zero to a negative power")
        return _scalar(self.value**n)

    def __neg__(self):
        return _scalar(-self.value)

    def __eq__(self, other):
        if isinstance(other, bool) or not isinstance(other, (Scalar, int, Fraction, float)):
            return NotImplemented
        try:
            return self.value == _raw(other, self.mode)
        except ModeError:
            return False

    def __hash__(self):
        return hash(self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self):
        return not self.is_zero

    def to_float(self) -> "Scalar":
        return _scalar(float(self.value))

    def as_fraction(self) -> Fraction:
        if self.mode is not Mode.EXACT:
            raise ModeError("float Scalar has no exact rational value")
        return self.value

    def __str__(self):
        if self.mode is Mode.EXACT:
            return str(self.value)
        return repr(self.value)

    def __repr__(self):
        return f"Scalar({self})"


_new = object.__new__


def _scalar(value) -> Scalar:
    """Wrap a Fraction or float the kernel computed itself, skipping validation."""
    s = _new(Scalar)
    s.value = value
    return s


# Scalars are immutable, so the kernel shares these instead of rebuilding them
_ZERO, _ONE = _scalar(Fraction(0)), _scalar(Fraction(1))
_FZERO, _FONE = _scalar(0.0), _scalar(1.0)


def _wrap_row(values, exact: bool):
    return tuple([_scalar(v) if v or not exact else _ZERO for v in values])


def _raw(value, mode: Mode):
    """The Fraction or float inside an operand, checked against `mode`.

    ints are mode-agnostic and convert; anything else must already match.
    """
    if isinstance(value, Scalar):
        value = value.value
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value) if mode is Mode.EXACT else float(value)
    elif not isinstance(value, (Fraction, float)):
        raise TypeError(f"cannot combine Scalar with {type(value).__name__}")
    if isinstance(value, float) is (mode is Mode.EXACT):
        raise ModeError(f"mixed-mode operation: {mode.value} value with {value!r}")
    return value


def _joint_mode(*matrices) -> Mode:
    """The one mode of the operands that hold entries (exact if none do)."""
    modes = {m.mode for m in matrices if m.rows and m.cols}
    if len(modes) > 1:
        raise ModeError("mixed-mode operation on exact and float matrices")
    return modes.pop() if modes else Mode.EXACT


def qq(value) -> Scalar:
    """Shorthand for an exact Scalar."""
    return Scalar.exact(value)


def zero_vector(n: int, mode: Mode = Mode.EXACT):
    return (Scalar.zero(mode),) * n


def unit_vector(n: int, i: int, mode: Mode = Mode.EXACT):
    zero, one = Scalar.zero(mode), Scalar.one(mode)
    return tuple(one if j == i else zero for j in range(n))


class Matrix:
    """Dense matrix of Scalars, all in one mode.

    Empty matrices (zero rows) are legal but need an explicit column count.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        rows = []
        for row in entries:
            rows.append(tuple(e if isinstance(e, Scalar) else Scalar(e) for e in row))
        self.entries = tuple(rows)
        self.rows = len(self.entries)
        if self.rows == 0:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols
        else:
            self.cols = len(self.entries[0])
            if any(len(r) != self.cols for r in self.entries):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("column count disagrees with the rows")
        mode = self.mode
        if any(e.mode is not mode for row in self.entries for e in row):
            raise ModeError("matrix entries mix exact and float modes")

    @classmethod
    def _of(cls, entries, cols: int) -> "Matrix":
        """Matrix around one-mode rows of Scalars the kernel built itself."""
        self = _new(cls)
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols
        return self

    @property
    def mode(self) -> Mode:
        if self.rows == 0 or self.cols == 0:
            return Mode.EXACT
        return self.entries[0][0].mode

    @staticmethod
    def identity(n: int, mode: Mode = Mode.EXACT) -> "Matrix":
        return Matrix._of(tuple(unit_vector(n, i, mode) for i in range(n)), n)

    @staticmethod
    def zeros(rows: int, cols: int, mode: Mode = Mode.EXACT) -> "Matrix":
        return Matrix._of((zero_vector(cols, mode),) * rows, cols)

    @staticmethod
    def from_columns(columns, rows: int | None = None) -> "Matrix":
        columns = [tuple(c) for c in columns]
        if not columns:
            if rows is None:
                raise ValueError("empty column list needs an explicit row count")
            return Matrix.zeros(rows, 0) if rows else Matrix([], cols=0)
        n = len(columns[0])
        return Matrix([[col[i] for col in columns] for i in range(n)], cols=len(columns))

    def column(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def row(self, i: int):
        return self.entries[i]

    # Exact loops skip zero terms; float loops keep every term, summed left
    # to right, since 0 * inf is nan and 0 * -1.0 is -0.0.
    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        exact = _joint_mode(self, other) is Mode.EXACT
        right = [
            [(j, e.value) for j, e in enumerate(row) if e.value or not exact]
            for row in other.entries
        ]
        out = []
        for row in self.entries:
            acc = [0 if exact else 0.0] * other.cols
            for t, e in enumerate(row):
                x = e.value
                if x or not exact:
                    for j, y in right[t]:
                        acc[j] += x * y
            out.append(_wrap_row(acc, exact))
        return Matrix._of(tuple(out), other.cols)

    def apply(self, vec):
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        if not self.rows:
            return ()
        exact = self.mode is Mode.EXACT
        vals = [_raw(v, self.mode) for v in vec]
        terms = [(t, y) for t, y in enumerate(vals) if y or not exact]
        out = []
        for row in self.entries:
            acc = 0 if exact else 0.0
            for t, y in terms:
                x = row[t].value
                if x or not exact:
                    acc += x * y
            out.append(acc)
        return _wrap_row(out, exact)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def _require_exact(self, what: str):
        if self.mode is not Mode.EXACT:
            raise ModeError(f"{what} requires exact mode; got float entries")

    def rref(self):
        """Reduced row echelon form.  Returns (rows, pivot column list)."""
        self._require_exact("row reduction")
        rows = [[e.value for e in r] for r in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if i is None:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            inv = 1 / rows[r][c]
            # the pivot row is zero left of c; only its nonzeros eliminate
            pivot = [(j, x * inv) for j, x in enumerate(rows[r]) if j >= c and x]
            row = rows[r]
            for j, x in pivot:
                row[j] = x
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    for j, x in pivot:
                        row[j] -= f * x
            pivots.append(c)
            r += 1
        return [_wrap_row(row, True) for row in rows], pivots

    def rank(self) -> int:
        _, pivots = self.rref()
        return len(pivots)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        self._require_exact("matrix inversion")
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        inv = solve_matrix(self, Matrix.identity(self.rows))
        if isinstance(inv, SolveFailure):
            raise ValueError("matrix is singular")
        return inv

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i,j) is self[i][j] * other."""
        exact = _joint_mode(self, other) is Mode.EXACT
        right = [[e.value for e in row] for row in other.entries]
        zeros = (_ZERO,) * other.cols
        out = []
        for row in self.entries:
            for b in right:
                cells = []
                for e in row:
                    a = e.value
                    cells.extend(_wrap_row([a * y for y in b], exact) if a or not exact else zeros)
                out.append(tuple(cells))
        return Matrix._of(tuple(out), self.cols * other.cols)


def hstack(matrices) -> Matrix:
    matrices = list(matrices)
    rows = matrices[0].rows
    if any(m.rows != rows for m in matrices):
        raise ValueError("row counts differ")
    _joint_mode(*matrices)
    entries = zip(*(m.entries for m in matrices))
    return Matrix._of(tuple(sum(row, ()) for row in entries), sum(m.cols for m in matrices))


def vstack(matrices, cols: int | None = None) -> Matrix:
    matrices = [m for m in matrices]
    if not matrices:
        if cols is None:
            raise ValueError("empty stack needs an explicit column count")
        return Matrix([], cols=cols)
    width = matrices[0].cols
    if any(m.cols != width for m in matrices):
        raise ValueError("column counts differ")
    _joint_mode(*matrices)
    return Matrix._of(sum((m.entries for m in matrices), ()), width)


def kernel_basis(m: Matrix):
    """Echelon basis of the right kernel, ordered by free column.

    Exact mode only; every returned vector v satisfies m @ v = 0 and
    rank(m) + len(basis) = m.cols.
    """
    m._require_exact("kernel_basis")
    rows, pivots = m.rref()
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Scalar.zero(Mode.EXACT)] * m.cols
        v[f] = Scalar.one(Mode.EXACT)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def solve_unique(m: Matrix, rhs):
    """Solve m x = rhs expecting exactly one solution.

    Returns the solution vector, or NO_SOLUTION / NOT_UNIQUE as ordinary
    values; the caller decides which outcomes are errors.
    """
    m._require_exact("solve_unique")
    x = solve_matrix(m, Matrix.from_columns([tuple(rhs)], rows=m.rows))
    return x if isinstance(x, SolveFailure) else x.column(0)


def solve_affine(m: Matrix, rhs):
    """General exact solve: (particular solution, kernel basis) or NO_SOLUTION."""
    m._require_exact("solve_affine")
    rows, pivots = hstack([m, Matrix.from_columns([tuple(rhs)], rows=m.rows)]).rref()
    if m.cols in pivots:
        return NO_SOLUTION
    particular = [Scalar.zero(Mode.EXACT)] * m.cols
    for r, p in enumerate(pivots):
        particular[p] = rows[r][m.cols]
    return tuple(particular), kernel_basis(m)


def solve_matrix(m: Matrix, rhs: Matrix):
    """Solve m X = rhs expecting a unique solution for every column.

    One elimination of [m | rhs] decides every column.  With a nonzero
    kernel the answer is NO_SOLUTION if column 0 is inconsistent, else
    NOT_UNIQUE; with a zero kernel, NO_SOLUTION if any column is.
    """
    if not rhs.cols:
        return Matrix.from_columns([], rows=m.cols)
    m._require_exact("solve_matrix")
    if rhs.rows != m.rows:
        raise ValueError("right-hand side length does not match row count")
    n = m.cols
    rows, pivots = hstack([m, rhs]).rref()
    rank = sum(p < n for p in pivots)
    # rows past the rank are zero on m's side, so a nonzero there reads 0 = b
    bad = [any(row[n + j].value for row in rows[rank:]) for j in range(rhs.cols)]
    if rank < n:
        return NO_SOLUTION if bad[0] else NOT_UNIQUE
    if any(bad):
        return NO_SOLUTION
    return Matrix._of(tuple(row[n:] for row in rows[:n]), rhs.cols)


def span_contains(basis, vector) -> bool:
    """Does the exact span of `basis` contain `vector`?"""
    if not basis:
        return all(e.is_zero for e in vector)
    m = Matrix.from_columns(basis)
    _, pivots = hstack([m, Matrix.from_columns([tuple(vector)])]).rref()
    return m.cols not in pivots


def spans_equal(basis_a, basis_b) -> bool:
    """Do two exact vector lists span the same subspace?"""
    if not basis_a and not basis_b:
        return True
    n = len(basis_a[0]) if basis_a else len(basis_b[0])
    ma = Matrix(basis_a, cols=n)
    mb = Matrix(basis_b, cols=n)
    ra = ma.rank()
    rb = mb.rank()
    if ra != rb:
        return False
    joint = vstack([ma, mb], cols=n)
    return joint.rank() == ra
