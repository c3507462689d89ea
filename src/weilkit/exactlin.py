"""Exact rational scalars and the dense linear algebra everything else reduces to.

Two scalar modes exist: exact (Python Fractions) and float (doubles, for
the analytic primitives); a number needs no type of its own.  A matrix
holds raw values of one mode, Fractions or floats, says once which, and
hands the same values out to its readers.  Mixing modes in one operation is
a bug in the caller, so it raises at the container boundary instead of
silently promoting.  All structural decisions (kernels, ranks, solvability)
are exact-only.
"""

from __future__ import annotations

import enum
import operator
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


# the raw zero and one of each mode
_RAW = {Mode.EXACT: (Fraction(0), Fraction(1)), Mode.FLOAT: (0.0, 1.0)}
_RAW_TYPES = frozenset((Fraction, float))


def _raw_of(value):
    """The raw value of a public input: a Fraction or float passes, an int
    or a numeric str becomes an exact Fraction, and anything else (bool
    included) is a TypeError."""
    if type(value) in _RAW_TYPES:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, (int, str)):
        return Fraction(value)
    if not isinstance(value, (Fraction, float)):
        raise TypeError(f"cannot use {type(value).__name__} as a scalar")
    return value


def _mode_of(value) -> Mode:
    """The mode of one raw value."""
    return Mode.FLOAT if isinstance(value, float) else Mode.EXACT


def _one_mode(values, what: str) -> Mode:
    """The one mode of raw values (exact if there are none)."""
    kinds = {isinstance(v, float) for v in values}
    if len(kinds) > 1:
        raise ModeError(f"{what} mix exact and float modes")
    return Mode.FLOAT if True in kinds else Mode.EXACT


def _joint_mode(*matrices) -> Mode:
    """The one mode of the operands that hold entries (exact if none do)."""
    modes = {m.mode for m in matrices if m.rows and m.cols}
    if len(modes) > 1:
        raise ModeError("mixed-mode operation on exact and float matrices")
    return modes.pop() if modes else Mode.EXACT


def qq(value) -> Fraction:
    """An exact rational from an int, Fraction or numeric str; a float is a
    ModeError."""
    value = _raw_of(value)
    if isinstance(value, float):
        raise ModeError("float given where an exact rational is required")
    return value


def _unit(n: int, i: int, mode: Mode = Mode.EXACT) -> tuple:
    zero, one = _RAW[mode]
    return tuple(one if j == i else zero for j in range(n))


class Matrix:
    """Dense matrix of raw values in one mode: `raw` holds the rows, all
    Fractions (exact) or all floats, and `mode` says which.

    The readers entries, row, column and apply hand out those raw values.  Empty
    matrices (zero rows) are legal but need an explicit column count.
    """

    __slots__ = ("rows", "cols", "raw", "mode")

    def __init__(self, entries, cols: int | None = None):
        raw = tuple(tuple(_raw_of(e) for e in row) for row in entries)
        if not raw:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
        else:
            if any(len(r) != len(raw[0]) for r in raw):
                raise ValueError("ragged rows")
            if cols is not None and cols != len(raw[0]):
                raise ValueError("column count disagrees with the rows")
            cols = len(raw[0])
        self.raw = raw
        self.rows = len(raw)
        self.cols = cols
        self.mode = _one_mode([e for row in raw for e in row], "matrix entries")

    @classmethod
    def _of(cls, raw, cols: int, mode: Mode = Mode.EXACT) -> "Matrix":
        """Matrix around one-mode raw rows (tuples) the kernel built itself."""
        self = object.__new__(cls)
        self.raw = raw
        self.rows = len(raw)
        self.cols = cols
        self.mode = mode if raw and cols else Mode.EXACT
        return self

    @classmethod
    def _of_columns(cls, columns, rows: int) -> "Matrix":
        """Exact matrix around raw columns the kernel built itself."""
        return cls._of(tuple(zip(*columns)) if columns else ((),) * rows, len(columns))

    @staticmethod
    def identity(n: int, mode: Mode = Mode.EXACT) -> "Matrix":
        return Matrix._of(tuple(_unit(n, i, mode) for i in range(n)), n, mode)

    @staticmethod
    def zeros(rows: int, cols: int, mode: Mode = Mode.EXACT) -> "Matrix":
        return Matrix._of(((_RAW[mode][0],) * cols,) * rows, cols, mode)

    @staticmethod
    def from_columns(columns, rows: int | None = None) -> "Matrix":
        columns = [tuple(c) for c in columns]
        if not columns:
            if rows is None:
                raise ValueError("empty column list needs an explicit row count")
            return Matrix.zeros(rows, 0) if rows else Matrix([], cols=0)
        n = len(columns[0])
        return Matrix([[col[i] for col in columns] for i in range(n)], cols=len(columns))

    @property
    def entries(self):
        return self.raw

    def column(self, j: int):
        return tuple(row[j] for row in self.raw)

    def row(self, i: int):
        return self.raw[i]

    # Exact loops skip zero terms; float loops keep every term, summed left
    # to right, since 0 * inf is nan and 0 * -1.0 is -0.0.
    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        mode = _joint_mode(self, other)
        exact = mode is Mode.EXACT
        right = [[(j, y) for j, y in enumerate(row) if y or not exact] for row in other.raw]
        out = []
        for row in self.raw:
            acc = [_RAW[mode][0]] * other.cols
            for t, x in enumerate(row):
                if x or not exact:
                    for j, y in right[t]:
                        acc[j] += x * y
            out.append(tuple(acc))
        return Matrix._of(tuple(out), other.cols, mode)

    def apply(self, vec):
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        if not self.rows:
            return ()
        exact = self.mode is Mode.EXACT
        # ints meet either mode exactly; anything else must match it
        vals = [v if type(v) is int else _raw_of(v) for v in vec]
        if any(_mode_of(v) is not self.mode for v in vals if type(v) is not int):
            raise ModeError(f"mixed-mode apply: {self.mode.value} matrix, other vector")
        terms = [(t, y) for t, y in enumerate(vals) if y or not exact]
        out = []
        for row in self.raw:
            acc = _RAW[self.mode][0]
            for t, y in terms:
                x = row[t]
                if x or not exact:
                    acc += x * y
            out.append(acc)
        return tuple(out)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        mode = _joint_mode(self, other)
        return Matrix._of(
            tuple(tuple(map(op, r, s)) for r, s in zip(self.raw, other.raw)), self.cols, mode
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.sub)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        # Fraction(1) == 1.0, so the modes must match as well as the values
        return self.shape == other.shape and self.mode is other.mode and self.raw == other.raw

    def __hash__(self):
        return hash((self.shape, self.raw))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def _require_exact(self, what: str):
        if self.mode is not Mode.EXACT:
            raise ModeError(f"{what} requires exact mode; got float entries")

    def rref(self):
        """Reduced row echelon form.  Returns (raw Fraction rows, pivot column list)."""
        self._require_exact("row reduction")
        rows = [list(r) for r in self.raw]
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
        return [tuple(row) for row in rows], pivots

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
        mode = _joint_mode(self, other)
        exact = mode is Mode.EXACT
        zeros = (_RAW[mode][0],) * other.cols
        out = []
        for row in self.raw:
            for b in other.raw:
                cells = []
                for a in row:
                    cells.extend([a * y for y in b] if a or not exact else zeros)
                out.append(tuple(cells))
        return Matrix._of(tuple(out), self.cols * other.cols, mode)


def hstack(matrices) -> Matrix:
    matrices = list(matrices)
    rows = matrices[0].rows
    if any(m.rows != rows for m in matrices):
        raise ValueError("row counts differ")
    mode = _joint_mode(*matrices)
    raw = zip(*(m.raw for m in matrices))
    return Matrix._of(tuple(sum(row, ()) for row in raw), sum(m.cols for m in matrices), mode)


def vstack(matrices, cols: int | None = None) -> Matrix:
    matrices = [m for m in matrices]
    if not matrices:
        if cols is None:
            raise ValueError("empty stack needs an explicit column count")
        return Matrix([], cols=cols)
    width = matrices[0].cols
    if any(m.cols != width for m in matrices):
        raise ValueError("column counts differ")
    mode = _joint_mode(*matrices)
    return Matrix._of(sum((m.raw for m in matrices), ()), width, mode)


def difference_rows(total: int, terms) -> Matrix:
    """The exact constraint rows A x_s - B x_t, stacked, over vectors of
    `total` entries.

    Each term is (s, a, t, b): a and b are rows of raw Fractions whose
    blocks start at columns s and t, one row of b per row of a; b = None
    stands for the identity.  Blocks at the same offset add.
    """
    zero = _RAW[Mode.EXACT][0]
    rows = []
    for s, a, t, b in terms:
        for i, arow in enumerate(a):
            row = [zero] * total
            for c, x in enumerate(arow):
                if x:
                    row[s + c] += x
            if b is None:
                row[t + i] -= 1
            else:
                for c, x in enumerate(b[i]):
                    if x:
                        row[t + c] -= x
            rows.append(tuple(row))
    return Matrix._of(tuple(rows), total)


def _kernel_of(rows, pivots, cols: int):
    """The echelon kernel basis read off rref rows whose first `cols`
    columns are the rref of m and whose pivots all lie among them."""
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    zero, one = _RAW[Mode.EXACT]
    basis = []
    for f in free:
        v = [zero] * cols
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def kernel_basis(m: Matrix):
    """Echelon basis of the right kernel as Fraction tuples, ordered by free
    column.

    Exact mode only; every returned vector v satisfies m @ v = 0 and
    rank(m) + len(basis) = m.cols.
    """
    m._require_exact("kernel_basis")
    return _kernel_of(*m.rref(), m.cols)


def solve_unique(m: Matrix, rhs):
    """Solve m x = rhs expecting exactly one solution.

    Returns the solution vector, or NO_SOLUTION / NOT_UNIQUE as ordinary
    values; the caller decides which outcomes are errors.
    """
    m._require_exact("solve_unique")
    x = solve_matrix(m, Matrix.from_columns([tuple(rhs)], rows=m.rows))
    return x if isinstance(x, SolveFailure) else x.column(0)


def solve_affine(m: Matrix, rhs):
    """General exact solve: (particular solution, kernel basis) or NO_SOLUTION.

    One elimination of [m | rhs] gives both: when the system is consistent
    its left block is the rref of m, so the kernel is read off it.
    """
    m._require_exact("solve_affine")
    rows, pivots = hstack([m, Matrix.from_columns([tuple(rhs)], rows=m.rows)]).rref()
    if m.cols in pivots:
        return NO_SOLUTION
    particular = [_RAW[Mode.EXACT][0]] * m.cols
    for r, p in enumerate(pivots):
        particular[p] = rows[r][m.cols]
    return tuple(particular), _kernel_of(rows, pivots, m.cols)


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
    bad = [any(row[n + j] for row in rows[rank:]) for j in range(rhs.cols)]
    if rank < n:
        return NO_SOLUTION if bad[0] else NOT_UNIQUE
    if any(bad):
        return NO_SOLUTION
    return Matrix._of(tuple(row[n:] for row in rows[:n]), rhs.cols)


def span_contains(basis, vector) -> bool:
    """Does the exact span of `basis` contain `vector`?"""
    if not basis:
        return not any(_raw_of(e) for e in vector)
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
