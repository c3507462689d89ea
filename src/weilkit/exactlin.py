"""Exact rational scalars and the dense linear algebra everything else reduces to.

Two scalar modes exist: exact (Python Fractions) and float (doubles, for
the analytic primitives on algebra elements); a number needs no type of its
own.  Matrices are exact: they hold Fractions and hand the same values out
to their readers, and a float reaching one raises ModeError at the
container boundary instead of silently promoting.  So every structural
decision (kernels, ranks, solvability) is exact.

Matrix.rref is the package's one elimination: kernels, solves, ranks and
inverses all go through it, and no other module divides by a pivot.
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
_ZERO, _ONE = _RAW[Mode.EXACT]
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
    """Dense exact matrix: `raw` holds the rows, all Fractions.

    Entries are read through qq, so ints become Fractions and a float is a
    ModeError.  The readers entries, row, column and apply hand out the raw
    Fractions.  Empty matrices (zero rows) are legal but need an explicit
    column count.
    """

    __slots__ = ("rows", "cols", "raw")

    def __init__(self, entries, cols: int | None = None):
        raw = tuple(tuple(map(qq, row)) for row in entries)
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

    @classmethod
    def _of(cls, raw, cols: int) -> "Matrix":
        """Matrix around Fraction rows (tuples) the kernel built itself."""
        self = object.__new__(cls)
        self.raw = raw
        self.rows = len(raw)
        self.cols = cols
        return self

    @classmethod
    def _of_columns(cls, columns, rows: int) -> "Matrix":
        """Exact matrix around raw columns the kernel built itself."""
        return cls._of(tuple(zip(*columns)) if columns else ((),) * rows, len(columns))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(tuple(_unit(n, i) for i in range(n)), n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._of(((_ZERO,) * cols,) * rows, cols)

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

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        right = [[(j, y) for j, y in enumerate(row) if y] for row in other.raw]
        out = []
        for row in self.raw:
            acc = [_ZERO] * other.cols
            for t, x in enumerate(row):
                if x:
                    for j, y in right[t]:
                        acc[j] += x * y
            out.append(tuple(acc))
        return Matrix._of(tuple(out), other.cols)

    def apply(self, vec):
        vec = tuple(map(qq, vec))
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        terms = [(t, y) for t, y in enumerate(vec) if y]
        out = []
        for row in self.raw:
            acc = _ZERO
            for t, y in terms:
                x = row[t]
                if x:
                    acc += x * y
            out.append(acc)
        return tuple(out)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix._of(tuple(tuple(map(op, r, s)) for r, s in zip(self.raw, other.raw)), self.cols)

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
        return self.shape == other.shape and self.raw == other.raw

    def __hash__(self):
        return hash((self.shape, self.raw))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def rref(self):
        """Reduced row echelon form.  Returns (raw Fraction rows, pivot column list)."""
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
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        inv = solve_matrix(self, Matrix.identity(self.rows))
        if isinstance(inv, SolveFailure):
            raise ValueError("matrix is singular")
        return inv

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i,j) is self[i][j] * other."""
        zeros = (_ZERO,) * other.cols
        out = []
        for row in self.raw:
            for b in other.raw:
                cells = []
                for a in row:
                    cells.extend([a * y for y in b] if a else zeros)
                out.append(tuple(cells))
        return Matrix._of(tuple(out), self.cols * other.cols)


def hstack(matrices) -> Matrix:
    matrices = list(matrices)
    rows = matrices[0].rows
    if any(m.rows != rows for m in matrices):
        raise ValueError("row counts differ")
    raw = zip(*(m.raw for m in matrices))
    return Matrix._of(tuple(sum(row, ()) for row in raw), sum(m.cols for m in matrices))


def vstack(matrices, cols: int | None = None) -> Matrix:
    matrices = [m for m in matrices]
    if not matrices:
        if cols is None:
            raise ValueError("empty stack needs an explicit column count")
        return Matrix([], cols=cols)
    width = matrices[0].cols
    if any(m.cols != width for m in matrices):
        raise ValueError("column counts differ")
    return Matrix._of(sum((m.raw for m in matrices), ()), width)


def difference_rows(total: int, terms) -> Matrix:
    """The exact constraint rows A x_s - B x_t, stacked, over vectors of
    `total` entries.

    Each term is (s, a, t, b): a and b are rows of raw Fractions whose
    blocks start at columns s and t, one row of b per row of a; b = None
    stands for the identity.  Blocks at the same offset add.
    """
    rows = []
    for s, a, t, b in terms:
        for i, arow in enumerate(a):
            row = [_ZERO] * total
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
    basis = []
    for f in free:
        v = [_ZERO] * cols
        v[f] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def kernel_basis(m: Matrix):
    """Echelon basis of the right kernel as Fraction tuples, ordered by free
    column.

    Every returned vector v satisfies m @ v = 0 and
    rank(m) + len(basis) = m.cols.
    """
    return _kernel_of(*m.rref(), m.cols)


def solve_unique(m: Matrix, rhs):
    """Solve m x = rhs expecting exactly one solution.

    Returns the solution vector, or NO_SOLUTION / NOT_UNIQUE as ordinary
    values; the caller decides which outcomes are errors.
    """
    x = solve_matrix(m, Matrix.from_columns([tuple(rhs)], rows=m.rows))
    return x if isinstance(x, SolveFailure) else x.column(0)


def solve_affine(m: Matrix, rhs):
    """General exact solve: (particular solution, kernel basis) or NO_SOLUTION.

    One elimination of [m | rhs] gives both: when the system is consistent
    its left block is the rref of m, so the kernel is read off it.
    """
    rows, pivots = hstack([m, Matrix.from_columns([tuple(rhs)], rows=m.rows)]).rref()
    if m.cols in pivots:
        return NO_SOLUTION
    particular = [_ZERO] * m.cols
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
        return not any(map(qq, vector))
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
