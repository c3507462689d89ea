"""Exact rational scalars and the dense linear algebra everything else reduces to.

Scalars are Python Fractions; a number needs no type of its own.  Exact
containers (matrices here, Weil elements in weil) read their entries
through qq, so a float reaching one raises ModeError at the container
boundary instead of silently promoting, and every structural decision
(kernels, ranks, solvability) is exact.  Floats live only in the float
coefficient ring of smooth, which the user picks with Mode.FLOAT.

Matrix._echelon is the package's one elimination, and no other module
divides by a pivot.  Each pivot row clears the rows below it (the forward
phase), which already fixes the pivot columns; Matrix.rref, behind kernels
and the factored system, also clears the rows above (the back phase).
Matrix.rank and the callers that read only pivots (is_invertible,
weil.filtered_basis) take the forward phase alone.
factor(m) is the solve: one rref of [m | I] gives the pivots, the kernel,
the particular-solution rows P and the cokernel rows C, after which m x = r
is solvable exactly when C r = 0, with P r a solution.  solve_unique,
solve_affine, solve_matrix, span_contains and Matrix.inverse are readers of
it, so a caller that solves against one matrix many times factors it once.
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


_ZERO, _ONE = Fraction(0), Fraction(1)
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


def qq(value) -> Fraction:
    """An exact rational from an int, Fraction or numeric str; a float is a
    ModeError."""
    value = _raw_of(value)
    if isinstance(value, float):
        raise ModeError("float given where an exact rational is required")
    return value


def _unit(n: int, i: int) -> tuple:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


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

    def _echelon(self, reduced: bool = False):
        """The one elimination: (rows as lists, pivot column list).

        Each pivot row is scaled to a leading 1 and clears the rows below
        it, which fixes the pivot columns; `reduced` has it clear the rows
        above too, giving the rref.  The pivot column is written, not
        computed: 1 in the pivot row, 0 in each row it clears."""
        rows = [list(r) for r in self.raw]
        n = len(rows)
        pivots = []
        r = 0
        for c in range(self.cols):
            i = next((i for i in range(r, n) if rows[i][c]), None)
            if i is None:
                continue
            prow = rows[i]
            rows[i], rows[r] = rows[r], prow
            inv = 1 / prow[c]
            # the pivot row is zero left of c; only its nonzeros right of c eliminate
            pivot = [(j, x * inv) for j, x in enumerate(prow[c + 1 :], c + 1) if x]
            prow[c] = _ONE
            for j, x in pivot:
                prow[j] = x
            for row in (rows if reduced else rows[r + 1 :]):
                f = row[c]
                if f and row is not prow:
                    row[c] = _ZERO
                    for j, x in pivot:
                        row[j] -= f * x
            pivots.append(c)
            r += 1
        return rows, pivots

    def rref(self):
        """Reduced row echelon form.  Returns (raw Fraction rows, pivot column list)."""
        rows, pivots = self._echelon(True)
        return [tuple(row) for row in rows], pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        """The particular-solution rows of factor(self): one elimination."""
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        system = factor(self)
        if system.kernel:
            raise ValueError("matrix is singular")
        return Matrix._of(system.particular, self.rows)

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


def difference_rows(sizes, terms) -> Matrix:
    """The exact constraint rows A x_s - B x_t, stacked, over vectors of one
    block of sizes[i] entries per object i, side by side.

    Each term is (s, a, t, b) with object indices s and t: a and b are rows
    of raw Fractions placed in those objects' blocks, one row of b per row
    of a; b = None stands for the identity.  Blocks of one object add.
    """
    offsets = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    rows = []
    for s, a, t, b in terms:
        s, t = offsets[s], offsets[t]
        for i, arow in enumerate(a):
            row = [_ZERO] * offsets[-1]
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
    return Matrix._of(tuple(rows), offsets[-1])


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


class Factored:
    """m after one elimination of [m | I], whose rref is [R | E] with R the
    rref of m and E m = R.  Its first rank rows give the pivots, the
    echelon kernel (kernel_basis(m)) and the particular-solution rows P;
    the rest are zero on the left, and their right parts are the cokernel
    rows C, with C m = 0.  Every solve against m is then a product."""

    __slots__ = ("rows", "cols", "pivots", "kernel", "particular", "cokernel")

    def __init__(self, m: Matrix):
        n, self.rows, self.cols = m.cols, m.rows, m.cols
        reduced, pivots = hstack([m, Matrix.identity(m.rows)]).rref()
        rank = sum(p < n for p in pivots)
        self.pivots = pivots[:rank]
        self.kernel = _kernel_of(reduced, self.pivots, n)
        self.particular = tuple(row[n:] for row in reduced[:rank])
        self.cokernel = tuple(row[n:] for row in reduced[rank:])

    def solve(self, rhs):
        """P rhs, or NO_SOLUTION when C rhs != 0: the solution an elimination
        of [m | rhs] reads off, since E [m | rhs] = [R | E rhs] is already
        that rref when C rhs = 0."""
        rhs = tuple(map(qq, rhs))
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length does not match row count")
        terms = [(i, y) for i, y in enumerate(rhs) if y]
        if any(sum(row[i] * y for i, y in terms) for row in self.cokernel):
            return NO_SOLUTION
        x = [_ZERO] * self.cols
        for p, row in zip(self.pivots, self.particular):
            x[p] = sum((row[i] * y for i, y in terms), _ZERO)
        return tuple(x)


def factor(m: Matrix) -> Factored:
    """The factored system of m: one Matrix.rref, then solves are products."""
    return Factored(m)


def solve_unique(m: Matrix, rhs):
    """The one solution of m x = rhs, or NO_SOLUTION / NOT_UNIQUE as
    ordinary values (the caller decides which are errors).  A reader of
    factor(m), like every solve below."""
    system = factor(m)
    x = system.solve(rhs)
    return NOT_UNIQUE if system.kernel and x is not NO_SOLUTION else x


def solve_affine(m: Matrix, rhs):
    """(particular solution, kernel basis) of m x = rhs, or NO_SOLUTION."""
    system = factor(m)
    x = system.solve(rhs)
    return x if x is NO_SOLUTION else (x, system.kernel)


def solve_matrix(m: Matrix, rhs: Matrix):
    """X = P rhs for m X = rhs, expecting one solution for every column.
    With a nonzero kernel the answer is NO_SOLUTION if column 0 is
    inconsistent, else NOT_UNIQUE; with a zero kernel, NO_SOLUTION if any
    column is."""
    if not rhs.cols:
        return Matrix.from_columns([], rows=m.cols)
    if rhs.rows != m.rows:
        raise ValueError("right-hand side length does not match row count")
    system = factor(m)
    residues = (Matrix._of(system.cokernel, m.rows) @ rhs).raw
    bad = [any(row[j] for row in residues) for j in range(rhs.cols)]
    if system.kernel:
        return NO_SOLUTION if bad[0] else NOT_UNIQUE
    return NO_SOLUTION if any(bad) else Matrix._of(system.particular, m.rows) @ rhs


def span_contains(basis, vector) -> bool:
    """Does the exact span of `basis` contain `vector`?"""
    frame = Matrix.from_columns(basis, rows=len(vector))
    return factor(frame).solve(vector) is not NO_SOLUTION

