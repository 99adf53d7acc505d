"""Exact dense linear algebra over Q and Q(zeta_n).

`Matrix.rref`, `kernel_basis` and `solve_columns` work for any exact scalar.
Incremental row spaces keep reduced pivot rows: `IntRowSpace` holds primitive
integer rows for rational data, which is what the graded-ring code uses in its
hot loops, and `GenericRowSpace` holds monic rows over any exact field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Cyclo, Scalar, scalar_inv


def _canon_entry(x) -> Scalar:
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, Cyclo)):
        return x
    raise TypeError(f"matrix entries must be exact scalars, got {type(x).__name__}")


class Matrix:
    """Row-major dense matrix of exact scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [[_canon_entry(x) for x in row] for row in entries]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry shape does not match rows x cols")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: list[list]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        return cls(r, c, rows)

    def copy(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [row[:] for row in self.entries])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries!r})"

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with strictly increasing pivot columns."""
        m = self.copy()
        a = m.entries
        pivots = []
        r = 0
        for c in range(m.cols):
            pivot_row = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
            if pivot_row is None:
                continue
            a[r], a[pivot_row] = a[pivot_row], a[r]
            inv = scalar_inv(a[r][c])
            a[r] = [x * inv for x in a[r]]
            for i in range(m.rows):
                if i != r and a[i][c] != 0:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
            if r == m.rows:
                break
        return m, tuple(pivots)


def kernel_basis(matrix: Matrix) -> list[list[Scalar]]:
    """Exact basis of the right null space; size = cols - rank."""
    red, pivots = matrix.rref()
    pivot_set = set(pivots)
    free = [c for c in range(matrix.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v: list[Scalar] = [Fraction(0)] * matrix.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][f]
        basis.append(v)
    return basis


def solve_columns(columns: list[list], target: list) -> list[Scalar] | None:
    """Solve sum_i x_i * columns[i] = target exactly, or None if inconsistent."""
    n = len(target)
    k = len(columns)
    if k == 0:
        return [] if all(x == 0 for x in map(_canon_entry, target)) else None
    aug = Matrix(n, k + 1, [[columns[j][i] for j in range(k)] + [target[i]] for i in range(n)])
    red, pivots = aug.rref()
    if k in pivots:
        return None
    coords: list[Scalar] = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        coords[pc] = red.entries[r][k]
    return coords


# ---------------------------------------------------------------------------
# Incremental row spaces


def scale_to_int(row) -> list[int]:
    """Clear denominators of a rational row, returning an integer row."""
    denoms = [x.denominator for x in row if isinstance(x, Fraction) and x.denominator != 1]
    mult = lcm(*denoms) if denoms else 1
    out = []
    for x in row:
        if isinstance(x, int):
            out.append(x * mult)
        else:
            out.append(x.numerator * (mult // x.denominator))
    return out


def _primitive(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g > 1:
        row = [x // g for x in row]
    lead = next((x for x in row if x), 0)
    if lead < 0:
        row = [-x for x in row]
    return row


class _RowSpace:
    """Reduced pivot rows keyed by pivot column; pivots are the leftmost
    nonzero columns, in insertion order."""

    __slots__ = ("ncols", "_pivots")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._pivots: dict[int, list] = {}

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def copy(self):
        dup = type(self)(self.ncols)
        dup._pivots = dict(self._pivots)
        return dup

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivots)

    def rows(self) -> list[list]:
        return [self._pivots[c] for c in sorted(self._pivots)]


class IntRowSpace(_RowSpace):
    """Incremental row space over Q with primitive integer rows.

    Rows are reduced against stored pivot rows by fraction-free elimination,
    so all arithmetic stays in Z.
    """

    __slots__ = ()

    def reduce(self, row) -> list[int]:
        """Fully reduce a row against the stored pivots (input not mutated)."""
        if len(row) != self.ncols:
            raise ValueError("length mismatch")
        work = scale_to_int(row) if not all(isinstance(x, int) for x in row) else list(row)
        pivots = self._pivots
        j = 0
        n = self.ncols
        while j < n:
            x = work[j]
            if x == 0:
                j += 1
                continue
            piv = pivots.get(j)
            if piv is None:
                break
            p = piv[j]
            g = gcd(p, x)
            a, b = p // g, x // g
            if a == 1:
                work = [u - b * v for u, v in zip(work, piv)]
            else:
                work = [a * u - b * v for u, v in zip(work, piv)]
            j += 1
        return work

    def add(self, row) -> bool:
        """Add a row; True iff it enlarged the space."""
        work = self.reduce(row)
        j = next((i for i, x in enumerate(work) if x), None)
        if j is None:
            return False
        self._pivots[j] = _primitive(work)
        return True

    def contains(self, row) -> bool:
        return all(x == 0 for x in self.reduce(row))


class GenericRowSpace(_RowSpace):
    """Incremental row space over an exact field (used for cyclotomic scalars)."""

    __slots__ = ()

    def reduce(self, row) -> list:
        work = list(row)
        j = 0
        while j < self.ncols:
            x = work[j]
            if x == 0:
                j += 1
                continue
            piv = self._pivots.get(j)
            if piv is None:
                break
            work = [u - x * v for u, v in zip(work, piv)]
            j += 1
        return work

    def add(self, row) -> bool:
        work = self.reduce(row)
        j = next((i for i, x in enumerate(work) if x != 0), None)
        if j is None:
            return False
        inv = scalar_inv(work[j])
        self._pivots[j] = [x * inv for x in work]
        return True

    def contains(self, row) -> bool:
        return all(x == 0 for x in self.reduce(row))


def int_rref(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced echelon form over Z (rows primitive, pivot cols fully cleared)."""
    rs = IntRowSpace(ncols)
    for row in rows:
        rs.add(row)
    cols = rs.pivot_columns()
    reduced = [list(rs._pivots[c]) for c in cols]
    # Clear pivot columns above each pivot.
    for i in range(len(cols) - 1, -1, -1):
        c = cols[i]
        piv = reduced[i]
        p = piv[c]
        for k in range(i):
            x = reduced[k][c]
            if x:
                g = gcd(p, x)
                a, b = p // g, x // g
                reduced[k] = _primitive([a * u - b * v for u, v in zip(reduced[k], piv)])
    return reduced, cols


def int_kernel_basis(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Primitive integer basis of the right kernel of the row matrix."""
    reduced, pivots = int_rref(rows, ncols)
    # Scaling by the lcm of the pivot entries keeps every kernel entry integral.
    scale = lcm(*(row[c] for row, c in zip(reduced, pivots)))
    factors = [scale // row[c] for row, c in zip(reduced, pivots)]
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = scale
        for row, c, k in zip(reduced, pivots, factors):
            v[c] = -row[f] * k
        basis.append(_primitive(v))
    return basis
