"""Exact linear algebra over Q and Q(zeta_n) on one sparse elimination engine.

Rows are {column: nonzero} dicts, in one format throughout: row spaces
take them, and `int_rref`, `int_kernel_basis` and `int_kernel_rref` take
and return them, columns increasing.  Dense lists are left only behind
`Matrix` and `kernel_basis` (`Matrix.rref` is the one place that
densifies) and `_RowSpace.add`.  A row space stores one reduced row per
pivot column as the same dict, columns increasing, so that it leads at its
pivot, and reduces a row against them by one dict loop shared by two
backends: `IntRowSpace` holds primitive integer rows for rational data and
eliminates fraction-free in Z, and `GenericRowSpace` holds monic rows over
any exact field.  `IntRowSpace._normalise` is the one integer normal form
(primitive, leading entry positive) for pivot rows and kernel vectors
alike.  The echelon routines back-substitute in a row space, bringing each
row to canonical form once, when it is fully reduced; the kernels are read
off these echelon forms.  `solve_columns` transposes its columns to one row
per equation and eliminates them by `int_rref` over Q (each row's
denominators cleared), or in `GenericRowSpace` over Q(zeta_n).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Cyclo, Scalar, scalar_inv


_ZERO = Fraction(0)

def _canon_entry(x) -> Scalar:
    # Fractions are immutable, so every integer zero can share one.
    if isinstance(x, int):
        return Fraction(x) if x else _ZERO
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
        rs = GenericRowSpace(self.cols)
        rows, pivots = _echelon(rs, map(rs._nonzeros, self.entries))
        rows += [{}] * (self.rows - len(rows))
        return Matrix(self.rows, self.cols, [_dense(r, self.cols) for r in rows]), tuple(pivots)


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


def solve_columns(columns: list[dict], target: dict) -> list[Scalar] | None:
    """Solve sum_i x_i * columns[i] = target exactly, or None if inconsistent.

    Each column and the target is a {row: entry} dict of its nonzeros keyed
    by any hashable row label.  The system is solved on its nonzeros:
    transposed to one {column: entry} row per equation, with the target as
    column k = len(columns), it is brought to reduced echelon form, over Z
    (each row's denominators cleared, by `int_rref`) when every entry is
    rational, else in the field row space.  The free variables are 0 and
    each pivot variable is row[k] / row[pc]; the reduced echelon form of the
    system, and so this solution, is the same whatever the order and scaling
    of its rows.
    """
    k = len(columns)
    system: dict = {}
    for j, vector in enumerate((*columns, target)):
        for i, x in vector.items():
            if x:
                system.setdefault(i, {})[j] = x
    kinds = {type(x) for row in system.values() for x in row.values()}
    for kind in kinds:
        if not issubclass(kind, (int, Fraction, Cyclo)):
            raise TypeError(f"matrix entries must be exact scalars, got {kind.__name__}")
    if Cyclo in kinds:
        reduced, pivots = _echelon(GenericRowSpace(k + 1), system.values())
    else:
        reduced, pivots = int_rref([_clear_denominators(row)[0] for row in system.values()], k + 1)
    if pivots and pivots[-1] == k:
        return None
    coords: list[Scalar] = [_ZERO] * k
    for row, pc in zip(reduced, pivots):
        # A row with no entry in the target column leaves its coordinate 0.
        if k in row:
            coords[pc] = row[k] * scalar_inv(row[pc])
    return coords


# ---------------------------------------------------------------------------
# Incremental row spaces


def _clear_denominators(work: dict) -> tuple[dict, int]:
    """(work * d, d) for a dict of rational values, d the lcm of their
    denominators; a dict of integers is returned as it is, with d = 1."""
    if all(type(x) is int for x in work.values()):
        return work, 1
    mult = lcm(*(x.denominator for x in work.values()))
    return {j: x.numerator * (mult // x.denominator) for j, x in work.items()}, mult


def _dense(work: dict, ncols: int) -> list:
    row = [0] * ncols
    for j, x in work.items():
        row[j] = x
    return row


def _subtract(work: dict, f, piv: dict) -> dict:
    """work - f * piv in place."""
    for c, x in piv.items():
        u = work.get(c, 0) - f * x
        if u:
            work[c] = u
        else:
            del work[c]
    return work


class _RowSpace:
    """Reduced pivot rows keyed by pivot column; pivots are the leftmost
    nonzero columns, in insertion order.

    Each pivot row is stored as the {column: value} dict of its nonzeros,
    columns increasing, so its first key is its pivot.  Stored rows are
    never mutated, so a copy of the space shares them.  A row is reduced as
    such a dict: while its leading column has a pivot, one elimination step
    clears that entry.  Rows enter as that dict (`add_nonzeros`, `contains`)
    or dense (`add`), scanned into one first.
    A backend supplies the scalar steps as static methods:
    `_nonzeros(row)` gives the dict of a dense input row,
    `_eliminate(work, lead, piv)` clears work's entry in column lead using
    the pivot row piv, and
    `_normalise(work)` scales a new pivot row to canonical form.
    """

    __slots__ = ("ncols", "_pivots")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._pivots: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def copy(self):
        dup = type(self)(self.ncols)
        dup._pivots = dict(self._pivots)
        return dup

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivots)

    def row_nonzeros(self, col: int) -> dict:
        """{column: value} of the pivot row whose pivot column is col, in a
        fresh dict."""
        return dict(self._pivots[col])

    def _reduce_nonzeros(self, work: dict) -> dict:
        """The row's nonzeros after reducing its leading entries by the
        stored pivots until one has no pivot."""
        pivots = self._pivots
        eliminate = self._eliminate
        while work:
            j = min(work)
            piv = pivots.get(j)
            if piv is None:
                break
            work = eliminate(work, j, piv)
        return work

    def add(self, row) -> bool:
        """Add a dense row; True iff it enlarged the space."""
        if len(row) != self.ncols:
            raise ValueError("length mismatch")
        return self._insert(self._reduce_nonzeros(self._nonzeros(row)))

    def add_nonzeros(self, work: dict) -> bool:
        """Add a row given as {column: nonzero entry}, entries already in the
        backend's form (integers or field scalars); the dict
        is used up.  True iff it enlarged the space."""
        return self._insert(self._reduce_nonzeros(work))

    def _insert(self, work: dict) -> bool:
        """Store a reduced row as a new pivot row, unless it is zero."""
        if not work:
            return False
        work = self._normalise(work)
        cols = sorted(work)
        self._pivots[cols[0]] = {c: work[c] for c in cols}
        return True

    def contains(self, work: dict) -> bool:
        """Whether a row given as for `add_nonzeros` lies in the space; the
        dict is used up."""
        return not self._reduce_nonzeros(work)

    def _rref(self) -> tuple[list[dict], list[int]]:
        """The pivot rows in pivot-column order, columns increasing, with each
        pivot column cleared from the rows above, and the pivot columns.

        A row is brought to canonical form once, when it becomes the pivot
        of the rows above it: by then every later pivot column is cleared
        from it, and a reduced row is unique up to scale."""
        cols = self.pivot_columns()
        sparse = [self.row_nonzeros(c) for c in cols]
        changed = [False] * len(cols)
        for i in range(len(cols) - 1, -1, -1):
            c = cols[i]
            if changed[i]:
                work = self._normalise(sparse[i])
                sparse[i] = {j: work[j] for j in sorted(work)}
            for k in range(i):
                if c in sparse[k]:
                    sparse[k] = self._eliminate(sparse[k], c, sparse[i])
                    changed[k] = True
        return sparse, cols


class IntRowSpace(_RowSpace):
    """Incremental row space over Q with primitive integer rows.

    Rows are reduced against stored pivot rows by fraction-free elimination,
    so all arithmetic stays in Z.
    """

    __slots__ = ()

    # Bound on each backend as well, so that the two can be traced apart.
    add = _RowSpace.add
    contains = _RowSpace.contains

    @staticmethod
    def _nonzeros(row) -> dict[int, int]:
        """Nonzeros of a rational row, denominators cleared."""
        return _clear_denominators({j: x for j, x in enumerate(row) if x})[0]

    @staticmethod
    def _eliminate(work: dict[int, int], lead: int, piv: dict[int, int]) -> dict[int, int]:
        """The fraction-free step a*work - b*piv that clears work's entry in
        column lead."""
        p = piv[lead]
        g = gcd(p, work[lead])
        a, b = p // g, work[lead] // g
        if a != 1:
            work = {c: a * u for c, u in work.items()}
        return _subtract(work, b, piv)

    @staticmethod
    def _normalise(work: dict[int, int]) -> dict[int, int]:
        """Divide a nonzero row by its content, leading entry positive; a
        row of content 1 with a positive lead is returned as it is."""
        g = gcd(*work.values())
        if work[min(work)] < 0:
            g = -g
        if g == 1:
            return work
        return {c: u // g for c, u in work.items()}


class GenericRowSpace(_RowSpace):
    """Incremental row space over an exact field with monic rows (Fraction
    or cyclotomic scalars)."""

    __slots__ = ()

    add = _RowSpace.add
    contains = _RowSpace.contains

    @staticmethod
    def _nonzeros(row) -> dict:
        return {j: x for j, x in enumerate(row) if x}

    @staticmethod
    def _eliminate(work: dict, lead: int, piv: dict) -> dict:
        """work - work[lead] * piv, for a monic piv."""
        return _subtract(work, work[lead], piv)

    @staticmethod
    def _normalise(work: dict) -> dict:
        """Scale a nonzero row to leading entry 1."""
        inv = scalar_inv(work[min(work)])
        return {c: u * inv for c, u in work.items()}


def int_rref(rows: list[dict], ncols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced echelon form over Z of {column: nonzero integer} rows: the
    rows primitive with a positive lead and every pivot column cleared from
    the others, and the pivot columns."""
    return _echelon(IntRowSpace(ncols), rows)


def _echelon(rs: _RowSpace, rows) -> tuple[list[dict], list[int]]:
    """Reduced echelon rows and pivot columns of the {column: value} rows,
    added to the empty row space rs; the rows given are left as they are."""
    for row in rows:
        rs.add_nonzeros(dict(row))
    return rs._rref()


def int_kernel_basis(rows: list[dict], ncols: int) -> list[dict[int, int]]:
    """Primitive integer basis of the right kernel of the {column: nonzero
    integer} rows, one vector per free column f, in increasing order: f's
    vector is nonzero at f and at pivot columns left of f only."""
    reduced, pivots = int_rref(rows, ncols)
    # Scaling by the lcm of the pivot entries keeps every kernel entry integral.
    scale = lcm(*(row[c] for row, c in zip(reduced, pivots)))
    pivot_set = set(pivots)
    basis = {f: {} for f in range(ncols) if f not in pivot_set}
    # Rows in pivot order fill each vector's columns in increasing order.
    for row, c in zip(reduced, pivots):
        k = scale // row[c]
        for f, x in row.items():
            if f != c:
                basis[f][c] = -x * k
    for f, v in basis.items():
        v[f] = scale
    return [IntRowSpace._normalise(v) for v in basis.values()]


def int_kernel_rref(rows: list[dict], ncols: int) -> list[dict[int, int]]:
    """Reduced echelon basis of the right kernel of the {column: nonzero
    integer} rows, as `int_rref` would give it, in one elimination.

    The kernel basis of the matrix with its columns reversed is read back in
    reverse: free column f of the reversed echelon form has pivots only to
    its left, so its basis vector read back leads at f and is zero at every
    other such column, which is the reduced echelon row with pivot f up to
    sign."""
    last = ncols - 1
    reversed_rows = [{last - j: x for j, x in row.items()} for row in rows]
    basis = []
    for v in reversed(int_kernel_basis(reversed_rows, ncols)):
        sign = -1 if next(reversed(v.values())) < 0 else 1
        basis.append({last - j: sign * x for j, x in reversed(v.items())})
    return basis
