"""Exact row reduction, kernels, spans, and the integer row-space fast path."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from godeaux import Matrix, kernel_basis, make_cyclo, scalar_inv, zeta
from godeaux.linalg import (
    GenericRowSpace,
    IntRowSpace,
    int_kernel_basis,
    int_kernel_rref,
    _dense,
    int_rref,
    solve_columns,
)
from godeaux.graded import _multipliers, _tags
from godeaux.poly import Polynomial, degree_and_weight
from godeaux.scenarios import fixtures
from godeaux.scenarios.torsion3 import _relation_map, h_membership_presentation


def F(x):
    return Fraction(x)


def _nonzeros(row):
    """{column: value} of a dense row's nonzeros."""
    return {j: x for j, x in enumerate(row) if x}


def _increasing(rows):
    """The {column: value} rows, checked to hold nonzeros only, with their
    columns in increasing order."""
    for row in rows:
        assert list(row) == sorted(row) and all(row.values()), row
    return rows


class TestRref:
    def test_identity(self):
        m = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        red, pivots = m.rref()
        assert red == m
        assert pivots == (0, 1, 2)

    def test_rank_one(self):
        red, pivots = Matrix.from_rows([[1, 2], [2, 4]]).rref()
        assert red.entries == [[F(1), F(2)], [F(0), F(0)]]
        assert pivots == (0,)

    def test_empty(self):
        red, pivots = Matrix(0, 0, []).rref()
        assert red.rows == 0 and red.cols == 0
        assert pivots == ()

    def test_idempotent(self):
        m = Matrix.from_rows([[2, 4, 1], [1, 3, 0], [3, 7, 1]])
        red, _ = m.rref()
        again, _ = red.rref()
        assert again == red

    def test_cyclotomic_entries(self):
        z = zeta(5)
        m = Matrix.from_rows([[1, z], [z**4, 1]])
        _, pivots = m.rref()
        assert len(pivots) == 1  # second row is z^4 times the first


class TestKernel:
    def test_line(self):
        basis = kernel_basis(Matrix.from_rows([[1, 1]]))
        assert len(basis) == 1
        x, y = basis[0]
        assert x + y == 0 and (x, y) != (0, 0)

    def test_invertible(self):
        assert kernel_basis(Matrix.from_rows([[1, 2], [3, 4]])) == []

    def test_rank_deficient(self):
        (v,) = kernel_basis(Matrix.from_rows([[1, 2], [2, 4]]))
        # Proportional to (2, -1).
        assert v[0] * F(-1) == v[1] * F(2)


class TestSpan:
    def test_dim(self):
        rs = IntRowSpace(2)
        assert [rs.add(v) for v in ([1, 0], [0, 1], [1, 1])] == [True, True, False]
        assert rs.dim == 2

    def test_in_span_true(self):
        assert solve_columns([{0: 1, 1: 1}], {0: 2, 1: 2}) == [F(2)]

    def test_in_span_false(self):
        assert solve_columns([{0: 1, 1: 1}], {0: 1}) is None

    def test_length_mismatch(self):
        rs = IntRowSpace(2)
        with pytest.raises(ValueError, match="length mismatch"):
            rs.add([1, 1, 1])

    def test_columns_as_dicts_of_labelled_nonzeros(self):
        columns = [{"x": 1, "y": Fraction(1, 2)}, {"y": 3}]
        assert solve_columns(columns, {"x": 2, "y": 4}) == [F(2), F(1)]
        assert solve_columns(columns, {0: 1}) is None  # row 0 is neither x nor y
        assert solve_columns([], {}) == [] and solve_columns([], {"x": 1}) is None
        with pytest.raises(TypeError, match="exact scalars"):
            solve_columns([{0: 1.0}], {0: 1})

    def test_certificate_recombines(self):
        vectors = [[1, 2, 0], [0, 1, 1], [2, 0, 1]]
        target = [3, 5, 2]
        coords = solve_columns([_nonzeros(v) for v in vectors], _nonzeros(target))
        assert coords is not None
        recombined = [
            sum(c * v[i] for c, v in zip(coords, vectors)) for i in range(3)
        ]
        assert recombined == [F(x) for x in target]


def int_rows(rows=st.integers(min_value=1, max_value=6), cols=4):
    entry = st.integers(min_value=-9, max_value=9)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=6
    )


@settings(max_examples=60, deadline=None)
@given(rows=int_rows())
def test_rank_nullity(rows):
    m = Matrix.from_rows(rows)
    _, pivots = m.rref()
    assert len(pivots) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(rows=int_rows())
def test_int_rowspace_matches_generic_rank(rows):
    rs = IntRowSpace(len(rows[0]))
    for row in rows:
        rs.add(row)
    _, pivots = Matrix.from_rows(rows).rref()
    assert rs.dim == len(pivots)


@settings(max_examples=60, deadline=None)
@given(rows=int_rows())
def test_int_kernel_annihilates(rows):
    ncols = len(rows[0])
    sparse = [_nonzeros(row) for row in rows]
    for v in int_kernel_basis(sparse, ncols):
        v = _dense(v, ncols)
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    reduced, pivots = int_rref(sparse, ncols)
    assert len(pivots) + len(int_kernel_basis(sparse, ncols)) == ncols


@st.composite
def kernel_matrices(draw):
    """0-6 integer rows of 1-8 columns, with a zero, a duplicate or a
    multiple of an earlier row mixed in when drawn."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(st.just(0), st.integers(min_value=-5, max_value=5))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    extra = []
    if rows and draw(st.booleans()):
        extra.append(list(rows[0]))
    if rows and draw(st.booleans()):
        extra.append([-3 * x for x in rows[-1]])
    if draw(st.booleans()):
        extra.append([0] * ncols)
    for row in extra[: 6 - len(rows)]:
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(case=kernel_matrices())
@example(case=([], 1))
@example(case=([], 5))
@example(case=([[0, 0, 0]], 3))
@example(case=([[1, 2, 3], [1, 2, 3]], 3))
@example(case=([[2, 4], [3, 5]], 2))
@example(case=([[0, 3, 0, 6], [1, 0, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]], 4))
@example(case=([[1, 0, 2, 0, 3, 0, 4, 0], [0, 2, 0, 3, 0, 4, 0, 5]], 8))
def test_reversed_kernel_is_the_reduced_kernel(case):
    rows, ncols = case
    rows = [_nonzeros(row) for row in rows]
    reversed_kernel = _increasing(int_kernel_rref(rows, ncols))
    reduced = _increasing(int_rref(int_kernel_basis(rows, ncols), ncols)[0])
    assert [_dense(v, ncols) for v in reversed_kernel] == [_dense(v, ncols) for v in reduced]


@settings(max_examples=60, deadline=None)
@given(case=kernel_matrices(), data=st.data())
def test_int_kernel_basis_ignores_the_row_order(case, data):
    """The kernel basis is read off the reduced echelon form, which does not
    depend on the order of the rows, so callers may sort them (the sc
    evaluation kernels go sparsest first)."""
    rows, ncols = case
    shuffled = data.draw(st.permutations(rows))
    kernel = [_dense(v, ncols) for v in int_kernel_basis(list(map(_nonzeros, rows)), ncols)]
    sparse = [_nonzeros(row) for row in shuffled]
    assert [_dense(v, ncols) for v in int_kernel_basis(sparse, ncols)] == kernel


def test_int_rowspace_membership():
    rs = IntRowSpace(3)
    rs.add([1, 2, 3])
    rs.add([0, 1, 1])
    assert rs.contains({0: 1, 1: 3, 2: 4})
    assert rs.contains({0: 2, 1: 4, 2: 6})
    assert not rs.contains({2: 1})
    assert rs.dim == 2


def test_int_rowspace_fraction_input():
    rs = IntRowSpace(2)
    assert rs.add([Fraction(1, 2), Fraction(1, 3)])
    assert rs.contains({0: 3, 1: 2})


@settings(max_examples=100, deadline=None)
@given(
    row=st.dictionaries(st.integers(0, 12), st.integers(-30, 30).filter(bool),
                        min_size=1, max_size=6),
    content=st.integers(1, 6),
    negate=st.booleans(),
)
def test_normalise_matches_always_dividing(row, content, negate):
    # Rows of content 1 and of larger content, with either sign of the lead.
    sign = -1 if negate else 1
    work = {c: sign * content * u for c, u in row.items()}
    g = gcd(*work.values())
    if work[min(work)] < 0:
        g = -g
    expected = {c: u // g for c, u in work.items()}
    assert IntRowSpace._normalise(dict(work)) == expected


# ---------------------------------------------------------------------------
# The dense elimination loops, kept as oracles for the sparse engine.


def _dense_primitive(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    if g > 1:
        row = [x // g for x in row]
    if next((x for x in row if x), 0) < 0:
        row = [-x for x in row]
    return row


class DenseIntRowSpace:
    """Fraction-free top reduction over whole dense rows."""

    def __init__(self, ncols):
        self.ncols = ncols
        self._pivots = {}

    def reduce(self, row):
        if all(isinstance(x, int) for x in row):
            work = list(row)
        else:
            mult = lcm(*(Fraction(x).denominator for x in row))
            work = [Fraction(x).numerator * (mult // Fraction(x).denominator) for x in row]
        j = 0
        while j < self.ncols:
            x = work[j]
            if x == 0:
                j += 1
                continue
            piv = self._pivots.get(j)
            if piv is None:
                break
            g = gcd(piv[j], x)
            a, b = piv[j] // g, x // g
            work = [a * u - b * v for u, v in zip(work, piv)]
            j += 1
        return work

    def add(self, row):
        work = self.reduce(row)
        j = next((i for i, x in enumerate(work) if x), None)
        if j is None:
            return False
        self._pivots[j] = _dense_primitive(work)
        return True

    def contains(self, row):
        return not any(self.reduce(row))


def dense_int_rref(rows, ncols):
    rs = DenseIntRowSpace(ncols)
    for row in rows:
        rs.add(row)
    cols = sorted(rs._pivots)
    reduced = [list(rs._pivots[c]) for c in cols]
    for i in range(len(cols) - 1, -1, -1):
        c = cols[i]
        piv = reduced[i]
        for k in range(i):
            x = reduced[k][c]
            if x:
                g = gcd(piv[c], x)
                a, b = piv[c] // g, x // g
                reduced[k] = _dense_primitive([a * u - b * v for u, v in zip(reduced[k], piv)])
    return reduced, cols


def dense_int_kernel_basis(rows, ncols):
    reduced, pivots = dense_int_rref(rows, ncols)
    scale = lcm(*(row[c] for row, c in zip(reduced, pivots)))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = scale
        for row, c in zip(reduced, pivots):
            v[c] = -row[f] * (scale // row[c])
        basis.append(_dense_primitive(v))
    return basis


@st.composite
def sparse_rows(draw, fractions=False):
    """Mostly-zero rows, with a duplicate, a negated copy and a zero row."""
    ncols = draw(st.integers(min_value=1, max_value=12))
    value = (
        st.fractions(min_value=-6, max_value=6, max_denominator=6)
        if fractions
        else st.integers(min_value=-30, max_value=30)
    )
    entry = st.one_of(st.just(0), st.just(0), st.just(0), value)
    rows = draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=10)
    )
    first = rows[0]
    extra = [list(first), [-x for x in first], [0] * ncols]
    for row in extra:
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return rows, ncols


def _matches_dense_oracle(rows, ncols, engine=IntRowSpace, oracle=DenseIntRowSpace):
    sparse, dense = engine(ncols), oracle(ncols)
    for row in rows:
        assert sparse.contains(engine._nonzeros(row)) == dense.contains(row)
        assert sparse.add(row) == dense.add(row)
    # Each stored row, read back dense, is the oracle's, in insertion order.
    assert list(sparse._pivots) == list(dense._pivots)
    for c, row in dense._pivots.items():
        assert _dense(sparse.row_nonzeros(c), ncols) == row
        assert sparse._support[c] == tuple(j for j, x in enumerate(row) if x)
        # A pivot row is stored as its nonzero values only.
        assert len(sparse._pivots[c]) == len(sparse._support[c])
        assert all(x != 0 for x in sparse._pivots[c])
    for row in rows:
        assert sparse.contains(engine._nonzeros(row)) and dense.contains(row)


@settings(max_examples=150, deadline=None)
@given(case=sparse_rows())
def test_sparse_rowspace_matches_dense_oracle(case):
    _matches_dense_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(case=sparse_rows(fractions=True))
def test_sparse_rowspace_matches_dense_oracle_on_fractions(case):
    _matches_dense_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(case=sparse_rows())
def test_int_rref_and_kernel_match_dense_oracle(case):
    rows, ncols = case
    dicts = [_nonzeros(row) for row in rows]
    reduced, pivots = int_rref(dicts, ncols)
    assert ([_dense(r, ncols) for r in _increasing(reduced)], pivots) == dense_int_rref(rows, ncols)
    kernel = _increasing(int_kernel_basis(dicts, ncols))
    assert [_dense(v, ncols) for v in kernel] == dense_int_kernel_basis(rows, ncols)
    # The rows given are left as they are.
    assert dicts == [_nonzeros(row) for row in rows]


def _sympy_primitive(entries):
    """The primitive integer row, leading entry positive, of sympy rationals."""
    fracs = [Fraction(int(x.p), int(x.q)) for x in entries]
    mult = lcm(*(f.denominator for f in fracs))
    return _dense_primitive([int(f * mult) for f in fracs])


def test_int_rref_and_kernels_match_sympy():
    """sympy as an independent oracle: `int_rref` is `Matrix.rref()` up to
    the primitive, positive-lead scaling, with the same pivots;
    `int_kernel_basis` is `nullspace()` up to that scaling, vector by vector
    at the same free columns, and `int_kernel_rref` is the reduced echelon
    form of that span, one vector per free column."""
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=80, deadline=None)
    @given(case=kernel_matrices())
    @example(case=([], 3))
    @example(case=([[0, 2, -4, 6], [0, 1, 1, 0]], 4))
    @example(case=([[3, -2, 0, 5, 1], [6, -4, 1, 0, 0], [0, 0, 2, -1, 4]], 5))
    def check(case):
        rows, ncols = case
        sparse = [_nonzeros(row) for row in rows]
        matrix = sympy.Matrix(rows) if rows else sympy.zeros(0, ncols)
        ref, ref_pivots = matrix.rref()
        reduced, pivots = int_rref(sparse, ncols)
        assert tuple(pivots) == ref_pivots
        assert [_dense(r, ncols) for r in reduced] == [
            _sympy_primitive(ref.row(i)) for i in range(len(ref_pivots))
        ]
        null = matrix.nullspace()
        free = [f for f in range(ncols) if f not in ref_pivots]
        # nullspace() gives one vector per free column f, 1 at f and 0 at the
        # other free columns: the kernel basis vector at f up to scale.
        kernel = int_kernel_basis(sparse, ncols)
        assert [max(v) for v in kernel] == free
        assert [_dense(v, ncols) for v in kernel] == [_sympy_primitive(v) for v in null]
        # The reduced echelon basis of the same span, one vector per free column.
        echelon = int_kernel_rref(sparse, ncols)
        null_rref, null_pivots = (
            sympy.Matrix.hstack(*null).T.rref() if null else (sympy.zeros(0, ncols), ())
        )
        assert len(echelon) == len(free) and tuple(min(v) for v in echelon) == null_pivots
        assert [_dense(v, ncols) for v in echelon] == [
            _sympy_primitive(null_rref.row(i)) for i in range(len(free))
        ]

    check()


def test_copy_keeps_supports_apart():
    rs = IntRowSpace(3)
    rs.add([0, 2, 4])
    dup = rs.copy()
    assert dup.add([1, 0, 1]) and not rs.contains({0: 1, 2: 1})
    assert dup._support == {0: (0, 2), 1: (1, 2)} and rs._support == {1: (1, 2)}


def dense_rref(matrix):
    """Gauss-Jordan elimination over whole dense rows."""
    a = [row[:] for row in matrix.entries]
    pivots = []
    r = 0
    for c in range(matrix.cols):
        pivot_row = next((i for i in range(r, matrix.rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = scalar_inv(a[r][c])
        a[r] = [x * inv for x in a[r]]
        for i in range(matrix.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == matrix.rows:
            break
    return Matrix(matrix.rows, matrix.cols, a), tuple(pivots)


class DenseGenericRowSpace:
    """Top reduction by monic pivot rows over whole dense rows."""

    def __init__(self, ncols):
        self.ncols = ncols
        self._pivots = {}

    def reduce(self, row):
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

    def add(self, row):
        work = self.reduce(row)
        j = next((i for i, x in enumerate(work) if x != 0), None)
        if j is None:
            return False
        inv = scalar_inv(work[j])
        self._pivots[j] = [x * inv for x in work]
        return True

    def contains(self, row):
        return all(x == 0 for x in self.reduce(row))


PHI = {1: 1, 3: 2, 4: 2, 5: 4}


def field_scalars(order):
    """Rationals for order 1, else elements of Q(zeta_order)."""
    frac = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.lists(frac, min_size=PHI[order], max_size=PHI[order]).map(
        lambda cs: make_cyclo(order, cs)
    )


@st.composite
def field_rows(draw, order):
    """Mostly-zero rows, with a duplicate, a scaled copy and a zero row."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(0), st.just(0), field_scalars(order))
    rows = draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=6)
    )
    factor = draw(field_scalars(order).filter(lambda x: x != 0))
    first = rows[0]
    for row in (list(first), [factor * x for x in first], [0] * ncols):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return rows, ncols


FIELD_ORDERS = pytest.mark.parametrize("order", [1, 3, 4, 5], ids=["Q", "z3", "z4", "z5"])


@FIELD_ORDERS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_rowspace_matches_dense_oracle(order, data):
    rows, ncols = data.draw(field_rows(order))
    _matches_dense_oracle(rows, ncols, GenericRowSpace, DenseGenericRowSpace)


def _sparse_entry_matches_dense(rows, ncols, engine):
    """add_nonzeros of each row's nonzeros answers and stores as add of the
    dense row."""
    dense, sparse = engine(ncols), engine(ncols)
    for row in rows:
        assert sparse.add_nonzeros({j: x for j, x in enumerate(row) if x}) == dense.add(row)
        assert sparse._pivots == dense._pivots
        assert sparse._support == dense._support
    assert list(sparse._pivots) == list(dense._pivots)


@settings(max_examples=100, deadline=None)
@given(case=sparse_rows())
def test_sparse_entry_matches_dense_on_integer_rows(case):
    _sparse_entry_matches_dense(*case, IntRowSpace)


@settings(max_examples=60, deadline=None)
@given(case=sparse_rows(fractions=True))
def test_sparse_entry_matches_dense_on_fraction_rows(case):
    _sparse_entry_matches_dense(*case, GenericRowSpace)


@FIELD_ORDERS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sparse_entry_matches_dense_on_field_rows(order, data):
    rows, ncols = data.draw(field_rows(order))
    _sparse_entry_matches_dense(rows, ncols, GenericRowSpace)


def reference_rref(space):
    """`_RowSpace._rref` with every back-substitution step normalised."""
    cols = space.pivot_columns()
    sparse = [space.row_nonzeros(c) for c in cols]
    for i in range(len(cols) - 1, -1, -1):
        c = cols[i]
        support = sorted(sparse[i])
        piv = [sparse[i][j] for j in support]
        for k in range(i):
            if c in sparse[k]:
                sparse[k] = space._normalise(space._eliminate(sparse[k], c, piv, support))
    return sparse, cols


def _rref_matches_reference(rows, ncols, engine):
    space = engine(ncols)
    for row in rows:
        space.add(row)
    assert space._rref() == reference_rref(space)


@settings(max_examples=80, deadline=None)
@given(case=sparse_rows())
def test_back_substitution_matches_reference_on_integer_rows(case):
    _rref_matches_reference(*case, IntRowSpace)


@settings(max_examples=40, deadline=None)
@given(case=sparse_rows(fractions=True))
def test_back_substitution_matches_reference_on_fraction_rows(case):
    _rref_matches_reference(*case, GenericRowSpace)


@FIELD_ORDERS
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_back_substitution_matches_reference_on_field_rows(order, data):
    _rref_matches_reference(*data.draw(field_rows(order)), GenericRowSpace)


def _solved_with(rref, matrix):
    """rref and kernel basis, with Matrix.rref replaced by rref."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "rref", rref)
        return matrix.rref(), kernel_basis(matrix)


def dense_solve(columns, target):
    """`solve_columns` read off `dense_rref` of the dense augmented matrix."""
    k = len(columns)
    n = len(target)
    aug = Matrix(n, k + 1, [[col[i] for col in columns] + [target[i]] for i in range(n)])
    red, pivots = dense_rref(aug)
    if k in pivots:
        return None
    coords = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        coords[pc] = red.entries[r][k]
    return coords


@FIELD_ORDERS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_kernel_and_solve_match_dense_oracle(order, data):
    rows, ncols = data.draw(field_rows(order))
    m = Matrix.from_rows(rows)
    assert _solved_with(Matrix.rref, m) == _solved_with(dense_rref, m)
    # One target in the span of the rows, read as columns, and one drawn freely.
    inside = [x + y for x, y in zip(rows[0], rows[-1])]
    free = data.draw(st.lists(field_scalars(order), min_size=ncols, max_size=ncols))
    for target in (inside, free):
        columns = [_nonzeros(row) for row in rows]
        assert solve_columns(columns, _nonzeros(target)) == dense_solve(rows, target)


def dense_certificate(pres, p):
    """`reduces_to_zero`'s certificate from the dense system of the products
    mult * r, solved by `dense_rref`; None if p is not in their span."""
    desc = pres.descriptor
    m, w = degree_and_weight(p)
    multiples = [
        (ri, mult, Polynomial(desc, {mult: Fraction(1)}) * pres.relations[ri])
        for ri, mult in _tags(_multipliers(pres, m, w))
    ]
    index = {}
    for q in [*(q for _, _, q in multiples), p]:
        for mon in q.terms:
            index.setdefault(mon, len(index))

    def dense(q):
        row = [0] * len(index)
        for mon, c in q.terms.items():
            row[index[mon]] = c
        return row

    coords = dense_solve([dense(q) for _, _, q in multiples], dense(p))
    if coords is None:
        return None
    return [(ri, mult, c) for (ri, mult, _), c in zip(multiples, coords) if c != 0]


def test_h_membership_certificates_match_dense_oracle():
    rels = _relation_map()
    desc = fixtures.z3_descriptor()
    x2sq = desc.variable("x2") ** 2
    pres = h_membership_presentation()
    targets = [x2sq * rels[name] for name in ("H0", "H1", "H2")]
    # x2^2 * H0 plus a monomial of the quotient basis in its bidegree is not
    # in the ideal.
    outside = pres.quotient_monomial_basis(*degree_and_weight(targets[0]))[0]
    targets.append(targets[0] + Polynomial(desc, {outside: Fraction(1)}))
    engine = [pres.reduces_to_zero(t).certificate for t in targets]
    oracle = [dense_certificate(pres, t) for t in targets]
    assert all(engine[:3]) and engine[3] is None
    assert engine == oracle
