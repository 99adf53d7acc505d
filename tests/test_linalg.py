"""Exact row reduction, kernels, spans, and the integer row-space fast path."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux import Matrix, kernel_basis, zeta
from godeaux.linalg import IntRowSpace, int_kernel_basis, int_rref, solve_columns


def F(x):
    return Fraction(x)


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
        assert solve_columns([[1, 1]], [2, 2]) == [F(2)]

    def test_in_span_false(self):
        assert solve_columns([[1, 1]], [1, 0]) is None

    def test_length_mismatch(self):
        rs = IntRowSpace(2)
        with pytest.raises(ValueError, match="length mismatch"):
            rs.add([1, 1, 1])
        with pytest.raises(ValueError, match="length mismatch"):
            rs.contains([1])

    def test_certificate_recombines(self):
        vectors = [[1, 2, 0], [0, 1, 1], [2, 0, 1]]
        target = [3, 5, 2]
        coords = solve_columns(vectors, target)
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
    for v in int_kernel_basis(rows, ncols):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    reduced, pivots = int_rref(rows, ncols)
    assert len(pivots) + len(int_kernel_basis(rows, ncols)) == ncols


def test_int_rowspace_membership():
    rs = IntRowSpace(3)
    rs.add([1, 2, 3])
    rs.add([0, 1, 1])
    assert rs.contains([1, 3, 4])
    assert rs.contains([2, 4, 6])
    assert not rs.contains([0, 0, 1])
    assert rs.dim == 2


def test_int_rowspace_fraction_input():
    rs = IntRowSpace(2)
    assert rs.add([Fraction(1, 2), Fraction(1, 3)])
    assert rs.contains([3, 2])
