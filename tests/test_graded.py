"""Graded ideal pieces, quotient dimensions, membership, Koszul and injectivity."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux import (
    GradedPresentation,
    Matrix,
    RingDescriptor,
    enumerate_monomials,
    parse_polynomial,
)
from godeaux.scenarios import fixtures
from godeaux.scenarios.torsion3 import (
    h_membership_presentation,
    numeric_presentation,
    z3_presentation,
    _relation_map,
)
from godeaux.scenarios.torsion4 import draw_relation
from godeaux.scenarios.torsion5 import z5_quintic

ABC = RingDescriptor(("a", "b", "c"), (1, 1, 1), (0, 0, 0))
ZERO_PARAMS = (Fraction(0), Fraction(0), Fraction(0))


def vec(p, mons):
    return [p.coefficient(e) for e in mons]


def span_dim(rows):
    """Rank by the Fraction rref, independent of the integer row space."""
    return len(Matrix.from_rows(rows).rref()[1])


@pytest.fixture(scope="module")
def z3num():
    return numeric_presentation(ZERO_PARAMS)


class TestIdealPiece:
    def test_degree_four_weight_two(self, z3num):
        basis = z3num.ideal_piece(4, 2)
        assert len(basis) == 1
        f2 = parse_polynomial("x2^4 + y0*y2 - y1^2", z3num.descriptor)
        mons = enumerate_monomials(z3num.descriptor, 4, 2)
        assert span_dim([vec(basis[0], mons), vec(f2, mons)]) == 1

    def test_below_relation_degrees(self, z3num):
        for w in range(3):
            assert z3num.ideal_piece(3, w) == []

    def test_degree_five_weight_zero(self, z3num):
        basis = z3num.ideal_piece(5, 0)
        assert len(basis) == 2
        desc = z3num.descriptor
        rels = {n: p for n, p in _numeric_relations(desc)}
        x2f1 = desc.variable("x2") * rels["f1"]
        g0 = rels["g0"]
        mons = enumerate_monomials(desc, 5, 0)
        rows = [vec(b, mons) for b in basis]
        assert span_dim(rows + [vec(x2f1, mons)]) == 2
        assert span_dim(rows + [vec(g0, mons)]) == 2


def _numeric_relations(desc):
    from godeaux.scenarios.torsion3 import specialise

    return [
        (name, specialise(p, ZERO_PARAMS))
        for name, _, _, p in fixtures.z3_relations()
    ]


class TestPieceIntegrity:
    def test_unit_row_of_another_bidegree_leaves_piece_unchanged(self):
        pres = numeric_presentation(ZERO_PARAMS)
        assert pres.quotient_dim(4, 0) == 3
        assert len(pres.quotient_monomial_basis(4, 0)) == 3
        x2_4 = (4, 0, 0, 0, 0, 0)  # bidegree (4, 2)
        with pytest.raises(ValueError, match="bidegree"):
            pres._piece(4, 0).unit_row(x2_4)
        assert len(pres.quotient_monomial_basis(4, 0)) == 3
        assert pres.quotient_dim(4, 0) == 3

    def test_unit_row_beyond_the_parameter_cap_is_rejected(self):
        pres = h_membership_presentation()
        piece = pres._piece(4, 0)
        columns = list(piece.monomials)
        alpha2_y0_sq = (0, 2, 0, 0, 0, 0, 2, 0, 0)  # bidegree (4, 0)
        with pytest.raises(ValueError, match="parameter cap"):
            piece.unit_row(alpha2_y0_sq)
        assert piece.monomials == columns

    @pytest.mark.parametrize(
        "build", [z3_presentation, h_membership_presentation], ids=["z3", "h-membership"]
    )
    def test_basis_counts_quotient_dim_with_parameters(self, build):
        # Degree-0 parameters: relation multiples reach monomials beyond the
        # parameter cap, and membership queries must not change any answer.
        pres = build()

        def bases():
            out = {}
            for m in range(9):
                for w in range(pres.descriptor.torsion_order):
                    basis = pres.quotient_monomial_basis(m, w)
                    assert len(basis) == pres.quotient_dim(m, w), (m, w)
                    out[m, w] = basis
            return out

        before = bases()
        rels = _relation_map()
        x2sq = pres.descriptor.variable("x2") ** 2
        for name in ("H0", "H1", "H2"):
            pres.reduces_to_zero(x2sq * rels[name])
        assert bases() == before


class TestQuotientDim:
    def test_z3_small(self, z3num):
        assert z3num.quotient_dim(2, 1) == 2

    def test_z3_total_degree_six(self, z3num):
        assert z3num.quotient_dim(6, "all") == 15

    def test_free_ring(self):
        free = GradedPresentation(ABC, [])
        assert free.quotient_dim(4, "all") == comb(6, 2)

    def test_matches_span_of_ideal_piece(self, z3num):
        for m in range(7):
            for w in range(3):
                mons = enumerate_monomials(z3num.descriptor, m, w)
                rows = [vec(b, mons) for b in z3num.ideal_piece(m, w)]
                assert z3num.quotient_dim(m, w) == len(mons) - span_dim(rows)


class TestReducesToZero:
    def test_h_relations_symbolic(self):
        sub = h_membership_presentation()
        rels = _relation_map()
        desc = fixtures.z3_descriptor()
        x2sq = desc.variable("x2") ** 2
        for name in ("H0", "H2"):
            target = x2sq * rels[name]
            membership = sub.reduces_to_zero(target)
            assert membership.contained
            assert sub.verify_certificate(target, membership)

    def test_not_contained(self):
        sub = h_membership_presentation()
        membership = sub.reduces_to_zero(fixtures.z3_descriptor().variable("y0"))
        assert not membership.contained and membership.certificate is None

    @pytest.mark.parametrize(
        "relation, target",
        [("x + y", "1/2*x^2 + 1/2*x*y"), ("1/3*x + y", "x^2 + 3*x*y")],
    )
    def test_certificate_over_q_recombines(self, relation, target):
        # Non-integer coefficients: the certificate must use exact coordinates,
        # not coordinates of rows scaled by their own denominators.
        desc = RingDescriptor(("x", "y"), (1, 1), (0, 0))
        pres = GradedPresentation(desc, [parse_polynomial(relation, desc)])
        p = parse_polynomial(target, desc)
        membership = pres.reduces_to_zero(p)
        assert membership.contained
        assert pres.verify_certificate(p, membership)

    def test_inhomogeneous_rejected(self):
        sub = h_membership_presentation()
        desc = fixtures.z3_descriptor()
        with pytest.raises(ValueError, match="bihomogeneous"):
            sub.reduces_to_zero(desc.variable("x2") + desc.variable("y0"))


def brute_monomial_count(degrees, weights, d, m, w):
    """Independent count of exponent vectors: recursion over variables."""
    if m < 0:
        return 0

    def rec(i, rem, wt):
        if i == len(degrees):
            return 1 if rem == 0 and wt % d == w % d else 0
        total = 0
        e = 0
        while e * degrees[i] <= rem:
            total += rec(i + 1, rem - e * degrees[i], wt + e * weights[i])
            e += 1
        return total

    return rec(0, m, 0)


class TestKoszul:
    def test_generic_z4_pair_matches_inclusion_exclusion(self):
        desc = fixtures.z4_descriptor()
        rng = random.Random(7)
        q1 = draw_relation(rng, desc, 4, 0)
        q2 = draw_relation(rng, desc, 4, 2)
        pres = GradedPresentation(desc, [q1, q2])
        degs, wts = desc.degrees, desc.weights

        def amb(m, w):
            return brute_monomial_count(degs, wts, 4, m, w)

        for m in range(13):
            for w in range(4):
                predicted = (
                    amb(m, w)
                    - amb(m - 4, w)
                    - amb(m - 4, w - 2)
                    + amb(m - 8, w - 2)
                )
                assert pres.quotient_dim(m, w) == predicted
        assert pres.koszul_check(12)

    def test_duplicated_relation_fails(self):
        desc = fixtures.z4_descriptor()
        rng = random.Random(3)
        q = draw_relation(rng, desc, 4, 0)
        pres = GradedPresentation(desc, [q, q])
        assert not pres.koszul_check(8)

    def test_single_quintic_relation(self):
        q = z5_quintic()
        pres = GradedPresentation(q.descriptor, [q])
        assert pres.koszul_check(12)


class TestMultiplicationInjectivity:
    def test_z3_x2(self, z3num):
        assert z3num.multiplication_injectivity("x2", 12)

    def test_truncated_polynomial_ring(self):
        desc = RingDescriptor(("x",), (1,), (0,))
        pres = GradedPresentation(desc, [desc.variable("x") ** 2])
        assert not pres.multiplication_injectivity("x", 2)

    def test_free_ring(self):
        free = GradedPresentation(ABC, [])
        assert free.multiplication_injectivity("b", 6)


class TestHilbert:
    def test_zero_relations_counts_monomials(self):
        desc = fixtures.z4_descriptor()
        table = GradedPresentation(desc, []).hilbert(8)
        for m in range(9):
            for w in range(4):
                assert table.dim(m, w) == brute_monomial_count(
                    desc.degrees, desc.weights, 4, m, w
                )

    def test_z3_totals(self, z3num):
        table = z3num.hilbert(12)
        assert table.total(1) == 1
        assert table.total(2) == 4
        for m in range(3, 13):
            assert table.total(m) == 3 * (m - 1)

    def test_entries_complete(self, z3num):
        table = z3num.hilbert(4)
        assert set(table.entries) == {(m, w) for m in range(5) for w in range(3)}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_parameter_samples_share_hilbert_function(seed):
    rng = random.Random(seed)
    params = tuple(Fraction(rng.randint(-20, 20)) for _ in range(3))
    pres = numeric_presentation(params)
    for m in range(1, 7):
        for w in range(3):
            expected = {1: (0, 0, 1), 2: (1, 2, 1)}.get(m, (m - 1,) * 3)[w]
            assert pres.quotient_dim(m, w) == expected
