"""Graded ideal pieces, quotient dimensions, membership, Koszul and injectivity."""

import random
from fractions import Fraction
from math import comb, lcm
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux import (
    GradedPresentation,
    Matrix,
    Polynomial,
    RingDescriptor,
    enumerate_monomials,
    parse_polynomial,
)
from godeaux.action import weight_space_dim
from godeaux.graded import Membership, _multipliers, _tags
from godeaux.linalg import GenericRowSpace, IntRowSpace
from godeaux.poly import degree_and_weight, grevlex_key
from godeaux.scalars import is_rational_scalar, make_cyclo
from godeaux.scenarios import fixtures, run_z4
from godeaux.scenarios.torsion3 import (
    h_membership_presentation,
    numeric_presentation,
    z3_presentation,
    _relation_map,
)
from godeaux.scenarios.torsion4 import draw_relation, sampled_presentation
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

    @pytest.mark.parametrize(
        "build",
        [z3_presentation, h_membership_presentation, lambda: sampled_presentation(42)],
        ids=["z3", "h-membership", "z4"],
    )
    def test_ambient_columns_are_counted_by_weight_space_dim(self, build):
        # quotient_dim reads the ambient count off the piece; the dynamic
        # programme of weight_space_dim counts the same monomials on its own.
        pres = build()
        desc = pres.descriptor
        for m in range(13):
            for w in range(desc.torsion_order):
                piece = pres._piece(m, w)
                ambient = len(piece.monomials) - piece.ambient_start
                assert ambient == weight_space_dim(desc, m, w), (m, w)


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

    def test_certificates_build_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense Matrix was built")

        sub = h_membership_presentation()
        rels = _relation_map()
        x2sq = fixtures.z3_descriptor().variable("x2") ** 2
        monkeypatch.setattr(Matrix, "__init__", refuse)
        for name in ("H0", "H1", "H2"):
            target = x2sq * rels[name]
            membership = sub.reduces_to_zero(target)
            assert membership.contained
            assert sub.verify_certificate(target, membership)

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


# ---------------------------------------------------------------------------
# Ideal pieces as first written, kept as an oracle: one Polynomial product
# per multiple, each added as a dense row of its scalars.


def reference_piece(pres, m, w):
    """(monomials, ambient_start, row space, multiples) of the piece (m, w)
    built from the products mult * r."""
    desc = pres.descriptor
    multiples = []
    for ri, (r, (dr, wr)) in enumerate(zip(pres.relations, pres.relation_bidegrees)):
        if dr > m:
            continue
        for mult in enumerate_monomials(desc, m - dr, (w - wr) % desc.torsion_order):
            multiples.append((ri, mult, Polynomial(desc, {mult: Fraction(1)}) * r))
    ambient = enumerate_monomials(desc, m, w)
    known = set(ambient)
    outside = {mon for _, _, p in multiples for mon in p.terms if mon not in known}
    monomials = sorted(outside, key=grevlex_key) + ambient
    index = {mon: i for i, mon in enumerate(monomials)}
    rational = all(is_rational_scalar(c) for r in pres.relations for c in r.terms.values())
    rs = IntRowSpace(len(monomials)) if rational else GenericRowSpace(len(monomials))
    for _, _, p in multiples:
        row = [0] * len(monomials)
        for mon, c in p.terms.items():
            row[index[mon]] = c
        rs.add(row)
    return monomials, len(outside), rs, multiples


def _scalars(order):
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    if order == 1:
        return rational
    coeffs = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                      min_size=order - 1, max_size=order - 1)
    return rational | coeffs.map(lambda cs: make_cyclo(order, cs)).filter(bool)


@st.composite
def presentations(draw):
    """A few bihomogeneous relations on two to four variables of degree 0, 1
    or 2 (degree 0: a parameter), over Q, Q(z3) or Q(z5)."""
    order = draw(st.sampled_from([1, 3, 5]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    degrees = draw(st.lists(st.sampled_from([0, 1, 1, 2]), min_size=n, max_size=n)
                   .filter(lambda ds: any(ds)))
    weights = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    desc = RingDescriptor(tuple("abcd"[:n]), tuple(degrees), tuple(weights),
                          torsion_order=d, scalar_order=order)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        mons = enumerate_monomials(desc, draw(st.integers(1, 3)), draw(st.integers(0, d - 1)))
        if mons:
            terms = draw(st.dictionaries(st.sampled_from(mons), _scalars(order),
                                         min_size=1, max_size=4))
            relations.append(Polynomial(desc, terms))
    return GradedPresentation(desc, relations)


def assert_same_piece(pres, m, w):
    """The piece (m, w) spans what the oracle spans, on the same columns,
    with the same multiples, each relation row shifted by mult being the
    product mult * r scaled by the lcm of r's denominators (over Q); the
    stored pivot rows may differ."""
    piece = pres._piece(m, w)
    monomials, start, rs, multiples = reference_piece(pres, m, w % pres.descriptor.torsion_order)
    assert piece.monomials == monomials
    assert piece.ambient_start == start
    assert type(piece.rowspace) is type(rs)
    assert piece.rowspace._rref() == rs._rref()
    assert piece.rowspace.pivot_columns() == rs.pivot_columns()
    tags = _tags(_multipliers(pres, piece.m, piece.w))
    assert tags == [(ri, mult) for ri, mult, _ in multiples]
    for ri, mult, product in multiples:
        exps, coeffs, _ = pres._rows[ri]
        shifted = {tuple(map(add, mult, e)): c for e, c in zip(exps, coeffs)}
        assert shifted == product.scale(_row_scale(pres, pres.relations[ri])).terms
    ambient_pivots = [c for c in rs.pivot_columns() if c >= start]
    assert pres.quotient_dim(m, w) == len(monomials) - start - len(ambient_pivots)


def _row_scale(pres, r):
    """The lcm of r's denominators over Q, else 1."""
    if not all(is_rational_scalar(c) for q in pres.relations for c in q.terms.values()):
        return 1
    return lcm(*(c.denominator for c in r.terms.values()))


@settings(max_examples=60, deadline=None)
@given(pres=presentations(), m=st.integers(0, 5), w=st.integers(0, 2))
def test_piece_matches_the_polynomial_products(pres, m, w):
    assert_same_piece(pres, m, w)


@settings(max_examples=60, deadline=None)
@given(pres=presentations(), data=st.data())
def test_membership_certificates_recombine_and_non_members_are_refused(pres, data):
    desc = pres.descriptor
    order = desc.scalar_order
    d = desc.torsion_order
    # A random combination of relation multiples of a bidegree (m, w) that
    # some relation reaches, if there is a relation.
    m, w = 0, 0
    if pres.relations:
        dr, wr = data.draw(st.sampled_from(pres.relation_bidegrees))
        m, w = dr + data.draw(st.integers(0, 2)), (wr + data.draw(st.integers(0, d - 1))) % d
    member = desc.zero()
    tags = _tags(_multipliers(pres, m, w))
    if tags:
        for ri, mult in data.draw(st.lists(st.sampled_from(tags), min_size=1, max_size=4)):
            product = Polynomial(desc, {mult: Fraction(1)}) * pres.relations[ri]
            member = member + product.scale(data.draw(_scalars(order)))
    membership = pres.reduces_to_zero(member)
    assert membership.contained and pres.verify_certificate(member, membership)
    # Every relation has positive degree, so no multiple reaches degree 0.
    constants = enumerate_monomials(desc, 0, 0)
    terms = data.draw(st.dictionaries(st.sampled_from(constants), _scalars(order), min_size=1))
    assert pres.reduces_to_zero(Polynomial(desc, terms)) == Membership(False, None)
    # A monomial of the quotient basis is not in the span of the multiples.
    basis = pres.quotient_monomial_basis(m, w)
    if basis:
        outside = member + Polynomial(desc, {data.draw(st.sampled_from(basis)): Fraction(1)})
        assert pres.reduces_to_zero(outside) == Membership(False, None)


@st.composite
def positive_presentations(draw):
    """Two to five relations on two to four variables of degree 1 or 2, over
    Q, Q(z3) or Q(z5); a relation may repeat an earlier one, be a monomial
    multiple of it, or be a combination of monomial multiples of two or more
    earlier ones, perhaps plus a new term, so that many multiples are
    redundant and whole relations and non-Koszul syzygies reduce to zero."""
    order = draw(st.sampled_from([1, 3, 5]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    degrees = draw(st.lists(st.sampled_from([1, 1, 2]), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    desc = RingDescriptor(tuple("abcd"[:n]), tuple(degrees), tuple(weights),
                          torsion_order=d, scalar_order=order)
    bidegrees = [(k, ww) for k in range(1, 5) for ww in range(d)
                 if enumerate_monomials(desc, k, ww)]
    relations = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["new", "new", "new", "repeat", "multiple",
                                     "combination", "combination"]))
        if kind == "combination" and len(relations) >= 2:
            combined = _combination(draw, desc, relations, order)
            if combined is not None:
                relations.append(combined)
                continue
            kind = "new"
        if kind in ("new", "combination") or not relations:
            mons = enumerate_monomials(desc, *draw(st.sampled_from(bidegrees)))
            terms = draw(st.dictionaries(st.sampled_from(mons), _scalars(order),
                                         min_size=1, max_size=4))
            relations.append(Polynomial(desc, terms))
            continue
        earlier = draw(st.sampled_from(relations))
        if kind == "multiple":
            earlier = earlier * desc.variable(draw(st.sampled_from(desc.variables)))
        relations.append(earlier)
    return GradedPresentation(desc, relations)


def _combination(draw, desc, relations, order):
    """sum c_i * t_i * r_i over two or more earlier relations r_i, perhaps
    plus c * t, all of one bidegree; None if no such bidegree is near or the
    sum cancels."""
    indices = draw(st.lists(st.sampled_from(range(len(relations))), min_size=2,
                            max_size=3, unique=True))
    picked = [relations[i] for i in indices]
    grades = [degree_and_weight(r) for r in picked]
    low = max(dr for dr, _ in grades)
    d = desc.torsion_order
    targets = [
        (k, w) for k in range(low, low + 3) for w in range(d)
        if all(enumerate_monomials(desc, k - dr, w - wr) for dr, wr in grades)
    ]
    if not targets:
        return None
    k, w = draw(st.sampled_from(targets))
    total = desc.zero()
    for r, (dr, wr) in zip(picked, grades):
        mult = draw(st.sampled_from(enumerate_monomials(desc, k - dr, w - wr)))
        c = draw(_scalars(order))
        total = total + (Polynomial(desc, {mult: Fraction(1)}) * r).scale(c)
    if draw(st.booleans()):
        mon = draw(st.sampled_from(enumerate_monomials(desc, k, w)))
        total = total + Polynomial(desc, {mon: draw(_scalars(order))})
    return None if total.is_zero() else total


@settings(max_examples=60, deadline=None)
@given(pres=positive_presentations(), m=st.integers(0, 8), data=st.data())
def test_skipped_multiples_leave_every_piece_unchanged(pres, m, data):
    # Every variable has positive degree, so a piece skips the multiples its
    # memoised lower pieces prove redundant: all of them when the pieces are
    # built in ascending degree, as every caller does, fewer in another order.
    keys = [(k, w) for k in range(m + 1) for w in range(pres.descriptor.torsion_order)]
    if data.draw(st.booleans()):
        keys = data.draw(st.permutations(keys))
    for k, w in keys:
        assert_same_piece(pres, k, w)


def test_parameter_pieces_keep_every_multiple():
    # b is a parameter.  In (2, 0), ab leads b * (-2a) in (1, 0), but
    # ab * (ab) = -1/2 * ab^2 * (-2a) needs the multiplier ab^2, which is
    # beyond the parameter cap; skipping ab * (ab) would lose the column
    # a^2 b^2 from the span.
    desc = RingDescriptor(("a", "b"), (1, 0), (1, 1), torsion_order=2)
    pres = GradedPresentation(desc, [parse_polynomial(r, desc) for r in ("-2*a", "a*b", "2*a^2")])
    for m in range(4):
        for w in range(2):
            assert_same_piece(pres, m, w)


@pytest.mark.parametrize("first", [True, False])
def test_constant_relation_spans_the_whole_piece(first):
    # The lower piece of a degree-0 relation is the piece being built.
    relations = [ABC.one(), parse_polynomial("a*b - c^2", ABC)]
    pres = GradedPresentation(ABC, relations if first else relations[::-1])
    for m in range(4):
        assert_same_piece(pres, m, 0)
        assert pres.quotient_dim(m, 0) == 0


def test_numeric_z3_piece_skips_redundant_multiples(monkeypatch):
    pres = numeric_presentation(ZERO_PARAMS)
    for m in range(12):
        for w in range(3):
            pres._piece(m, w)
    added = []
    original = IntRowSpace.add_nonzeros

    def counting_add(self, row):
        added.append(row)
        return original(self, row)

    monkeypatch.setattr(IntRowSpace, "add_nonzeros", counting_add)
    piece = pres._piece(12, 0)
    assert 0 < len(added) < len(_tags(_multipliers(pres, piece.m, piece.w)))
    assert_same_piece(pres, 12, 0)


def test_z4_f5_criterion_leaves_no_zero_reduction(monkeypatch):
    # The z4 suite (seed 42) to degree 16 builds its pieces in ascending
    # degree, and the F5 criterion skips every multiple that would reduce to
    # zero.  Without it the suite takes 43,145 elimination steps; with it 1,162.
    counts = {"zero": 0, "steps": 0}
    add_nonzeros, eliminate = IntRowSpace.add_nonzeros, IntRowSpace._eliminate

    def counting_add(self, row):
        enlarged = add_nonzeros(self, row)
        counts["zero"] += not enlarged
        return enlarged

    def counting_eliminate(work, lead, piv, cols):
        counts["steps"] += 1
        return eliminate(work, lead, piv, cols)

    monkeypatch.setattr(IntRowSpace, "add_nonzeros", counting_add)
    monkeypatch.setattr(IntRowSpace, "_eliminate", staticmethod(counting_eliminate))
    assert run_z4(seed=42, max_degree=16).passed()
    assert counts["zero"] == 0
    assert counts["steps"] <= 1200
