"""Membership predicates, generator selection, relation counting, verification."""

from fractions import Fraction
from math import gcd, lcm
from operator import add, le, mul

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from godeaux import (
    MembershipPredicate,
    Polynomial,
    RingDescriptor,
    WeightCondition,
    parse_polynomial,
    render_polynomial,
)
from godeaux import subring
from godeaux.graded import StandardMonomials
from godeaux.linalg import IntRowSpace, Matrix, int_kernel_basis, int_kernel_rref, int_rref
from godeaux.poly import (
    _product, degree_and_weight, enumerate_monomials, grevlex_key, monomial_columns, pack,
    unpack, weighted_revlex_key,
)
from godeaux.scalars import zeta
from godeaux.scenarios import fixtures, sc_predicate
from godeaux.subring import (
    CongruenceImageCondition,
    GeneratorListReport,
    SubringBuilder,
    SubstitutionParityCondition,
    _MonomialMap,
    _constraints,
    _int_terms,
    _interreduced_leads,
    _parity_constraints,
    _relations_by_duality,
    _unpacked,
)

ABC = RingDescriptor(("a", "b", "c"), (1, 1, 1), (0, 0, 0))


# Dense rows and their normal form, written here so that the oracles below
# do not share them with the engine.


def _row(terms, index):
    """Dense row of a term dict, in the column order of index."""
    row = [0] * len(index)
    for mon, c in terms.items():
        row[index[mon]] = c
    return row


def _vector(p, index):
    """Dense integer row of p, its denominators cleared."""
    mult = lcm(*(c.denominator for c in p.terms.values()))
    return _row({mon: int(c * mult) for mon, c in p.terms.items()}, index)


def _primitive(row):
    """An integer row divided by its content, leading entry positive."""
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    if next((x for x in row if x), 0) < 0:
        row = [-x for x in row]
    return row


def _nonzeros(row):
    """{column: value} of a dense row's nonzeros."""
    return {j: x for j, x in enumerate(row) if x}


def _dense(row, ncols):
    """The dense row of a {column: value} row."""
    out = [0] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def _kernel(rows, ncols):
    """`int_kernel_basis` of dense rows, its vectors read back dense."""
    return [_dense(v, ncols) for v in int_kernel_basis([_nonzeros(r) for r in rows], ncols)]


def _row_poly(desc, cols, row):
    """The polynomial of an integer {column: value} row over the exponent
    tuples cols."""
    return _unpacked(desc, {pack(cols[j]): x for j, x in row.items()})


def _rref(rows, ncols):
    """`int_rref` of dense rows, its rows read back dense."""
    reduced, pivots = int_rref([_nonzeros(r) for r in rows], ncols)
    return [_dense(r, ncols) for r in reduced], pivots


@pytest.fixture(scope="module")
def pred():
    return sc_predicate()


@pytest.fixture(scope="module")
def builder(pred):
    return SubringBuilder(pred)


class TestSubspaceBasis:
    def test_degree_one_empty(self, pred):
        # By hand: a linear form x*a + y*b + z*c needs z = 0 (even powers of c
        # modulo a quartic leaves nothing in degree 1) and then the parity
        # condition forces x = y = 0.
        assert pred.subspace_basis(1) == []

    def test_degree_two(self, pred):
        basis = pred.subspace_basis(2)
        assert len(basis) == 2
        assert pred.contains(parse_polynomial("a*b", ABC))
        assert pred.contains(parse_polynomial("3*a^2 + 3*b^2 + c^2", ABC))

    def test_degree_five_dimension(self, pred):
        assert pred.dim(5) == 11

    def test_dims_zero_through_twelve(self, pred):
        assert [pred.dim(m) for m in range(13)] == [
            1, 0, 2, 4, 7, 11, 16, 22, 29, 37, 46, 56, 67,
        ]

    def test_a_changed_basis_list_changes_no_later_answer(self):
        # A fresh predicate: the list handed out must not be the memo, so
        # emptying it leaves the basis, and the generators built on it, whole.
        pred = sc_predicate()
        pred.subspace_basis(3).clear()
        assert len(pred.subspace_basis(3)) == pred.dim(3) == 4
        census = SubringBuilder(pred).presentation(10).generator_census
        assert census == {2: 2, 3: 4, 4: 4, 5: 3}


class TestMinimalGenerators:
    def test_census(self, builder):
        gens = builder.minimal_generators(10)
        census: dict[int, int] = {}
        for _, d in gens:
            census[d] = census.get(d, 0) + 1
        assert census == {2: 2, 3: 4, 4: 4, 5: 3}

    def test_single_weightless_variable(self):
        desc = RingDescriptor(("x",), (1,), (0,))
        p = MembershipPredicate(desc, [WeightCondition(0)])
        gens = SubringBuilder(p).minimal_generators(4)
        assert [(render_polynomial(g), d) for g, d in gens] == [("x", 1)]

    def test_degree_zero_variable_is_refused(self):
        # Monomial enumeration caps u at exponent 1, so u * u has no column.
        desc = RingDescriptor(("u", "x"), (0, 1), (0, 0))
        pred = MembershipPredicate(desc, [WeightCondition(0)])
        with pytest.raises(ValueError, match="degree 0: u"):
            SubringBuilder(pred)
        # The predicate alone still answers.
        assert pred.dim(2) == len(pred.subspace_basis(2)) == 2
        assert pred.contains(parse_polynomial("u*x^2", desc))

    def test_deterministic(self, builder):
        first = [(render_polynomial(g), d) for g, d in builder.minimal_generators(8)]
        second = [
            (render_polynomial(g), d)
            for g, d in SubringBuilder(sc_predicate()).minimal_generators(8)
        ]
        assert first == second


class TestPresentation:
    def test_free_ambient_has_no_relations(self):
        desc = RingDescriptor(("a", "b", "c"), (1, 1, 1), (0, 0, 0))
        p = MembershipPredicate(desc, [WeightCondition(0)])
        pres = SubringBuilder(p).presentation(6)
        assert [render_polynomial(g) for g, _ in pres.generators] == ["a", "b", "c"]
        assert all(n == 0 for n in pres.relation_census.values())
        assert pres.relations == []

    def test_z4_weight_zero_truncation(self):
        desc = fixtures.z4_descriptor()
        p = MembershipPredicate(desc, [WeightCondition(0)])
        pres = SubringBuilder(p).presentation(4)
        assert all(pres.relation_census.get(m, 0) == 0 for m in range(4))
        assert pres.warning == "census may be truncated"

    def test_sc_census_through_degree_eight(self, builder):
        pres = builder.presentation(8)
        assert pres.relation_census == {
            1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 6, 7: 12, 8: 18,
        }
        assert pres.generator_census == {2: 2, 3: 4, 4: 4, 5: 3}
        # Relations evaluate to zero in the ambient ring.
        images = {
            name: g for name, (g, _) in zip(pres.free_ring.variables, pres.generators)
        }
        for rel in pres.relations:
            assert rel.substitute(images).is_zero()


Z3 = RingDescriptor(("x", "y", "z"), (1, 1, 1), (0, 1, 2), torsion_order=3)


class TestClosedUnderProducts:
    def test_which_conditions_are_multiplicative(self, pred):
        assert pred.closed_under_products
        assert MembershipPredicate(Z3, [WeightCondition(3)]).closed_under_products
        assert not MembershipPredicate(Z3, [WeightCondition(1)]).closed_under_products
        assert MembershipPredicate(ABC, [WeightCondition(1)]).closed_under_products

    def test_weight_one_spans_past_dim_v(self):
        # Products of weight-1 elements have weight 2: the span of products
        # outgrows V_m, so generator selection must try every product.
        pres = SubringBuilder(MembershipPredicate(Z3, [WeightCondition(1)])).presentation(6)
        assert pres.generator_census == {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 5}
        assert pres.relation_census == {1: 0, 2: 0, 3: 0, 4: 2, 5: 5, 6: 13}
        assert len(pres.relations) == 20


class TestVerifyGeneratorList:
    def test_claimed_thirteen(self, builder):
        report = builder.verify_generator_list(fixtures.sc_claimed_generators(), 8)
        assert report.ok

    def test_bad_replacement_fails_membership(self, builder):
        claimed = list(fixtures.sc_claimed_generators())
        claimed[1] = parse_polynomial("a^2", ABC)
        report = builder.verify_generator_list(claimed, 4)
        assert not report.ok
        assert (1, 2, False) in report.memberships

    def test_empty_list_fails_generation(self, builder):
        report = builder.verify_generator_list([], 2)
        assert not report.ok
        assert report.generation[2] == (2, 0, False)

    def test_degree_zero_generator_is_reported(self, builder):
        # A constant lies in V_0 but spans nothing in positive degree.
        report = builder.verify_generator_list([builder.desc.one()], 3)
        assert report.memberships == [(0, 0, True)]
        assert report.generation == {1: (0, 0, True), 2: (2, 0, False), 3: (4, 0, False)}
        assert not report.ok

    def test_non_members_keep_their_excess_span(self, builder):
        # Products with a non-member leave V_m: every degree must show the
        # excess, so the span cannot stop at dim V_m.
        claimed = [
            *fixtures.sc_claimed_generators(),
            parse_polynomial("a^2", ABC),
            parse_polynomial("c^3", ABC),
        ]
        report = builder.verify_generator_list(claimed, 10)
        assert report.memberships[-2:] == [(13, 2, False), (14, 3, False)]
        assert report.generation == {
            1: (0, 0, True), 2: (2, 3, False), 3: (4, 5, False), 4: (7, 9, False),
            5: (11, 16, False), 6: (16, 25, False), 7: (22, 33, False),
            8: (29, 43, False), 9: (37, 53, False), 10: (46, 64, False),
        }

    def test_degree_zero_generator_adds_nothing(self, builder):
        claimed = [builder.desc.one(), *fixtures.sc_claimed_generators()]
        report = builder.verify_generator_list(claimed, 8)
        assert report.ok
        assert report.generation == builder.verify_generator_list(claimed[1:], 8).generation


class TestClosure:
    def test_spot_checks_pass(self, builder):
        results = builder.closure_spot_checks(10, seed=123, trials=10)
        assert results and all(ok for _, _, ok in results)

    def test_seeded_reproducible(self, builder):
        a = builder.closure_spot_checks(10, seed=5, trials=6)
        b = builder.closure_spot_checks(10, seed=5, trials=6)
        assert a == b

    @pytest.mark.parametrize("max_degree", [1, 2])
    def test_no_nonzero_piece_below_the_bound_gives_no_checks(self, builder, max_degree):
        # V_1 = 0 on sc, so no degree below the bound has a nonzero piece.
        assert builder.closure_spot_checks(max_degree) == []

    @pytest.mark.parametrize("seed", [1, 42, 137, 7919])
    def test_integer_checks_match_the_polynomial_products(self, builder, seed):
        assert builder.closure_spot_checks(11, seed=seed) == reference_closure_spot_checks(
            builder, 11, seed
        )

    def test_integer_checks_match_where_products_leave_v(self):
        builder = SubringBuilder(MembershipPredicate(Z3, [WeightCondition(1)]))
        results = builder.closure_spot_checks(6, seed=3)
        assert results == reference_closure_spot_checks(builder, 6, 3)
        assert not all(ok for _, _, ok in results)


def _reference_combination(basis, rng):
    desc = basis[0].descriptor
    out = desc.zero()
    while out.is_zero():
        out = desc.zero()
        for b in basis:
            out = out + b.scale(Fraction(rng.randint(-9, 9)))
    return out


def reference_closure_spot_checks(builder, max_degree, seed, trials=12):
    """Closure spot checks as first written: Fraction combinations of the
    basis polynomials, multiplied as polynomials and tested by contains."""
    pred = builder.pred
    rng = random.Random(seed)
    results = []
    degrees = [m for m in range(1, max_degree) if pred.subspace_basis(m)]
    if not degrees:
        return []
    for _ in range(trials):
        i = rng.choice(degrees)
        j_choices = [j for j in degrees if i + j <= max_degree]
        if not j_choices:
            continue
        j = rng.choice(j_choices)
        p = _reference_combination(pred.subspace_basis(i), rng)
        q = _reference_combination(pred.subspace_basis(j), rng)
        results.append((i, j, pred.contains(p * q)))
    return results


@st.composite
def rational_polys(draw):
    mons = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=8)
    terms = draw(st.dictionaries(st.sampled_from(mons), coeff, max_size=6))
    return Polynomial(ABC, terms)


@settings(max_examples=80, deadline=None)
@given(f=rational_polys(), g=rational_polys())
def test_integer_product_is_the_scaled_product(f, g):
    def scale(p):
        return lcm(*(c.denominator for c in p.terms.values()))

    expected = (f * g).scale(Fraction(scale(f) * scale(g)))
    got = _product(_int_terms(f), _int_terms(g))
    assert all(type(c) is int for c in got.values())
    assert Polynomial(ABC, got) == expected


@st.composite
def lead_test_polys(draw, desc):
    """A nonzero integer term dict of one degree in 0..3 and one weight."""
    m = draw(st.integers(0, 3))
    mons = enumerate_monomials(desc, m, draw(st.integers(0, desc.torsion_order - 1)))
    if not mons:
        mons = enumerate_monomials(desc, 0)
    return draw(st.dictionaries(
        st.sampled_from(mons), st.integers(-5, 5).filter(bool), min_size=1, max_size=5
    ))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_product_lead_is_the_sum_of_the_leads(data):
    # Product spans read each product's leading column off its factors'.
    nvars = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(1, 4))
    desc = RingDescriptor(
        tuple(f"v{i}" for i in range(nvars)),
        tuple(data.draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))),
        tuple(data.draw(st.lists(st.integers(0, order - 1), min_size=nvars, max_size=nvars))),
        torsion_order=order,
    )
    f = data.draw(lead_test_polys(desc))
    g = data.draw(lead_test_polys(desc))
    lead = min(_product(f, g), key=grevlex_key)
    assert lead == tuple(map(add, min(f, key=grevlex_key), min(g, key=grevlex_key)))


# ---------------------------------------------------------------------------
# The relation census as first written, kept as an oracle: at every degree it
# adds every monomial multiple of every relation found so far, computes the
# full kernel of the evaluation map and runs the full selection.


def reference_spans(pred, max_degree):
    """Generators and spanning products as first written: every product
    g*b is reduced, with no stop at dim V_m."""
    gens = []
    span_terms = {0: [_int_terms(pred.descriptor.one())]}
    for m in range(1, max_degree + 1):
        index = {mon: i for i, mon in enumerate(enumerate_monomials(pred.descriptor, m))}
        rs = IntRowSpace(len(index))
        piece = []
        for g, dg in gens:
            if 0 < dg <= m:
                for b in span_terms[m - dg]:
                    prod = _product(_int_terms(g), b)
                    if rs.add(_row(prod, index)):
                        piece.append(prod)
        for v in pred.subspace_basis(m):
            terms = _int_terms(v)
            if rs.add(_row(terms, index)):
                piece.append(terms)
                gens.append((v, m))
        span_terms[m] = piece
    return gens, span_terms


def reference_census(builder, max_degree):
    """(relations, relation census, hilbert, [(m, x-part rank, target)])."""
    gens, span_terms = reference_spans(builder.pred, max_degree)
    free = RingDescriptor(
        tuple(f"g{i+1}" for i in range(len(gens))),
        tuple(dg for _, dg in gens),
        (0,) * len(gens),
    )
    gen_terms = [_int_terms(g) for g, _ in gens]

    def evaluate(exps):
        out = _int_terms(builder.desc.one())
        for i, e in enumerate(exps):
            for _ in range(e):
                out = _product(out, gen_terms[i])
        return out

    pred = builder.pred
    relations, census, hilbert, ranks = [], {}, {0: 1}, []
    for m in range(1, max_degree + 1):
        hilbert[m] = pred.dim(m)
        free_mons = enumerate_monomials(free, m)
        if not free_mons:
            census[m] = 0
            continue
        index = {mon: i for i, mon in enumerate(enumerate_monomials(pred.descriptor, m))}
        matrix = [[0] * len(free_mons) for _ in index]
        for u, mon in enumerate(free_mons):
            for amb, x in evaluate(mon).items():
                matrix[index[amb]][u] = x
        kernel = _kernel(matrix, len(free_mons))
        ranks.append((m, len(kernel), len(free_mons) - len(span_terms[m])))
        free_index = {mon: i for i, mon in enumerate(free_mons)}
        ideal_rows = IntRowSpace(len(free_mons))
        for rel in relations:
            dr = degree_and_weight(rel)[0]
            for mult in enumerate_monomials(free, m - dr):
                ideal_rows.add(_row(_product({mult: 1}, _int_terms(rel)), free_index))
        new_count = 0
        for k in sorted(kernel):
            if ideal_rows.add(k):
                relations.append(_row_poly(free, free_mons, _nonzeros(_primitive(k))))
                new_count += 1
        census[m] = new_count
    return relations, census, hilbert, ranks


def _weight_zero(desc):
    return MembershipPredicate(desc, [WeightCondition(0)])


CENSUS_CASES = {
    "sc": (sc_predicate, 11),
    "z5-invariants": (lambda: _weight_zero(fixtures.z5_descriptor()), 8),
    "z3-invariants": (lambda: _weight_zero(Z3), 9),
    "free": (lambda: _weight_zero(ABC), 6),
    "z3-weight-one": (lambda: MembershipPredicate(Z3, [WeightCondition(1)]), 6),
}


def _exact_degrees(monkeypatch):
    """The degrees in which the census takes the exact path, as a list that
    fills while the census runs."""
    degrees = []
    exact_relations = SubringBuilder._exact_relations

    def spy(self, free, m, *args):
        degrees.append(m)
        return exact_relations(self, free, m, *args)

    monkeypatch.setattr(SubringBuilder, "_exact_relations", spy)
    return degrees


@pytest.mark.parametrize("case", list(CENSUS_CASES))
def test_census_matches_the_full_elimination(case, monkeypatch):
    make, max_degree = CENSUS_CASES[case]
    exact = _exact_degrees(monkeypatch)
    builder = SubringBuilder(make())
    pres = builder.presentation(max_degree)
    relations, census, hilbert, ranks = reference_census(
        SubringBuilder(make()), max_degree
    )
    assert pres.relations == relations
    assert pres.relation_census == census
    assert pres.hilbert == hilbert
    # The relation space has the dimension the census stops at.
    assert all(rank == target for _, rank, target in ranks), ranks
    # Every degree with no new relation is settled by its count.
    assert exact == [m for m, n in census.items() if n]
    # Product spans try products in lead order, over V_k's basis as
    # factors: the kept products differ, their span does not.  The builder
    # returns no products, so they are caught as each span is formed; the
    # list a span returns gains that degree's new generators.
    gens, span_terms = reference_spans(builder.pred, max_degree)
    got_terms = {}
    product_span = SubringBuilder._product_span

    def spy(self, factors, m, *args):
        got_terms.setdefault(0, [t for _, t in factors[0]])
        index, rs, piece = product_span(self, factors, m, *args)
        got_terms[m] = piece
        return index, rs, piece

    monkeypatch.setattr(SubringBuilder, "_product_span", spy)
    got_gens, got_pivots = builder._generators_with_spans(max_degree)
    assert got_gens == gens
    # The kept products are packed; the oracle's are keyed by exponent tuples.
    n = builder.desc.nvars
    got_terms = {
        m: [{unpack(k, n): c for k, c in p.items()} for p in products]
        for m, products in got_terms.items()
    }
    assert {m: len(t) for m, t in got_terms.items()} == {m: len(t) for m, t in span_terms.items()}
    for m, products in span_terms.items():
        reduced, pivots = _span_echelon(builder.pred, m, products)
        assert _span_echelon(builder.pred, m, got_terms[m]) == (reduced, pivots), m
        if m:
            assert got_pivots[m] == pivots, m


def _span_echelon(pred, m, products):
    """`int_rref` of the degree-m products."""
    index = {mon: i for i, mon in enumerate(enumerate_monomials(pred.descriptor, m))}
    return _rref([_row(p, index) for p in products], len(index))


@pytest.mark.parametrize("delta", [1, -1], ids=["high", "low"])
@pytest.mark.parametrize("case", list(CENSUS_CASES))
def test_a_count_off_by_one_sends_its_degree_to_the_exact_path(case, delta, monkeypatch):
    make, max_degree = CENSUS_CASES[case]
    relations, census, hilbert, _ = reference_census(SubringBuilder(make()), max_degree)
    # The last degree with no new relation; for sc, degree 11.
    patched = max(m for m, n in census.items() if n == 0)
    counts = StandardMonomials.counts

    def off_by_one(self, m):
        out = counts(self, m)
        if m == patched:
            out[0] += delta
        return out

    monkeypatch.setattr(StandardMonomials, "counts", off_by_one)
    exact = _exact_degrees(monkeypatch)
    pres = SubringBuilder(make()).presentation(max_degree)
    assert pres.relations == relations
    assert pres.relation_census == census
    assert pres.hilbert == hilbert
    assert exact == sorted({m for m, n in census.items() if n} | {patched})
    if case == "sc":
        assert exact == [6, 7, 8, 9, 10, 11]


def _count_steps(monkeypatch, backend):
    """A list that gains one entry per elimination step of a row-space
    backend."""
    steps = []
    eliminate = backend._eliminate

    def counted(*args):
        steps.append(None)
        return eliminate(*args)

    monkeypatch.setattr(backend, "_eliminate", staticmethod(counted))
    return steps


def test_sc_presentation_to_degree_11_makes_few_integer_steps(monkeypatch):
    # As in the sc suite, V_m is known before the presentation starts.
    pred = sc_predicate()
    for m in range(12):
        pred.dim(m)
    steps = _count_steps(monkeypatch, IntRowSpace)
    pres = SubringBuilder(pred).presentation(11)
    assert sum(pres.relation_census.values()) == 54
    # 14,816 steps with the ideal rows, the full kernel and the greedy loop.
    assert len(steps) <= 7_500


def _sc_spans_steps(monkeypatch, max_degree):
    """IntRowSpace steps of the sc generators and product spans to
    max_degree, with V_m known beforehand as in the sc suite."""
    pred = sc_predicate()
    for m in range(max_degree + 1):
        pred.dim(m)
    steps = _count_steps(monkeypatch, IntRowSpace)
    SubringBuilder(pred)._generators_with_spans(max_degree)
    return len(steps)


def test_sc_spans_to_degree_11_make_few_integer_steps(monkeypatch):
    # 3,059 steps with every product over the kept products, in plain order.
    assert _sc_spans_steps(monkeypatch, 11) <= 1_000


def test_sc_claimed_list_to_degree_10_makes_few_integer_steps(monkeypatch):
    pred = sc_predicate()
    for m in range(11):
        pred.dim(m)
    steps = _count_steps(monkeypatch, IntRowSpace)
    report = SubringBuilder(pred).verify_generator_list(fixtures.sc_claimed_generators(), 10)
    assert report.ok
    # 2,274 steps with every product over the kept products, in plain order.
    assert len(steps) <= 600


@pytest.mark.slow
def test_sc_spans_to_degree_20_make_few_integer_steps(monkeypatch):
    # 92,304 steps with every product over the kept products, in plain order.
    assert _sc_spans_steps(monkeypatch, 20) <= 8_000


@pytest.mark.slow
def test_sc_census_to_degree_30_counts_every_degree_past_10(monkeypatch):
    exact = _exact_degrees(monkeypatch)
    enumerated = []
    columns = subring.monomial_columns

    def spy(desc, m):
        enumerated.append((desc, m))
        return columns(desc, m)

    monkeypatch.setattr(subring, "monomial_columns", spy)
    pres = SubringBuilder(sc_predicate()).presentation(30)
    assert exact == [6, 7, 8, 9, 10]
    assert all(pres.relation_census[m] == 0 for m in range(11, 31))
    assert sum(pres.relation_census.values()) == 54
    # The free ring's monomials are enumerated only for the exact path.
    free_degrees = {m for desc, m in enumerated if desc == pres.free_ring}
    assert free_degrees and max(free_degrees) == 10


@st.composite
def free_presentations(draw):
    """A free ring on 2-3 generators of degrees 1-3, and 1-3 integer
    relations of degrees 2-4 with small coefficients."""
    degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    names = tuple(f"g{i + 1}" for i in range(len(degrees)))
    free = RingDescriptor(names, degrees, (0,) * len(degrees))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        mons = enumerate_monomials(free, draw(st.integers(2, 4)))
        if not mons:
            continue
        terms = draw(st.dictionaries(
            st.sampled_from(mons), st.integers(-6, 6).filter(bool), min_size=1, max_size=4
        ))
        relations.append(Polynomial(free, {mon: Fraction(c) for mon, c in terms.items()}))
    return free, relations


def _ideal_rows(free, m, relations, free_index, target) -> IntRowSpace:
    """Row space of the degree-m multiples of the relations, in their order,
    built only until its dimension reaches `target`."""
    rows = IntRowSpace(len(free_index))
    for rel in relations:
        # Relations are primitive integer rows: their terms are exact.
        terms = _int_terms(rel)
        for mult in enumerate_monomials(free, m - degree_and_weight(rel)[0]):
            if rows.dim == target:
                return rows
            rows.add(_row(_product({mult: 1}, terms), free_index))
    return rows


@settings(max_examples=200, deadline=None)
@given(data=free_presentations())
def test_standard_count_bounds_the_quotient_dimension(data):
    """The census's count criterion: with L the leads of the relations of
    degree < m, interreduced per degree, no more degree-m monomials escape
    L than the dimension of the quotient by those relations."""
    free, relations = data
    key = weighted_revlex_key(free, free.variables[::-1])
    leads = []
    for m in range(1, 8):
        free_mons = enumerate_monomials(free, m)
        free_index = {mon: i for i, mon in enumerate(free_mons)}
        older = [r for r in relations if degree_and_weight(r)[0] < m]
        # Exact rank: every multiple, at a target no rank reaches.
        rank = _ideal_rows(free, m, older, free_index, len(free_mons) + 1).dim
        assert StandardMonomials(free, leads).counts(m)[0] >= len(free_mons) - rank
        rows = [
            _nonzeros(_row(_int_terms(r), free_index))
            for r in relations if degree_and_weight(r)[0] == m
        ]
        leads += _interreduced_leads(rows, list(monomial_columns(free, m)), free.nvars, key)


def _walk_standard(desc, leads, top):
    """Per degree m <= top, the monomials that no lead divides in a ring
    whose variables all have positive degree, counted as the census once
    counted them: one walk from 1, each monomial reached from the one with
    one unit less of its last variable."""
    counts = [0] * (top + 1)
    n = desc.nvars
    stack = [] if (0,) * n in leads else [((0,) * n, 0, 0)]
    while stack:
        exps, m, first = stack.pop()
        counts[m] += 1
        for j in range(first, n):
            mj = m + desc.degrees[j]
            step = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            if mj <= top and not any(all(map(le, lead, step)) for lead in leads):
                stack.append((step, mj, j))
    return counts


@settings(max_examples=200, deadline=None)
@given(data=free_presentations())
def test_incremental_standard_counts_match_a_walk_from_scratch(data):
    # Leads join degree by degree, after their degree is counted, as in the
    # census; a fresh count with every lead must agree as well.
    free, relations = data
    key = weighted_revlex_key(free, free.variables[::-1])
    top = 9
    standard = StandardMonomials(free)
    leads = []
    for m in range(1, top + 1):
        assert standard.counts(m) == [_walk_standard(free, leads, m)[m]], m
        free_mons = enumerate_monomials(free, m)
        free_index = {mon: i for i, mon in enumerate(free_mons)}
        rows = [
            _nonzeros(_row(_int_terms(r), free_index))
            for r in relations if degree_and_weight(r)[0] == m
        ]
        new = _interreduced_leads(rows, list(monomial_columns(free, m)), free.nvars, key)
        standard.add_leads(new)
        leads += new
    fresh = StandardMonomials(free, leads)
    assert [fresh.counts(m)[0] for m in range(top + 1)] == _walk_standard(free, leads, top)


def greedy_relations(kernel, n, multiples):
    """The selection as first written: the multiples enter a row space, then
    every x-part in sorted order, and those that enlarge it are kept."""
    rows = IntRowSpace(n)
    for z in multiples:
        rows.add(z)
    kept = []
    for k in sorted(kernel, key=lambda v: v[:n]):
        xpart = k[:n]
        if any(xpart) and rows.add(xpart):
            kept.append(_primitive(xpart))
    return kept


def _by_duality(kernel, multiples):
    """`_relations_by_duality` of a dense kernel and multiples, its choice
    read back dense."""
    n = len(kernel[0]) if kernel else 0
    chosen = _relations_by_duality([_nonzeros(v) for v in kernel], map(_nonzeros, multiples))
    return [_dense(v, n) for v in chosen]


@st.composite
def matrix_kernels(draw, negate=False):
    """(kernel, n, multiples): the kernel of a small integer matrix with n
    columns, some copies of earlier columns so that they are free, and
    integer combinations of the kernel vectors; with `negate`, some kernel
    vectors are negated, so that their leading entries are negative."""
    n = draw(st.integers(1, 8))
    nrows = draw(st.integers(1, 5))
    entry = st.integers(-2, 2)
    cols = [draw(st.lists(entry, min_size=nrows, max_size=nrows))]
    while len(cols) < n:
        cols.append(list(draw(st.sampled_from(cols))) if draw(st.booleans())
                    else draw(st.lists(entry, min_size=nrows, max_size=nrows)))
    kernel = _kernel([[col[r] for col in cols] for r in range(nrows)], n)
    if negate:
        flips = draw(st.lists(st.booleans(), min_size=len(kernel), max_size=len(kernel)))
        kernel = [[-x for x in k] if flip else k for k, flip in zip(kernel, flips)]
    multiples = []
    for _ in range(draw(st.integers(0, 6))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(kernel), max_size=len(kernel)))
        z = [0] * n
        for c, k in zip(coeffs, kernel):
            z = [u + c * x for u, x in zip(z, k)]
        multiples.append(z)
    return kernel, n, multiples


@settings(max_examples=150, deadline=None)
@given(system=matrix_kernels())
def test_relation_choice_by_duality_matches_the_greedy(system):
    kernel, n, multiples = system
    assert _by_duality(kernel, multiples) == greedy_relations(kernel, n, multiples)


@settings(max_examples=150, deadline=None)
@given(system=matrix_kernels(negate=True))
def test_relation_choice_by_duality_matches_the_greedy_on_negative_leads(system):
    # The greedy keeps primitive rows, leading entry positive; the duality
    # keeps the kernel vectors themselves.
    kernel, n, multiples = system
    chosen = _by_duality(kernel, multiples)
    assert all(v in kernel for v in chosen)
    assert [_primitive(v) for v in chosen] == greedy_relations(kernel, n, multiples)


def test_relation_choice_by_duality_follows_the_sort_order():
    # Kernel of [1 1 0]: (1, -1, 0) at free column 1, then (0, 0, 1) at free
    # column 2, which sorts first.  The multiple (1, -1, 1) is the sum of
    # the two, so the greedy keeps only the one that sorts first.
    kernel = _kernel([[1, 1, 0]], 3)
    assert kernel == [[1, -1, 0], [0, 0, 1]]
    assert sorted(kernel) != kernel
    assert _by_duality(kernel, [[1, -1, 1]]) == [[0, 0, 1]]
    assert greedy_relations(kernel, 3, [[1, -1, 1]]) == [[0, 0, 1]]
    # With its lead negative, (-1, 1, 0) sorts first and is kept instead.
    negated = [[-1, 1, 0], [0, 0, 1]]
    assert sorted(negated) == negated
    assert _by_duality(negated, [[-1, 1, 1]]) == [[-1, 1, 0]]


@settings(max_examples=200, deadline=None)
@given(vectors=st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=8))
@example(vectors=[[1, 0, 0, 0], [1, 0, 2, 0], [1, 0, -2, 0], [0, 0, 0, 0]])
@example(vectors=[[-1, 3, 0, 0], [-1, 0, 0, 0], [-1, 3, 0, -1], [0, -2, 0, 0], [0, 0, 0, 5]])
def test_dense_order_sorts_sparse_rows_as_their_dense_lists(vectors):
    # Leads of either sign, and rows whose nonzeros begin with those of
    # another row (the first example's (1, 0, 0, 0)).
    rows = sorted(map(_nonzeros, vectors), key=subring._dense_order)
    assert [_dense(v, 4) for v in rows] == sorted(vectors)


# ---------------------------------------------------------------------------
# The glueing condition as first written, kept as an oracle: every basis row
# is turned into a polynomial and substituted on its own.


def _cleared(row):
    """The rational row times the lcm of its denominators."""
    mult = lcm(*(x.denominator for x in row))
    return [x.numerator * (mult // x.denominator) for x in row]


def reference_parity(cond, desc, m, cols, basis):
    sign = cond.sign(m)
    images = []
    target_index = {}
    for row in basis:
        p = _row_poly(desc, cols, _nonzeros(row))
        val = p.substitute(cond.sigma1) - p.substitute(cond.sigma2).scale(sign)
        for mon in val.terms:
            target_index.setdefault(mon, len(target_index))
        images.append(val)
    constraint_rows = [
        _cleared([img.coefficient(t) for img in images])
        for t, _ in sorted(target_index.items(), key=lambda kv: kv[1])
    ]
    return _combine(basis, _kernel(constraint_rows, len(basis)))


ST = RingDescriptor(("s", "t"), (1, 1), (0, 0))


@st.composite
def substitutions(draw, fault):
    """Linear images of a, b, c in a and c with Fraction coefficients, so the
    glueing condition has a kernel; `fault` drops one image or moves one onto
    another descriptor."""
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    images = {
        name: Polynomial(ABC, draw(st.dictionaries(
            st.sampled_from([(1, 0, 0), (0, 0, 1)]), coeff, max_size=2
        )))
        for name in ABC.variables
    }
    name = draw(st.sampled_from(ABC.variables))
    if fault == "missing":
        del images[name]
    elif fault == "two-descriptors":
        images[name] = Polynomial(ST, {(1, 0): Fraction(1)})
    return images


def _outcome(f):
    try:
        return f()
    except (KeyError, ValueError) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_parity_condition_matches_per_row_substitution(data):
    m = data.draw(st.integers(1, 6))
    cols = enumerate_monomials(ABC, m)
    fault = data.draw(st.sampled_from([None, None, "missing", "two-descriptors"]))
    which = data.draw(st.sampled_from(["sigma1", "sigma2"]))
    maps = {"sigma1": data.draw(substitutions(None)), "sigma2": data.draw(substitutions(None))}
    maps[which] = data.draw(substitutions(fault))
    cond = SubstitutionParityCondition(
        maps["sigma1"], maps["sigma2"], sign_base=data.draw(st.sampled_from([1, -1]))
    )
    entry = st.integers(-3, 3) | st.just(0)
    basis = data.draw(
        st.lists(st.lists(entry, min_size=len(cols), max_size=len(cols)), min_size=1, max_size=9)
    )
    n = len(cols)

    def ours():
        # span(basis) is cut out by its annihilator; add the parity functionals.
        maps = MembershipPredicate(ABC, [cond])._substitutions(0)
        functionals = int_kernel_basis(list(map(_nonzeros, basis)), n)
        functionals += _parity_constraints(maps, cond.sign(m), list(monomial_columns(ABC, m)))
        return [_dense(r, n) for r in int_rref(int_kernel_basis(functionals, n), n)[0]]

    # Every degree-m monomial is mapped, so a missing image raises whether or
    # not the basis uses its variable.
    expected = (
        KeyError if fault == "missing"
        else _outcome(lambda: _rref(reference_parity(cond, ABC, m, cols, basis), n)[0])
    )
    assert _outcome(ours) == expected


def test_parity_condition_errors():
    images = {name: Polynomial(ABC, {(1, 0, 0): Fraction(1, 2)}) for name in ABC.variables}
    missing = SubstitutionParityCondition({"a": images["a"]}, images)
    with pytest.raises(KeyError):
        MembershipPredicate(ABC, [missing]).subspace_basis(2)
    apart = SubstitutionParityCondition(images, {**images, "b": Polynomial(ST, {})})
    with pytest.raises(ValueError):
        MembershipPredicate(ABC, [apart]).subspace_basis(2)


def test_congruence_condition_and_membership_errors():
    # A modulus from another ring, or with cyclotomic coefficients, is
    # refused, and so is a cyclotomic polynomial given to `contains`.
    line = Polynomial(ST, {(1, 0): Fraction(1)})
    apart = MembershipPredicate(ABC, [CongruenceImageCondition(("a",), (line,))])
    with pytest.raises(ValueError, match="descriptor"):
        apart.subspace_basis(2)
    z3 = RingDescriptor(("a", "b", "c"), (1, 1, 1), (0, 0, 0), scalar_order=3)
    cyclo = Polynomial(z3, {(1, 0, 0): zeta(3)})
    with pytest.raises(ValueError, match="rational"):
        MembershipPredicate(z3, [CongruenceImageCondition(("a",), (cyclo,))]).subspace_basis(2)
    with pytest.raises(ValueError, match="rational"):
        MembershipPredicate(z3, [WeightCondition(0)]).contains(cyclo)


def test_missing_image_raises_where_no_basis_element_uses_it():
    # c has weight 1 mod 3, so in degree 2 the weight-0 condition removes
    # every monomial in c; sigma1 still has no image for c.
    desc = RingDescriptor(("a", "b", "c"), (1, 1, 1), (0, 0, 1), torsion_order=3)
    images = {name: Polynomial(ST, {(1, 0): Fraction(1)}) for name in desc.variables}
    cond = SubstitutionParityCondition({"a": images["a"], "b": images["b"]}, images)
    pred = MembershipPredicate(desc, [WeightCondition(0), cond])
    with pytest.raises(KeyError, match="c"):
        pred.subspace_basis(2)


def test_parity_maps_are_kept_across_degrees():
    images = {name: Polynomial(ST, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)})
              for name in ABC.variables}
    cond = SubstitutionParityCondition(images, {**images, "a": images["b"]})
    pred = MembershipPredicate(ABC, [cond])
    for m in (3, 1, 4, 2):
        fresh = MembershipPredicate(ABC, [cond]).subspace_basis(m)
        assert pred.subspace_basis(m) == fresh, m
        if m == 3:
            maps = pred._maps[0]
    assert pred._maps[0] is maps


def test_failed_parity_images_are_not_kept():
    # c has degree 2: degree 1 never maps it, every higher degree does.
    desc = RingDescriptor(("a", "b", "c"), (1, 1, 2), (0, 0, 0))
    images = {name: Polynomial(ST, {(1, 0): Fraction(1)}) for name in desc.variables}
    cond = SubstitutionParityCondition(
        {"a": images["a"], "b": images["b"]}, images, sign_base=1
    )
    pred = MembershipPredicate(desc, [cond])
    assert len(pred.subspace_basis(1)) == 2
    for m in (2, 3, 2, 4):
        with pytest.raises(KeyError, match="c"):
            pred.subspace_basis(m)
    assert len(pred.subspace_basis(1)) == 2

    z3 = RingDescriptor(("s", "t"), (1, 1), (0, 0), scalar_order=3)
    cyclo = {name: Polynomial(z3, {(1, 0): zeta(3)}) for name in desc.variables}
    bad = MembershipPredicate(desc, [SubstitutionParityCondition(cyclo, cyclo)])
    for m in (1, 2, 1):
        with pytest.raises(ValueError, match="rational"):
            bad.subspace_basis(m)
    assert bad._maps == {}

    apart = {name: Polynomial(ABC, {(1, 0, 0): Fraction(1)}) for name in desc.variables}
    mismatch = MembershipPredicate(desc, [SubstitutionParityCondition(images, apart)])
    for m in (1, 2, 1):
        with pytest.raises(ValueError, match="descriptor"):
            mismatch.subspace_basis(m)
    assert mismatch._maps == {}


# ---------------------------------------------------------------------------
# V_m as first written, kept as an oracle: the conditions narrow a basis in
# turn, each in its own matrix shape, and the parity condition substitutes
# every basis row on its own (reference_parity above).


def _apply_condition(cond, desc, m, cols, basis):
    if isinstance(cond, WeightCondition):
        target = cond.weight % desc.torsion_order
        wrong = [j for j, mon in enumerate(cols) if desc.monomial_weight(mon) != target]
        constraints = [[row[j] for j in wrong] for row in basis]
        return _combine(basis, _kernel(_transpose(constraints, len(wrong)), len(basis)))
    if isinstance(cond, SubstitutionParityCondition):
        return reference_parity(cond, desc, m, cols, basis)
    if isinstance(cond, CongruenceImageCondition):
        even_idx = [desc.index(v) for v in cond.even_variables]
        span_rows = []
        for j, mon in enumerate(cols):
            if all(mon[i] % 2 == 0 for i in even_idx):
                row = [0] * len(cols)
                row[j] = 1
                span_rows.append(row)
        index = {mon: i for i, mon in enumerate(cols)}
        for f in cond.modulus:
            dw = degree_and_weight(f)
            if not isinstance(dw, tuple):
                raise ValueError("modulus polynomials must be homogeneous")
            for mult in enumerate_monomials(desc, m - dw[0]):
                prod = Polynomial(desc, {mult: Fraction(1)}) * f
                span_rows.append(_vector(prod, index))
        return _intersect(basis, span_rows, len(cols))
    raise TypeError(f"unknown condition {cond!r}")


def _transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def _combine(basis, coeff_vectors):
    out = []
    for coeffs in coeff_vectors:
        row = [0] * len(basis[0]) if basis else []
        for c, b in zip(coeffs, basis):
            if c:
                row = [u + c * v for u, v in zip(row, b)]
        out.append(row)
    return out


def _intersect(basis, span_rows, ncols):
    """Basis of span(basis) ∩ span(span_rows)."""
    if not basis or not span_rows:
        return []
    stacked = []
    for j in range(ncols):
        stacked.append([row[j] for row in basis] + [-row[j] for row in span_rows])
    kern = _kernel(stacked, len(basis) + len(span_rows))
    return [row for row in (_combine(basis, [k[: len(basis)]])[0] for k in kern) if any(row)]


def reference_subspace_basis(pred, m):
    cols = enumerate_monomials(pred.descriptor, m)
    n = len(cols)
    basis = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    for cond in pred.conditions:
        basis = _apply_condition(cond, pred.descriptor, m, cols, basis)
        if not basis:
            break
    reduced, _ = _rref(basis, n)
    return [_row_poly(pred.descriptor, cols, _nonzeros(row)) for row in reduced]


def reference_dim(pred, m):
    index = {mon: i for i, mon in enumerate(enumerate_monomials(pred.descriptor, m))}
    rs = IntRowSpace(len(index))
    return sum(rs.add(_vector(p, index)) for p in reference_subspace_basis(pred, m))


@pytest.mark.parametrize("case", list(CENSUS_CASES))
def test_reversed_kernel_matches_two_eliminations(case):
    # The reduced echelon form of V_m, as the echelon form of its kernel
    # basis once gave it.
    make, max_degree = CENSUS_CASES[case]
    pred = make()
    for m in range(max_degree + 1):
        cols = list(monomial_columns(pred.descriptor, m))
        n = len(cols)
        functionals = pred._functionals(m, cols)
        reduced, _ = _rref(_kernel([_dense(f, n) for f in functionals], n), n)
        assert [_dense(r, n) for r in int_kernel_rref(functionals, n)] == reduced
        assert pred.subspace_basis(m) == [
            _unpacked(pred.descriptor, {cols[j]: x for j, x in enumerate(r) if x})
            for r in reduced
        ]


def test_sc_bases_match_sympy_nullspace(pred):
    # V_m's basis is the primitive integer form of the reduced echelon basis
    # of the kernel of the dense functional matrix, as sympy computes it.
    sympy = pytest.importorskip("sympy")
    for m in range(9):
        cols = list(monomial_columns(pred.descriptor, m))
        index = {unpack(k, pred.descriptor.nvars): j for j, k in enumerate(cols)}
        functionals = pred._functionals(m, cols)
        matrix = sympy.Matrix(len(functionals), len(cols), lambda i, j: functionals[i].get(j, 0))
        kernel = matrix.nullspace()
        reduced = sympy.Matrix.hstack(*kernel).T.rref()[0].tolist() if kernel else []
        expected = []
        for row in reduced:
            mult = lcm(*(int(sympy.fraction(x)[1]) for x in row))
            expected.append(_primitive([int(x * mult) for x in row]))
        assert [_vector(p, index) for p in pred.subspace_basis(m)] == expected, m


def test_sc_bases_match_the_sequential_narrowing(pred):
    for m in range(13):
        assert pred.subspace_basis(m) == reference_subspace_basis(pred, m), m


@st.composite
def homogeneous_polys(draw, desc):
    """A nonzero polynomial of one degree in 1..3 and one torsion weight."""
    m = draw(st.integers(1, 3))
    mons = enumerate_monomials(desc, m, draw(st.integers(0, desc.torsion_order - 1)))
    terms = draw(st.dictionaries(
        st.sampled_from(mons), st.integers(-3, 3).filter(bool), min_size=1, max_size=3
    ))
    return Polynomial(desc, {mon: Fraction(c) for mon, c in terms.items()})


@st.composite
def linear_images(draw, desc, target):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    units = [tuple(int(i == j) for i in range(target.nvars)) for j in range(target.nvars)]
    return {
        name: Polynomial(target, draw(st.dictionaries(st.sampled_from(units), coeff, max_size=2)))
        for name in desc.variables
    }


@st.composite
def predicates(draw):
    """Weight, congruence and parity conditions on the Z/3-weighted (x, y, z),
    each present or not, in a random order."""
    conditions = []
    if draw(st.booleans()):
        conditions.append(WeightCondition(draw(st.integers(0, 2))))
    if draw(st.booleans()):
        conditions.append(CongruenceImageCondition(
            tuple(draw(st.sets(st.sampled_from(Z3.variables)))),
            tuple(draw(st.lists(homogeneous_polys(Z3), max_size=2))),
        ))
    if draw(st.booleans()):
        conditions.append(SubstitutionParityCondition(
            draw(linear_images(Z3, ST)), draw(linear_images(Z3, ST)),
            sign_base=draw(st.sampled_from([1, -1])),
        ))
    return MembershipPredicate(Z3, draw(st.permutations(conditions)))


@settings(max_examples=60, deadline=None)
@given(pred=predicates(), m=st.integers(0, 6))
def test_one_kernel_matches_the_sequential_narrowing(pred, m):
    assert pred.subspace_basis(m) == reference_subspace_basis(pred, m)
    assert pred.dim(m) == reference_dim(pred, m)


@settings(max_examples=30, deadline=None)
@given(pred=predicates(), seed=st.integers(0, 99))
def test_closure_checks_match_the_polynomial_products(pred, seed):
    # Without a weight condition a product can mix weights; both versions
    # must then refuse it alike.
    builder = SubringBuilder(pred)
    assert _outcome(lambda: builder.closure_spot_checks(5, seed=seed, trials=4)) == _outcome(
        lambda: reference_closure_spot_checks(builder, 5, seed, trials=4)
    )


@settings(max_examples=40, deadline=None)
@given(pred=predicates(), data=st.data())
def test_interleaved_queries_answer_as_on_a_fresh_predicate(pred, data):
    # One cached V_m space serves dim and contains; contains must never add
    # to it.
    queries = data.draw(st.lists(
        st.tuples(st.sampled_from(["dim", "basis", "contains"]), st.integers(0, 5)),
        min_size=1, max_size=12,
    ))
    desc = pred.descriptor
    for kind, m in queries:
        fresh = MembershipPredicate(desc, pred.conditions)
        if kind == "contains":
            # Basis elements of one torsion weight, and a random polynomial
            # of degree m and one weight.
            candidates = [
                b for b in fresh.subspace_basis(m) if degree_and_weight(b) != "inhomogeneous"
            ]
            mons = enumerate_monomials(desc, m, data.draw(st.integers(0, 2)))
            if mons:
                terms = data.draw(st.dictionaries(
                    st.sampled_from(mons), st.integers(-3, 3).filter(bool), min_size=1, max_size=3
                ))
                candidates.append(Polynomial(desc, {mon: Fraction(c) for mon, c in terms.items()}))
            assert [pred.contains(q) for q in candidates] == [fresh.contains(q) for q in candidates]
        elif kind == "basis":
            assert pred.subspace_basis(m) == fresh.subspace_basis(m)
        else:
            assert getattr(pred, kind)(m) == getattr(fresh, kind)(m)


# A torsion order above 1 and a degree-0 variable u, which monomials carry at
# exponent at most 1.
UXY = RingDescriptor(("u", "x", "y"), (0, 1, 1), (1, 0, 2), torsion_order=3)


@settings(max_examples=80, deadline=None)
@given(weighted=st.booleans(), m=st.integers(2, 8), data=st.data())
def test_packed_membership_matches_the_rank_of_the_dense_span(pred, weighted, m, data):
    # A rational combination of V_m's basis, with or without one ambient
    # monomial added, lies in V_m exactly when it leaves the rank of the
    # basis unchanged.  A sum that mixes torsion weights is refused.
    if weighted:
        pred = MembershipPredicate(UXY, [WeightCondition(1)])
    basis = pred.subspace_basis(m)
    cols = enumerate_monomials(pred.descriptor, m)
    index = {mon: j for j, mon in enumerate(cols)}
    p = Polynomial(pred.descriptor, {})
    for b in basis:
        p = p + b.scale(Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4))))
    if data.draw(st.booleans()):
        mon = data.draw(st.sampled_from(cols))
        p = p + Polynomial(pred.descriptor, {mon: Fraction(data.draw(st.integers(-3, 3)))})
    if degree_and_weight(p) == "inhomogeneous":
        with pytest.raises(ValueError, match="homogeneous"):
            pred.contains(p)
        return
    rows = [_vector(q, index) for q in [*basis, p]]
    assert pred.contains(p) == (len(Matrix.from_rows(rows).rref()[1]) == len(basis))


def reference_congruence_functionals(cond, desc, m, cols):
    """`_constraints` of a congruence condition as first written: the
    annihilator of the whole span, a unit row for every monomial even in the
    listed variables beside the multiples of the modulus."""
    even_idx = [desc.index(v) for v in cond.even_variables]
    index = monomial_columns(desc, m)
    span_rows = [
        {j: 1} for j, mon in enumerate(cols) if all(mon[i] % 2 == 0 for i in even_idx)
    ]
    for f in cond.modulus:
        dw = degree_and_weight(f)
        if not isinstance(dw, tuple):
            raise ValueError("modulus polynomials must be homogeneous")
        if f.descriptor != desc:
            raise ValueError("descriptor mismatch")
        terms = {pack(mon): c for mon, c in _int_terms(f).items()}
        for mult in monomial_columns(desc, m - dw[0]):
            span_rows.append({index[mult + e]: c for e, c in terms.items()})
    return int_kernel_basis(span_rows, len(cols))


def _functionals_or_error(functionals, cond, desc, m, cols):
    """Each functional's (column, value) pairs in order, or the error."""
    return _outcome(lambda: [list(v.items()) for v in functionals(cond, desc, m, cols)])


def _congruence_functionals_or_errors(cond, desc, m):
    """`_functionals_or_error` of `_constraints` on the packed degree-m
    monomials, and of the reference on their exponent tuples."""
    return (
        _functionals_or_error(_constraints, cond, desc, m, list(monomial_columns(desc, m))),
        _functionals_or_error(
            reference_congruence_functionals, cond, desc, m, enumerate_monomials(desc, m)
        ),
    )


@pytest.mark.parametrize("desc", [ABC, Z3, UXY], ids=["abc", "z3", "uxy"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_congruence_functionals_match_the_annihilator_of_the_whole_span(desc, data):
    # Without the unit rows of the even monomials, the functionals are the
    # same, order included.  Multiples that leave UXY's columns (u^2) must
    # raise alike.
    cond = CongruenceImageCondition(
        tuple(data.draw(st.lists(st.sampled_from(desc.variables), max_size=3))),
        tuple(data.draw(st.lists(homogeneous_polys(desc), max_size=3))),
    )
    m = data.draw(st.integers(0, 7))
    ours, reference = _congruence_functionals_or_errors(cond, desc, m)
    assert ours == reference


def test_congruence_functionals_match_on_sc_and_without_odd_monomials():
    sc = sc_predicate()
    desc = sc.descriptor
    cases = [(sc.conditions[0], m) for m in range(17)]
    conic = fixtures.sc_conic()
    # An empty list makes every monomial even, and degree 0 has no odd
    # monomial either: no functional survives, whatever the modulus.
    cases += [(CongruenceImageCondition((), (conic,)), m) for m in (0, 2, 5)]
    cases += [(CongruenceImageCondition(("a", "c"), (conic,)), 0)]
    cases += [(CongruenceImageCondition(("a", "c"), ()), m) for m in (1, 4)]
    for cond, m in cases:
        ours, reference = _congruence_functionals_or_errors(cond, desc, m)
        assert ours == reference
        if not cond.even_variables or m == 0:
            assert ours == [], (cond, m)


def test_a_congruence_multiple_past_a_degree_0_cap_names_its_monomial():
    # u has degree 0, so monomials carry it at exponent at most 1: u*x
    # times the degree-1 multiplier u*x is u^2 x^2, which has no column.
    u, x = UXY.variable("u"), UXY.variable("x")
    pred = MembershipPredicate(UXY, [CongruenceImageCondition(("x",), (u * x,))])
    with pytest.raises(KeyError, match=r"\(2, 2, 0\) has no degree-2 column"):
        pred.dim(2)


def test_basis_rows_lead_at_pivots_that_no_other_row_holds(pred):
    # `contains` clears V_m's pivots in one pass over `_space(m)`: each row
    # must lead at its grevlex-least monomial, its first key, and hold no
    # other row's pivot.
    weighted = MembershipPredicate(UXY, [WeightCondition(1)])
    for p in (pred, weighted):
        n = p.descriptor.nvars
        for m in range(15):
            rows = p._space(m)
            leads = [next(iter(row)) for row in rows]
            for row, lead in zip(rows, leads):
                assert lead == min(row, key=lambda k: grevlex_key(unpack(k, n))), m
                assert [k for k in leads if k in row] == [lead], m
    # Enumeration caps the degree-0 u at exponent 1, so u^2*x has no column.
    with pytest.raises(KeyError):
        weighted.contains(parse_polynomial("u^2*x", UXY))


def reference_verify_generator_list(builder, claimed, max_degree):
    """`SubringBuilder.verify_generator_list` as it was when product spans
    reduced every g*b, b a kept product, in plain order (the method body
    verbatim, `self` renamed), with today's rule for a zero or inhomogeneous
    claim: it fails its own membership, with the reason, and the spans are
    taken without it."""
    memberships = []
    degreed = []
    for i, p in enumerate(claimed):
        dw = degree_and_weight(p)
        if not isinstance(dw, tuple):
            reason = "zero" if dw == "zero" else "not homogeneous"
            memberships.append((i, "unknown", f"claimed generator {i} is {reason}"))
            continue
        degreed.append((p, dw[0]))
        memberships.append((i, dw[0], builder.pred.contains(p)))
    generation = {}
    span_terms = {0: [_int_terms(builder.desc.one())]}
    # A claim with a non-member must still show its excess span.
    closed = builder.pred.closed_under_products and all(ok is True for *_, ok in memberships)
    for m in range(1, max_degree + 1):
        full = builder.pred.dim(m) if closed else None
        _, _, span_terms[m] = _reference_product_span(builder, degreed, span_terms, m, full)
        target = builder.pred.dim(m)
        achieved = len(span_terms[m])
        generation[m] = (target, achieved, achieved == target)
    return GeneratorListReport(memberships=memberships, generation=generation)


def _reference_product_span(builder, gens, span_terms, m, full=None):
    """`SubringBuilder._product_span` as it was for the oracle above."""
    index = {mon: i for i, mon in enumerate(enumerate_monomials(builder.desc, m))}
    rs = IntRowSpace(len(index))
    piece = []
    for g, dg in gens:
        # A constant factor adds nothing to the span.
        if 0 < dg <= m:
            g_terms = _int_terms(g)
            for b in span_terms[m - dg]:
                if rs.dim == full:
                    return index, rs, piece
                prod = _product(g_terms, b)
                if rs.add(_row(prod, index)):
                    piece.append(prod)
    return index, rs, piece


@settings(max_examples=30, deadline=None)
@given(pred=predicates().filter(lambda p: p.closed_under_products), data=st.data())
def test_generator_list_reports_match_the_plain_product_spans(pred, data):
    # The selected generators; the same with one left out, so that a degree
    # falls short and keeps its own products as factors; and the same with a
    # non-member, so that no span stops early.
    max_degree = 5
    builder = SubringBuilder(pred)
    claims = [[g for g, _ in builder.minimal_generators(max_degree)]]
    if claims[0]:
        claims.append(list(claims[0]))
        del claims[1][data.draw(st.integers(0, len(claims[0]) - 1))]
    outside = [
        Polynomial(Z3, {mon: Fraction(1)})
        for m in range(1, max_degree + 1)
        for mon in enumerate_monomials(Z3, m)
        if not pred.contains(Polynomial(Z3, {mon: Fraction(1)}))
    ]
    if outside:
        claims.append([*claims[0], data.draw(st.sampled_from(outside))])
    for claim in claims:
        fresh = SubringBuilder(MembershipPredicate(Z3, pred.conditions))
        assert _outcome(lambda: builder.verify_generator_list(claim, max_degree)) == _outcome(
            lambda: reference_verify_generator_list(fresh, claim, max_degree)
        )


# ---------------------------------------------------------------------------
# Packed monomials on the subring path


def test_the_subring_path_makes_no_tuple_product(monkeypatch):
    from godeaux import poly

    # Fixtures are parsed, by tuple products, before the spy.
    pred = sc_predicate()
    claimed = fixtures.sc_claimed_generators()
    calls = []
    product = poly._product

    def spy(*args):
        calls.append(None)
        return product(*args)

    monkeypatch.setattr(poly, "_product", spy)
    builder = SubringBuilder(pred)
    assert all(ok for *_, ok in builder.closure_spot_checks(11))
    assert sum(builder.presentation(11).relation_census.values()) == 54
    assert builder.verify_generator_list(claimed, 10).ok
    assert calls == []
    # No name in the module that the spy would miss.
    assert not hasattr(subring, "_product")


def test_images_that_may_leave_a_packed_field_are_refused():
    # x -> s^100: the image of x^2 still fits, that of x^3 may not.
    desc = RingDescriptor(("x",), (1,), (0,))
    images = {"x": Polynomial(ST, {(100, 0): Fraction(1)})}
    pred = MembershipPredicate(desc, [SubstitutionParityCondition(images, images, 1)])
    assert pred.dim(2) == 1
    with pytest.raises(ValueError, match="packed"):
        pred.dim(3)


@st.composite
def rational_images(draw, desc):
    """Images of desc's variables: rational polynomials of up to three terms
    with exponents at most 2, all in ST or all in desc itself."""
    target = draw(st.sampled_from([ST, desc]))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    exps = st.tuples(*[st.integers(0, 2)] * target.nvars)
    return {
        name: Polynomial(target, draw(st.dictionaries(exps, coeff, max_size=3)))
        for name in desc.variables
    }


def _image_or_error(sigma, mon):
    """sigma's image of the exponent tuple mon as a polynomial, or the
    error's type and text."""
    try:
        terms, denom = sigma(pack(mon))
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return _unpacked(sigma.target, terms).scale(Fraction(1, denom))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["sc-restriction", "sc-involution", "abc", "uxy"]),
       fault=st.sampled_from([None, None, "missing", "past-the-field"]), data=st.data())
def test_monomial_map_matches_polynomial_substitute(case, fault, data):
    # Every monomial of degree <= 8, in a random order, so that the memo is
    # filled along every chain.  `fault` drops one image, which must be named
    # as `substitute` names it, or multiplies one by a power of the target's
    # first variable, so that some images may not fit a packed field: those
    # are refused, naming the exponent tuple, and every other image is exact.
    if case.startswith("sc"):
        desc = fixtures.sc_descriptor()
        images = fixtures.sc_restriction() if case == "sc-restriction" else fixtures.sc_involution()
    else:
        desc = ABC if case == "abc" else UXY
        images = data.draw(rational_images(desc))
    name = data.draw(st.sampled_from(desc.variables))
    if fault == "missing":
        del images[name]
    elif fault == "past-the-field":
        target = images[name].descriptor
        power = (data.draw(st.integers(40, 120)),) + (0,) * (target.nvars - 1)
        images[name] = images[name] * Polynomial(target, {power: Fraction(1)})
    tops = [max((max(e) for e in images[v].terms), default=0) if v in images else 0
            for v in desc.variables]
    mons = [mon for m in range(9) for mon in enumerate_monomials(desc, m)]
    data.draw(st.randoms()).shuffle(mons)
    sigma = _MonomialMap(images, desc)
    for mon in mons:
        if sum(map(mul, mon, tops)) > 255:
            expected = ValueError, f"the image of {mon} may not fit 8-bit packed fields"
        else:
            try:
                expected = Polynomial(desc, {mon: Fraction(1)}).substitute(images)
            except KeyError as exc:
                expected = KeyError, str(exc)
        assert _image_or_error(sigma, mon) == expected, mon


def test_closure_checks_refuse_a_degree_past_the_packed_fields(builder):
    with pytest.raises(ValueError, match="packed"):
        builder.closure_spot_checks(256)
