"""Membership predicates, generator selection, relation counting, verification."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux import (
    GradedPresentation,
    MembershipPredicate,
    Polynomial,
    RingDescriptor,
    WeightCondition,
    parse_polynomial,
    render_polynomial,
)
from godeaux.scenarios import fixtures, sc_predicate
from godeaux.scenarios.torsion5 import z5_quintic
from godeaux.subring import SubringBuilder, _int_product, _int_terms

ABC = RingDescriptor(("a", "b", "c"), (1, 1, 1), (0, 0, 0))


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

    def test_invariants_of_quintic_quotient(self):
        # Weight-0 predicate inside the quotient by the invariant quintic:
        # generator counts follow dim (S/(q))^G_m minus products.
        q = z5_quintic()
        pred = MembershipPredicate(
            q.descriptor,
            [WeightCondition(0)],
            modulus=GradedPresentation(q.descriptor, [q]),
        )
        gens = SubringBuilder(pred).minimal_generators(4)
        census: dict[int, int] = {}
        for _, d in gens:
            census[d] = census.get(d, 0) + 1
        assert census.get(1, 0) == 0
        assert census[2] == 2
        assert census[3] == 4

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


class TestClosure:
    def test_spot_checks_pass(self, builder):
        results = builder.closure_spot_checks(10, seed=123, trials=10)
        assert results and all(ok for _, _, ok in results)

    def test_seeded_reproducible(self, builder):
        a = builder.closure_spot_checks(10, seed=5, trials=6)
        b = builder.closure_spot_checks(10, seed=5, trials=6)
        assert a == b


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
    got = _int_product(_int_terms(f), _int_terms(g))
    assert all(type(c) is int for c in got.values())
    assert Polynomial(ABC, got) == expected
