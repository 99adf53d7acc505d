"""Polynomial arithmetic, grading, enumeration, substitution, parsing."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux import (
    ParseError,
    Polynomial,
    RingDescriptor,
    degree_and_weight,
    enumerate_monomials,
    parse_polynomial,
    parse_ring_file,
    render_polynomial,
    zeta,
)
from godeaux.scenarios import fixtures

ABC = RingDescriptor(("a", "b", "c"), (1, 1, 1), (0, 0, 0))


@pytest.fixture(scope="module")
def z3desc():
    return fixtures.z3_descriptor()


def poly(src, desc=ABC):
    return parse_polynomial(src, desc)


class TestArithmetic:
    def test_add_cancellation(self, z3desc):
        p = poly("y0*y2 - y1^2 + x2^4", z3desc)
        q = poly("y1^2 - y0*y2", z3desc)
        assert p + q == poly("x2^4", z3desc)

    def test_product_of_conjugates(self):
        assert poly("a + b") * poly("a - b") == poly("a^2 - b^2")

    def test_product_grading(self, z3desc):
        p = z3desc.variable("x2") * z3desc.variable("z1")
        assert degree_and_weight(p) == (4, 0)

    def test_descriptor_mismatch(self, z3desc):
        with pytest.raises(ValueError, match="descriptor mismatch"):
            poly("a") * z3desc.variable("x2")


class TestGrading:
    def test_relation_degrees(self, z3desc):
        assert degree_and_weight(poly("y1*z2 - y2*z1 + x2^3*y0", z3desc)) == (5, 0)
        h0 = next(p for n, _, _, p in fixtures.z3_relations() if n == "h0")
        assert degree_and_weight(h0) == (6, 0)

    def test_inhomogeneous_and_zero(self, z3desc):
        assert degree_and_weight(poly("x2 + y0", z3desc)) == "inhomogeneous"
        assert degree_and_weight(z3desc.zero()) == "zero"


class TestSubstitution:
    def test_kill_variable(self):
        imgs = {"a": ABC.variable("a"), "b": ABC.zero(), "c": ABC.variable("c")}
        assert poly("a*b").substitute(imgs) == ABC.zero()

    def test_diagonal_action_on_linear_form(self):
        desc = fixtures.z5_descriptor()
        z = zeta(5)
        imgs = {
            name: desc.variable(name).scale(z ** (i + 1))
            for i, name in enumerate(desc.variables)
        }
        l0 = parse_polynomial("x1 + x2 + x3 + x4", desc)
        l1 = parse_polynomial("z5*x1 + z5^2*x2 + z5^3*x3 + z5^4*x4", desc)
        assert l0.substitute(imgs) == l1

    def test_involution_image(self):
        # Direct expansion: 3(-(a+c)/2)^2 + ((c-3a)/2)^2 = 3a^2 + c^2,
        # matching the (a, 0, c) restriction of the same polynomial.
        imgs = fixtures.sc_involution()
        p = poly("3*a^2 + 3*b^2 + c^2")
        assert p.substitute(imgs) == poly("3*a^2 + c^2")
        rest = fixtures.sc_restriction()
        assert p.substitute(rest) == poly("3*a^2 + c^2")

    def test_missing_image(self):
        with pytest.raises(KeyError, match="missing image"):
            poly("a*b").substitute({"a": ABC.variable("a")})

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_ring_homomorphism(self, data):
        coeff = st.integers(min_value=-5, max_value=5)
        mons = enumerate_monomials(ABC, 2)

        def rand_poly():
            return Polynomial(
                ABC, {m: Fraction(data.draw(coeff)) for m in mons}
            )

        p, q = rand_poly(), rand_poly()
        imgs = {
            "a": poly("a + 2*c"),
            "b": poly("b - a"),
            "c": poly("3*c"),
        }
        assert (p * q).substitute(imgs) == p.substitute(imgs) * q.substitute(imgs)
        assert (p + q).substitute(imgs) == p.substitute(imgs) + q.substitute(imgs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cached_powers_match_plain_powers(self, data):
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
        mons = st.tuples(*(st.integers(min_value=0, max_value=5) for _ in range(3)))
        p = Polynomial(ABC, data.draw(st.dictionaries(mons, coeff, max_size=6)))
        imgs = {
            name: Polynomial(ABC, data.draw(st.dictionaries(mons, coeff, max_size=3)))
            for name in ABC.variables
        }
        plain = ABC.zero()
        for exps, c in p.terms.items():
            term = ABC.constant(c)
            for name, k in zip(ABC.variables, exps):
                term = term * imgs[name] ** k
            plain = plain + term
        assert p.substitute(imgs) == plain


class TestEnumeration:
    def test_z3_pieces(self):
        from godeaux.scenarios.torsion3 import numeric_descriptor

        desc = numeric_descriptor()

        def names(mons):
            return {render_polynomial(Polynomial(desc, {m: 1})) for m in mons}

        assert names(enumerate_monomials(desc, 2, 1)) == {"x2^2", "y1"}
        assert names(enumerate_monomials(desc, 3, 1)) == {"x2*y2", "z1"}

    def test_count_degree_five(self):
        desc = RingDescriptor(("x1", "x2", "x3", "x4"), (1,) * 4, (0,) * 4)
        assert len(enumerate_monomials(desc, 5)) == comb(8, 3)

    def test_partition_into_weights(self, z3desc):
        for m in range(7):
            whole = enumerate_monomials(z3desc, m)
            by_weight = [enumerate_monomials(z3desc, m, w) for w in range(3)]
            assert sorted(whole) == sorted(sum(by_weight, []))

    def test_brute_force_agreement(self, z3desc):
        # Independent enumeration: raw product scan over exponent boxes.
        m = 5
        degs, wts = z3desc.degrees, z3desc.weights
        boxes = [range(1 + (m // d if d else 1)) for d in degs]
        expected = {
            e
            for e in product(*boxes)
            if sum(x * d for x, d in zip(e, degs)) == m
        }
        assert set(enumerate_monomials(z3desc, m)) == expected

    def test_param_cap(self, z3desc):
        capped = enumerate_monomials(z3desc, 0, param_cap=2)
        # alpha, beta, gamma each up to exponent 2: 27 parameter monomials.
        assert len(capped) == 27


class TestParsing:
    def test_quartic_factor(self):
        f = poly("a^2-6*a*b+b^2-c^2")
        assert f == fixtures.sc_conic()

    def test_generator_literal(self):
        g = poly("12*b^3-a^2*c+6*a*b*c-b^2*c+8*a*c^2-4*b*c^2+c^3")
        assert g in fixtures.sc_claimed_generators()

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty input"):
            poly("")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'd'"):
            poly("a + d")

    def test_error_position(self):
        with pytest.raises(ParseError, match="position"):
            poly("a + + b")

    def test_roundtrip_on_fixtures(self, z3desc):
        all_polys = [p for _, _, _, p in fixtures.z3_relations()]
        all_polys += fixtures.sc_claimed_generators()
        all_polys += fixtures.z5_planes()
        all_polys.append(fixtures.sc_conic())
        for p in all_polys:
            assert parse_polynomial(render_polynomial(p), p.descriptor) == p

    def test_roundtrip_zero(self):
        assert parse_polynomial(render_polynomial(ABC.zero()), ABC) == ABC.zero()


class TestRingFiles:
    def test_roundtrip_descriptor(self):
        text = """
        field Q(z4)
        torsion_order 4
        x1 1 1
        y3 2 3
        rel x1*y3
        """
        desc, rels = parse_ring_file(text)
        assert desc.scalar_order == 4
        assert desc.torsion_order == 4
        assert desc.variables == ("x1", "y3")
        assert len(rels) == 1 and degree_and_weight(rels[0]) == (3, 0)

    def test_bad_line(self):
        with pytest.raises(ValueError, match="unrecognised line"):
            parse_ring_file("field Q\nnonsense here beyond three tokens maybe\n")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_homogeneity_multiplicative(data):
    desc = fixtures.z3_descriptor()
    m1 = data.draw(st.integers(min_value=1, max_value=4))
    m2 = data.draw(st.integers(min_value=1, max_value=4))
    mons1 = enumerate_monomials(desc, m1, param_cap=0)
    mons2 = enumerate_monomials(desc, m2, param_cap=0)
    e1 = data.draw(st.sampled_from(mons1))
    e2 = data.draw(st.sampled_from(mons2))
    p = Polynomial(desc, {e1: Fraction(3)})
    q = Polynomial(desc, {e2: Fraction(-2)})
    d1, w1 = degree_and_weight(p)
    d2, w2 = degree_and_weight(q)
    assert degree_and_weight(p * q) == (d1 + d2, (w1 + w2) % 3)
