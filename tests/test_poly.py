"""Polynomial arithmetic, grading, enumeration, substitution, parsing."""

import re
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
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
from godeaux.poly import (
    FIELD_BITS, _packed_product, _product, grevlex_key, monomial_columns, pack, unpack,
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

    def test_torsion_order_one_reads_no_weight(self, monkeypatch):
        # Every weight is 0 at torsion order 1 (ABC), so none is computed.
        def no_weight(self, exps):
            raise AssertionError("weight read at torsion order 1")

        monkeypatch.setattr(RingDescriptor, "monomial_weight", no_weight)
        assert degree_and_weight(poly("a^2*b - 3*c^3")) == (3, 0)
        assert degree_and_weight(poly("a^2 + c")) == "inhomogeneous"


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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_terms_and_their_order_match_the_quadratic_formula(self, data):
        # Coefficients +-1 (and +-zeta over Q(z3)) on few monomials make
        # cancelling terms common, both within a term and across terms.
        desc = data.draw(st.sampled_from([ABC, ABC_Z3]))
        coeffs = [Fraction(1), Fraction(-1)]
        if desc.scalar_order == 3:
            coeffs += [zeta(3), -zeta(3)]
        coeff = st.sampled_from(coeffs)
        mons = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3)))
        p = Polynomial(desc, data.draw(st.dictionaries(mons, coeff, max_size=8)))
        small = st.tuples(*(st.integers(min_value=0, max_value=1) for _ in range(3)))
        imgs = {
            name: Polynomial(desc, data.draw(st.dictionaries(small, coeff, max_size=3)))
            for name in desc.variables
        }
        expected = quadratic_substitute(p, imgs)
        got = p.substitute(imgs)
        assert list(got.terms.items()) == list(expected.terms.items())
        assert got.descriptor is desc

    def test_cancelling_terms_leave_no_entry(self):
        imgs = {"a": poly("c"), "b": poly("c"), "c": poly("a - b")}
        p = poly("a^2 - 2*a*b + b^2 + c + a - b")
        got = p.substitute(imgs)
        assert got == poly("a - b") and list(got.terms.items()) == list(
            quadratic_substitute(p, imgs).terms.items()
        )


ABC_Z3 = RingDescriptor(("a", "b", "c"), (1, 1, 1), (0, 0, 0), scalar_order=3)


def quadratic_substitute(p, images):
    """Substitution as first written: each term a chain of Polynomial
    products, added to a growing result that is copied once per term."""
    target = next(iter(images.values())).descriptor
    names = p.descriptor.variables
    result = Polynomial(target, {})
    power_cache = {}

    def power(name, k):
        if (name, k) not in power_cache:
            power_cache[name, k] = (
                images[name] if k == 1 else power(name, k - 1) * images[name]
            )
        return power_cache[name, k]

    for exps, c in p.terms.items():
        term = target.constant(c)
        for name, k in zip(names, exps):
            if k:
                term = term * power(name, k)
        result = result + term
    return result


def per_weight_monomials(desc, m, w):
    """Monomials of degree m and weight w by one recursion per call, filtered
    by weight and then sorted: the enumeration as first written."""
    out = []
    exps = [0] * desc.nvars

    def rec(i, remaining):
        if i == desc.nvars:
            if remaining == 0:
                out.append(tuple(exps))
            return
        d = desc.degrees[i]
        for k in range((1 if d == 0 else remaining // d) + 1):
            exps[i] = k
            rec(i + 1, remaining - k * d)
        exps[i] = 0

    rec(0, m)
    if w != "all":
        out = [e for e in out if desc.monomial_weight(e) == w % desc.torsion_order]
    return sorted(out, key=grevlex_key)


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
        capped = enumerate_monomials(z3desc, 0)
        # alpha, beta, gamma each up to exponent 1: 8 parameter monomials.
        assert len(capped) == 8

    @pytest.mark.parametrize("w", ["all", 0, 1, 2])
    def test_mutating_a_result_leaves_later_results_intact(self, z3desc, w):
        expected = list(enumerate_monomials(z3desc, 4, w))
        first = enumerate_monomials(z3desc, 4, w)
        first.append((9,) * z3desc.nvars)
        first.pop(0)
        first.sort(reverse=True)
        second = enumerate_monomials(z3desc, 4, w)
        assert second == expected and second is not first
        second.clear()
        assert enumerate_monomials(z3desc, 4, w) == expected

    def test_equal_descriptors_and_weights_give_equal_lists(self, z3desc):
        again = RingDescriptor(
            tuple(z3desc.variables), tuple(z3desc.degrees),
            tuple(w + 3 for w in z3desc.weights), torsion_order=3,
            scalar_order=z3desc.scalar_order,
        )
        assert again == z3desc and again is not z3desc
        for m in range(6):
            assert enumerate_monomials(again, m) == enumerate_monomials(z3desc, m)
            for w in range(3):
                expected = enumerate_monomials(z3desc, m, w)
                assert enumerate_monomials(again, m, w) == expected
                assert enumerate_monomials(z3desc, m, w + 3) == expected
                assert enumerate_monomials(z3desc, m, w - 3) == expected

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_weight_lists_match_the_per_weight_recursion(self, data):
        # Degree-0 variables included; equal weights on a fresh descriptor
        # object exercise entries shared through the cache.
        n = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(1, 4))
        desc = RingDescriptor(
            tuple("abcd"[:n]),
            tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))),
            tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))),
            torsion_order=d,
        )
        m = data.draw(st.integers(0, 7))
        for w in data.draw(st.permutations(range(d))):
            assert enumerate_monomials(desc, m, w) == per_weight_monomials(desc, m, w)
        assert enumerate_monomials(desc, m) == per_weight_monomials(desc, m, "all")

    @settings(max_examples=100, deadline=None)
    @given(
        degrees=st.lists(st.integers(0, 3), min_size=1, max_size=4),
        d=st.integers(1, 3),
        m=st.integers(0, 7),
        data=st.data(),
    )
    @example(degrees=[1, 2, 0], d=2, m=0, data=None)
    @example(degrees=[1, 2, 0], d=2, m=5, data=None)
    @example(degrees=[0], d=1, m=0, data=None)
    def test_product_brute_force_agreement(self, degrees, d, m, data):
        # The last variable's exponent is solved for; a degree-0 one is 0 or 1.
        n = len(degrees)
        weights = [1] * n if data is None else data.draw(
            st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
        )
        desc = RingDescriptor(tuple("abcd"[:n]), tuple(degrees), tuple(weights), torsion_order=d)
        boxes = [range(1 + (m // g if g else 1)) for g in degrees]
        expected = sorted(
            (e for e in product(*boxes) if sum(x * g for x, g in zip(e, degrees)) == m),
            key=grevlex_key,
        )
        assert enumerate_monomials(desc, m) == expected
        for w in range(d):
            assert enumerate_monomials(desc, m, w) == [
                e for e in expected if desc.monomial_weight(e) == w
            ]

    def test_list_fields_give_a_hashable_descriptor(self):
        desc = RingDescriptor(["a", "b"], [1, 2], [0, 1], torsion_order=2)
        assert desc == RingDescriptor(("a", "b"), (1, 2), (0, 1), torsion_order=2)
        assert enumerate_monomials(desc, 2, 0) == [(2, 0)]


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


@st.composite
def expression_texts(draw, depth=3):
    """Texts of the grammar over a, b, c: integers, p/q, ^k with k <= 4, `*`,
    unary and binary `+`/`-`, and parentheses nested up to `depth`."""

    def factor():
        kinds = ["int", "frac", "var", "var"] + ["paren"] * bool(depth)
        kind = draw(st.sampled_from(kinds))
        if kind == "int":
            text = str(draw(st.integers(0, 12)))
        elif kind == "frac":
            text = f"{draw(st.integers(0, 12))}/{draw(st.integers(1, 9))}"
        elif kind == "var":
            text = draw(st.sampled_from("abc"))
        else:
            text = f"({draw(expression_texts(depth - 1))})"
        k = draw(st.none() | st.integers(0, 4))
        if k is None:
            return text
        # sympy reads p/q^k as p/(q^k); the grammar reads it as (p/q)^k.
        return f"({text})^{k}" if kind == "frac" else f"{text}^{k}"

    def term():
        return "*".join(factor() for _ in range(draw(st.integers(1, 2))))

    text = draw(st.sampled_from(["", "+", "-"])) + term()
    for _ in range(draw(st.integers(0, 2))):
        text += draw(st.sampled_from([" + ", " - "])) + term()
    return text


@settings(max_examples=200, deadline=None)
@given(text=expression_texts())
@example(text="-2/3*(a - a)^0 + (-b)^3")
def test_parse_matches_sympy(text):
    sympy = pytest.importorskip("sympy")
    a, b, c = sympy.symbols("a b c")
    expected = {
        exps: Fraction(int(coeff.p), int(coeff.q))
        for exps, coeff in sympy.Poly(sympy.sympify(text), a, b, c).terms()
        if coeff != 0
    }
    terms = poly(text).terms
    assert terms == expected
    assert all(type(coeff) is Fraction for coeff in terms.values())


def operator_form(text):
    """text as a Python expression over ABC's Polynomial operators: each
    literal a constant, `^k` as `**k`, a unary `+` dropped."""
    text = re.sub(r"(^|\()\s*\+", r"\1", text)
    return re.sub(
        r"\^(\d+)|(\d+)/(\d+)|(\d+)",
        lambda m: f"**{m[1]}" if m[1] else f"C({m[2] or m[4]}, {m[3] or 1})",
        text,
    )


@settings(max_examples=200, deadline=None)
@given(text=expression_texts())
@example(text="(a + 2*b)*(c - a)*(b + c) - (a - b)^3")
def test_parse_keeps_the_operators_term_order(text):
    names = {v: ABC.variable(v) for v in "abc"}
    expected = eval(operator_form(text), {"C": lambda p, q: ABC.constant(Fraction(p, q)), **names})
    assert list(poly(text).terms.items()) == list(expected.terms.items())


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

    def test_torsion_order_zero(self):
        with pytest.raises(ValueError, match="line 2: torsion_order must be at least 1"):
            parse_ring_file("field Q\ntorsion_order 0\nx 1 0\n")

    @pytest.mark.parametrize("weight", ["3", "-1", "7"])
    def test_weight_outside_the_torsion_order(self, weight):
        text = f"field Q\ntorsion_order 3\nx 1 2\ny 2 {weight}\nrel x^2\n"
        with pytest.raises(ValueError, match=rf"line 4: weight {weight} of y is outside 0\.\.2"):
            parse_ring_file(text)

    def test_headers_after_the_variables(self):
        desc, rels = parse_ring_file("x 1 2\ny 2 3\ntorsion_order 4\nfield Q(z4)\nrel x^2*y\n")
        assert (desc.torsion_order, desc.scalar_order, desc.weights) == (4, 4, (2, 3))
        assert degree_and_weight(rels[0]) == (4, 3)
        # The weights are checked against the order read last, not the default 1.
        with pytest.raises(ValueError, match="line 1: weight 2 of x is outside 0..1"):
            parse_ring_file("x 1 2\ntorsion_order 2\n")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_homogeneity_multiplicative(data):
    desc = fixtures.z3_descriptor()
    m1 = data.draw(st.integers(min_value=1, max_value=4))
    m2 = data.draw(st.integers(min_value=1, max_value=4))
    params = [i for i, d in enumerate(desc.degrees) if d == 0]

    def parameter_free(m):
        return [e for e in enumerate_monomials(desc, m) if not any(e[i] for i in params)]

    mons1 = parameter_free(m1)
    mons2 = parameter_free(m2)
    e1 = data.draw(st.sampled_from(mons1))
    e2 = data.draw(st.sampled_from(mons2))
    p = Polynomial(desc, {e1: Fraction(3)})
    q = Polynomial(desc, {e2: Fraction(-2)})
    d1, w1 = degree_and_weight(p)
    d2, w2 = degree_and_weight(q)
    assert degree_and_weight(p * q) == (d1 + d2, (w1 + w2) % 3)


# ---------------------------------------------------------------------------
# Packed monomials

# The sc ring, and the free ring on its thirteen generators.
SC_FREE = RingDescriptor(
    tuple(f"g{i + 1}" for i in range(13)), (2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5), (0,) * 13
)
PACKED_RINGS = [ABC, SC_FREE]


def int_term_dicts(nvars, top):
    """Integer term dicts with exponents 0..top and small coefficients, so
    that products cancel now and then."""
    exps = st.tuples(*[st.integers(0, top)] * nvars)
    return st.dictionaries(exps, st.integers(-3, 3).filter(bool), max_size=8)


def packed(terms):
    return {pack(e): c for e, c in terms.items()}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), desc=st.sampled_from(PACKED_RINGS))
def test_packed_product_is_the_tuple_product(data, desc):
    # Exponents below half the field, so that no product exponent leaves it.
    top = data.draw(st.sampled_from([1, 3, (1 << FIELD_BITS - 1) - 1]))
    t1 = data.draw(int_term_dicts(desc.nvars, top))
    t2 = data.draw(int_term_dicts(desc.nvars, top))
    got = _packed_product(packed(t1), packed(t2))
    # Same terms in the same key order.
    assert [(unpack(k, desc.nvars), c) for k, c in got.items()] == list(_product(t1, t2).items())


def test_packed_product_drops_cancelled_terms_in_place():
    # (a + b) * (a - b): a*b cancels and leaves the dict where it stood.
    t1, t2 = {(1, 0, 0): 1, (0, 1, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): -1}
    got = _packed_product(packed(t1), packed(t2))
    assert [(unpack(k, 3), c) for k, c in got.items()] == [((2, 0, 0), 1), ((0, 2, 0), -1)]
    assert list(_product(t1, t2).items()) == [((2, 0, 0), 1), ((0, 2, 0), -1)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pack_then_unpack_is_the_identity(data):
    nvars = data.draw(st.integers(0, 13))
    field = st.integers(0, (1 << FIELD_BITS) - 1)
    exps = data.draw(st.tuples(*[field] * nvars))
    assert unpack(pack(exps), nvars) == exps
    other = data.draw(st.tuples(*[field] * nvars))
    assert (pack(exps) == pack(other)) == (exps == other)
    total = tuple(x + y for x, y in zip(exps, other))
    if all(x < 1 << FIELD_BITS for x in total):
        assert pack(exps) + pack(other) == pack(total)


@pytest.mark.parametrize("desc", PACKED_RINGS, ids=["sc", "sc-free"])
def test_an_exponent_outside_its_field_is_refused(desc):
    top = (1 << FIELD_BITS) - 1
    for i in range(desc.nvars):
        exps = [0] * desc.nvars
        exps[i] = top
        assert unpack(pack(exps), desc.nvars) == tuple(exps)
        for bad in (top + 1, -1):
            exps[i] = bad
            # Never carried into the next field: (.., 256) is not (.., 1, 0).
            with pytest.raises(ValueError, match="do not fit"):
                pack(exps)



@pytest.mark.parametrize("desc", PACKED_RINGS, ids=["sc", "sc-free"])
def test_monomial_columns_index_the_enumeration_read_only(desc):
    for m in range(-1, 8):
        columns = monomial_columns(desc, m)
        assert [unpack(k, desc.nvars) for k in columns] == enumerate_monomials(desc, m)
        assert list(columns.values()) == list(range(len(columns)))
        with pytest.raises(TypeError):
            columns[0] = 0
