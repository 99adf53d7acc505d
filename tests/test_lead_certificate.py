"""The lead certificate: z3 tables past degree 9 counted from the leading
monomials of the relations, certified once over Q[alpha, beta, gamma] by
Buchberger's criterion, and checked against the pieces, against sympy's
Groebner basis, and against counts patched or relations perturbed."""

from fractions import Fraction
from itertools import product
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux import GradedPresentation, Polynomial, enumerate_monomials, parse_polynomial
from godeaux import graded
from godeaux.graded import LeadCertificate
from godeaux.poly import grevlex_key, weighted_revlex_key
from godeaux.scenarios import fixtures, torsion3
from godeaux.scenarios.torsion3 import LEAD_RANKING, numeric_presentation, numeric_samples, run_z3

# The four samples of `verify --scenario z3 --alpha=3/2 --beta=-7 --gamma=5/3 --seed 5`.
SAMPLES = numeric_samples((Fraction(3, 2), Fraction(-7), Fraction(5, 3)), 5)
# y0^2, y0y1, y1^2, y1z2, y0z1, y0z2, z1z2, z2^2, z1^2, as in ROADMAP.
NINE_LEADS = {"y0^2", "y0*y1", "y1^2", "y1*z2", "y0*z1", "y0*z2", "z1*z2", "z2^2", "z1^2"}
# A ranking under which the certificate closes at degree 9 with x2 in a lead.
X2_IN_A_LEAD = ("z1", "z2", "y0", "x2", "y1", "y2")


def lead_names(cert):
    desc = cert.pres.descriptor
    return {str(Polynomial(desc, {lead: Fraction(1)})) for lead in cert.leads}


def numeric_report(max_degree=12):
    report = run_z3(params=SAMPLES[0], mode="numeric", max_degree=max_degree, seed=5).to_dict()
    report.pop("timing_ms")
    return report


def spy_pieces(monkeypatch):
    """The (degree, weight) of every `_IdealPiece` built from now on."""
    built = []
    init = graded._IdealPiece.__init__

    def spy(self, pres, m, w):
        built.append((m, w))
        init(self, pres, m, w)

    monkeypatch.setattr(graded._IdealPiece, "__init__", spy)
    return built


def assert_counts_match_pieces(pres, top=14):
    cert = LeadCertificate(pres, LEAD_RANKING)
    assert cert.degree == 9
    assert lead_names(cert) == NINE_LEADS
    assert cert.closes()
    counts = cert.standard_counts(top)
    assert counts == {(m, w): pres.quotient_dim(m, w) for m in range(top + 1) for w in range(3)}


@pytest.mark.parametrize("sample", SAMPLES, ids=str)
def test_counts_equal_the_pieces_at_the_z3_samples(sample):
    assert_counts_match_pieces(numeric_presentation(sample))


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.fractions(min_value=-30, max_value=30, max_denominator=9)] * 3))
def test_counts_equal_the_pieces_at_rational_parameters(params):
    assert_counts_match_pieces(numeric_presentation(params))


def test_counts_are_the_monomials_no_lead_divides():
    cert = LeadCertificate(numeric_presentation(SAMPLES[0]), LEAD_RANKING)
    desc = cert.pres.descriptor
    counts = cert.standard_counts(16)
    for m in range(17):
        for w in range(3):
            standard = [
                e for e in enumerate_monomials(desc, m, w)
                if not any(all(map(le, lead, e)) for lead in cert.leads)
            ]
            assert counts[m, w] == len(standard)


def test_h0_has_a_lead_that_is_not_minimal():
    pres = numeric_presentation(SAMPLES[0])
    cert = LeadCertificate(pres, LEAD_RANKING)
    assert len(pres.relations) == 10 and len(cert.leads) == 9
    assert cert.divides_no_lead("x2") and cert.divides_no_lead("y2")


def test_parameters_as_variables_are_refused():
    with pytest.raises(ValueError, match="positive degree"):
        LeadCertificate(torsion3.z3_presentation(), LEAD_RANKING + torsion3.PARAMETERS)


def test_a_ranking_missing_a_variable_is_refused():
    with pytest.raises(ValueError, match="does not list"):
        LeadCertificate(numeric_presentation(SAMPLES[0]), LEAD_RANKING[:-1])


def test_a_constant_relation_leaves_no_standard_monomial():
    desc = numeric_presentation(SAMPLES[0]).descriptor
    pres = GradedPresentation(desc, [desc.one()])
    cert = LeadCertificate(pres, LEAD_RANKING)
    assert cert.degree == 0 and cert.closes()
    assert set(cert.standard_counts(5).values()) == {0}


@pytest.mark.parametrize(
    "pres", [torsion3.z3_presentation(), numeric_presentation(SAMPLES[0])],
    ids=["symbolic", "numeric"],
)
def test_closes_twice_with_the_rows_unchanged(pres):
    # closes() reduces term dicts of its own, never the presentation's rows.
    rows = [(list(exps), list(coeffs), scale) for exps, coeffs, scale in pres._rows]
    cert = LeadCertificate(pres, LEAD_RANKING)
    assert cert.closes() and cert.closes()
    assert pres._rows == rows


def test_the_deep_table_builds_no_piece_past_the_certificate(monkeypatch):
    built = spy_pieces(monkeypatch)
    report = run_z3(mode="numeric", max_degree=16)
    assert report.passed()
    # The family's certificate builds no piece; the count check and the
    # claimed bases read the pieces up to the top relation degree.
    assert max(m for m, _ in built) == 6


def test_a_patched_count_refuses_and_the_pieces_take_over(monkeypatch):
    good = numeric_report()
    counts = graded.StandardMonomials.counts

    def off_by_one(self, m):
        out = counts(self, m)
        if m == 5:
            out[1] += 1
        return out

    monkeypatch.setattr(graded.StandardMonomials, "counts", off_by_one)
    built = spy_pieces(monkeypatch)
    assert numeric_report() == good
    # Tables to 12 and injectivity into degree 13 come from the pieces.
    assert max(m for m, _ in built) == 13


@pytest.mark.parametrize("ri", range(10), ids=lambda ri: torsion3.RELATIONS[ri])
def test_a_perturbed_relation_gives_the_table_of_the_pieces(ri):
    pres = numeric_presentation(SAMPLES[1])
    relations = list(pres.relations)
    terms = dict(relations[ri].terms)
    terms[min(terms, key=grevlex_key)] += 1
    relations[ri] = Polynomial(pres.descriptor, terms)
    claimed = fixtures.z3_claimed_bases()
    table, bases, injective = torsion3._numeric_values(
        GradedPresentation(pres.descriptor, relations), 12, claimed
    )
    alone = GradedPresentation(pres.descriptor, relations)
    assert table == {f"{m}.{w}": alone.quotient_dim(m, w) for m in range(1, 13) for w in range(3)}
    assert bases == torsion3._claimed_bases_hold(alone, claimed)
    assert injective == alone.multiplication_injectivity("x2", 12)


def test_x2_in_a_lead_sends_injectivity_to_the_pieces(monkeypatch):
    good = numeric_report()
    cert = LeadCertificate(numeric_presentation(SAMPLES[0]), X2_IN_A_LEAD)
    assert cert.degree == 9 and cert.closes() and not cert.divides_no_lead("x2")
    calls = []
    injectivity = GradedPresentation.multiplication_injectivity

    def spy(self, var, max_degree):
        calls.append((var, max_degree))
        return injectivity(self, var, max_degree)

    monkeypatch.setattr(torsion3, "LEAD_RANKING", X2_IN_A_LEAD)
    monkeypatch.setattr(GradedPresentation, "multiplication_injectivity", spy)
    assert numeric_report() == good
    assert calls == [("x2", 12)] * len(SAMPLES)


def weighted_revlex(desc):
    """sympy's form of `weighted_revlex_key` on exponents in LEAD_RANKING order."""
    from sympy.polys.orderings import MonomialOrder

    degrees = [desc.degrees[desc.index(v)] for v in LEAD_RANKING]

    class WeightedRevlex(MonomialOrder):
        """Weighted degree, then reverse lex, on exponents in ranking order."""

        alias = "weighted_revlex"
        is_global = True

        def __call__(self, monomial):
            degree = sum(d * e for d, e in zip(degrees, monomial))
            return (degree, tuple(-e for e in reversed(monomial)))

        def __eq__(self, other):
            return isinstance(other, WeightedRevlex)

        def __hash__(self):
            return hash(self.alias)

    return WeightedRevlex()


def sympy_basis(sympy, pres, domain=None):
    """sympy's reduced Groebner basis of pres's relations in the weighted
    order, with the parameters as coefficients, and the order."""
    desc = pres.descriptor
    gens = sympy.symbols(LEAD_RANKING)
    names = {v: sympy.Symbol(v) for v in desc.variables}
    relations = [sympy.sympify(str(r), locals=names) for r in pres.relations]
    order = weighted_revlex(desc)
    options = {} if domain is None else {"domain": domain}
    return sympy.groebner(relations, *gens, order=order, **options), gens, order


def sympy_lead_names(sympy, basis, gens, order, desc):
    return {
        "*".join(
            f"{v}^{e}" if e > 1 else v
            for v, e in sorted(zip(LEAD_RANKING, sympy.Poly(g, *gens).monoms(order=order)[0]),
                               key=lambda ve: desc.index(ve[0]))
            if e
        )
        for g in basis.exprs
    }


@pytest.mark.parametrize("params", [(0, 0, 0), (1, 1, 1)], ids=str)
def test_sympy_groebner_has_the_nine_leads(params):
    sympy = pytest.importorskip("sympy")
    pres = numeric_presentation(tuple(Fraction(x) for x in params))
    basis, gens, order = sympy_basis(sympy, pres)
    assert sympy_lead_names(sympy, basis, gens, order, pres.descriptor) == NINE_LEADS


def test_sympy_groebner_over_the_parameters_has_the_nine_monic_leads():
    """Over Q(alpha, beta, gamma) the reduced basis has the certificate's
    leads, and no coefficient has a denominator: it lies in
    Q[alpha, beta, gamma][x], as the certificate's monic reductions do."""
    sympy = pytest.importorskip("sympy")
    pres = torsion3.z3_presentation()
    field = sympy.QQ.frac_field(*sympy.symbols(torsion3.PARAMETERS))
    basis, gens, order = sympy_basis(sympy, pres, field)
    assert sympy_lead_names(sympy, basis, gens, order, pres.descriptor) == NINE_LEADS
    for g in basis.polys:
        assert g.LC(order=order) == 1
        assert all(sympy.denom(sympy.together(c)) == 1 for c in g.coeffs())
    cert = LeadCertificate(pres, LEAD_RANKING)
    assert cert.closes() and lead_names(cert) == NINE_LEADS


def test_the_symbolic_certificate_closes_with_nine_leads_and_18_pairs():
    cert = LeadCertificate(torsion3.z3_presentation(), LEAD_RANKING)
    assert cert.closes()
    assert lead_names(cert) == NINE_LEADS
    assert len(cert.pairs) == 18 and cert.degree == 9
    assert cert.divides_no_lead("x2") and cert.divides_no_lead("y2")
    # The parameters are coefficients: the counts are those of a sample.
    sample = LeadCertificate(numeric_presentation(SAMPLES[0]), LEAD_RANKING)
    assert cert.standard_counts(14) == sample.standard_counts(14)


def with_relation(pres, ri, terms):
    relations = list(pres.relations)
    relations[ri] = Polynomial(pres.descriptor, terms)
    return GradedPresentation(pres.descriptor, relations)


def test_a_parametric_lead_coefficient_refuses_and_the_pieces_agree(monkeypatch):
    good = numeric_report()
    # f0 with lead coefficient 1 + alpha: not a unit of Q[alpha, beta, gamma].
    edited = fixtures.z3_relations()
    name, deg, wt, f0 = edited[0]
    alpha_y0_sq = parse_polynomial("alpha*y0^2", f0.descriptor)
    edited[0] = (name, deg, wt, f0 + alpha_y0_sq)
    monkeypatch.setattr(fixtures, "z3_relations", lambda: list(edited))
    pres = torsion3.z3_presentation()
    cert = LeadCertificate(pres, LEAD_RANKING)
    assert lead_names(cert) == NINE_LEADS and not cert.closes()
    assert torsion3.family_certificate() is None
    built = spy_pieces(monkeypatch)
    assert numeric_report() != good
    # No sample tries a certificate of its own: tables to 12 and
    # injectivity into degree 13 come from the pieces.
    assert max(m for m, _ in built) == 13


def mutants(pres):
    """Each relation with one coefficient raised or lowered by 1, in turn."""
    for ri, r in enumerate(pres.relations):
        for exps, delta in product(r.terms, (1, -1)):
            terms = dict(r.terms)
            terms[exps] += delta
            yield ri, exps, delta, with_relation(pres, ri, terms)


def test_a_perturbed_family_closes_only_with_the_counts_of_its_pieces():
    """No single-coefficient mutant of the symbolic relations may close
    unless its counts are the tables of the specialised pieces; the family
    itself comes first, so the comparison runs at least once."""
    family = torsion3.z3_presentation()
    cases = [(None, None, 0, family), *mutants(family)]
    closed = 0
    for ri, exps, delta, pres in cases:
        cert = LeadCertificate(pres, LEAD_RANKING)
        if not cert.closes():
            continue
        closed += 1
        counts = cert.standard_counts(12)
        for sample in (SAMPLES[0], SAMPLES[3]):
            special = GradedPresentation(
                torsion3.numeric_descriptor(),
                [torsion3.specialise(r, sample) for r in pres.relations],
            )
            pieces = {(m, w): special.quotient_dim(m, w) for m in range(13) for w in range(3)}
            assert counts == pieces, (ri, exps, delta, sample)
    assert closed >= 1



def test_every_mutant_of_a_sample_gets_the_table_of_its_own_pieces():
    """One coefficient of one relation of the samples (0,0,0) and (1,1,1)
    raised or lowered by 1: 134 presentations, none a specialisation of the
    family.  Passed with the family and the sample, each must get the table
    of its own pieces, and no certificate; the sample itself gets the
    family's counts."""
    family = torsion3.family_certificate()
    swept = 0
    for sample in ((Fraction(0),) * 3, (Fraction(1),) * 3):
        pres = numeric_presentation(sample)
        assert torsion3.hilbert_table(pres, 12, family, sample)[1] is family
        for ri, exps, delta, mutant in mutants(pres):
            table, cert = torsion3.hilbert_table(mutant, 12, family, sample)
            assert cert is None, (sample, ri, exps, delta)
            assert table == mutant.hilbert(12), (sample, ri, exps, delta)
            swept += 1
    assert swept == 134

@settings(max_examples=30, deadline=None)
@given(st.data())
def test_closing_agrees_with_the_pieces_up_to_the_certificate_degree(data):
    """On a sample's relations with one coefficient perturbed, or with a
    multiple of another relation below its lead added (the same ideal and
    leads), Buchberger's criterion closes iff the pieces of degree <= D have
    the standard counts: the criterion the pieces applied before."""
    pres = numeric_presentation(data.draw(st.sampled_from(SAMPLES)))
    key = weighted_revlex_key(pres.descriptor, LEAD_RANKING)
    ri = data.draw(st.integers(0, 9))
    terms = dict(pres.relations[ri].terms)
    if data.draw(st.booleans()):
        terms[data.draw(st.sampled_from(sorted(terms)))] += data.draw(st.sampled_from((1, -1, 2)))
    else:
        lead = max(terms, key=key)
        rj = data.draw(st.sampled_from(
            [j for j, (d, _) in enumerate(pres.relation_bidegrees) if d < pres.relation_bidegrees[ri][0]]
            or [ri]))
        other = pres.relations[rj]
        d, w = (a - b for a, b in zip(pres.relation_bidegrees[ri], pres.relation_bidegrees[rj]))
        mults = [t for t in enumerate_monomials(pres.descriptor, d, w % 3)
                 if key(tuple(a + b for a, b in zip(t, max(other.terms, key=key)))) < key(lead)]
        if rj != ri and mults:
            t = data.draw(st.sampled_from(mults))
            c = Fraction(data.draw(st.integers(-3, 3)))
            shifted = Polynomial(pres.descriptor, {t: c}) * other
            for e, v in shifted.terms.items():
                terms[e] = terms.get(e, 0) + v
    try:
        mutant = with_relation(pres, ri, terms)
    except ValueError:  # the relation became zero
        return
    cert = LeadCertificate(mutant, LEAD_RANKING)
    counts = cert.standard_counts(cert.degree)
    by_pieces = all(mutant.quotient_dim(m, w) == n for (m, w), n in counts.items())
    assert cert.closes() == by_pieces


@pytest.mark.slow
def test_z3_numeric_to_degree_28_builds_no_piece_past_degree_6(monkeypatch, capsys):
    from godeaux.cli import main

    built = spy_pieces(monkeypatch)
    code = main(["verify", "--scenario", "z3", "--mode", "numeric", "--max-degree", "28"])
    assert code == 0
    assert "0 failed" in capsys.readouterr().out
    assert built and max(m for m, _ in built) == 6


def test_weighted_revlex_key_orders_the_z3_quadrics():
    desc = numeric_presentation(SAMPLES[0]).descriptor
    key = weighted_revlex_key(desc, LEAD_RANKING)
    f0 = parse_polynomial("x2*z1 + y0^2 - y1*y2", desc)
    assert sorted(f0.terms, key=key, reverse=True) == [
        next(iter(parse_polynomial(t, desc).terms)) for t in ("y0^2", "y1*y2", "x2*z1")
    ]
