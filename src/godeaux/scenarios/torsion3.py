"""Torsion Z/3: the ten-relation restricted ring, its syzygies and dimensions.

Symbolic checks treat the parameters alpha, beta, gamma as degree-0 variables
and must hold identically; numeric checks specialise them to rational samples
before any rank computation.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from ..graded import GradedPresentation, LeadCertificate
from ..poly import (
    Polynomial,
    RingDescriptor,
    _accumulate,
    degree_and_weight,
    parse_polynomial,
)
from ..report import Check, VerificationReport
from . import fixtures
from .oracles import oracle_curve_dim

PARAMETERS = ("alpha", "beta", "gamma")

# The ten relations of the table, in fixture order; the check ids name them.
RELATIONS = ("f0", "f1", "f2", "g0", "g1", "g2", "h0", "H0", "H1", "H2")
# Degrees of the tabulated quotient bases (all three weights each).
BASIS_DEGREES = range(1, 7)
# The variables largest first for the lead certificate: in this weighted
# reverse-lex order the relations other than h0 are a Groebner basis at every
# parameter value, closing at degree 9, and x2 lies in no lead.
LEAD_RANKING = ("z1", "z2", "y0", "y1", "y2", "x2")

SYZYGIES = (
    "x2*g0 - y0*f2 - y1*f1 + y2*f0",
    "x2*g1 - y0*f0 + y2*f1 + h0",
    "x2*g2 - y0*f1 + y1*f0 - y2*f2",
)


def z3_presentation() -> GradedPresentation:
    """The full ten-relation presentation with symbolic parameters."""
    desc = fixtures.z3_descriptor()
    return GradedPresentation(desc, [r for _, _, _, r in fixtures.z3_relations()])


def numeric_descriptor() -> RingDescriptor:
    desc = fixtures.z3_descriptor()
    keep = [i for i, v in enumerate(desc.variables) if v not in PARAMETERS]
    return RingDescriptor(
        tuple(desc.variables[i] for i in keep),
        tuple(desc.degrees[i] for i in keep),
        tuple(desc.weights[i] for i in keep),
        torsion_order=desc.torsion_order,
        scalar_order=desc.scalar_order,
    )


def specialise(p: Polynomial, params: tuple[Fraction, Fraction, Fraction]) -> Polynomial:
    """Substitute rational values for alpha, beta, gamma: each term
    c*alpha^a*beta^b*gamma^g is read as that coefficient at its exponents with
    the parameter slots dropped, and the terms are summed in p's term order."""
    slots = [p.descriptor.index(name) for name in PARAMETERS]
    keep = [i for i in range(p.descriptor.nvars) if i not in slots]
    values = [Fraction(v) for v in params]
    out: dict = {}
    for exps, c in p.terms.items():
        for i, v in zip(slots, values):
            if exps[i]:
                c *= v ** exps[i]
        _accumulate(out, {tuple(exps[i] for i in keep): c})
    return Polynomial(numeric_descriptor(), out)


def numeric_presentation(params) -> GradedPresentation:
    relations = [specialise(r, params) for _, _, _, r in fixtures.z3_relations()]
    return GradedPresentation(numeric_descriptor(), relations)


def _relation_map() -> dict[str, Polynomial]:
    return {name: poly for name, _, _, poly in fixtures.z3_relations()}


def syzygy_values() -> list[Polynomial]:
    """The three degree-6 combinations of relations, expanded symbolically."""
    rels = _relation_map()
    desc = fixtures.z3_descriptor()
    extended = dict(rels)
    for v in desc.variables:
        extended[v] = desc.variable(v)
    syz_desc = RingDescriptor(
        tuple(extended),
        tuple(
            desc.degrees[desc.index(n)] if n in desc.variables else 0 for n in extended
        ),
        (0,) * len(extended),
        torsion_order=1,
        scalar_order=1,
    )
    values = []
    for src in SYZYGIES:
        formal = parse_polynomial(src, syz_desc)
        values.append(formal.substitute(extended))
    return values


def h_membership_presentation() -> GradedPresentation:
    """The subideal (f0, f1, f2, h0) used for the quadratic z-relations."""
    rels = _relation_map()
    desc = fixtures.z3_descriptor()
    return GradedPresentation(desc, [rels[n] for n in ("f0", "f1", "f2", "h0")])


def seeded_parameter_sample(seed: int) -> tuple[Fraction, Fraction, Fraction]:
    rng = random.Random(seed)
    return tuple(Fraction(rng.randint(-20, 20)) for _ in range(3))  # type: ignore[return-value]


def numeric_samples(params, seed: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The default sample set, always containing (0,0,0), (1,1,1) and one
    seeded triple; a distinct user-supplied triple is prepended."""
    fixed = [
        tuple(Fraction(0) for _ in range(3)),
        tuple(Fraction(1) for _ in range(3)),
        seeded_parameter_sample(seed),
    ]
    params = tuple(Fraction(x) for x in params)
    samples = [] if params in fixed else [params]
    samples.extend(fixed)
    return samples  # type: ignore[return-value]


def expected_hilbert(max_degree: int) -> dict[str, int]:
    return {
        f"{m}.{w}": oracle_curve_dim(m, w)
        for m in range(1, max_degree + 1)
        for w in range(3)
    }


def run_z3(
    params=(0, 0, 0), mode: str = "both", max_degree: int = 12, seed: int = 42
) -> VerificationReport:
    if mode not in ("symbolic", "numeric", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    start = time.perf_counter()
    checks: list[Check] = []
    config: dict = {
        "max_degree": max_degree,
        "mode": mode,
        "params": [str(Fraction(x)) for x in params],
        "seed": seed,
        "relation_note": (
            "g2 is taken in the table form y0*z2-y1*z1+x2^3*y2; the displayed "
            "form y0*z1-y2*z2+y2*x2^3 duplicates g1's leading terms and is not "
            "weight-homogeneous"
        ),
        "truncation": f"all claims verified up to degree {max_degree}",
    }

    error = _fixture_error()
    if mode in ("symbolic", "both"):
        _symbolic_checks(checks, error)
    if mode in ("numeric", "both"):
        samples = numeric_samples(params, seed)
        config["samples"] = [[str(x) for x in s] for s in samples]
        for si, sample in enumerate(samples):
            _numeric_checks(checks, si, sample, max_degree, error)
    else:
        config["hilbert"] = "skipped (symbolic mode: dimension tables need specialised parameters)"

    report = VerificationReport("z3", config, checks)
    report.timing_ms = int((time.perf_counter() - start) * 1000)
    return report


def _fixture_error() -> str | None:
    """The error text of a z3 fixture that does not parse, or whose relations
    are not RELATIONS; None if they all load."""
    try:
        names = tuple(name for name, *_ in fixtures.z3_relations())
        fixtures.z3_claimed_bases()
    except ValueError as exc:
        return str(exc)
    if names != RELATIONS:
        return f"the relations are {', '.join(names)}, not {', '.join(RELATIONS)}"
    return None


def _symbolic_checks(checks: list[Check], error: str | None):
    """The symbolic checks; with a fixture error, each fails with its text."""
    if error is None:
        placements = fixtures.z3_relations()
        values = [str(v) for v in syzygy_values()]
    else:
        placements = [(name, "unknown", "unknown", None) for name in RELATIONS]
        values = [error] * len(SYZYGIES)
    for name, deg, wt, poly in placements:
        grading = degree_and_weight(poly) if error is None else error
        checks.append(
            Check(
                f"z3.placement.{name}",
                f"{name} is bihomogeneous of degree {deg} and weight {wt}",
                "relation table: degree and weight placement",
                expected=[deg, wt],
                actual=list(grading) if isinstance(grading, tuple) else grading,
            )
        )
    for i, (src, value) in enumerate(zip(SYZYGIES, values)):
        checks.append(
            Check(
                f"z3.syzygy.{i}",
                f"{src} expands to the zero polynomial (parameters symbolic)",
                f"degree-6 syzygy: {src} = 0",
                expected="0",
                actual=value,
            )
        )
    if error is None:
        try:
            sub = h_membership_presentation()
        except ValueError as exc:  # a relation that is not bihomogeneous
            error = str(exc)
        else:
            rels = _relation_map()
            x2sq = fixtures.z3_descriptor().variable("x2") ** 2
    for i, name in enumerate(("H0", "H1", "H2")):
        actual = error if error is not None else _h_membership(sub, x2sq * rels[name])
        checks.append(
            Check(
                f"z3.h-membership.{i}",
                f"x2^2*{name} lies in the ideal (f0, f1, f2, h0), with certificate",
                f"quadratic relation {name} times x2^2 reduces via f0, f1, f2, h0",
                expected={"contained": True, "certificate_verified": True},
                actual=actual,
            )
        )


def _h_membership(sub: GradedPresentation, target: Polynomial) -> dict | str:
    """Membership of target in sub with its certificate checked, or the
    error text if target is not bihomogeneous."""
    try:
        membership = sub.reduces_to_zero(target)
    except ValueError as exc:
        return str(exc)
    verified = membership.contained and sub.verify_certificate(target, membership)
    return {"contained": membership.contained, "certificate_verified": verified}


def _numeric_checks(
    checks: list[Check], si: int, sample, max_degree: int, error: str | None
):
    """The checks of one sample; with a fixture error, each fails with its
    text."""
    label = f"({','.join(str(x) for x in sample)})"
    if error is None:
        claimed = fixtures.z3_claimed_bases()
        basis_keys = sorted(claimed)
        try:
            pres = numeric_presentation(sample)
            table, bases, injective = _numeric_values(pres, max_degree, claimed)
        except ValueError as exc:  # a relation not bihomogeneous, or zero here
            error = str(exc)
    else:
        basis_keys = [(m, w) for m in BASIS_DEGREES for w in range(3)]
    if error is not None:
        table = bases = injective = error
    checks.append(
        Check(
            f"z3.hilbert.s{si}",
            f"per-weight quotient dimensions at parameters {label}",
            "section table: (0,0,1), (1,2,1), then m-1 per weight",
            expected=expected_hilbert(max_degree),
            actual=table,
        )
    )
    checks.append(
        Check(
            f"z3.table-bases.s{si}",
            f"listed monomials are quotient-piece bases at parameters {label}",
            "basis columns of the relation table, degrees 1..6",
            expected={f"{m}.{w}": True for m, w in basis_keys},
            actual=bases,
        )
    )
    checks.append(
        Check(
            f"z3.x2-injective.s{si}",
            f"multiplication by x2 is injective on quotient pieces up to {max_degree}",
            "x2 is not a zero-divisor on the restricted ring",
            expected=True,
            actual=injective,
        )
    )


def _numeric_values(
    pres: GradedPresentation, max_degree: int, claimed
) -> tuple[dict, dict, bool]:
    """(Hilbert table, claimed bases hold, x2 injective) of a specialised
    presentation.

    If the lead certificate closes below max_degree, the table is its
    standard-monomial count, and x2, if in no lead, is injective in every
    degree.  Otherwise both come from the pieces up to max_degree + 1.
    """
    cert = _closed_certificate(pres, max_degree)
    counts = None if cert is None else cert.standard_counts(max_degree)
    table = {
        f"{m}.{w}": pres.quotient_dim(m, w) if counts is None else counts[m, w]
        for m in range(1, max_degree + 1)
        for w in range(3)
    }
    bases = _claimed_bases_hold(pres, claimed)
    if cert is not None and cert.divides_no_lead("x2"):
        injective = True
    else:
        injective = pres.multiplication_injectivity("x2", max_degree)
    return table, bases, injective


def _closed_certificate(pres: GradedPresentation, max_degree: int) -> LeadCertificate | None:
    """The lead certificate in LEAD_RANKING if it closes below max_degree."""
    try:
        cert = LeadCertificate(pres, LEAD_RANKING)
    except ValueError:  # variables other than the six ranked, or of degree 0
        return None
    return cert if cert.degree < max_degree and cert.closes() else None


def _claimed_bases_hold(pres: GradedPresentation, claimed) -> dict[str, bool]:
    """Per claimed (degree, weight), whether the listed monomials, parameter
    exponents dropped, form a basis of the quotient piece."""
    nvars = pres.descriptor.nvars
    results = {}
    for (m, w), mons in sorted(claimed.items()):
        mons = [e[:nvars] for e in mons]
        piece_dim = pres.quotient_dim(m, w)
        try:
            independent = pres.independent_in_quotient(m, w, mons)
        except ValueError:  # a listed monomial of another bidegree
            independent = False
        results[f"{m}.{w}"] = independent and len(mons) == piece_dim
    return results
