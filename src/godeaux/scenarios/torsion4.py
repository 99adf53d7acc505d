"""Torsion Z/4: generic weighted complete intersections of bidegree (4, 4)."""

from __future__ import annotations

import random
import time

from ..graded import GradedPresentation
from ..poly import Polynomial, enumerate_monomials, render_polynomial
from ..report import Check, VerificationReport
from ..scalars import Fraction
from . import fixtures
from .oracles import oracle_plurigenus

RELATION_BIDEGREES = ((4, 0), (4, 2))
COEFF_BOUND = 20


def draw_relation(rng: random.Random, desc, degree: int, weight: int) -> Polynomial:
    """Random integer combination (coefficients in [-20, 20]) of the monomials
    of the given bidegree; redrawn until nonzero."""
    monomials = enumerate_monomials(desc, degree, weight)
    while True:
        terms = {
            mon: Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND)) for mon in monomials
        }
        p = Polynomial(desc, terms)
        if not p.is_zero():
            return p


def sampled_presentation(seed: int) -> GradedPresentation:
    """The presentation by (q1, q2) drawn from the seed."""
    desc = fixtures.z4_descriptor()
    rng = random.Random(seed)
    return GradedPresentation(
        desc, [draw_relation(rng, desc, m, w) for m, w in RELATION_BIDEGREES]
    )


def _sampled_table(seed: int, max_degree: int):
    """Draw (q1, q2) from the seed and compute the quotient dimension table."""
    pres = sampled_presentation(seed)
    koszul_ok = pres.koszul_check(max_degree)
    table = {
        f"{m}.{w}": pres.quotient_dim(m, w)
        for m in range(max_degree + 1)
        for w in range(4)
    }
    return pres.relations, table, koszul_ok


def expected_z4_table(max_degree: int) -> dict[str, int]:
    out = {}
    for m in range(max_degree + 1):
        for w in range(4):
            if m == 0:
                out[f"{m}.{w}"] = 1 if w == 0 else 0
            elif m == 1:
                out[f"{m}.{w}"] = 0 if w == 0 else 1
            else:
                out[f"{m}.{w}"] = oracle_plurigenus(m)
    return out


def run_z4(seed: int = 42, max_degree: int = 12) -> VerificationReport:
    start = time.perf_counter()
    checks: list[Check] = []

    used_seed = seed
    resampled = False
    try:
        relations, table, koszul_ok = _sampled_table(seed, max_degree)
        if not koszul_ok:
            # Degenerate draw: log it and resample once.
            resampled = True
            used_seed = seed + 1
            relations, table, koszul_ok = _sampled_table(used_seed, max_degree)
        _, table2, koszul_ok2 = _sampled_table(used_seed + 101, max_degree)
        independent = table2 if koszul_ok2 else {"koszul_failed": True}
        q1, q2 = map(render_polynomial, relations)
    except ValueError as exc:
        # A z4.ring that does not parse fails every check, with the error as
        # actual value.
        table = koszul_ok = independent = q1 = q2 = str(exc)
    second_seed = used_seed + 101

    checks.append(
        Check(
            "z4.sample-valid",
            "a regular pair (q1, q2) was found within one resample",
            "generic complete intersection of bidegree (4, 4), weights 0 and 2",
            expected=True,
            actual=koszul_ok,
        )
    )
    checks.append(
        Check(
            "z4.koszul",
            f"quotient dimensions match the regular-sequence prediction up to {max_degree}",
            "inclusion-exclusion: dim S(m,w) - dim S(m-4,w) - dim S(m-4,w-2) + dim S(m-8,w-2)",
            expected=True,
            actual=koszul_ok,
        )
    )
    checks.append(
        Check(
            "z4.dimension-table",
            "per-weight quotient dimensions match the expected section counts",
            "weights (0,1,2,3) give (0,1,1,1) at m=1 and 1 + m(m-1)/2 each for m >= 2",
            expected=expected_z4_table(max_degree),
            actual=table,
        )
    )

    checks.append(
        Check(
            "z4.seed-independence",
            f"the dimension table is identical for seeds {used_seed} and {second_seed}",
            "dimension counts of a complete intersection depend only on the bidegrees",
            expected=table if isinstance(table, dict) else expected_z4_table(max_degree),
            actual=independent,
        )
    )

    config = {
        "max_degree": max_degree,
        "seed": seed,
        "used_seed": used_seed,
        "resampled": resampled,
        "second_seed": second_seed,
        "coefficient_range": f"integers in [-{COEFF_BOUND}, {COEFF_BOUND}]",
        "q1": q1,
        "q2": q2,
        "truncation": f"all claims verified up to degree {max_degree}",
    }
    report = VerificationReport("z4", config, checks)
    report.timing_ms = int((time.perf_counter() - start) * 1000)
    return report
