"""The simply connected example: a canonical subring of C[a, b, c].

The degree-m piece consists of the polynomials that (i) lie in C[a, b, c^2]
modulo the conic-line quartic factor f and (ii) satisfy the glueing condition
sigma1(g) = (-1)^m sigma2(g), where sigma1 restricts to the line b = 0 and
sigma2 composes the restriction to a = 0 with the involution of the two lines.
The parity sign is the honest form of the glueing: invariant sections in even
degrees, anti-invariant in odd degrees.
"""

from __future__ import annotations

import time

from ..report import Check, VerificationReport
from ..subring import (
    CongruenceImageCondition,
    MembershipPredicate,
    SubringBuilder,
    SubstitutionParityCondition,
)
from . import fixtures
from .oracles import oracle_plurigenus


def sc_predicate() -> MembershipPredicate:
    desc = fixtures.sc_descriptor()
    return MembershipPredicate(
        desc,
        [
            CongruenceImageCondition(("c",), (fixtures.sc_conic(),)),
            SubstitutionParityCondition(
                fixtures.sc_restriction(), fixtures.sc_involution(), sign_base=-1
            ),
        ],
    )


EXPECTED_GENERATOR_CENSUS = {2: 2, 3: 4, 4: 4, 5: 3}
EXPECTED_RELATION_CENSUS = {6: 6, 7: 12, 8: 18, 9: 12, 10: 6}
# The claimed generator list has thirteen polynomials; a fixture error fails
# one check per claimed generator, even if the list itself does not parse.
CLAIMED_GENERATORS = 13


def expected_relation_census(max_degree: int) -> dict[str, int]:
    out = {}
    for m in range(1, max_degree + 1):
        out[str(m)] = EXPECTED_RELATION_CENSUS.get(m, 0)
    return out


def run_sc(max_degree: int = 12, seed: int = 42) -> VerificationReport:
    if max_degree < 10:
        raise ValueError("the sc suite needs max_degree >= 10")
    start = time.perf_counter()
    try:
        claimed = fixtures.sc_claimed_generators()
        pred = sc_predicate()
        builder = SubringBuilder(pred)
        dims = {str(m): pred.dim(m) for m in range(max_degree + 1)}
        spots = closure = [ok for *_, ok in builder.closure_spot_checks(max_degree, seed=seed)]
        presentation = builder.presentation(max_degree)
        census = presentation.generator_census
        relations = {str(m): n for m, n in presentation.relation_census.items()}
        total = sum(presentation.relation_census.values())
        verification = builder.verify_generator_list(claimed, min(max_degree, 10))
        members = verification.memberships
        generation = {str(m): v[2] for m, v in verification.generation.items()}
    except (KeyError, ValueError) as exc:
        # A broken fixture (a ring file that does not parse, or a
        # substitution with a missing image, which raises KeyError) fails
        # every check, with the error as actual value.
        error = str(exc.args[0] if isinstance(exc, KeyError) else exc)
        dims = closure = census = relations = total = generation = error
        spots = []
        members = [(idx, "unknown", error) for idx in range(CLAIMED_GENERATORS)]
    checks: list[Check] = []

    expected_dims = {str(m): oracle_plurigenus(m) for m in range(max_degree + 1)}
    checks.append(
        Check(
            "sc.subspace-dimensions",
            f"dim V_m for 0 <= m <= {max_degree}",
            "plurigenus formula 1 + m(m-1)/2 with dims 1, 0 at m = 0, 1",
            expected=expected_dims,
            actual=dims,
        )
    )
    checks.append(
        Check(
            "sc.multiplicative-closure",
            "random products of subspace elements stay in the subspace",
            "the membership conditions cut out a subring",
            expected=[True] * len(spots),
            actual=closure,
        )
    )
    checks.append(
        Check(
            "sc.generator-census",
            "degrees of the minimal generators",
            "embedding in weighted projective space P(2^2, 3^4, 4^4, 5^3)",
            expected=EXPECTED_GENERATOR_CENSUS,
            actual=census,
        )
    )
    for idx, degree, ok in members:
        checks.append(
            Check(
                f"sc.claimed-generator.{idx}",
                f"claimed generator {idx} (degree {degree}) lies in the subring",
                "claimed generator list, thirteen polynomials",
                expected=True,
                actual=ok,
            )
        )
    checks.append(
        Check(
            "sc.claimed-generation",
            "products of the thirteen claimed generators span every piece up to 10",
            "the canonical ring is generated by the claimed list",
            expected={str(m): True for m in range(1, min(max_degree, 10) + 1)},
            actual=generation,
        )
    )

    checks.append(
        Check(
            "sc.relation-census",
            f"new relations per degree up to {max_degree}",
            "54 relations in degrees (6^6, 7^12, 8^18, 9^12, 10^6)",
            expected=expected_relation_census(max_degree),
            actual=relations,
        )
    )
    checks.append(
        Check(
            "sc.relation-total",
            "total number of minimal relations",
            "codimension 10 in a 12-dimensional weighted projective space",
            expected=54,
            actual=total,
        )
    )

    config = {
        "max_degree": max_degree,
        "seed": seed,
        "truncation": f"generation and relations verified up to degree {max_degree}",
    }
    report = VerificationReport("sc", config, checks)
    report.timing_ms = int((time.perf_counter() - start) * 1000)
    return report
