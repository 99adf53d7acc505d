"""Torsion Z/5: the invariant quintic, its plane arrangement, and invariant dimensions."""

from __future__ import annotations

import time
from itertools import combinations

from ..action import CyclicAction, act, weight_of, weight_space_dim
from ..linalg import GenericRowSpace
from ..poly import Polynomial
from ..report import Check, VerificationReport
from . import fixtures
from .oracles import oracle_plurigenus


def z5_quintic() -> Polynomial:
    """Product of the five plane equations; invariant of degree 5."""
    planes = fixtures.z5_planes()
    q = planes[0]
    for p in planes[1:]:
        q = q * p
    return q


def quotient_dim(m: int, w: int) -> int:
    """dim of the degree-m, weight-w piece of the ring modulo the quintic.

    The quintic is invariant of degree 5 and not a zero-divisor, so the
    piece has dimension dim S(m, w) - dim S(m - 5, w)."""
    desc = fixtures.z5_descriptor()
    return weight_space_dim(desc, m, w) - weight_space_dim(desc, m - 5, w)


def _plane_rank(planes: list[Polynomial], subset) -> int:
    """Rank of the coefficient rows of the planes in subset."""
    nvars = planes[0].descriptor.nvars
    units = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
    rs = GenericRowSpace(nvars)
    for i in subset:
        rs.add([planes[i].coefficient(e) for e in units])
    return rs.dim


# The coordinates of P^3 in z5.ring, one fixed point each: a z5.ring that
# does not parse still fails one entry per coordinate.
COORDINATES = ("x1", "x2", "x3", "x4")


def _z5_values(max_degree: int):
    """(quintic invariant, arrangement counts, value of the quintic at each
    coordinate fixed point, invariant dimensions) from the fixtures."""
    desc = fixtures.z5_descriptor()
    planes = fixtures.z5_planes()
    if len(planes) != 5:
        raise ValueError(f"z5_planes.txt lists {len(planes)} planes, not 5")
    q = z5_quintic()
    action = CyclicAction.for_descriptor(desc)
    invariant = act(action, 1, q) == q and weight_of(action, q) == 0
    arrangement = {
        "triple_points": sum(
            _plane_rank(planes, subset) == 3 for subset in combinations(range(5), 3)
        ),
        "quadruple_violations": sum(
            _plane_rank(planes, subset) != 4 for subset in combinations(range(5), 4)
        ),
    }
    fixed = {}
    for j, name in enumerate(desc.variables):
        exps = tuple(5 if k == j else 0 for k in range(desc.nvars))
        fixed[name] = "nonzero" if q.coefficient(exps) != 0 else "zero"
    dims = {str(m): quotient_dim(m, 0) for m in range(max_degree + 1)}
    return invariant, arrangement, fixed, dims


def run_z5(max_degree: int = 12) -> VerificationReport:
    start = time.perf_counter()
    try:
        invariant, arrangement, fixed, dims = _z5_values(max_degree)
        names = list(fixed)
    except ValueError as exc:
        # A z5.ring or z5_planes.txt that does not parse, or a plane file
        # without five planes, fails every check, with the error as actual
        # value.
        invariant = arrangement = fixed = dims = str(exc)
        names = COORDINATES
    checks = [
        Check(
            "z5.quintic-invariant",
            "the quintic equals its image under the group generator",
            "invariant quintic: the five plane factors permute cyclically",
            expected=True,
            actual=invariant,
        ),
        Check(
            "z5.triple-points",
            "every 3 of the 5 planes meet in one point, no 4 share a point",
            "plane arrangement with exactly 10 triple points",
            expected={"triple_points": 10, "quadruple_violations": 0},
            actual=arrangement,
        ),
        Check(
            "z5.fixed-points-off-quintic",
            "the quintic is nonzero at each coordinate fixed point of the action",
            "free action on the quintic: q(e_i) != 0",
            expected={name: "nonzero" for name in names},
            actual=fixed,
        ),
        Check(
            "z5.invariant-dimensions",
            f"invariant-ring dimensions of the quintic quotient up to degree {max_degree}",
            "plurigenus formula 1 + m(m-1)/2 with dims 1, 0 at m = 0, 1",
            expected={str(m): oracle_plurigenus(m) for m in range(max_degree + 1)},
            actual=dims,
        ),
    ]
    report = VerificationReport(
        "z5",
        {"max_degree": max_degree, "truncation": f"all claims verified up to degree {max_degree}"},
        checks,
    )
    report.timing_ms = int((time.perf_counter() - start) * 1000)
    return report
