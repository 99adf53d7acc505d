"""The four seeded workloads: CLI arguments, generated input files, and oracles.

Every expected value below is held here, independent of the program: the
oracles compare each report's ``actual`` values with these constants rather
than trusting the report's own ``status`` fields.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path
from typing import Callable

# ---------------------------------------------------------------------------
# Paper constants


def plurigenus(m: int) -> int:
    """Canonical-ring dimensions 1, 0, then 1 + m(m-1)/2."""
    return 1 if m == 0 else 0 if m == 1 else 1 + comb(m, 2)


SC_MAX_DEGREE = 11
SC_GENERATOR_CENSUS = {"2": 2, "3": 4, "4": 4, "5": 3}
SC_RELATION_CENSUS = {6: 6, 7: 12, 8: 18, 9: 12, 10: 6}
SC_CLAIMED_GENERATORS = 13
SC_GENERATION_DEGREE = 10
SC_CLOSURE_TRIALS = 12

Z3_MAX_DEGREE = 12
# name -> (degree, torsion weight) of the ten relations of the Z/3 ring.
Z3_PLACEMENTS = {
    "f0": (4, 0), "f1": (4, 1), "f2": (4, 2),
    "g0": (5, 0), "g1": (5, 1), "g2": (5, 2),
    "h0": (6, 0), "H0": (6, 0), "H1": (6, 1), "H2": (6, 2),
}
Z3_SYZYGIES = 3
Z3_H_RELATIONS = 3
Z3_BASIS_DEGREES = range(1, 7)


def z3_curve_dim(m: int, w: int) -> int:
    """Section table of the paracanonical curve: (0,0,1), (1,2,1), then m-1."""
    if m == 1:
        return (0, 0, 1)[w]
    if m == 2:
        return (1, 2, 1)[w]
    return m - 1


Z4_MAX_DEGREE = 16


def z4_dim(m: int, w: int) -> int:
    """Per-weight table of the Z/4 ring: weights (0,1,1,1) at m = 1."""
    if m == 0:
        return 1 if w == 0 else 0
    if m == 1:
        return 0 if w == 0 else 1
    return plurigenus(m)


Z5_MAX_DEGREE = 12
Z5_VARIABLES = ("x1", "x2", "x3", "x4")
# The orbit of the plane x1+x2+x3+x4 = 0 under x_i -> z5^i x_i.
Z5_PLANES = (
    "x1 + x2 + x3 + x4",
    "z5*x1 + z5^2*x2 + z5^3*x3 + z5^4*x4",
    "z5^2*x1 + z5^4*x2 + z5*x3 + z5^3*x4",
    "z5^3*x1 + z5*x2 + z5^4*x3 + z5^2*x4",
    "z5^4*x1 + z5^3*x2 + z5^2*x3 + z5*x4",
)
Z5_CUBIC_DEGREE = 3
# Fixed so that the seed changes only coefficients: the cubic's weight
# changes the shape of every piece and so the cost of a pass.
Z5_CUBIC_WEIGHT = 4
Z5_QUINTIC_DEGREE = 5
Z5_RING_MAX_DEGREE = 12


def z5_monomials(m: int, w: int) -> list[tuple[int, ...]]:
    """Exponent vectors of degree m and torsion weight w (x_i has weight i)."""
    if m < 0:
        return []
    out = []
    for a in product(range(m + 1), repeat=3):
        rest = m - sum(a)
        if rest >= 0:
            exps = a + (rest,)
            if sum((i + 1) * e for i, e in enumerate(exps)) % 5 == w % 5:
                out.append(exps)
    return out


def z5_ring_dim(m: int, w: int) -> int:
    """Quotient dimension of Q(z5)[x1..x4]/(quintic, cubic) by inclusion-exclusion.

    The quintic has weight 0.  The two relations are coprime: a weight-homogeneous
    cubic divisible by one plane would be divisible by its whole orbit of five.
    """
    n = lambda d, ww: len(z5_monomials(d, ww))  # noqa: E731
    c = Z5_CUBIC_WEIGHT
    return (
        n(m, w)
        - n(m - Z5_CUBIC_DEGREE, w - c)
        - n(m - Z5_QUINTIC_DEGREE, w)
        + n(m - Z5_CUBIC_DEGREE - Z5_QUINTIC_DEGREE, w - c)
    )


# ---------------------------------------------------------------------------
# Workload definitions


@dataclass
class Generated:
    """What one seed produces: CLI argument lists (one per CLI call in a pass),
    the files they read, and what the oracle needs to know about them."""

    steps: list[list[str]]
    inputs: list[str] = field(default_factory=list)
    context: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixtures: tuple[str, ...]
    generate: Callable[[int, Path], Generated]
    check: Callable[[list[str], dict], list[str]]


def _program_seed(rng: random.Random) -> int:
    return rng.randint(1, 10**6)


def _gen_sc(seed: int, workdir: Path) -> Generated:
    rng = random.Random(seed)
    s = _program_seed(rng)
    argv = ["verify", "--scenario", "sc", "--max-degree", str(SC_MAX_DEGREE),
            "--seed", str(s), "--format", "json"]
    return Generated([argv], context={"seed": s})


def _z3_random_param(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 3))


def _gen_z3(seed: int, workdir: Path) -> Generated:
    rng = random.Random(seed)
    s = _program_seed(rng)
    fixed = [(Fraction(0),) * 3, (Fraction(1),) * 3, _z3_program_sample(s)]
    while True:
        params = tuple(_z3_random_param(rng) for _ in range(3))
        if params not in fixed:
            break
    argv = ["verify", "--scenario", "z3", "--mode", "both",
            "--max-degree", str(Z3_MAX_DEGREE), "--seed", str(s),
            f"--alpha={params[0]}", f"--beta={params[1]}", f"--gamma={params[2]}",
            "--format", "json"]
    samples = [[str(x) for x in t] for t in [params] + fixed]
    return Generated([argv], context={"seed": s, "samples": samples})


def _z3_program_sample(seed: int) -> tuple[Fraction, ...]:
    """The seeded parameter triple the z3 suite always adds, per its documented
    rule: three integers in [-20, 20] from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return tuple(Fraction(rng.randint(-20, 20)) for _ in range(3))


def _gen_z4(seed: int, workdir: Path) -> Generated:
    rng = random.Random(seed)
    s = _program_seed(rng)
    argv = ["verify", "--scenario", "z4", "--max-degree", str(Z4_MAX_DEGREE),
            "--seed", str(s), "--format", "json"]
    return Generated([argv], context={"seed": s})


def _cyclo_literal(coeffs: list[int]) -> str:
    """Render a0 + a1*z5 + a2*z5^2 + a3*z5^3 in the program's scalar grammar."""
    parts = []
    for k, a in enumerate(coeffs):
        if a == 0:
            continue
        mag = abs(a)
        body = str(mag) if k == 0 else (f"z5^{k}" if k > 1 else "z5")
        if k and mag != 1:
            body = f"{mag}*{body}"
        parts.append(("-" if a < 0 else "+", body))
    text = "".join(f" {s} {b}" for s, b in parts).strip()
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _gen_cyclo(seed: int, workdir: Path) -> Generated:
    rng = random.Random(seed)
    terms = []
    for exps in z5_monomials(Z5_CUBIC_DEGREE, Z5_CUBIC_WEIGHT):
        coeffs = [rng.randint(-5, 5) for _ in range(4)]
        if not any(coeffs[1:]):
            coeffs[rng.randint(1, 3)] = rng.choice((-1, 1))
        mon = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(Z5_VARIABLES, exps) if e
        )
        terms.append(f"({_cyclo_literal(coeffs)})*{mon}")
    quintic = "*".join(f"({p})" for p in Z5_PLANES)
    lines = ["# Quintic of the five planes and a seeded cubic over Q(z5).",
             "field Q(z5)", "torsion_order 5"]
    lines += [f"{v} 1 {i + 1}" for i, v in enumerate(Z5_VARIABLES)]
    lines += [f"rel {quintic}", "rel " + " + ".join(terms)]
    ring = "cyclo_z5.ring"  # passes run inside workdir
    (workdir / ring).write_text("\n".join(lines) + "\n", encoding="utf-8")
    steps = [
        ["verify", "--scenario", "z5", "--format", "json"],
        ["hilbert", "--ring", ring, "--max-degree", str(Z5_RING_MAX_DEGREE),
         "--format", "json"],
    ]
    return Generated(steps, inputs=[ring], context={"ring": ring})


# ---------------------------------------------------------------------------
# Oracles


def _load(text: str, errors: list[str]) -> dict | None:
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and all(isinstance(c, dict) for c in doc.get("checks", [])):
        return doc
    errors.append("output is not a JSON report")
    return None


def _check_report(report: dict, scenario: str, expected: dict, errors: list[str]):
    """Every check passes, the check ids are exactly the expected ones, and
    each actual value equals the oracle's constant (None: any value)."""
    if report.get("scenario") != scenario:
        errors.append(f"scenario is {report.get('scenario')!r}, not {scenario!r}")
        return
    checks = {c.get("id"): c for c in report.get("checks", [])}
    if set(checks) != set(expected):
        missing = sorted(set(expected) - set(checks))
        extra = sorted(set(checks) - set(expected))
        errors.append(f"check ids differ: missing {missing}, unexpected {extra}")
    for cid, c in checks.items():
        if c.get("status") != "pass":
            errors.append(f"{cid}: status {c.get('status')!r}")
        want = expected.get(cid)
        if want is not None and c.get("actual") != want:
            errors.append(f"{cid}: actual differs from the oracle")


def check_sc(outputs: list[str], ctx: dict) -> list[str]:
    errors: list[str] = []
    report = _load(outputs[0], errors)
    if report is None:
        return errors
    top = SC_MAX_DEGREE
    expected = {
        "sc.subspace-dimensions": {str(m): plurigenus(m) for m in range(top + 1)},
        "sc.multiplicative-closure": None,
        "sc.generator-census": SC_GENERATOR_CENSUS,
        "sc.claimed-generation": {str(m): True for m in range(1, SC_GENERATION_DEGREE + 1)},
        "sc.relation-census": {
            str(m): SC_RELATION_CENSUS.get(m, 0) for m in range(1, top + 1)
        },
        "sc.relation-total": sum(SC_RELATION_CENSUS.values()),
    }
    for i in range(SC_CLAIMED_GENERATORS):
        expected[f"sc.claimed-generator.{i}"] = True
    _check_report(report, "sc", expected, errors)
    closure = next(
        (c.get("actual") for c in report.get("checks", [])
         if c.get("id") == "sc.multiplicative-closure"),
        None,
    )
    if not (isinstance(closure, list) and 0 < len(closure) <= SC_CLOSURE_TRIALS
            and all(x is True for x in closure)):
        errors.append("sc.multiplicative-closure: not a nonempty list of passed spot checks")
    if report.get("config", {}).get("seed") != ctx["seed"]:
        errors.append("config.seed is not the generated seed")
    return errors


def check_z3(outputs: list[str], ctx: dict) -> list[str]:
    errors: list[str] = []
    report = _load(outputs[0], errors)
    if report is None:
        return errors
    expected: dict = {f"z3.placement.{n}": list(dw) for n, dw in Z3_PLACEMENTS.items()}
    for i in range(Z3_SYZYGIES):
        expected[f"z3.syzygy.{i}"] = "0"
    for i in range(Z3_H_RELATIONS):
        expected[f"z3.h-membership.{i}"] = {"contained": True, "certificate_verified": True}
    table = {f"{m}.{w}": z3_curve_dim(m, w)
             for m in range(1, Z3_MAX_DEGREE + 1) for w in range(3)}
    bases = {f"{m}.{w}": True for m in Z3_BASIS_DEGREES for w in range(3)}
    for si in range(len(ctx["samples"])):
        expected[f"z3.hilbert.s{si}"] = table
        expected[f"z3.table-bases.s{si}"] = bases
        expected[f"z3.x2-injective.s{si}"] = True
    _check_report(report, "z3", expected, errors)
    if report.get("config", {}).get("samples") != ctx["samples"]:
        errors.append("config.samples is not the generated sample list")
    return errors


def check_z4(outputs: list[str], ctx: dict) -> list[str]:
    errors: list[str] = []
    report = _load(outputs[0], errors)
    if report is None:
        return errors
    table = {f"{m}.{w}": z4_dim(m, w) for m in range(Z4_MAX_DEGREE + 1) for w in range(4)}
    expected = {
        "z4.sample-valid": True,
        "z4.koszul": True,
        "z4.dimension-table": table,
        "z4.seed-independence": table,
    }
    _check_report(report, "z4", expected, errors)
    if report.get("config", {}).get("seed") != ctx["seed"]:
        errors.append("config.seed is not the generated seed")
    return errors


def check_cyclo(outputs: list[str], ctx: dict) -> list[str]:
    errors: list[str] = []
    report = _load(outputs[0], errors)
    if report is not None:
        expected = {
            "z5.quintic-invariant": True,
            "z5.triple-points": {"triple_points": 10, "quadruple_violations": 0},
            "z5.fixed-points-off-quintic": {v: "nonzero" for v in Z5_VARIABLES},
            "z5.invariant-dimensions": {
                str(m): plurigenus(m) for m in range(Z5_MAX_DEGREE + 1)
            },
        }
        _check_report(report, "z5", expected, errors)
    table = _load(outputs[1], errors)
    if table is not None:
        want = {
            "ring": ctx["ring"],
            "max_degree": Z5_RING_MAX_DEGREE,
            "torsion_order": 5,
            "rows": {
                str(m): [z5_ring_dim(m, w) for w in range(5)]
                for m in range(Z5_RING_MAX_DEGREE + 1)
            },
        }
        if table != want:
            errors.append("hilbert table differs from the inclusion-exclusion oracle")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sc-census",
            "sparse integer elimination and kernels of the sc subring to degree 13, "
            "past the last relations",
            ("sc_descriptor", "sc_conic", "sc_restriction", "sc_involution",
             "sc_claimed_generators"),
            _gen_sc,
            check_sc,
        ),
        Workload(
            "z3-tables",
            "memoised graded pieces read many times and Fraction rref certificates, "
            "z3 at degree 14 with four parameter samples",
            ("z3_descriptor", "z3_relations", "z3_claimed_bases"),
            _gen_z3,
            check_z3,
        ),
        Workload(
            "z4-dense",
            "dense integer rows from random relations with every monomial, the "
            "opposite of sc",
            ("z4_descriptor",),
            _gen_z4,
            check_z4,
        ),
        Workload(
            "cyclo-z5",
            "the only workload on the field row space and Cyclo arithmetic; the "
            "integer engine does no work",
            ("z5_descriptor", "z5_planes"),
            _gen_cyclo,
            check_cyclo,
        ),
    )
}
