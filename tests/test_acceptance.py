"""Acceptance gate: the eight headline criteria, all comparisons exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything is verified at max degree 12 with tolerance zero.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from godeaux import (
    CyclicAction,
    Matrix,
    act,
    enumerate_monomials,
    kernel_basis,
    scalar_inv,
    weight_of,
    weight_space_dim,
    zeta,
)
from godeaux.scenarios import fixtures, run_z4, run_z5, sc_predicate
from godeaux.scenarios.oracles import oracle_curve_dim, oracle_plurigenus
from godeaux.scenarios.torsion3 import (
    h_membership_presentation,
    numeric_presentation,
    seeded_parameter_sample,
    syzygy_values,
    SYZYGIES,
    _relation_map,
)
from godeaux.scenarios.torsion5 import z5_quintic
from godeaux.subring import SubringBuilder

D = 12
SEED = 42


def record(number: int, name: str, ok: bool):
    print(f"\nacceptance {number}: {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {name}"


@pytest.fixture(scope="module")
def z3_samples():
    samples = [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(1)),
        seeded_parameter_sample(SEED),
    ]
    return [(s, numeric_presentation(s)) for s in samples]


@pytest.fixture(scope="module")
def sc_builder():
    return SubringBuilder(sc_predicate())


def test_criterion_1_syzygies():
    values = syzygy_values()
    ok = len(values) == len(SYZYGIES) == 3 and all(v.is_zero() for v in values)
    record(1, "three degree-6 syzygies vanish identically in alpha, beta, gamma", ok)


def test_criterion_2_h_relations():
    sub = h_membership_presentation()
    rels = _relation_map()
    x2sq = fixtures.z3_descriptor().variable("x2") ** 2
    ok = True
    for name in ("H0", "H1", "H2"):
        target = x2sq * rels[name]
        membership = sub.reduces_to_zero(target)
        ok = ok and membership.contained and sub.verify_certificate(target, membership)
    record(2, "x2^2 * H_i lies in (f0, f1, f2, h0) with exact certificates", ok)


def test_criterion_3_hilbert(z3_samples):
    ok = True
    for _, pres in z3_samples:
        for m in range(1, D + 1):
            for w in range(3):
                ok = ok and pres.quotient_dim(m, w) == oracle_curve_dim(m, w)
            expected_total = {1: 1, 2: 4}.get(m, 3 * (m - 1))
            ok = ok and pres.quotient_dim(m, "all") == expected_total
    record(3, "per-weight quotient dimensions match the section table at 3 samples", ok)


def test_criterion_4_bases_and_injectivity(z3_samples):
    claimed = fixtures.z3_claimed_bases()
    ok = True
    for _, pres in z3_samples:
        nv = pres.descriptor.nvars
        for (m, w), mons in sorted(claimed.items()):
            mons = [e[:nv] for e in mons]
            independent = pres.independent_in_quotient(m, w, mons)
            ok = ok and independent and len(mons) == pres.quotient_dim(m, w)
        ok = ok and pres.multiplication_injectivity("x2", D)
    record(4, "listed monomial bases are bases and x2 is injective up to 12", ok)


def test_criterion_5_quintic():
    desc = fixtures.z5_descriptor()
    planes = fixtures.z5_planes()
    q = z5_quintic()
    action = CyclicAction.for_descriptor(desc)
    ok = act(action, 1, q) == q and weight_of(action, q) == 0

    def coeff_rank(subset):
        units = [
            tuple(1 if k == j else 0 for k in range(4)) for j in range(4)
        ]
        rows = [[planes[i].coefficient(e) for e in units] for i in subset]
        return len(Matrix.from_rows(rows).rref()[1])

    triples = sum(1 for s in combinations(range(5), 3) if coeff_rank(s) == 3)
    quads = sum(1 for s in combinations(range(5), 4) if coeff_rank(s) != 4)
    ok = ok and triples == 10 and quads == 0
    for j in range(4):
        e = tuple(5 if k == j else 0 for k in range(4))
        ok = ok and q.coefficient(e) != 0
    dims = [
        weight_space_dim(desc, m, 0) - weight_space_dim(desc, m - 5, 0)
        for m in range(D + 1)
    ]
    ok = ok and dims == [oracle_plurigenus(m) for m in range(D + 1)]
    record(5, "quintic invariance, 10 triple points, free fixed points, dims", ok)


def test_criterion_6_complete_intersection():
    rep = run_z4(seed=SEED, max_degree=D)
    by_id = {c.id: c for c in rep.checks}
    ok = (
        by_id["z4.koszul"].status == "pass"
        and by_id["z4.dimension-table"].status == "pass"
        and by_id["z4.seed-independence"].status == "pass"
        and by_id["z4.dimension-table"].expected["1.0"] == 0
        and all(by_id["z4.dimension-table"].expected[f"1.{w}"] == 1 for w in (1, 2, 3))
        and all(
            by_id["z4.dimension-table"].expected[f"{m}.{w}"] == 1 + comb(m, 2)
            for m in range(2, D + 1)
            for w in range(4)
        )
    )
    record(6, "seeded (4,4) pair passes koszul_check and the dimension table", ok)


def test_criterion_7_subring(sc_builder):
    pred = sc_builder.pred
    ok = pred.dim(0) == 1 and pred.dim(1) == 0
    for m in range(2, D + 1):
        ok = ok and pred.dim(m) == 1 + comb(m, 2)
    presentation = sc_builder.presentation(D)
    ok = ok and presentation.generator_census == {2: 2, 3: 4, 4: 4, 5: 3}
    expected_census = {m: 0 for m in range(1, D + 1)}
    expected_census.update({6: 6, 7: 12, 8: 18, 9: 12, 10: 6})
    ok = ok and presentation.relation_census == expected_census
    ok = ok and sum(presentation.relation_census.values()) == 54
    verification = sc_builder.verify_generator_list(
        fixtures.sc_claimed_generators(), 10
    )
    ok = ok and verification.ok and len(verification.memberships) == 13
    record(7, "subring dims, generator census, 13 generators, 54 relations", ok)


def test_criterion_8_property_suites(sc_builder):
    rng = random.Random(SEED)
    ok = True

    # Field axioms on random cyclotomic samples.
    for order in (3, 4, 5):
        phi = {3: 2, 4: 2, 5: 4}[order]

        def rand_scalar():
            from godeaux import make_cyclo

            return make_cyclo(
                order, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(phi)]
            )

        for _ in range(10):
            a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
            ok = ok and (a + b) + c == a + (b + c)
            ok = ok and a * (b + c) == a * b + a * c
            if a != 0:
                ok = ok and a * scalar_inv(a) == 1

    # Substitution and group action are ring homomorphisms.
    desc = fixtures.z5_descriptor()
    action = CyclicAction.for_descriptor(desc)
    mons = enumerate_monomials(desc, 2)
    for _ in range(5):
        from godeaux import Polynomial

        p = Polynomial(desc, {m: Fraction(rng.randint(-5, 5)) for m in mons})
        q = Polynomial(desc, {m: Fraction(rng.randint(-5, 5)) for m in mons})
        ok = ok and act(action, 1, p * q) == act(action, 1, p) * act(action, 1, q)
        imgs = {
            name: desc.variable(name).scale(zeta(5) ** (i + 1))
            for i, name in enumerate(desc.variables)
        }
        ok = ok and (p * q).substitute(imgs) == p.substitute(imgs) * q.substitute(imgs)

    # Rank-nullity on random integer matrices.
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(rng.randint(1, 6))]
        m = Matrix.from_rows(rows)
        ok = ok and len(m.rref()[1]) + len(kernel_basis(m)) == 5

    # Multiplicative closure of the subring predicate.
    closure = sc_builder.closure_spot_checks(D, seed=SEED, trials=10)
    ok = ok and bool(closure) and all(flag for _, _, flag in closure)

    # Determinism of reports under rerun (timing aside).
    def stripped(rep):
        d = rep.to_dict()
        d.pop("timing_ms")
        return json.dumps(d)

    ok = ok and stripped(run_z5(6)) == stripped(run_z5(6))
    ok = ok and stripped(run_z4(seed=7, max_degree=6)) == stripped(
        run_z4(seed=7, max_degree=6)
    )
    record(8, "field axioms, homomorphisms, rank-nullity, closure, determinism", ok)
