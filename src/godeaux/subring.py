"""Graded subrings cut out by degree-wise linear membership conditions.

A predicate combines primitive linear conditions (torsion-weight selection,
congruence to an even-power image modulo given polynomials, equality of two
substitutions up to a parity sign) into exact bases of the subspaces V_m.
On top of that the builder finds minimal generators, a relation census, and
verifies claimed generator lists, all by exact integer linear algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add
from typing import Mapping, Sequence

from .graded import GradedPresentation, _row
from .linalg import IntRowSpace, _primitive, int_kernel_basis, int_rref, scale_to_int
from .poly import (
    Polynomial,
    RingDescriptor,
    degree_and_weight,
    enumerate_monomials,
)
from .scalars import is_rational_scalar


@dataclass(frozen=True)
class WeightCondition:
    """Torsion weight equals a constant."""

    weight: int


@dataclass(frozen=True)
class CongruenceImageCondition:
    """Membership in (span of monomials with even exponents in the listed
    variables) + (multiples of the given polynomials), degree by degree."""

    even_variables: tuple[str, ...]
    modulus: tuple[Polynomial, ...]


@dataclass(frozen=True)
class SubstitutionParityCondition:
    """Linear condition sigma1(g) = sign_base^m * sigma2(g) in degree m."""

    sigma1: Mapping[str, Polynomial]
    sigma2: Mapping[str, Polynomial]
    sign_base: int = -1

    def sign(self, m: int) -> int:
        return self.sign_base ** m


Condition = WeightCondition | CongruenceImageCondition | SubstitutionParityCondition


class MembershipPredicate:
    """Degree-wise intersection of primitive linear conditions, optionally
    inside the quotient by a graded presentation (the modulus)."""

    def __init__(
        self,
        descriptor: RingDescriptor,
        conditions: Sequence[Condition],
        modulus: GradedPresentation | None = None,
    ):
        self.descriptor = descriptor
        self.conditions = tuple(conditions)
        self.modulus = modulus
        self._cache: dict[int, list[Polynomial]] = {}

    def ambient_monomials(self, m: int) -> list[tuple]:
        return enumerate_monomials(self.descriptor, m)

    def modulus_rows(self, m: int, index: Mapping[tuple, int]) -> list[list[int]]:
        if self.modulus is None:
            return []
        rows = []
        d = self.descriptor.torsion_order
        for w in range(d):
            for p in self.modulus.ideal_piece(m, w):
                rows.append(_vector(p, index))
        return rows

    def subspace_basis(self, m: int) -> list[Polynomial]:
        """Exact canonical basis of V_m inside the ambient degree-m piece."""
        if m in self._cache:
            return self._cache[m]
        cols = self.ambient_monomials(m)
        n = len(cols)
        basis = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        for cond in self.conditions:
            basis = _apply_condition(cond, self.descriptor, m, cols, basis)
            if not basis:
                break
        reduced, _ = int_rref(basis, n)
        polys = [_to_poly(self.descriptor, cols, row) for row in reduced]
        self._cache[m] = polys
        return polys

    def dim(self, m: int) -> int:
        """dim V_m, counted modulo the modulus ideal when one is present."""
        basis = self.subspace_basis(m)
        if self.modulus is None:
            return len(basis)
        index, rs = self.modulus_space(m)
        return sum(rs.add(_vector(p, index)) for p in basis)

    def contains(self, p: Polynomial) -> bool:
        """Membership of a homogeneous polynomial in V at its own degree."""
        dw = degree_and_weight(p)
        if dw == "zero":
            return True
        if dw == "inhomogeneous":
            raise ValueError("membership needs a homogeneous polynomial")
        m = dw[0]
        index, rs = self.modulus_space(m)
        for q in self.subspace_basis(m):
            rs.add(_vector(q, index))
        return rs.contains(_vector(p, index))

    def modulus_space(self, m: int) -> tuple[dict[tuple, int], IntRowSpace]:
        """Column index of the degree-m monomials, and a row space seeded with
        the degree-m piece of the modulus ideal."""
        index = {mon: i for i, mon in enumerate(self.ambient_monomials(m))}
        rs = IntRowSpace(len(index))
        for row in self.modulus_rows(m, index):
            rs.add(row)
        return index, rs


def _vector(p: Polynomial, index: Mapping[tuple, int]) -> list[int]:
    """Integer row of p with its denominators cleared."""
    if not all(is_rational_scalar(c) for c in p.terms.values()):
        raise ValueError("subring computations need rational coefficients")
    return _row(_int_terms(p), index)


def _int_terms(p: Polynomial) -> dict[tuple, int]:
    """Terms of p scaled by the lcm of its denominators (1 for integer p)."""
    mult = lcm(*(c.denominator for c in p.terms.values()))
    return {mon: c.numerator * (mult // c.denominator) for mon, c in p.terms.items()}


def _int_product(f: Mapping[tuple, int], g: Mapping[tuple, int]) -> dict[tuple, int]:
    """Product of two integer term dicts."""
    out: dict[tuple, int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {mon: c for mon, c in out.items() if c}


def _to_poly(desc: RingDescriptor, cols: list[tuple], row: Sequence[int]) -> Polynomial:
    return Polynomial(
        desc, {mon: Fraction(x) for mon, x in zip(cols, row) if x}
    )


def _apply_condition(cond, desc, m, cols, basis):
    if isinstance(cond, WeightCondition):
        target = cond.weight % desc.torsion_order
        wrong = [j for j, mon in enumerate(cols) if desc.monomial_weight(mon) != target]
        constraints = [[row[j] for j in wrong] for row in basis]
        return _combine(basis, int_kernel_basis(_transpose(constraints, len(wrong)), len(basis)))
    if isinstance(cond, SubstitutionParityCondition):
        sign = cond.sign(m)
        images = []
        target_index: dict[tuple, int] = {}
        for row in basis:
            p = _to_poly(desc, cols, row)
            val = p.substitute(cond.sigma1) - p.substitute(cond.sigma2).scale(sign)
            for mon in val.terms:
                target_index.setdefault(mon, len(target_index))
            images.append(val)
        constraint_rows = []
        for t, ti in sorted(target_index.items(), key=lambda kv: kv[1]):
            constraint_rows.append(
                scale_to_int([img.coefficient(t) for img in images])
            )
        return _combine(basis, int_kernel_basis(constraint_rows, len(basis)))
    if isinstance(cond, CongruenceImageCondition):
        even_idx = [desc.index(v) for v in cond.even_variables]
        span_rows = []
        for j, mon in enumerate(cols):
            if all(mon[i] % 2 == 0 for i in even_idx):
                row = [0] * len(cols)
                row[j] = 1
                span_rows.append(row)
        index = {mon: i for i, mon in enumerate(cols)}
        for f in cond.modulus:
            dw = degree_and_weight(f)
            if not isinstance(dw, tuple):
                raise ValueError("modulus polynomials must be homogeneous")
            for mult in enumerate_monomials(desc, m - dw[0]):
                prod = Polynomial(desc, {mult: Fraction(1)}) * f
                span_rows.append(_vector(prod, index))
        return _intersect(basis, span_rows, len(cols))
    raise TypeError(f"unknown condition {cond!r}")


def _transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def _combine(basis, coeff_vectors):
    out = []
    for coeffs in coeff_vectors:
        row = [0] * len(basis[0]) if basis else []
        for c, b in zip(coeffs, basis):
            if c:
                row = [u + c * v for u, v in zip(row, b)]
        out.append(row)
    return out


def _intersect(basis, span_rows, ncols):
    """Basis of span(basis) ∩ span(span_rows)."""
    if not basis or not span_rows:
        return []
    stacked = []
    for j in range(ncols):
        stacked.append([row[j] for row in basis] + [-row[j] for row in span_rows])
    kern = int_kernel_basis(stacked, len(basis) + len(span_rows))
    return [row for row in (_combine(basis, [k[: len(basis)]])[0] for k in kern) if any(row)]


# ---------------------------------------------------------------------------
# Generators, relations, verification


@dataclass
class SubringPresentation:
    generators: list[tuple[Polynomial, int]]
    generator_census: dict[int, int]
    relation_census: dict[int, int]
    relations: list[Polynomial]  # in the free ring on generator symbols
    free_ring: RingDescriptor
    hilbert: dict[int, int]  # dim V_m
    max_degree: int
    warning: str | None = None


@dataclass
class GeneratorListReport:
    memberships: list[tuple[int, int, bool]]  # (index, degree, in V)
    generation: dict[int, tuple[int, int, bool]]  # m -> (dim V_m, dim span, ok)
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = all(x[2] for x in self.memberships) and all(
            v[2] for v in self.generation.values()
        )


class SubringBuilder:
    """Degree-by-degree generator selection and relation counting."""

    def __init__(self, predicate: MembershipPredicate):
        self.pred = predicate
        self.desc = predicate.descriptor

    def minimal_generators(self, max_degree: int) -> list[tuple[Polynomial, int]]:
        gens, _ = self._generators_with_spans(max_degree)
        return gens

    def _generators_with_spans(self, max_degree: int):
        """Selected generators plus spanning products of the subalgebra
        pieces, as integer term dicts."""
        gens: list[tuple[Polynomial, int]] = []
        span_terms = {0: [_int_terms(self.desc.one())]}
        for m in range(1, max_degree + 1):
            index, rs, piece = self._product_span(gens, span_terms, m)
            # Basis elements are primitive integer rows already (int_rref).
            for v in self.pred.subspace_basis(m):
                terms = _int_terms(v)
                if rs.add(_row(terms, index)):
                    piece.append(terms)
                    gens.append((v, m))
            span_terms[m] = piece
        return gens, span_terms

    def _product_span(self, gens, span_terms, m: int):
        """Independent degree-m products g*b with b in span_terms[m - deg g],
        reduced modulo the modulus; returns (index, row space, products).

        Factors are integer term dicts: scaling a factor does not change the
        span, and the row space stores primitive rows."""
        index, rs = self.pred.modulus_space(m)
        piece: list[dict[tuple, int]] = []
        for g, dg in gens:
            if dg <= m:
                g_terms = _int_terms(g)
                for b in span_terms[m - dg]:
                    prod = _int_product(g_terms, b)
                    if rs.add(_row(prod, index)):
                        piece.append(prod)
        return index, rs, piece

    def presentation(self, max_degree: int) -> SubringPresentation:
        gens, _ = self._generators_with_spans(max_degree)
        gen_census: dict[int, int] = {}
        for _, dg in gens:
            gen_census[dg] = gen_census.get(dg, 0) + 1
        names = tuple(f"g{i+1}" for i in range(len(gens)))
        free = RingDescriptor(
            names,
            tuple(dg for _, dg in gens),
            (0,) * len(gens),
            torsion_order=1,
            scalar_order=1,
        )
        # Generators are primitive integer rows, so their integer term dicts
        # are their exact values and the evaluation map is unscaled.
        gen_terms = [_int_terms(g) for g, _ in gens]
        eval_memo = {(0,) * len(gens): _int_terms(self.desc.one())}

        def evaluate(exps: tuple) -> dict[tuple, int]:
            cached = eval_memo.get(exps)
            if cached is not None:
                return cached
            i = next(k for k, e in enumerate(exps) if e)
            prev = list(exps)
            prev[i] -= 1
            value = _int_product(evaluate(tuple(prev)), gen_terms[i])
            eval_memo[exps] = value
            return value

        relations: list[Polynomial] = []
        relation_census: dict[int, int] = {}
        hilbert: dict[int, int] = {0: 1}
        for m in range(1, max_degree + 1):
            hilbert[m] = self.pred.dim(m)
            free_mons = enumerate_monomials(free, m)
            if not free_mons:
                relation_census[m] = 0
                continue
            index = {mon: i for i, mon in enumerate(self.pred.ambient_monomials(m))}
            # Kernel of the evaluation map, allowing for the modulus ideal.
            mod_rows = self.pred.modulus_rows(m, index)
            width = len(free_mons) + len(mod_rows)
            stacked = [[0] * width for _ in index]
            for u, mon in enumerate(free_mons):
                for amb, x in evaluate(mon).items():
                    stacked[index[amb]][u] = x
            for k, mrow in enumerate(mod_rows):
                for j, x in enumerate(mrow):
                    if x:
                        stacked[j][len(free_mons) + k] = x
            kernel = int_kernel_basis(stacked, width)
            free_index = {mon: i for i, mon in enumerate(free_mons)}
            ideal_rows = IntRowSpace(len(free_mons))
            for rel in relations:
                # Relations are primitive integer rows: their terms are exact.
                rel_terms = _int_terms(rel)
                dw = degree_and_weight(rel)
                dr = dw[0] if isinstance(dw, tuple) else 0
                for mult in enumerate_monomials(free, m - dr):
                    prod = _int_product({mult: 1}, rel_terms)
                    ideal_rows.add(_row(prod, free_index))
            new_count = 0
            for k in sorted(kernel, key=lambda v: v[: len(free_mons)]):
                xpart = k[: len(free_mons)]
                if not any(xpart):
                    continue
                if ideal_rows.add(xpart):
                    relations.append(_to_poly(free, free_mons, _primitive(xpart)))
                    new_count += 1
            relation_census[m] = new_count
        warning = None
        if max_degree < 10:
            warning = "census may be truncated"
        return SubringPresentation(
            generators=gens,
            generator_census=dict(sorted(gen_census.items())),
            relation_census=dict(sorted(relation_census.items())),
            relations=relations,
            free_ring=free,
            hilbert=hilbert,
            max_degree=max_degree,
            warning=warning,
        )

    def verify_generator_list(
        self, claimed: Sequence[Polynomial], max_degree: int
    ) -> GeneratorListReport:
        memberships = []
        degreed: list[tuple[Polynomial, int]] = []
        for i, p in enumerate(claimed):
            dw = degree_and_weight(p)
            if not isinstance(dw, tuple):
                raise ValueError(f"claimed generator {i} is not homogeneous")
            degreed.append((p, dw[0]))
            memberships.append((i, dw[0], self.pred.contains(p)))
        generation: dict[int, tuple[int, int, bool]] = {}
        span_terms = {0: [_int_terms(self.desc.one())]}
        for m in range(1, max_degree + 1):
            _, _, span_terms[m] = self._product_span(degreed, span_terms, m)
            target = self.pred.dim(m)
            achieved = len(span_terms[m])
            generation[m] = (target, achieved, achieved == target)
        return GeneratorListReport(memberships=memberships, generation=generation)

    def closure_spot_checks(
        self, max_degree: int, seed: int = 42, trials: int = 12
    ) -> list[tuple[int, int, bool]]:
        """Random products p*q with p in V_i, q in V_j must land in V_{i+j}."""
        rng = random.Random(seed)
        results = []
        degrees = [m for m in range(1, max_degree) if self.pred.subspace_basis(m)]
        for _ in range(trials):
            i = rng.choice(degrees)
            j_choices = [j for j in degrees if i + j <= max_degree]
            if not j_choices:
                continue
            j = rng.choice(j_choices)
            p = _random_combination(self.pred.subspace_basis(i), rng)
            q = _random_combination(self.pred.subspace_basis(j), rng)
            results.append((i, j, self.pred.contains(p * q)))
        return results


def _random_combination(basis: list[Polynomial], rng: random.Random) -> Polynomial:
    desc = basis[0].descriptor
    out = desc.zero()
    while out.is_zero():
        out = desc.zero()
        for b in basis:
            out = out + b.scale(Fraction(rng.randint(-9, 9)))
    return out
