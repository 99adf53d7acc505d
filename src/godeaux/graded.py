"""Finitely presented bi-graded rings: graded pieces of ideals and quotients.

Ideal pieces are spanned brute-force by monomial multiples of the relations
and ranked exactly; no Groebner bases.  Rational presentations use the
integer row space, cyclotomic ones the field row space (both in `linalg`).
Per-(degree, weight) results are memoised write-once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .action import weight_space_dim
from .linalg import GenericRowSpace, IntRowSpace, solve_columns
from .poly import (
    Polynomial,
    RingDescriptor,
    degree_and_weight,
    enumerate_monomials,
    grevlex_key,
)
from .scalars import Scalar, is_rational_scalar


@dataclass
class HilbertTable:
    """Dimensions of the graded quotient pieces for 0 <= m <= max_degree."""

    max_degree: int
    torsion_order: int
    entries: dict[tuple[int, int], int]

    def dim(self, m: int, w: int) -> int:
        return self.entries[(m, w % self.torsion_order)]

    def total(self, m: int) -> int:
        return sum(self.entries[(m, w)] for w in range(self.torsion_order))

    def row(self, m: int) -> tuple[int, ...]:
        return tuple(self.entries[(m, w)] for w in range(self.torsion_order))


@dataclass
class Membership:
    """Result of a truncated ideal-membership test.

    The certificate lists (relation index, multiplier exponents, coefficient)
    triples whose combination reproduces the polynomial exactly.
    """

    contained: bool
    certificate: list[tuple[int, tuple, Scalar]] | None


class GradedPresentation:
    """A ring given by a descriptor and homogeneous relation polynomials."""

    def __init__(self, descriptor: RingDescriptor, relations, param_cap: int = 1):
        self.descriptor = descriptor
        self.param_cap = param_cap
        self.relations: list[Polynomial] = []
        self.relation_bidegrees: list[tuple[int, int]] = []
        for r in relations:
            if r.is_zero():
                raise ValueError("relations must be nonzero")
            dw = degree_and_weight(r)
            if not isinstance(dw, tuple):
                raise ValueError(f"relation {r} is not bihomogeneous")
            self.relations.append(r)
            self.relation_bidegrees.append(dw)
        self._rational = all(
            is_rational_scalar(c) for r in self.relations for c in r.terms.values()
        )
        self._pieces: dict[tuple[int, int], _IdealPiece] = {}

    def ambient_dim(self, m: int, w) -> int:
        return weight_space_dim(self.descriptor, m, w, param_cap=self.param_cap)

    def ambient_monomials(self, m: int, w) -> list[tuple]:
        return enumerate_monomials(self.descriptor, m, w, param_cap=self.param_cap)

    def _piece(self, m: int, w: int) -> "_IdealPiece":
        key = (m, w % self.descriptor.torsion_order)
        piece = self._pieces.get(key)
        if piece is None:
            piece = _IdealPiece(self, *key)
            self._pieces[key] = piece
        return piece

    def quotient_dim(self, m: int, w) -> int:
        """dim of the degree-(m, w) piece of the quotient (w="all" sums weights).

        With degree-0 parameters this is the span A of the capped ambient
        monomials modulo its intersection with the ideal.
        """
        if w == "all":
            return sum(
                self.quotient_dim(m, ww) for ww in range(self.descriptor.torsion_order)
            )
        return self.ambient_dim(m, w) - len(self._piece(m, w).ambient_pivots())

    def quotient_monomial_basis(self, m: int, w: int) -> list[tuple]:
        """Monomials whose classes form a basis of the quotient piece."""
        piece = self._piece(m, w)
        pivot = set(piece.ambient_pivots())
        start = piece.ambient_start
        return [
            mon for i, mon in enumerate(piece.monomials[start:], start) if i not in pivot
        ]

    def ideal_piece(self, m: int, w: int) -> list[Polynomial]:
        """Exact basis of the span of monomial multiples of the relations."""
        piece = self._piece(m, w)
        basis = []
        for row in piece.rowspace.rows():
            terms = {
                mon: Fraction(x) if isinstance(x, int) else x
                for mon, x in zip(piece.monomials, row)
                if x != 0
            }
            basis.append(Polynomial(self.descriptor, terms))
        return basis

    def hilbert(self, max_degree: int) -> HilbertTable:
        d = self.descriptor.torsion_order
        entries = {
            (m, w): self.quotient_dim(m, w)
            for m in range(max_degree + 1)
            for w in range(d)
        }
        return HilbertTable(max_degree, d, entries)

    def reduces_to_zero(self, p: Polynomial) -> Membership:
        """Truncated ideal membership with an exact certificate."""
        dw = degree_and_weight(p)
        if dw == "zero":
            return Membership(True, [])
        if dw == "inhomogeneous":
            raise ValueError("ideal membership needs a bihomogeneous polynomial")
        m, w = dw
        piece = self._piece(m, w)
        # Local columns: a query never extends the memoised piece.
        index = dict(piece.index)
        for mon in p.terms:
            index.setdefault(mon, len(index))
        columns = []
        tags = []
        for ri, mult, poly in piece.generating_multiples():
            columns.append(_row(poly.terms, index))
            tags.append((ri, mult))
        target = _row(p.terms, index)
        coords = solve_columns(columns, target)
        if coords is None:
            return Membership(False, None)
        certificate = [
            (tags[i][0], tags[i][1], c) for i, c in enumerate(coords) if c != 0
        ]
        return Membership(True, certificate)

    def verify_certificate(self, p: Polynomial, membership: Membership) -> bool:
        """Recombine a certificate and compare with p exactly."""
        if not membership.contained or membership.certificate is None:
            return False
        total = self.descriptor.zero()
        for ri, mult, coeff in membership.certificate:
            mono = Polynomial(self.descriptor, {tuple(mult): Fraction(1)})
            total = total + (self.relations[ri] * mono).scale(coeff)
        return total == p

    def koszul_prediction(self, m: int, w: int) -> int:
        """Inclusion-exclusion dimension if the relations were a regular sequence."""
        d = self.descriptor.torsion_order
        total = 0
        r = len(self.relations)
        for size in range(r + 1):
            for subset in combinations(range(r), size):
                mm = m - sum(self.relation_bidegrees[i][0] for i in subset)
                ww = (w - sum(self.relation_bidegrees[i][1] for i in subset)) % d
                if mm >= 0:
                    total += (-1) ** size * self.ambient_dim(mm, ww)
        return total

    def koszul_check(self, max_degree: int) -> bool:
        """True iff quotient dimensions match the regular-sequence prediction."""
        d = self.descriptor.torsion_order
        for m in range(max_degree + 1):
            for w in range(d):
                if self.quotient_dim(m, w) != self.koszul_prediction(m, w):
                    return False
        return True

    def multiplication_injectivity(self, var: str, max_degree: int) -> bool:
        """True iff multiplication by var is injective on all quotient pieces
        of degree <= max_degree (checked per torsion weight)."""
        desc = self.descriptor
        vi = desc.index(var)
        vdeg = desc.degrees[vi]
        vwt = desc.weights[vi]
        if vdeg == 0:
            raise ValueError("injectivity check needs a positive-degree variable")
        for m in range(max_degree + 1):
            for w in range(desc.torsion_order):
                source = self.quotient_monomial_basis(m, w)
                if not source:
                    continue
                target = self._piece(m + vdeg, (w + vwt) % desc.torsion_order)
                probe = target.rowspace.copy()
                for mon in source:
                    shifted = list(mon)
                    shifted[vi] += 1
                    row = target.unit_row(tuple(shifted))
                    if not probe.add(row):
                        return False
        return True


class _IdealPiece:
    """Reduced span of {monomial * relation} at one (degree, weight).

    Columns are fixed when the piece is built: first the monomials that
    relation multiples reach beyond the parameter cap, then the ambient
    monomials.  Rows pivoting among the ambient columns are zero on the
    others, so they span the ideal's intersection with the ambient span.
    """

    def __init__(self, pres: GradedPresentation, m: int, w: int):
        self.pres = pres
        self.m = m
        self.w = w
        self._multiples: list[tuple[int, tuple, Polynomial]] = []
        desc = pres.descriptor
        for ri, (r, (dr, wr)) in enumerate(zip(pres.relations, pres.relation_bidegrees)):
            if dr > m:
                continue
            for mult in enumerate_monomials(
                desc, m - dr, (w - wr) % desc.torsion_order, param_cap=pres.param_cap
            ):
                mono = Polynomial(desc, {mult: Fraction(1)})
                self._multiples.append((ri, mult, mono * r))
        ambient = pres.ambient_monomials(m, w)
        known = set(ambient)
        outside = {
            mon for _, _, poly in self._multiples for mon in poly.terms if mon not in known
        }
        self.ambient_start = len(outside)
        self.monomials = sorted(outside, key=grevlex_key) + ambient
        self.index = {mon: i for i, mon in enumerate(self.monomials)}
        n = len(self.monomials)
        self.rowspace = IntRowSpace(n) if pres._rational else GenericRowSpace(n)
        for _, _, poly in self._multiples:
            self.rowspace.add(_row(poly.terms, self.index))

    def ambient_pivots(self) -> list[int]:
        return [c for c in self.rowspace.pivot_columns() if c >= self.ambient_start]

    def unit_row(self, mon: tuple) -> list:
        desc = self.pres.descriptor
        if (desc.monomial_degree(mon), desc.monomial_weight(mon)) != (self.m, self.w):
            raise ValueError(f"monomial {mon} is not of bidegree ({self.m}, {self.w})")
        if mon not in self.index:
            raise ValueError(f"monomial {mon} is beyond the parameter cap")
        row = [0] * len(self.monomials)
        row[self.index[mon]] = 1
        return row

    def generating_multiples(self):
        return self._multiples


def _row(terms: Mapping[tuple, Scalar], index: Mapping[tuple, int]) -> list:
    """Dense row of the coefficients in terms, in the column order of index."""
    row: list = [0] * len(index)
    for mon, c in terms.items():
        row[index[mon]] = c
    return row
