"""Finitely presented bi-graded rings: graded pieces of ideals and quotients.

Ideal pieces are spanned by monomial multiples of the relations and ranked
exactly; no Groebner basis is computed.  A lead certificate
(`LeadCertificate`) can still show, by Buchberger's criterion, that the
relations already are one in a weighted reverse-lex order, with no piece
built; the quotient dimensions are then counts of the monomials that no
lead divides, at every value of the degree-0 variables.
Each relation's terms are kept once as a row: integers (its terms times the
lcm of their denominators) for a rational presentation, the scalars
themselves for a cyclotomic one.  A multiple is that row shifted to the
multiplier's columns, with no polynomial product, and enters the row space
(`linalg`: the integer one over Q, the field one otherwise) as a dict of
its few nonzeros.  The monomials of each degree are enumerated once per
process, and per-(degree, weight) results are memoised write-once.  A
membership certificate is solved on the same shifted rows, taken as the
columns of a sparse system (`linalg.solve_columns`, fraction-free over Q).

When every variable has positive degree, a piece skips the multiples that
the F5 criterion (Faugere 2002, the Koszul syzygies) proves redundant, as in
the Macaulay-matrix form of F5 (Bardet, Faugere and Salvy).  Relations enter
in the given order, so the pivots of a piece's rows of r_0, ..., r_{j-1} are
the leading monomials, first in column order, of the elements of
(r_0, ..., r_{j-1}) in its bidegree.  The multiple t * r_j is skipped if t
is one of them in the memoised piece of t's bidegree: t leads some
g = t + (later terms) of (r_0, ..., r_{j-1}), and in
t * r_j = g * r_j - (g - t) * r_j, g * r_j is a combination of multiples of
r_0 ... r_{j-1} and (g - t) * r_j one of multiples s * r_j, s after t.
By induction on (j, t), t from the last column, every skipped multiple lies
in the span of the rows kept, so the span, rank, pivot columns and reduced
echelon form do not change, whatever order one relation's rows enter in.
A piece built before its lower piece keeps those multiples.  The parameter
cap on degree-0 variables drops some multiples the induction needs, so the
pieces of such rings keep every multiple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from operator import add, le, sub

from .action import weight_space_dim
from .linalg import GenericRowSpace, IntRowSpace, _clear_denominators, solve_columns
from .poly import (
    Polynomial,
    RingDescriptor,
    _accumulate,
    degree_and_weight,
    enumerate_monomials,
    grevlex_key,
    weighted_revlex_key,
)
from .record import Record
from .scalars import Scalar, is_rational_scalar, scalar_inv


class HilbertTable(Record):
    """Dimensions of the graded quotient pieces for 0 <= m <= max_degree."""

    __slots__ = ("max_degree", "torsion_order", "entries")

    def __init__(self, max_degree: int, torsion_order: int, entries: dict[tuple[int, int], int]):
        self.max_degree, self.torsion_order, self.entries = max_degree, torsion_order, entries

    def dim(self, m: int, w: int) -> int:
        return self.entries[(m, w % self.torsion_order)]

    def total(self, m: int) -> int:
        return sum(self.entries[(m, w)] for w in range(self.torsion_order))

    def row(self, m: int) -> tuple[int, ...]:
        return tuple(self.entries[(m, w)] for w in range(self.torsion_order))


class Membership(Record):
    """Result of a truncated ideal-membership test.

    The certificate lists (relation index, multiplier exponents, coefficient)
    triples whose combination reproduces the polynomial exactly.
    """

    __slots__ = ("contained", "certificate")

    def __init__(self, contained: bool, certificate: list[tuple[int, tuple, Scalar]] | None):
        self.contained, self.certificate = contained, certificate


class GradedPresentation:
    """A ring given by a descriptor and homogeneous relation polynomials."""

    def __init__(self, descriptor: RingDescriptor, relations):
        self.descriptor = descriptor
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
        self._rows = [_relation_row(r, self._rational) for r in self.relations]
        self._pieces: dict[tuple[int, int], _IdealPiece] = {}

    def ambient_dim(self, m: int, w) -> int:
        return weight_space_dim(self.descriptor, m, w)

    def ambient_monomials(self, m: int, w) -> list[tuple]:
        return enumerate_monomials(self.descriptor, m, w)

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
        piece = self._piece(m, w)
        ambient = len(piece.monomials) - piece.ambient_start
        return ambient - len(piece.ambient_pivots())

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
        rs = piece.rowspace
        basis = []
        for col in rs.pivot_columns():
            terms = {
                piece.monomials[c]: Fraction(x) if isinstance(x, int) else x
                for c, x in rs.row_nonzeros(col).items()
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
        """Truncated ideal membership with an exact certificate.

        Solves over the multiples mult * r themselves, so no piece is built.
        The column of mult * r_j is r_j's relation row shifted to the
        monomials mult + e, as in `_IdealPiece`, with no polynomial product,
        and `solve_columns` solves the system on its nonzeros (fraction-free
        over Q).  A relation row is r_j times its scale, so each coordinate
        is multiplied back by that scale.
        """
        dw = degree_and_weight(p)
        if dw == "zero":
            return Membership(True, [])
        if dw == "inhomogeneous":
            raise ValueError("ideal membership needs a bihomogeneous polynomial")
        m, w = dw
        tags = _tags(_multipliers(self, m, w))
        columns = []
        for ri, mult in tags:
            exps, coeffs, _ = self._rows[ri]
            columns.append({tuple(map(add, mult, e)): c for e, c in zip(exps, coeffs)})
        coords = solve_columns(columns, p.terms)
        if coords is None:
            return Membership(False, None)
        certificate = [
            (ri, mult, c * self._rows[ri][2])
            for (ri, mult), c in zip(tags, coords)
            if c != 0
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
                shifted = [mon[:vi] + (mon[vi] + 1,) + mon[vi + 1 :] for mon in source]
                if not self.independent_in_quotient(m + vdeg, w + vwt, shifted):
                    return False
        return True

    def independent_in_quotient(self, m: int, w: int, monomials) -> bool:
        """True iff the classes of the monomials are linearly independent in
        the quotient piece (m, w); ValueError for a monomial outside it."""
        piece = self._piece(m, w)
        rows = [piece.unit_row(mon) for mon in monomials]
        probe = piece.rowspace.copy()
        return all(probe.add_nonzeros(row) for row in rows)


class LeadCertificate:
    """Buchberger's criterion (1965) in the weighted reverse-lex order with
    the variables of positive degree ranked as given
    (`poly.weighted_revlex_key`).  Degree-0 variables, such as symbolic
    parameters a, make up the coefficient ring: the relations live in
    K[a][x], K the scalar field.  A relation is its term dict, and the
    x-monomial of a term is its exponents with the degree-0 slots set to 0.

    `leads` is L, the minimal leading x-monomials of the relations, largest
    first; `pairs` are the pairs of leads that share a variable; `degree` is
    D, the larger of the top relation degree and the largest lcm degree of
    those pairs.  G takes, for each lead, the first relation with it.  The
    certificate closes iff each lead coefficient of G is one term, at the
    lead itself, and, with G made monic, every relation and the S-pair of
    every pair in `pairs` top-reduce to zero by G; no piece is built.

    Why closing makes G a Groebner basis of the ideal I of the relations:
    each relation reduces to zero, so (G) = I.  A top-reduction to zero of
    the S-pair of g and h writes it as a sum of terms c * t * g_k with
    t * lead(g_k) below lcm(lead(g), lead(h)); with Buchberger's first
    criterion for the pairs of coprime leads, that is Buchberger's
    criterion.  So in(I) = (L) in every degree, and the quotient dimensions
    are the counts of the monomials that no lead divides.
    Why it holds at every parameter value (Gianni 1987; Kalkbrener 1997):
    G is monic, so every reduction step divides by nothing and only
    multiplies and subtracts in K[a].  Substituting values for a maps each
    step to a step of the same shape, with the same leads, for the
    specialised relations.  So these representations survive, and the
    specialised G is a Groebner basis of the specialised ideal with the
    same leads and the same counts.
    If a variable v divides no lead, multiplication by v is injective on
    the quotient (as in Bayer and Stillman 1987): if v * f lies in I, let f'
    be f's remainder by G.  If f' were nonzero, a lead would divide
    in(v * f') = v * in(f'), so also in(f'), a term of a remainder.
    """

    __slots__ = ("pres", "leads", "pairs", "degree", "_key", "_standard")

    def __init__(self, pres: GradedPresentation, ranking):
        desc = pres.descriptor
        self._key = key = weighted_revlex_key(desc, ranking)
        self.pres = pres
        heads = set(self._heads())
        self.leads = sorted(
            (t for t in heads if not any(s != t and all(map(le, s, t)) for s in heads)),
            key=key,
            reverse=True,
        )
        self.pairs = [(s, t) for s, t in combinations(self.leads, 2) if any(map(min, s, t))]
        lcm_degrees = [desc.monomial_degree(map(max, s, t)) for s, t in self.pairs]
        self.degree = max(lcm_degrees + [d for d, _ in pres.relation_bidegrees], default=0)
        self._standard = None

    def _heads(self) -> list[tuple]:
        """Per relation, the x-monomial of its leading term: its exponents
        with the degree-0 slots set to 0."""
        degrees = self.pres.descriptor.degrees
        return [
            tuple(k if d else 0 for k, d in zip(max(exps, key=self._key), degrees))
            for exps, _, _ in self.pres._rows
        ]

    def standard_counts(self, top: int) -> dict[tuple[int, int], int]:
        """Per bidegree (m, w) with m <= top, the number of monomials in the
        variables of positive degree that no lead divides; each is walked
        once per certificate."""
        if self._standard is None:
            self._standard = StandardMonomials(self.pres.descriptor, self.leads)
        counts = self._standard.counts
        return {(m, w): c for m in range(top + 1) for w, c in enumerate(counts(m))}

    def closes(self) -> bool:
        """True iff G's lead coefficients are nonzero constants and every
        relation and every S-pair in `pairs` top-reduce to zero by G made
        monic, on term dicts built afresh from the rows."""
        key = self._key
        relations = [dict(zip(exps, coeffs)) for exps, coeffs, _ in self.pres._rows]
        heads = self._heads()
        basis, chosen = {}, set()
        for lead in self.leads:
            i = heads.index(lead)
            chosen.add(i)
            tail = relations[i]
            if [e for e in tail if key(e) == key(lead)] != [lead]:  # a parameter in it
                return False
            c = tail.pop(lead)
            if c != 1:
                inv = scalar_inv(c)
                tail = {e: v * inv for e, v in tail.items()}
            basis[lead] = tail
        rest = [f for i, f in enumerate(relations) if i not in chosen]
        for s, t in self.pairs:
            # (l / s) * g - (l / t) * h for the monic g and h: the leads cancel.
            l = tuple(map(max, s, t))
            f = _shifted(basis[s], tuple(map(sub, l, s)), 1)
            _accumulate(f, _shifted(basis[t], tuple(map(sub, l, t)), -1))
            rest.append(f)
        return all(_top_reduces_to_zero(f, basis, key) for f in rest)

    def divides_no_lead(self, var: str) -> bool:
        """True iff var divides no lead: once the certificate closes,
        multiplication by var is then injective in every degree."""
        i = self.pres.descriptor.index(var)
        return not any(lead[i] for lead in self.leads)


def _shifted(terms: dict, shift: tuple, c: Scalar) -> dict:
    """The term dict of c * x^shift * terms."""
    return {tuple(map(add, shift, e)): c * v for e, v in terms.items()}


def _top_reduces_to_zero(f: dict, basis: dict, key) -> bool:
    """Whether the term dict f top-reduces to zero by the monic elements
    {lead: tail}: while f is nonzero, a lead must divide its leading
    x-monomial, and each term of f at that x-monomial, divided by the lead,
    times that element is subtracted.  f is used up."""
    while f:
        x = max(f, key=key)
        for lead, tail in basis.items():
            if all(map(le, lead, x)):
                break
        else:
            return False
        top = key(x)
        for e in [e for e in f if key(e) == top]:
            _accumulate(f, _shifted(tail, tuple(map(sub, e, lead)), -f.pop(e)))
    return True


class StandardMonomials:
    """Per degree, the monomials in the variables of positive degree that no
    lead divides, built one degree at a time from the lower degrees.  They
    are closed under division, so each is reached once, from the monomial
    with one unit less of its last variable, and a step that raises
    variable j to k can only meet the leads whose exponent of j is k.  A
    lead of degree k divides no monomial of lower degree, so `add_leads`
    drops it from the degrees built from k up; a caller that adds each
    degree's leads once it has read that degree's counts, as the relation
    census does, walks every standard monomial once."""

    def __init__(self, desc: RingDescriptor, leads=()):
        self.desc = desc
        # meets[j][k]: the leads whose exponent of variable j is k > 0.
        self._meets: list[dict[int, list[tuple]]] = [{} for _ in range(desc.nvars)]
        # Per degree built: (exponents, weight, last variable raised) of each.
        self._levels = [[((0,) * desc.nvars, 0, 0)]]
        self.add_leads(leads)

    def add_leads(self, leads) -> None:
        levels = self._levels
        for lead in leads:
            for j, k in enumerate(lead):
                if k:
                    self._meets[j].setdefault(k, []).append(lead)
            for m in range(self.desc.monomial_degree(lead), len(levels)):
                levels[m] = [s for s in levels[m] if not all(map(le, lead, s[0]))]

    def counts(self, m: int) -> list[int]:
        """Per torsion weight w, the degree-m monomials that no lead divides."""
        while len(self._levels) <= m:
            self._extend()
        out = [0] * self.desc.torsion_order
        for _, w, _ in self._levels[m]:
            out[w] += 1
        return out

    def _extend(self) -> None:
        """Build the next degree: raise variable j of each monomial whose
        last variable raised is at most j."""
        desc, levels = self.desc, self._levels
        m, d = len(levels), desc.torsion_order
        level = []
        for j, (dj, wj) in enumerate(zip(desc.degrees, desc.weights)):
            if not 0 < dj <= m:
                continue
            meets = self._meets[j]
            for exps, w, last in levels[m - dj]:
                if last > j:
                    continue
                k = exps[j] + 1
                step = exps[:j] + (k,) + exps[j + 1 :]
                leads = meets.get(k)
                if not (leads and any(all(map(le, lead, step)) for lead in leads)):
                    level.append((step, (w + wj) % d, j))
        levels.append(level)


class _IdealPiece:
    """Reduced span of {monomial * relation} at one (degree, weight).

    Columns are fixed when the piece is built: first the monomials that
    relation multiples reach beyond the parameter cap, then the ambient
    monomials.  Rows pivoting among the ambient columns are zero on the
    others, so they span the ideal's intersection with the ambient span.
    The row of mult * r is r's relation row at the columns of mult + e for
    each exponent e of r, handed to the row space as its {column: nonzero}
    dict.  Only pieces of rings with degree-0 variables can have columns
    beyond the cap.

    When every variable has positive degree, the multiple mult * r_j is
    skipped if mult leads an element of (r_0, ..., r_{j-1}) in its own
    bidegree, read off that lower piece if it is memoised (the F5
    criterion).  Relations enter in order, since `_starts` and
    `leading_monomials` read the pivots by relation.  The module docstring
    gives the proof.
    """

    def __init__(self, pres: GradedPresentation, m: int, w: int):
        self.pres = pres
        self.m = m
        self.w = w
        multipliers = _multipliers(pres, m, w)
        # Degree-0 variables are capped, so multiples can reach monomials
        # beyond the cap, and not every multiple the criterion relies on is
        # a row; such pieces keep every multiple.  With every degree positive,
        # each multiple lies in the ambient monomials.
        prune = all(pres.descriptor.degrees)
        ambient = pres.ambient_monomials(m, w)
        outside = set()
        if not prune:
            known = set(ambient)
            for ri, mult in _tags(multipliers):
                outside.update(
                    mon
                    for e in pres._rows[ri][0]
                    if (mon := tuple(map(add, mult, e))) not in known
                )
        self.ambient_start = len(outside)
        self.monomials = sorted(outside, key=grevlex_key) + ambient
        self.index = index = {mon: i for i, mon in enumerate(self.monomials)}
        n = len(self.monomials)
        self.rowspace = IntRowSpace(n) if pres._rational else GenericRowSpace(n)
        # The dimension before each relation's rows: a prefix of the pivots.
        self._starts: list[int] = []
        # Only a lower piece already memoised is read: building it here would
        # recurse once per degree, and callers build pieces in ascending
        # degree anyway.
        d = pres.descriptor.torsion_order
        add_nonzeros = self.rowspace.add_nonzeros
        for ri, mults in enumerate(multipliers):
            self._starts.append(self.rowspace.dim)
            skip = ()
            if prune:
                dr, wr = pres.relation_bidegrees[ri]
                lower = pres._pieces.get((m - dr, (w - wr) % d))
                if lower is not None:
                    skip = lower.leading_monomials(ri)
            exps, coeffs, _ = pres._rows[ri]
            for mult in mults:
                if mult not in skip:
                    add_nonzeros({index[tuple(map(add, mult, e))]: c for e, c in zip(exps, coeffs)})

    def leading_monomials(self, j: int) -> set[tuple]:
        """Leading monomials of the elements of (r_0, ..., r_{j-1}) in this
        bidegree: the pivots of the rows of the relations before r_j."""
        # Pivot rows are stored in the order they were found.
        pivots = islice(self.rowspace._pivots, self._starts[j])
        return {self.monomials[c] for c in pivots}

    def ambient_pivots(self) -> list[int]:
        return [c for c in self.rowspace.pivot_columns() if c >= self.ambient_start]

    def unit_row(self, mon: tuple) -> dict[int, int]:
        """The monomial as a {column: 1} row."""
        desc = self.pres.descriptor
        if (desc.monomial_degree(mon), desc.monomial_weight(mon)) != (self.m, self.w):
            raise ValueError(f"monomial {mon} is not of bidegree ({self.m}, {self.w})")
        if mon not in self.index:
            raise ValueError(f"monomial {mon} is beyond the parameter cap")
        return {self.index[mon]: 1}


def _multipliers(pres: GradedPresentation, m: int, w: int) -> list[list[tuple]]:
    """Per relation r, in order, the monomials mult with mult * r of
    bidegree (m, w)."""
    desc = pres.descriptor
    return [
        enumerate_monomials(desc, m - dr, (w - wr) % desc.torsion_order) if dr <= m else []
        for dr, wr in pres.relation_bidegrees
    ]


def _tags(multipliers: list[list[tuple]]) -> list[tuple[int, tuple]]:
    """(relation index, mult) of every multiple, relation by relation."""
    return [(ri, mult) for ri, mults in enumerate(multipliers) for mult in mults]


def _relation_row(r: Polynomial, rational: bool) -> tuple[list[tuple], list, int]:
    """(exponents, coefficients, scale) of r, the coefficients being scale
    times r's: over Q scale is the lcm of their denominators, giving the
    integer row the row space would derive; otherwise 1."""
    terms, mult = _clear_denominators(r.terms) if rational else (r.terms, 1)
    return list(terms), list(terms.values()), mult
