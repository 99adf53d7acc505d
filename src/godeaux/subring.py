"""Graded subrings cut out by degree-wise linear membership conditions.

In degree m each primitive condition (torsion-weight selection, congruence to
an even-power image modulo given polynomials, equality of two substitutions up
to a parity sign) gives integer linear functionals on the degree-m monomials;
V_m is their common kernel, in reduced echelon form.
On top of that the builder finds minimal generators, a relation census, and
verifies claimed generator lists, all by exact integer linear algebra.

Products lie in V_m when V is closed under products, i.e. no weight
condition has weight != 0 mod d, and every factor lies in V; there a product
span stops at dim V_m, and elsewhere it reduces every product.  Generation is
certified by leading monomials, as for SAGBI bases (Robbiano and Sweedler
1990, "Subalgebra bases"): the lead of a product g*b is lead(g) + lead(b), so
one product per new leading column enters with no elimination step, before
the colliding ones.  Once degree k's span reaches dim V_k, later degrees take
V_k's reduced echelon basis as the factors b, which spans the same space.

The relation census counts first.  Let I be the ideal of the relations
found below degree m, and L their leads, interreduced per degree in the
weighted reverse-lex order with the last generator largest (g13 > ... > g1
for sc; `poly.weighted_revlex_key`).  Every lead lies in in(I), so by
Macaulay's basis theorem dim (k[g]/I)_m <= count_m(L), the degree-m
monomials that no lead divides (`graded.StandardMonomials`).  I lies in the
evaluation kernel, so dim (k[g]/I)_m >= dim of the image, the degree's
product span.  When count_m(L) equals that dimension, I_m is the whole
kernel in degree m and no relation is new.  Otherwise the exact path runs
over Z (`SubringBuilder._exact_relations`): the evaluation kernel is built
on the rows at the pivot columns of the degree's product span only, which
have the full rank, and the new relations are the greedy choice from the
sorted kernel, found by matroid duality in one elimination of the ideal
multiples written in kernel coordinates (`_relations_by_duality`).  Their
interreduced leads join L.  The free monomials of a degree are enumerated
only where the exact path needs them: its own degree, and the degrees of
its multipliers.

Each V_m is kept once (`MembershipPredicate._space`), as its reduced echelon
basis: integer term dicts keyed by packed monomials (`godeaux.poly.pack`:
one int with an 8-bit field per variable, Monagan and Pearce 2007), whose
columns `poly.monomial_columns` indexes once per ring and degree.  Every
term dict that is multiplied, shifted or indexed is keyed so, and a monomial
product is one int addition: the basis, the product spans and their
factors, the closure products, the substitution and evaluation maps' images
and memo values, the congruence multiples, and over the free ring the
relation multiples.  A `Polynomial` is packed once where it enters
(`contains`, `verify_generator_list`, the maps' images and the congruence
moduli) and unpacked once where it leaves (`_unpacked`); the relations are
read off their free-ring columns.  A field holds exponents 0..255; packing
refuses a larger one with ValueError.  A sum never carries into the next
field: every packed product lands in a degree all of whose monomials were
packed first (`poly.monomial_columns` of the ambient or free ring), the maps
bound their image exponents before multiplying, and the closure checks
refuse a degree above 255 (every variable of the builder has positive
degree, so no exponent exceeds the degree).
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .graded import StandardMonomials
from .linalg import IntRowSpace, _clear_denominators, int_kernel_basis, int_kernel_rref
from .poly import (
    FIELD_BITS,
    Polynomial,
    RingDescriptor,
    _packed_product,
    degree_and_weight,
    enumerate_monomials,
    monomial_columns,
    pack,
    unpack,
    weighted_revlex_key,
)
from .record import Record
from .scalars import is_rational_scalar


class WeightCondition(Record):
    """Torsion weight equals a constant."""

    __slots__ = ("weight",)

    def __init__(self, weight: int):
        self.weight = weight


class CongruenceImageCondition(Record):
    """Membership in (span of monomials with even exponents in the listed
    variables) + (multiples of the given polynomials), degree by degree."""

    __slots__ = ("even_variables", "modulus")

    def __init__(self, even_variables: tuple[str, ...], modulus: tuple[Polynomial, ...]):
        self.even_variables, self.modulus = even_variables, modulus


class SubstitutionParityCondition(Record):
    """Linear condition sigma1(g) = sign_base^m * sigma2(g) in degree m."""

    __slots__ = ("sigma1", "sigma2", "sign_base")

    def __init__(self, sigma1: Mapping[str, Polynomial], sigma2: Mapping[str, Polynomial],
                 sign_base: int = -1):
        self.sigma1, self.sigma2, self.sign_base = sigma1, sigma2, sign_base

    def sign(self, m: int) -> int:
        return self.sign_base ** m


Condition = WeightCondition | CongruenceImageCondition | SubstitutionParityCondition


class MembershipPredicate:
    """Degree-wise intersection of primitive linear conditions."""

    def __init__(self, descriptor: RingDescriptor, conditions: Sequence[Condition]):
        self.descriptor = descriptor
        self.conditions = tuple(conditions)
        self._cache: dict[int, list[Polynomial]] = {}
        # Per degree, V_m's reduced echelon basis (`_space`).
        self._spaces: dict[int, list[dict[int, int]]] = {}
        # Substitution maps of the parity conditions, by condition index,
        # kept across degrees; a map that fails to build is not kept.
        self._maps: dict[int, tuple[_MonomialMap, _MonomialMap]] = {}
        d = descriptor.torsion_order
        # Weight-0, congruence-image and parity conditions are multiplicative
        # (the last two as even monomials and ring maps are), so V is then a
        # subring: products of elements of V lie in V.
        self.closed_under_products = all(
            isinstance(c, (CongruenceImageCondition, SubstitutionParityCondition))
            or (isinstance(c, WeightCondition) and c.weight % d == 0)
            for c in self.conditions
        )

    def ambient_monomials(self, m: int) -> list[tuple]:
        return enumerate_monomials(self.descriptor, m)

    def subspace_basis(self, m: int) -> list[Polynomial]:
        """V_m's reduced echelon basis as polynomials, in a fresh list."""
        basis = self._cache.get(m)
        if basis is None:
            basis = self._cache[m] = [_unpacked(self.descriptor, t) for t in self._space(m)]
        return list(basis)

    def _functionals(self, m: int, cols: list[tuple]) -> list[dict[int, int]]:
        """Integer functionals of all the conditions on the degree-m
        monomials cols, as {column: nonzero} rows; V_m is their common
        kernel."""
        functionals = []
        for k, cond in enumerate(self.conditions):
            if isinstance(cond, SubstitutionParityCondition):
                rows = _parity_constraints(self._substitutions(k), cond.sign(m), cols)
            else:
                rows = _constraints(cond, self.descriptor, m, cols)
            functionals += rows
        return functionals

    def _substitutions(self, k: int) -> tuple["_MonomialMap", "_MonomialMap"]:
        """The (sigma1, sigma2) maps of parity condition k, built once."""
        maps = self._maps.get(k)
        if maps is None:
            cond = self.conditions[k]
            maps = (_MonomialMap(cond.sigma1, self.descriptor),
                    _MonomialMap(cond.sigma2, self.descriptor))
            if maps[0].target != maps[1].target:
                raise ValueError("descriptor mismatch")
            self._maps[k] = maps
        return maps

    def dim(self, m: int) -> int:
        """dim V_m."""
        return len(self._space(m))

    def contains(self, p: Polynomial) -> bool:
        """Membership of a homogeneous polynomial in V at its own degree."""
        dw = degree_and_weight(p)
        if dw == "zero":
            return True
        if dw == "inhomogeneous":
            raise ValueError("membership needs a homogeneous polynomial")
        return self.contains_terms(dw[0], _packed_terms(_int_terms(p)))

    def contains_terms(self, m: int, work: dict[int, int]) -> bool:
        """`contains` for degree-m nonzero integer terms keyed by packed
        monomials, whose weights are not read; the dict is used up.  No basis
        row holds another's pivot, so one pass clears every pivot in turn."""
        if not work.keys() <= monomial_columns(self.descriptor, m).keys():
            raise KeyError(f"a monomial has no degree-{m} column")
        for row in self._space(m):
            lead = next(iter(row))
            if lead in work:
                work = IntRowSpace._eliminate(work, lead, list(row.values()), row)
        return not work

    def _space(self, m: int) -> list[dict[int, int]]:
        """V_m's reduced echelon basis, built once as the kernel of all the
        conditions' functionals: integer term dicts keyed by packed monomials,
        columns increasing, so each row leads at its pivot.  Read only."""
        basis = self._spaces.get(m)
        if basis is None:
            cols = self.ambient_monomials(m)
            packed = list(monomial_columns(self.descriptor, m))
            basis = self._spaces[m] = [
                {packed[j]: x for j, x in row.items()}
                for row in int_kernel_rref(self._functionals(m, cols), len(cols))
            ]
        return basis


def _int_terms(p: Polynomial) -> dict[tuple, int]:
    """Terms of p scaled by the lcm of its denominators (1 for integer p)."""
    if not all(is_rational_scalar(c) for c in p.terms.values()):
        raise ValueError("subring computations need rational coefficients")
    return _clear_denominators(p.terms)[0]


def _packed_terms(terms: Mapping[tuple, int]) -> dict[int, int]:
    """A term dict keyed by packed monomials."""
    return {pack(mon): c for mon, c in terms.items()}


def _unpacked(desc: RingDescriptor, terms: Mapping[int, int]) -> Polynomial:
    """The polynomial of an integer term dict keyed by packed monomials."""
    return Polynomial(desc, {unpack(k, desc.nvars): Fraction(x) for k, x in terms.items()})


def _to_poly(desc: RingDescriptor, cols: list[tuple], row: Mapping[int, int]) -> Polynomial:
    """The polynomial of an integer {column: nonzero} row over cols."""
    return Polynomial(desc, {cols[j]: Fraction(x) for j, x in row.items()})


def _constraints(cond, desc, m, cols) -> list[dict[int, int]]:
    """Integer functionals, as {column: nonzero} rows, on the degree-m
    monomials whose common kernel is the part of the degree-m piece that
    satisfies a weight or congruence condition `cond` (parity conditions:
    `_parity_constraints`)."""
    if isinstance(cond, WeightCondition):
        target = cond.weight % desc.torsion_order
        return [{j: 1} for j, mon in enumerate(cols) if desc.monomial_weight(mon) != target]
    if isinstance(cond, CongruenceImageCondition):
        even_idx = [desc.index(v) for v in cond.even_variables]
        index = monomial_columns(desc, m)
        span_rows = [
            {j: 1} for j, mon in enumerate(cols) if all(mon[i] % 2 == 0 for i in even_idx)
        ]
        for f in cond.modulus:
            dw = degree_and_weight(f)
            if not isinstance(dw, tuple):
                raise ValueError("modulus polynomials must be homogeneous")
            if f.descriptor != desc:
                raise ValueError("descriptor mismatch")
            # mult * f is f's cleared integer row shifted to mult + e, all
            # in degree m, whose monomials index packed.
            terms = _packed_terms(_int_terms(f))
            for mult in monomial_columns(desc, m - dw[0]):
                span_rows.append({index[mult + e]: c for e, c in terms.items()})
        # Over Q, v lies in span(S) exactly when every functional that
        # vanishes on S vanishes on v: the annihilator cuts out the span.
        return int_kernel_basis(span_rows, len(cols))
    raise TypeError(f"unknown condition {cond!r}")


def _parity_constraints(maps, sign: int, cols) -> list[dict[int, int]]:
    """Integer functionals of v -> sigma1(v) - sign * sigma2(v), one
    {column: nonzero} row per target monomial t: entry (t, j) is the
    coefficient of t in sigma1(cols[j]) - sign * sigma2(cols[j]), for maps =
    (sigma1, sigma2).

    Both substitutions are ring maps, so each monomial is mapped once for
    the maps' lifetime.  All rows carry one common positive factor, which
    leaves their kernel unchanged."""
    sigma1, sigma2 = maps
    images = [(sigma1(mon), sigma2(mon)) for mon in cols]
    mult = lcm(*(d for (_, d1), (_, d2) in images for d in (d1, d2)))
    rows: dict[tuple, dict[int, int]] = {}
    for j, ((t1, d1), (t2, d2)) in enumerate(images):
        phi = {t: c * (mult // d1) for t, c in t1.items()}
        f2 = sign * (mult // d2)
        for t, c in t2.items():
            phi[t] = phi.get(t, 0) - f2 * c
        for t, c in phi.items():
            if c:
                rows.setdefault(t, {})[j] = c
    return list(rows.values())


class _MonomialMap:
    """Images of monomials under a substitution, as (integer term dict keyed
    by packed target monomials, denominator), memoised down the first
    nonzero exponent.  No exponent of the image of mon exceeds the sum of
    mon[i] * tops[i], tops[i] the largest exponent in variable i's image; a
    monomial whose bound does not fit a packed field is refused."""

    def __init__(self, images: Mapping[str, Polynomial], desc: RingDescriptor):
        targets = {img.descriptor for img in images.values()}
        if len(targets) > 1:
            raise ValueError("substitution images must share one descriptor")
        self.target = targets.pop() if targets else desc
        self.names = desc.variables
        self.images = {}
        for name, img in images.items():
            if not all(is_rational_scalar(c) for c in img.terms.values()):
                raise ValueError("subring computations need rational coefficients")
            terms, denom = _clear_denominators(img.terms)
            self.images[name] = (_packed_terms(terms), denom)
        # The largest exponent in each variable's image (0 with no image).
        self.tops = [
            max((max(e, default=0) for e in images[v].terms), default=0) if v in images else 0
            for v in self.names
        ]
        self.memo = {(0,) * desc.nvars: ({0: 1}, 1)}

    def __call__(self, mon: tuple) -> tuple[dict[int, int], int]:
        cached = self.memo.get(mon)
        if cached is not None:
            return cached
        i = next(k for k, e in enumerate(mon) if e)
        img = self.images.get(self.names[i])
        if img is None:
            raise KeyError(f"missing image for variable(s): {self.names[i]}")
        if sum(map(mul, mon, self.tops)) >> FIELD_BITS:
            raise ValueError(f"the image of {mon} may not fit {FIELD_BITS}-bit packed fields")
        prev = list(mon)
        prev[i] -= 1
        terms, denom = self(tuple(prev))
        value = (_packed_product(terms, img[0]), denom * img[1])
        self.memo[mon] = value
        return value


# ---------------------------------------------------------------------------
# Generators, relations, verification


class SubringPresentation(Record):
    __slots__ = ("generators", "generator_census", "relation_census", "relations",
                 "free_ring", "hilbert", "max_degree", "warning")

    def __init__(self, generators: list[tuple[Polynomial, int]],
                 generator_census: dict[int, int], relation_census: dict[int, int],
                 relations: list[Polynomial], free_ring: RingDescriptor,
                 hilbert: dict[int, int], max_degree: int, warning: str | None = None):
        self.generators, self.generator_census = generators, generator_census
        # The relations lie in the free ring on generator symbols.
        self.relation_census, self.relations = relation_census, relations
        self.free_ring, self.hilbert = free_ring, hilbert  # hilbert[m] = dim V_m
        self.max_degree, self.warning = max_degree, warning


class GeneratorListReport(Record):
    """memberships: (index, degree, in V), in V being True, False, or the
    reason a claim is no homogeneous polynomial; generation: m -> (dim V_m,
    span, ok)."""

    __slots__ = ("memberships", "generation", "ok")

    def __init__(self, memberships: list[tuple[int, int, bool]],
                 generation: dict[int, tuple[int, int, bool]]):
        self.memberships, self.generation = memberships, generation
        self.ok = all(x[2] is True for x in memberships) and all(
            v[2] for v in generation.values()
        )


class _FactorSpans:
    """The factors of a product span, each as (leading monomial, integer
    term dict), both packed, the lead being the grevlex-least monomial: the
    generators with their degrees, and per degree k the elements their
    products are taken with.  Those are V_k's reduced echelon basis once
    degree k's span reaches dim V_k, for then the two have the same span and
    every later product span is unchanged; a degree that falls short keeps
    its own products."""

    def __init__(self, pred: MembershipPredicate):
        self.pred = pred
        self.generators: list[tuple[int, int, dict[int, int]]] = []
        # The constant 1, at the packed unit monomial 0.
        self._by_degree = {0: [(0, {0: 1})]}

    def __getitem__(self, k: int) -> list[tuple[int, dict[int, int]]]:
        return self._by_degree[k]

    def add_generator(self, degree: int, terms: dict[int, int]) -> None:
        """Add a generator, given as its packed integer terms."""
        index = monomial_columns(self.pred.descriptor, degree)
        self.generators.append((degree, min(terms, key=index.__getitem__), terms))

    def close(self, m: int, products: list[dict[int, int]], full: bool) -> None:
        """Fix the degree-m factors: V_m's basis rows, which lead at their
        first key, when the span reached dim V_m (`full`), else the products."""
        if full:
            self._by_degree[m] = [(next(iter(t)), t) for t in self.pred._space(m)]
        else:
            index = monomial_columns(self.pred.descriptor, m)
            self._by_degree[m] = [(min(t, key=index.__getitem__), t) for t in products]


class SubringBuilder:
    """Degree-by-degree generator selection and relation counting."""

    def __init__(self, predicate: MembershipPredicate):
        desc = predicate.descriptor
        # Monomial enumeration caps a degree-0 variable at exponent 1, so a
        # product of two factors that both contain it would have no column.
        flat = [v for v, dg in zip(desc.variables, desc.degrees) if dg == 0]
        if flat:
            raise ValueError(f"subring builder needs positive degrees; degree 0: {', '.join(flat)}")
        self.pred = predicate
        self.desc = desc

    def minimal_generators(self, max_degree: int) -> list[tuple[Polynomial, int]]:
        return self._generators_with_spans(max_degree)[0]

    def _generators_with_spans(self, max_degree: int):
        """Selected generators, and per degree the pivot columns of the span
        of its products and new generators.  The products are kept no longer
        than `_FactorSpans.close`, which holds them as factors only where
        their span falls short of V_m."""
        gens: list[tuple[Polynomial, int]] = []
        factors = _FactorSpans(self.pred)
        span_pivots: dict[int, list[int]] = {}
        # Selected generators lie in V.
        closed = self.pred.closed_under_products
        for m in range(1, max_degree + 1):
            full = self.pred.dim(m) if closed else None
            index, rs, piece = self._product_span(factors, m, full)
            if rs.dim != full:
                # Basis elements are primitive integer rows already (int_kernel_rref).
                for terms in self.pred._space(m):
                    if rs.add_nonzeros({index[k]: c for k, c in terms.items()}):
                        piece.append(terms)
                        gens.append((_unpacked(self.desc, terms), m))
                        factors.add_generator(m, terms)
            factors.close(m, piece, rs.dim == full)
            span_pivots[m] = rs.pivot_columns()
        return gens, span_pivots

    def _product_span(self, factors: _FactorSpans, m: int, full: int | None = None):
        """Independent degree-m products g*b of a generator g and a factor b
        of degree m - deg g; returns (packed index, row space, products).

        Factors and products are integer term dicts keyed by packed
        monomials; each product lands in degree m, every monomial of which
        `poly.monomial_columns` has packed, so no field carries.  Scaling a
        factor does not change the span, and the row space stores primitive
        rows.  The caller passes `full` = dim V_m only when every factor lies
        in V and V is closed under products: then every product lies in V_m,
        and no product after the span reaches that dimension can enlarge it,
        so the order in which products are tried does not change the span.

        Columns are in grevlex order, a translation-invariant total order,
        and Z is a domain, so the leading column of g*b is that of
        lead(g) + lead(b), known before the product is formed.  One product
        per leading column that is not a pivot yet enters first, with no
        elimination step; the colliding products follow in reverse."""
        index = monomial_columns(self.desc, m)
        rs = IntRowSpace(len(index))
        taken = set()
        firsts, colliding = [], []
        for dg, g_lead, g in factors.generators:
            # A constant factor adds nothing to the span.
            if 0 < dg <= m:
                for b_lead, b in factors[m - dg]:
                    lead = index[g_lead + b_lead]
                    if lead in taken:
                        colliding.append((g, b))
                    else:
                        taken.add(lead)
                        firsts.append((g, b))
        piece: list[dict[int, int]] = []
        for g, b in firsts + colliding[::-1]:
            if rs.dim == full:
                break
            prod = _packed_product(g, b)
            if rs.add_nonzeros({index[k]: c for k, c in prod.items()}):
                piece.append(prod)
        return index, rs, piece

    def presentation(self, max_degree: int) -> SubringPresentation:
        gens, span_pivots = self._generators_with_spans(max_degree)
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
        # Generators are primitive integer rows, so the evaluation map has
        # denominator 1 throughout.
        evaluate = _MonomialMap({name: g for name, (g, _) in zip(names, gens)}, free)
        key = weighted_revlex_key(free, names[::-1])
        relations: list[Polynomial] = []
        # (degree, [(packed exponents, coefficient)]) of each relation, for
        # its multiples.
        relation_terms: list[tuple[int, list[tuple[int, int]]]] = []
        relation_census: dict[int, int] = {}
        hilbert: dict[int, int] = {0: 1}
        # The monomials that no lead of the relations found so far divides,
        # the leads interreduced per degree in the weighted reverse-lex order,
        # last generator largest.
        standard = StandardMonomials(free)
        for m in range(1, max_degree + 1):
            hilbert[m] = self.pred.dim(m)
            # The span of degree m is the image of the evaluation map, of
            # rank one per pivot.  When the monomials that no lead divides
            # are as many, no relation of degree m is new.
            new = []
            if standard.counts(m)[0] != len(span_pivots[m]):
                free_mons = enumerate_monomials(free, m)
                new = self._exact_relations(
                    free, m, free_mons, evaluate, span_pivots[m], relation_terms
                )
                packed = list(monomial_columns(free, m))
                for row in new:
                    relations.append(_to_poly(free, free_mons, row))
                    relation_terms.append((m, [(packed[j], x) for j, x in row.items()]))
                standard.add_leads(_interreduced_leads(new, free_mons, key))
            relation_census[m] = len(new)
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

    def _exact_relations(self, free, m, free_mons, evaluate, pivots, relation_terms):
        """The new degree-m relations over Z, as primitive integer rows over
        free_mons, the degree-m free monomials: the greedy choice from the
        sorted evaluation kernel against the monomial multiples of the
        earlier relations."""
        kernel = self._evaluation_kernel(m, free_mons, evaluate, pivots)
        index = monomial_columns(free, m)
        multiples = (
            {index[mult + e]: c for e, c in terms}
            for dr, terms in relation_terms
            for mult in monomial_columns(free, m - dr)
        )
        return _relations_by_duality(kernel, multiples)

    def _evaluation_kernel(self, m, free_mons, evaluate, pivots) -> list[dict[int, int]]:
        """Kernel of the degree-m evaluation map.

        Only the rows at `pivots`, the pivot columns of the degree's product
        span, enter.  That span is the image, the column space of the
        matrix, and its echelon rows are triangular on those columns, so
        these rows have the full rank: they cut out the same kernel.  They
        are eliminated sparsest first; the reduced echelon form, and so the
        kernel basis, does not depend on their order."""
        index = monomial_columns(self.desc, m)
        rows: dict[int, dict[int, int]] = {j: {} for j in pivots}
        for u, mon in enumerate(free_mons):
            terms, _ = evaluate(mon)
            for amb, x in terms.items():
                row = rows.get(index[amb])
                if row is not None:
                    row[u] = x
        return int_kernel_basis(sorted(rows.values(), key=len), len(free_mons))

    def claimed_membership(self, i: int, p: Polynomial) -> tuple[int | str, bool | str]:
        """(degree, in V) of claimed generator i: a zero or inhomogeneous
        claim is no member, with degree "unknown" and the reason in place of
        in V."""
        dw = degree_and_weight(p)
        if not isinstance(dw, tuple):
            reason = "zero" if dw == "zero" else "not homogeneous"
            return "unknown", f"claimed generator {i} is {reason}"
        return dw[0], self.pred.contains(p)

    def verify_generator_list(
        self, claimed: Sequence[Polynomial], max_degree: int
    ) -> GeneratorListReport:
        memberships = []
        degreed: list[tuple[Polynomial, int]] = []
        for i, p in enumerate(claimed):
            degree, member = self.claimed_membership(i, p)
            memberships.append((i, degree, member))
            # The spans are taken without a zero or inhomogeneous claim.
            if not isinstance(member, str):
                degreed.append((p, degree))
        generation: dict[int, tuple[int, int, bool]] = {}
        factors = _FactorSpans(self.pred)
        for p, dg in degreed:
            factors.add_generator(dg, _packed_terms(_int_terms(p)))
        # A claim with a non-member must still show its excess span.
        closed = self.pred.closed_under_products and all(ok is True for *_, ok in memberships)
        for m in range(1, max_degree + 1):
            full = self.pred.dim(m) if closed else None
            _, rs, piece = self._product_span(factors, m, full)
            factors.close(m, piece, rs.dim == full)
            target = self.pred.dim(m)
            achieved = rs.dim
            generation[m] = (target, achieved, achieved == target)
        return GeneratorListReport(memberships=memberships, generation=generation)

    def closure_spot_checks(
        self, max_degree: int, seed: int = 42, trials: int = 12
    ) -> list[tuple[int, int, bool]]:
        """Random products p*q with p in V_i, q in V_j must land in V_{i+j}."""
        # Every variable has positive degree, so the exponents of a product
        # are at most its degree, here at most max_degree.
        if max_degree >> FIELD_BITS:
            raise ValueError(f"degree {max_degree} does not fit {FIELD_BITS}-bit packed fields")
        n, weight = self.desc.nvars, self.desc.monomial_weight
        rng = random.Random(seed)
        results = []
        degrees = [m for m in range(1, max_degree) if self.pred.dim(m)]
        if not degrees:
            return []
        for _ in range(trials):
            i = rng.choice(degrees)
            j_choices = [j for j in degrees if i + j <= max_degree]
            if not j_choices:
                continue
            j = rng.choice(j_choices)
            p = _random_combination(self.pred._space(i), rng)
            q = _random_combination(self.pred._space(j), rng)
            prod = _packed_product(p, q)
            # As `contains`, a product that mixes torsion weights is refused.
            if self.desc.torsion_order > 1 and len({weight(unpack(k, n)) for k in prod}) > 1:
                raise ValueError("membership needs a homogeneous polynomial")
            results.append((i, j, self.pred.contains_terms(i + j, prod)))
        return results


def _relations_by_duality(kernel, multiples) -> list[dict[int, int]]:
    """The kernel vectors the greedy choice keeps, in its order: taken in
    sorted order (`_dense_order`), a vector is kept when it is outside the
    span of the multiples (integer rows in the span of the kernel) and the
    vectors before it.

    `kernel` is the canonical basis of `int_kernel_basis`, of primitive
    vectors: each v_f is zero past its free column f and at every other
    free column, so a kernel vector w is the sum of (w[f] / v_f[f]) v_f, and
    a multiple's coordinates are read off its free columns.  With the
    coordinate columns in reverse sorted order, the pivots of the span of
    the coordinates of the multiples are the vectors that each lie in the
    span of the multiples and of the vectors before it (matroid duality),
    so the rest are the greedy choice, found in one elimination.  The
    coordinate rows are added sparsest first: the pivots of their span do
    not depend on the order."""
    size = len(kernel)
    keys = [_dense_order(v) for v in kernel]
    order = sorted(range(size), key=keys.__getitem__)
    column = [0] * size
    for pos, i in enumerate(order):
        column[i] = size - 1 - pos
    free = [max(v) for v in kernel]
    # The coordinate z[f] / v_f[f] times scale is z[f] * factor[f][1].
    scale = lcm(*(v[f] for v, f in zip(kernel, free)))
    factor = {f: (column[i], scale // kernel[i][f]) for i, f in enumerate(free)}
    rows = []
    for z in multiples:
        row = {}
        for f, x in z.items():
            entry = factor.get(f)
            if entry is not None:
                row[entry[0]] = x * entry[1]
        rows.append(row)
    coords = IntRowSpace(size)
    for row in sorted(rows, key=len):
        if coords.dim == size:
            break
        coords.add_nonzeros(row)
    pivots = set(coords.pivot_columns())
    return [kernel[i] for i in order if column[i] not in pivots]


def _dense_order(v: Mapping[int, int]) -> list[tuple]:
    """Sort key of a row, columns increasing, that orders rows as their
    dense lists.  A nonzero x at column c keys as (-1, c, x) if x < 0, else
    (1, -c, x), and the end as (0,): where dense rows first differ at a
    column only one has, that one is smaller iff its entry is negative."""
    return [(1, -c, x) if x > 0 else (-1, c, x) for c, x in v.items()] + [(0,)]


def _interreduced_leads(rows: list[dict[int, int]], free_mons: list[tuple], key) -> list[tuple]:
    """The leading monomials of the echelon form of integer rows over
    free_mons, the columns taken largest first by key: one per row for
    independent rows, each the lead of an element of their span."""
    order = sorted(range(len(free_mons)), key=lambda j: key(free_mons[j]), reverse=True)
    rank = {j: pos for pos, j in enumerate(order)}
    echelon = IntRowSpace(len(order))
    for row in rows:
        echelon.add_nonzeros({rank[j]: x for j, x in row.items()})
    return [free_mons[order[c]] for c in echelon.pivot_columns()]


def _random_combination(basis: list[dict[int, int]], rng: random.Random) -> dict[int, int]:
    """A nonzero combination of integer term dicts with coefficients drawn
    from -9..9, one draw per basis element, drawn again while it is zero."""
    while True:
        out: dict[int, int] = {}
        for b in basis:
            c = rng.randint(-9, 9)
            if c:
                for mon, x in b.items():
                    out[mon] = out.get(mon, 0) + c * x
        out = {mon: x for mon, x in out.items() if x}
        if out:
            return out
