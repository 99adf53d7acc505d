"""Diagonal actions of Z/d on bi-graded polynomial rings via torsion weights."""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial, RingDescriptor
from .record import Record
from .scalars import Scalar, scalar_pow, zeta


class CyclicAction(Record):
    """The generator acts by v -> root^weight(v) * v on each variable."""

    __slots__ = ("descriptor", "order", "root")

    def __init__(self, descriptor: RingDescriptor, order: int, root: Scalar | None = None):
        if order != descriptor.torsion_order:
            raise ValueError("action order must match the descriptor torsion order")
        if root is None:
            root = zeta(order) if order > 1 else Fraction(1)
        self.descriptor, self.order, self.root = descriptor, order, root
        if scalar_pow(self.root, self.order) != 1:
            raise ValueError("root is not an order-th root of unity")
        for k in range(1, self.order):
            if scalar_pow(self.root, k) == 1:
                raise ValueError("root is not primitive")

    @classmethod
    def for_descriptor(cls, desc: RingDescriptor) -> "CyclicAction":
        return cls(desc, desc.torsion_order)


def act(action: CyclicAction, k: int, p: Polynomial) -> Polynomial:
    """Apply the k-th power of the generator: each term picks up root^(k*weight)."""
    desc = p.descriptor
    k = k % action.order
    if k == 0:
        return p
    out = {}
    for exps, c in p.terms.items():
        w = (k * desc.monomial_weight(exps)) % action.order
        out[exps] = c * scalar_pow(action.root, w)
    return Polynomial(desc, out)


def weight_of(action: CyclicAction, p: Polynomial):
    """The single torsion weight of p, or "mixed" (zero counts as weight 0)."""
    desc = p.descriptor
    weights = {desc.monomial_weight(e) for e in p.terms}
    if not weights:
        return 0
    if len(weights) > 1:
        return "mixed"
    return weights.pop()


def project_to_weight(p: Polynomial, w: int) -> Polynomial:
    """Keep the terms of torsion weight w (weight extraction for diagonal actions)."""
    desc = p.descriptor
    w = w % desc.torsion_order
    return Polynomial(
        desc, {e: c for e, c in p.terms.items() if desc.monomial_weight(e) == w}
    )


def weight_space_dim(desc: RingDescriptor, m: int, w) -> int:
    """Number of monomials of weighted degree m and torsion weight w.

    Pure integer combinatorics via dynamic programming over the variables;
    `w="all"` counts the whole degree-m piece.  Degree-0 variables are capped
    at exponent 1, as in monomial enumeration.
    """
    if m < 0:
        return 0
    d = desc.torsion_order
    # dp maps (remaining degree used, weight mod d) -> count
    dp = {(0, 0): 1}
    for deg, wt in zip(desc.degrees, desc.weights):
        nxt: dict[tuple[int, int], int] = {}
        top = 1 if deg == 0 else m // deg
        for (used, ww), cnt in dp.items():
            for e in range(top + 1):
                u = used + e * deg
                if u > m:
                    break
                key = (u, (ww + e * wt) % d)
                nxt[key] = nxt.get(key, 0) + cnt
        dp = nxt
    if w == "all":
        return sum(cnt for (used, _), cnt in dp.items() if used == m)
    return sum(cnt for (used, ww), cnt in dp.items() if used == m and ww == w % d)
