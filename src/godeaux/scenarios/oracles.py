"""Expected dimension counts for the canonical rings under verification."""

from __future__ import annotations

from math import comb


def oracle_plurigenus(m: int) -> int:
    """dim of the degree-m piece of the canonical ring: 1, 0, then 1 + C(m, 2)."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    if m == 0:
        return 1
    if m == 1:
        return 0
    return 1 + comb(m, 2)


def oracle_curve_dim(m: int, i: int) -> int:
    """Section-space dimensions on a paracanonical curve, per torsion weight i."""
    if not 0 <= i < 3:
        raise ValueError(f"weight {i} out of range for torsion order 3")
    if m < 0:
        raise ValueError("degree must be >= 0")
    if m == 0:
        return 1 if i == 0 else 0
    if m == 1:
        return 0 if i in (0, 1) else 1
    if m == 2:
        return 2 if i == 1 else 1
    return m - 1
