"""Loaders for the text fixtures shipped with the package.

All scenario-specific polynomials live under ``godeaux/data`` in the plain
polynomial grammar, so they can be audited without reading any code.  Each
file is read with `open` from the ``data`` directory beside the package's own
files, not through `importlib.resources`, which would import `pathlib`,
`tempfile` and about two dozen more modules into every fresh process.  Each
file is parsed once per process, one `Polynomial` per line or image; every
call returns fresh lists and dicts (the polynomials and descriptors in them
are immutable and shared).
"""

from __future__ import annotations

import os
from functools import lru_cache

from ..poly import Polynomial, RingDescriptor, parse_polynomial, parse_ring_file


_DATA = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")


def _read(name: str) -> str:
    with open(os.path.join(_DATA, name), encoding="utf-8") as fh:
        return fh.read()


def _stripped_lines(name: str) -> list[str]:
    out = []
    for raw in _read(name).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


@lru_cache(maxsize=None)
def descriptor(name: str) -> RingDescriptor:
    desc, _ = parse_ring_file(_read(f"{name}.ring"))
    return desc


def z3_descriptor() -> RingDescriptor:
    return descriptor("z3")


def z3_relations() -> list[tuple[str, int, int, Polynomial]]:
    """(name, degree, weight, polynomial) for the ten relations, fixture order."""
    return list(_z3_relations())


@lru_cache(maxsize=None)
def _z3_relations() -> tuple[tuple[str, int, int, Polynomial], ...]:
    desc = z3_descriptor()
    out = []
    for line in _stripped_lines("z3_relations.txt"):
        head, src = line.split(":", 1)
        name, deg, wt = head.split()
        out.append((name, int(deg), int(wt), parse_polynomial(src.strip(), desc)))
    return tuple(out)


def z3_claimed_bases() -> dict[tuple[int, int], list[tuple]]:
    """Claimed quotient-piece monomial bases keyed by (degree, weight)."""
    return {key: list(mons) for key, mons in _z3_claimed_bases()}


@lru_cache(maxsize=None)
def _z3_claimed_bases() -> tuple[tuple[tuple[int, int], tuple[tuple, ...]], ...]:
    desc = z3_descriptor()
    out = []
    for line in _stripped_lines("z3_bases.txt"):
        head, body = line.split(":", 1)
        m, w = (int(x) for x in head.split())
        mons = []
        for piece in body.split(","):
            piece = piece.strip()
            if piece:
                poly = parse_polynomial(piece, desc)
                (exps,) = poly.terms
                mons.append(exps)
        out.append(((m, w), tuple(mons)))
    return tuple(out)


@lru_cache(maxsize=None)
def _polynomial_lines(name: str, ring: str) -> tuple[Polynomial, ...]:
    """One polynomial per line of a fixture, in the ring of that name."""
    desc = descriptor(ring)
    return tuple(parse_polynomial(line, desc) for line in _stripped_lines(name))


def z4_descriptor() -> RingDescriptor:
    return descriptor("z4")


def z5_descriptor() -> RingDescriptor:
    return descriptor("z5")


def z5_planes() -> list[Polynomial]:
    return list(_polynomial_lines("z5_planes.txt", "z5"))


def sc_descriptor() -> RingDescriptor:
    return descriptor("sc")


def sc_conic() -> Polynomial:
    (conic,) = _polynomial_lines("sc_conic.txt", "sc")
    return conic


@lru_cache(maxsize=None)
def _substitution(name: str) -> tuple[tuple[str, Polynomial], ...]:
    desc = sc_descriptor()
    images = []
    for line in _stripped_lines(name):
        var, src = line.split(":", 1)
        images.append((var.strip(), parse_polynomial(src.strip(), desc)))
    return tuple(images)


def sc_restriction() -> dict[str, Polynomial]:
    return dict(_substitution("sc_restriction.txt"))


def sc_involution() -> dict[str, Polynomial]:
    return dict(_substitution("sc_involution.txt"))


def sc_claimed_generators() -> list[Polynomial]:
    return list(_polynomial_lines("sc_generators.txt", "sc"))
