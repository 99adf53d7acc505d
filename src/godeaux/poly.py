"""Multivariate polynomials with a (degree, torsion weight) bi-grading.

Exponent vectors are dense tuples aligned with the descriptor's variable
order; the canonical term order is graded reverse-lexicographic.  Degree-0
variables are allowed and act as symbolic parameters: monomial enumeration
caps their exponents.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from operator import add, mul
from types import MappingProxyType

from .scalars import (
    Cyclo,
    Scalar,
    coerce_scalar,
    is_rational_scalar,
    zeta,
)


class ParseError(ValueError):
    """Syntax error in a polynomial or scalar literal, with position."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at position {pos})")


class RingDescriptor:
    """Variables with degree weights and torsion weights mod d, over Q(zeta_n).
    Immutable; its key and hash are computed once, as it keys caches."""

    __slots__ = ("variables", "degrees", "weights", "torsion_order", "scalar_order",
                 "_key", "_hash")

    def __init__(self, variables, degrees, weights, torsion_order: int = 1, scalar_order: int = 1):
        variables, degrees = tuple(variables), tuple(degrees)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        if not (len(variables) == len(degrees) == len(weights)):
            raise ValueError("variables, degrees and weights must align")
        if any(d < 0 for d in degrees):
            raise ValueError("degree weights must be >= 0")
        if torsion_order < 1:
            raise ValueError("torsion order must be >= 1")
        if scalar_order not in (1, 3, 4, 5):
            raise ValueError(f"unsupported scalar order {scalar_order}")
        weights = tuple(w % torsion_order for w in weights)
        key = (variables, degrees, weights, torsion_order, scalar_order)
        for name, value in zip(self.__slots__, (*key, key, hash(key))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RingDescriptor values are immutable")

    def __eq__(self, other):
        if other.__class__ is not RingDescriptor:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return RingDescriptor, self._key

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._key))
        return f"RingDescriptor({fields})"

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def monomial_degree(self, exps) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees))

    def monomial_weight(self, exps) -> int:
        return sum(e * w for e, w in zip(exps, self.weights)) % self.torsion_order

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: Fraction(1)})

    def constant(self, value) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: value})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})


def grevlex_key(exps):
    """Sort key: ascending gives grevlex-descending order when negated total is used."""
    return (-sum(exps), tuple(reversed(exps)))


def weighted_revlex_key(desc: RingDescriptor, ranking):
    """Sort key of the weighted reverse-lex order, larger key for the larger
    monomial: weighted degree first; on a tie, the smaller exponent of the
    last variable in `ranking` (every variable of positive degree, largest
    first) wins, then of the one before it, and so on.  Degree-0 variables
    are coefficients: monomials that differ only in them tie."""
    graded = [v for v, d in zip(desc.variables, desc.degrees) if d]
    if sorted(ranking) != sorted(graded):
        raise ValueError(
            f"ranking {ranking} does not list the variables of positive degree {tuple(graded)}"
        )
    order = [desc.index(v) for v in reversed(ranking)]
    degrees = desc.degrees

    def key(exps):
        return (sum(map(mul, exps, degrees)), [-exps[i] for i in order])

    return key


class Polynomial:
    """Immutable-by-convention polynomial: descriptor plus {exponents: scalar}."""

    __slots__ = ("descriptor", "terms")

    def __init__(self, descriptor: RingDescriptor, terms: Mapping[tuple, Scalar]):
        clean = {}
        for exps, c in terms.items():
            c = coerce_scalar(c, descriptor.scalar_order)
            if c != 0:
                clean[tuple(exps)] = c
        self.descriptor = descriptor
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def coefficient(self, exps) -> Scalar:
        return self.terms.get(tuple(exps), Fraction(0))

    def _check_same_ring(self, other: "Polynomial"):
        if self.descriptor != other.descriptor:
            raise ValueError("descriptor mismatch")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.descriptor.constant(other)
        self._check_same_ring(other)
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return Polynomial(self.descriptor, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.descriptor.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.descriptor, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_same_ring(other)
        return Polynomial(self.descriptor, _product(self.terms, other.terms))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = coerce_scalar(c, self.descriptor.scalar_order)
        if c == 0:
            return self.descriptor.zero()
        return Polynomial(self.descriptor, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = self.descriptor.one()
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.descriptor == other.descriptor and self.terms == other.terms
        if isinstance(other, (int, Fraction, Cyclo)):
            return self == self.descriptor.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.descriptor, frozenset(self.terms.items())))

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution; every variable appearing needs an image."""
        target = None
        for img in images.values():
            if target is None:
                target = img.descriptor
            elif img.descriptor != target:
                raise ValueError("substitution images must share one descriptor")
        if target is None:
            target = self.descriptor
        names = self.descriptor.variables
        used = {names[i] for e in self.terms for i, k in enumerate(e) if k}
        missing = sorted(used - set(images))
        if missing:
            raise KeyError(f"missing image for variable(s): {', '.join(missing)}")
        out: dict[tuple, Scalar] = {}
        zero = (0,) * target.nvars
        power_cache: dict[tuple[str, int], Polynomial] = {}

        def power(name: str, k: int) -> Polynomial:
            # img^k is img^(k-1) * img, so each power costs one product.
            key = (name, k)
            cached = power_cache.get(key)
            if cached is None:
                cached = images[name] if k == 1 else power(name, k - 1) * images[name]
                power_cache[key] = cached
            return cached

        # Terms are expanded one by one and added into one dict in place.
        for exps, c in self.terms.items():
            term = {zero: coerce_scalar(c, target.scalar_order)}
            for i, k in enumerate(exps):
                if k:
                    term = _product(term, power(names[i], k).terms)
            _accumulate(out, term)
        return Polynomial(target, out)

    def __repr__(self):
        return f"Polynomial({render_polynomial(self)!r})"

    def __str__(self):
        return render_polynomial(self)


def _accumulate(out: dict, terms: Mapping[tuple, Scalar]) -> None:
    """Add terms into out in place, dropping every sum that cancels."""
    for exps, c in terms.items():
        s = out.get(exps, 0) + c
        if s == 0:
            out.pop(exps, None)
        else:
            out[exps] = s


def _product(t1: Mapping[tuple, Scalar], t2: Mapping[tuple, Scalar]) -> dict:
    """The term dict of a product, by the same rule as `_accumulate`."""
    out: dict[tuple, Scalar] = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            key = tuple(map(add, e1, e2))
            s = out.get(key, 0) + c1 * c2
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


# ---------------------------------------------------------------------------
# Packed monomials (Monagan and Pearce, CASC 2007): an exponent tuple as one
# int with a FIELD_BITS-bit field per variable, the first variable in the
# highest field.  Fields add independently, so pack(e1) + pack(e2) ==
# pack(e1 + e2) as long as every exponent of e1 + e2 fits its field; a caller
# adds two packed monomials only where it knows the sum fits.


FIELD_BITS = 8  # one byte per variable: exponents 0..255


def pack(exps) -> int:
    """The packed monomial of an exponent tuple; an exponent outside
    0..2**FIELD_BITS - 1 is refused with ValueError."""
    try:
        return int.from_bytes(bytes(exps), "big")
    except ValueError:
        raise ValueError(
            f"exponents {tuple(exps)} do not fit {FIELD_BITS}-bit packed fields"
        ) from None


def unpack(key: int, nvars: int) -> tuple:
    """The exponent tuple of a packed monomial in nvars variables."""
    return tuple(key.to_bytes(nvars, "big"))


def _packed_product(t1: Mapping[int, Scalar], t2: Mapping[int, Scalar]) -> dict:
    """`_product` of two term dicts keyed by packed monomials: each monomial
    product is one int addition."""
    out: dict[int, Scalar] = {}
    get = out.get
    items = t2.items()
    for e1, c1 in t1.items():
        for e2, c2 in items:
            key = e1 + e2
            s = get(key, 0) + c1 * c2
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def degree_and_weight(p: Polynomial):
    """(degree, weight) of a bihomogeneous polynomial, else "zero"/"inhomogeneous"."""
    if p.is_zero():
        return "zero"
    desc = p.descriptor
    degrees = {desc.monomial_degree(e) for e in p.terms}
    # At torsion order 1 every weight is 0, and no term is read for it.
    weights = {desc.monomial_weight(e) for e in p.terms} if desc.torsion_order > 1 else {0}
    if len(degrees) > 1 or len(weights) > 1:
        return "inhomogeneous"
    return degrees.pop(), weights.pop()


_MONOMIALS: dict[tuple, list[tuple]] = {}
# Per (descriptor, degree), {packed monomial: column} of `enumerate_monomials`.
_COLUMNS: dict[tuple, dict[int, int]] = {}


def enumerate_monomials(desc: RingDescriptor, m: int, w="all") -> list[tuple]:
    """All exponent tuples of weighted degree m (and torsion weight w), canonical order.

    Degree-0 variables are capped at exponent 1 so the list stays finite.
    Each (descriptor, m) is enumerated once per process, with the list of
    every weight; every call returns a fresh list.
    """
    if m < 0:
        return []
    key = (desc, m, w if w == "all" else w % desc.torsion_order)
    cached = _MONOMIALS.get(key)
    if cached is None:
        _enumerate(desc, m)
        cached = _MONOMIALS[key]
    return list(cached)


def monomial_columns(desc: RingDescriptor, m: int) -> Mapping[int, int]:
    """{packed monomial: column} of the degree-m monomials in the order of
    `enumerate_monomials`, as a read-only view.  Each (descriptor, m) is
    packed once per process, so a packed product that lands in degree m
    has exponents that fit their fields."""
    columns = _COLUMNS.get((desc, m))
    if columns is None:
        mons = enumerate_monomials(desc, m)
        columns = _COLUMNS[desc, m] = dict(zip(map(pack, mons), range(len(mons))))
    return MappingProxyType(columns)


def _enumerate(desc: RingDescriptor, m: int) -> None:
    """Store the monomials of degree m, all and per weight, in grevlex order;
    the recursion carries each monomial's weight, and the last variable's
    exponent is solved for, not looped over."""
    n = desc.nvars
    d = desc.torsion_order
    weight_of: dict[tuple, int] = {}
    exps = [0] * n
    last = n - 1

    def rec(i: int, remaining: int, weight: int):
        deg = desc.degrees[i]
        wt = desc.weights[i]
        if i == last:
            # The degree left fixes the exponent: 0 or 1 for a degree-0
            # variable, when nothing is left.
            if deg == 0:
                tops = (0, 1) if remaining == 0 else ()
            else:
                tops = (remaining // deg,) if remaining % deg == 0 else ()
            for k in tops:
                exps[i] = k
                weight_of[tuple(exps)] = (weight + k * wt) % d
            exps[i] = 0
            return
        top = 1 if deg == 0 else remaining // deg
        for k in range(top + 1):
            exps[i] = k
            rec(i + 1, remaining - k * deg, weight + k * wt)
        exps[i] = 0

    if n:
        rec(0, m, 0)
    elif m == 0:
        weight_of[()] = 0
    full = sorted(weight_of, key=grevlex_key)
    per_weight: list[list[tuple]] = [[] for _ in range(d)]
    for e in full:
        per_weight[weight_of[e]].append(e)
    _MONOMIALS[desc, m, "all"] = full
    for w, mons in enumerate(per_weight):
        _MONOMIALS[desc, m, w] = mons


# ---------------------------------------------------------------------------
# Parsing and rendering


_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | set("0123456789")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append(("OP", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    """Productions return term dicts (ints for integers), summed in place in the
    key order of Polynomial.__add__; `parse` builds one Polynomial from them."""

    def __init__(self, text: str, desc: RingDescriptor):
        self.desc = desc
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        kind, _, pos = self.peek()
        if kind == "END":
            raise ParseError("empty input", pos)
        terms = self.expr()
        kind, val, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected trailing {val!r}", pos)
        return Polynomial(self.desc, terms)

    def expr(self) -> dict:
        out: dict = {}
        op = self.take()[1] if self.peek()[:2] in (("OP", "+"), ("OP", "-")) else "+"
        while True:
            q = self.term()
            _accumulate(out, q if op == "+" else {e: -c for e, c in q.items()})
            if self.peek()[:2] not in (("OP", "+"), ("OP", "-")):
                return out
            op = self.take()[1]

    def term(self) -> dict:
        out = self.factor()
        while self.peek()[:2] == ("OP", "*"):
            self.take()
            out = _product(out, self.factor())
        return out

    def factor(self) -> dict:
        base = self.base()
        if self.peek()[:2] != ("OP", "^"):
            return base
        self.take()
        out = {(0,) * self.desc.nvars: 1}  # ((1 * p) * p) ..., as in __pow__
        for _ in range(int(self.take("INT")[1])):
            out = _product(out, base)
        return out

    def base(self) -> dict:
        kind, val, pos = self.take()
        zero = (0,) * self.desc.nvars
        if kind == "INT":
            value = int(val)
            if self.peek()[:2] == ("OP", "/"):
                self.take()
                den = int(self.take("INT")[1])
                if den == 0:
                    raise ParseError("zero denominator", pos)
                value = Fraction(value, den)
            return {zero: value} if value else {}
        if kind == "NAME":
            if val in self.desc.variables:
                i = self.desc.index(val)
                return {zero[:i] + (1,) + zero[i + 1 :]: 1}
            if val == f"z{self.desc.scalar_order}" and self.desc.scalar_order > 1:
                return {zero: zeta(self.desc.scalar_order)}
            raise ParseError(f"unknown variable {val!r}", pos)
        if (kind, val) == ("OP", "("):
            out = self.expr()
            self.take("OP", ")")
            return out
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def parse_polynomial(text: str, desc: RingDescriptor) -> Polynomial:
    """Parse `expr := term (('+'|'-') term)*` with `term := factor ('*' factor)*`."""
    return _Parser(text, desc).parse()


_SCALAR_DESCRIPTORS = {
    n: RingDescriptor((), (), (), torsion_order=1, scalar_order=n) for n in (1, 3, 4, 5)
}


def parse_scalar(text: str, order: int = 1) -> Scalar:
    """Parse a scalar literal such as `5/6` or `z5^2-1/2`."""
    return _Parser(text, _SCALAR_DESCRIPTORS[order]).parse().coefficient(())


def _format_coeff_monomial(c: Scalar, mon: str) -> tuple[str, str]:
    """Split into (sign, body) for term joining."""
    if is_rational_scalar(c):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if not mon:
            return sign, str(mag)
        if mag == 1:
            return sign, mon
        return sign, f"{mag}*{mon}"
    text = str(c)
    if not mon:
        # A leading cyclotomic term keeps its own internal signs.
        return "+", f"({text})" if ("+" in text[1:] or "-" in text[1:]) else text
    if "+" in text[1:] or "-" in text[1:]:
        return "+", f"({text})*{mon}"
    if text == f"z{c.order}" or text.startswith(f"z{c.order}^"):
        return "+", f"{text}*{mon}"
    if text.startswith("-"):
        return "-", f"{text[1:]}*{mon}"
    return "+", f"{text}*{mon}"


def render_polynomial(p: Polynomial) -> str:
    """Canonical text form; round-trips through parse_polynomial."""
    if p.is_zero():
        return "0"
    names = p.descriptor.variables
    parts = []
    for exps, c in p.sorted_terms():
        mon = "*".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(names, exps)
            if k
        )
        sign, body = _format_coeff_monomial(c, mon)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign}{body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Ring descriptor files


_FIELD_NAMES = {"Q": 1, "Q(z3)": 3, "Q(z4)": 4, "Q(z5)": 5}


def parse_ring_file(text: str) -> tuple[RingDescriptor, list[Polynomial]]:
    """Descriptor file: `field`/`torsion_order` headers, one `name degree weight`
    per variable, then optional `rel <polynomial>` lines.

    The torsion order must be at least 1 and every weight in 0..order-1;
    the headers may come after the variables."""
    field = 1
    torsion = 1
    rows: list[tuple[str, int, int, int]] = []
    rel_sources: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "field":
            if len(parts) != 2 or parts[1] not in _FIELD_NAMES:
                raise ValueError(f"line {lineno}: bad field declaration {line!r}")
            field = _FIELD_NAMES[parts[1]]
        elif parts[0] == "torsion_order":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError(f"line {lineno}: bad torsion_order {line!r}")
            torsion = int(parts[1])
            if torsion < 1:
                raise ValueError(f"line {lineno}: torsion_order must be at least 1")
        elif parts[0] == "rel":
            rel_sources.append(line[len("rel"):].strip())
        elif len(parts) == 3:
            name, deg, wt = parts
            try:
                rows.append((name, int(deg), int(wt), lineno))
            except ValueError:
                raise ValueError(f"line {lineno}: bad variable line {line!r}") from None
        else:
            raise ValueError(f"line {lineno}: unrecognised line {line!r}")
    for name, _, wt, lineno in rows:
        if not 0 <= wt < torsion:
            raise ValueError(
                f"line {lineno}: weight {wt} of {name} is outside 0..{torsion - 1} "
                f"(torsion_order {torsion})"
            )
    desc = RingDescriptor(
        tuple(r[0] for r in rows),
        tuple(r[1] for r in rows),
        tuple(r[2] for r in rows),
        torsion_order=torsion,
        scalar_order=field,
    )
    relations = [parse_polynomial(src, desc) for src in rel_sources]
    return desc, relations


def load_ring_file(path) -> tuple[RingDescriptor, list[Polynomial]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ring_file(fh.read())
