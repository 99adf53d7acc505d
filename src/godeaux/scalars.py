"""Exact scalar arithmetic over Q and the cyclotomic fields Q(zeta_n), n in {3, 4, 5}.

Rationals are plain :class:`fractions.Fraction`; cyclotomic numbers are
:class:`Cyclo` values stored as polynomials in zeta_n reduced modulo the n-th
cyclotomic polynomial.  Arithmetic that lands back in Q returns a Fraction, so
a value is a Cyclo only when it is genuinely irrational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Euler phi, i.e. the Q-dimension of Q(zeta_n).
_PHI = {1: 1, 3: 2, 4: 2, 5: 4}

# Tail of the monic minimal polynomial of zeta_n: zeta^phi = -(tail), ascending.
_MINPOLY_TAIL = {
    3: (Fraction(1), Fraction(1)),
    4: (Fraction(1), Fraction(0)),
    5: (Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
}

class IncompatibleFieldsError(ValueError):
    """Combination of elements from distinct cyclotomic fields."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


class Cyclo:
    """An element of Q(zeta_n) for n in {3, 4, 5}, reduced modulo Phi_n.

    Instances are immutable and always irrational; use :func:`make_cyclo` (or
    any arithmetic) to get automatic demotion of rational-valued results to
    Fraction.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order not in (3, 4, 5):
            raise ValueError(f"unsupported cyclotomic order {order}")
        reduced = _reduce(order, [_as_fraction(c) for c in coeffs])
        if all(c == 0 for c in reduced[1:]):
            raise ValueError("rational-valued Cyclo; use make_cyclo")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(reduced))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo values are immutable")

    def _lift(self, other):
        """Coerce other into this field, or None if impossible."""
        if isinstance(other, Cyclo):
            if other.order != self.order:
                raise IncompatibleFieldsError(
                    f"incompatible fields: Q(z{self.order}) and Q(z{other.order})"
                )
            return other.coeffs
        if isinstance(other, (int, Fraction)):
            return (_as_fraction(other),) + (Fraction(0),) * (_PHI[self.order] - 1)
        return None

    def __add__(self, other):
        c = self._lift(other)
        if c is None:
            return NotImplemented
        return make_cyclo(self.order, [a + b for a, b in zip(self.coeffs, c)])

    __radd__ = __add__

    def __sub__(self, other):
        c = self._lift(other)
        if c is None:
            return NotImplemented
        return make_cyclo(self.order, [a - b for a, b in zip(self.coeffs, c)])

    def __rsub__(self, other):
        c = self._lift(other)
        if c is None:
            return NotImplemented
        return make_cyclo(self.order, [b - a for a, b in zip(self.coeffs, c)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if f == 0:
                return Fraction(0)
            return make_cyclo(self.order, [a * f for a in self.coeffs])
        if isinstance(other, Cyclo):
            c = self._lift(other)
            prod = [Fraction(0)] * (2 * _PHI[self.order] - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(c):
                        if b:
                            prod[i + j] += a * b
            return make_cyclo(self.order, prod)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return make_cyclo(self.order, [-a for a in self.coeffs])

    def __pos__(self):
        return self

    def inverse(self) -> Scalar:
        """Multiplicative inverse: the product of the other Galois conjugates
        (zeta -> zeta^k, gcd(k, n) = 1) divided by the rational norm."""
        n = self.order
        conj: Scalar = Fraction(1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                image = [Fraction(0)] * n
                for i, c in enumerate(self.coeffs):
                    image[i * k % n] += c
                conj = conj * make_cyclo(n, image)
        return conj * (1 / (self * conj))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / f)
        if isinstance(other, Cyclo):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _as_fraction(other) * self.inverse()
        return NotImplemented

    def __pow__(self, k: int):
        return scalar_pow(self, k)

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return False  # Cyclo values are never rational
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return True

    def __repr__(self):
        return f"Cyclo({self.order}, {self.coeffs})"

    def __str__(self):
        return format_scalar(self)


Scalar = Fraction | Cyclo


def _reduce(order: int, coeffs: list) -> list:
    """Reduce a coefficient list modulo Phi_order, returning length phi(order)."""
    phi = _PHI[order]
    tail = _MINPOLY_TAIL[order]
    work = list(coeffs) + [Fraction(0)] * max(0, phi - len(coeffs))
    for k in range(len(work) - 1, phi - 1, -1):
        c = work[k]
        if c:
            for i, t in enumerate(tail):
                work[k - phi + i] -= c * t
        work.pop()
    return work


def make_cyclo(order: int, coeffs) -> Scalar:
    """Canonical element of Q(zeta_order): a Fraction when rational, else Cyclo."""
    if order == 1:
        cs = [_as_fraction(c) for c in coeffs]
        if any(cs[1:]):
            raise ValueError("order-1 scalars are rational")
        return cs[0] if cs else Fraction(0)
    reduced = _reduce(order, [_as_fraction(c) for c in coeffs])
    if all(c == 0 for c in reduced[1:]):
        return reduced[0]
    return Cyclo(order, reduced)


def zeta(order: int) -> Scalar:
    """Primitive order-th root of unity (order 1 gives 1)."""
    if order == 1:
        return Fraction(1)
    if order not in (3, 4, 5):
        raise ValueError(f"unsupported cyclotomic order {order}")
    return make_cyclo(order, [0, 1])


def is_rational_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def coerce_scalar(x, order: int) -> Scalar:
    """Check x lies in Q(zeta_order) and return it in canonical form."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Cyclo):
        if order != x.order:
            raise IncompatibleFieldsError(
                f"incompatible fields: Q(z{x.order}) element in a Q(z{order}) context"
                if order > 1
                else f"incompatible fields: Q(z{x.order}) element in a rational context"
            )
        return x
    raise TypeError(f"not a scalar: {x!r}")


def _canon(a):
    if isinstance(a, int):
        return Fraction(a)
    return a


def scalar_inv(a: Scalar) -> Scalar:
    a = _canon(a)
    if isinstance(a, Fraction):
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return 1 / a
    return a.inverse()


def scalar_pow(a: Scalar, k: int) -> Scalar:
    a = _canon(a)
    if k < 0:
        return scalar_pow(scalar_inv(a), -k)
    result: Scalar = Fraction(1)
    base = a
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def format_scalar(x: Scalar) -> str:
    """Render a scalar in the literal grammar (`p/q`, `z5^2-1/2`, ...)."""
    x = _canon(x)
    if isinstance(x, Fraction):
        return str(x)
    parts = []
    for k in range(_PHI[x.order] - 1, -1, -1):
        c = x.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            atom = None
        elif k == 1:
            atom = f"z{x.order}"
        else:
            atom = f"z{x.order}^{k}"
        mag = abs(c)
        if atom is None:
            body = str(mag)
        elif mag == 1:
            body = atom
        else:
            body = f"{mag}*{atom}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts) if parts else "0"
