"""Exact scalars: arbitrary-precision rationals and the cyclotomic field Q(zeta_n).

Every coefficient in this package lives in Q(zeta_n) for a session-fixed order n.
Elements are residue polynomials in zeta reduced modulo the n-th cyclotomic
polynomial, stored as integer numerators over one positive common denominator
(the layout of number-field libraries such as Antic's nf_elem).  Products fold
powers of zeta back with a cached integer table of zeta^k mod Phi_n.  All
arithmetic is exact: coefficients are ints or Fractions, and floats are refused.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "CyclotomicNumber",
    "cyclotomic_polynomial",
    "field_degree",
    "join_signed",
    "power",
    "primitive_root",
]


def _int_poly_mul(p, q):
    # zero entries of either side are skipped: a rational or a single +-zeta^k costs d products
    out = [0] * (len(p) + len(q) - 1)
    q = [(j, b) for j, b in enumerate(q) if b]
    for i, a in enumerate(p):
        if a:
            for j, b in q:
                out[i + j] += a * b
    return out


def _int_poly_divexact(num, den):
    # Long division by a monic divisor; the remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j in range(len(den)):
                num[i - dd + j] -= c * den[j]
    if any(num[:dd]):
        raise ValueError("polynomial division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first.

    Computed by exact division of x^n - 1 by the product of the d-th
    polynomials over the proper divisors d of n, and memoized per order.
    """
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _int_poly_mul(den, cyclotomic_polynomial(d))
    return tuple(_int_poly_divexact(num, den))


def field_degree(n: int) -> int:
    """Degree of Q(zeta_n) over Q (Euler's totient of n)."""
    return len(cyclotomic_polynomial(n)) - 1


def power(base, k, one, mul=operator.mul):
    """base ** k for k >= 0 by repeated squaring, one only for k = 0.

    The result starts as base^(2^i) for the lowest set bit i of k; then one
    squaring between bits and one product per further set bit, each formed
    by mul, which may raise to refuse the power.  So k >= 1 costs
    k.bit_count() + k.bit_length() - 2 products: none by one, none after the top bit.
    """
    result = None
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        if k := k >> 1:
            base = mul(base, base)
    return one if result is None else result


def join_signed(parts):
    """Join rendered terms with " + ", or " - " in place of a leading minus; "0" if none."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _integral(coeffs):
    """Int numerators over the least common denominator of int and Fraction
    coefficients; any other coefficient (a float, a str) is refused."""
    coeffs = list(coeffs)
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cyclotomic coefficients must be int or Fraction, got {c!r}")
    den = lcm(1, *(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


@lru_cache(maxsize=None)
def _zeta_powers(order):
    """zeta^k mod Phi_order for k = 0 .. order - 1, each as its nonzero (index, int) pairs."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rows, cur = [], [1] + [0] * (deg - 1)
    for _ in range(order):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        top, cur = cur[-1], [0] + cur[:-1]
        for j in range(deg):
            cur[j] -= top * phi[j]
    return tuple(rows)


def _fold(order, num):
    """Integer coefficients of any length reduced modulo Phi_order (zeta^order = 1)."""
    deg = field_degree(order)
    out = list(num[:deg]) + [0] * (deg - len(num))
    table = _zeta_powers(order)
    for k in range(deg, len(num)):
        c = num[k]
        if c:
            for j, t in table[k % order]:
                out[j] += c * t
    return out


def _raw(order, num, den):
    """The CyclotomicNumber on a canonical (num, den) as given, unchecked."""
    x = object.__new__(CyclotomicNumber)
    x.order, x.num, x.den = order, num, den
    return x


def _canonical(order, num, den):
    """The CyclotomicNumber sum(num[k] * zeta**k) / den, with the content cancelled."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return _raw(order, tuple(num), den)


def _fraction(order, num, den):
    """A degree-one value num / den (orders 1 and 2) with one gcd."""
    g = gcd(num, den)
    return _raw(order, (num // g,), den // g)


class CyclotomicNumber:
    """An exact element of Q(zeta_order).

    The value is sum(num[k] * zeta**k) / den: num is a tuple of ints of length
    field_degree(order) and den a positive int, kept canonical with
    gcd(den, *num) == 1, so equal values have equal (order, num, den).
    coeffs is the read-only view of the same value as a tuple of Fractions.
    Instances are immutable in use and hashable.  Mixing orders in arithmetic
    is an error; promote explicitly instead.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs):
        num, den = _integral(coeffs)
        if len(num) != field_degree(order):
            raise ValueError(
                f"need {field_degree(order)} coefficients for order {order}, "
                f"got {len(num)}"
            )
        # Fractions are reduced, so over their lcm the content is already 1
        self.order, self.num, self.den = order, tuple(num), den

    @property
    def coeffs(self):
        return tuple(Fraction(c, self.den) for c in self.num)

    @classmethod
    def from_poly(cls, order, coeffs):
        num, den = _integral(coeffs)
        return _canonical(order, _fold(order, num), den)

    @classmethod
    def from_rational(cls, order, value):
        num, den = _integral((value,))
        return _canonical(order, num + [0] * (field_degree(order) - 1), den)

    @classmethod
    @lru_cache(maxsize=None)
    def zero(cls, order):
        return cls.from_rational(order, 0)

    @classmethod
    @lru_cache(maxsize=None)
    def one(cls, order):
        return cls.from_rational(order, 1)

    @classmethod
    def zeta(cls, order):
        return cls.from_poly(order, (0, 1))

    def _coerce(self, other):
        """other as a number of this order, or None for a type it cannot read."""
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(f"cyclotomic order {other.order}, need {self.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self.order, other)
        return None

    def __add__(self, other):
        same = type(other) is CyclotomicNumber and other.order == self.order
        o = other if same else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        if len(self.num) == 1:
            x, y = self.num[0], o.num[0]
            if a == b:
                return _fraction(self.order, x + y, a)
            return _fraction(self.order, x * b + y * a, a * b)
        if a == b:
            return _canonical(self.order, [x + y for x, y in zip(self.num, o.num)], a)
        return _canonical(
            self.order, [x * b + y * a for x, y in zip(self.num, o.num)], a * b
        )

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.order, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        same = type(other) is CyclotomicNumber and other.order == self.order
        o = other if same else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if len(a) == 1:
            return _fraction(self.order, a[0] * b[0], self.den * o.den)
        return _canonical(self.order, _fold(self.order, _int_poly_mul(a, b)), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: den times the other Galois conjugates of num, over their norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        n, num = self.order, self.num
        conj = [1]
        for k in range(2, n):
            if gcd(k, n) == 1:
                image = [0] * n
                for j, c in enumerate(num):
                    image[j * k % n] += c
                conj = _fold(n, _int_poly_mul(conj, _fold(n, image)))
        # num * conj is the norm of num: a nonzero integer
        norm = _fold(n, _int_poly_mul(num, conj))[0]
        sign = self.den if norm > 0 else -self.den
        return _canonical(n, [sign * c for c in conj], abs(norm))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, CyclotomicNumber.one(self.order))

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(self.order, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return (self.order, self.num, self.den) == (other.order, other.num, other.den)

    def __hash__(self):
        if self.is_rational():  # equal to its Fraction, so hashed as one
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                body = str(c)
            else:
                zp = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    body = zp
                elif c == -1:
                    body = f"-{zp}"
                else:
                    body = f"{c}*{zp}"
            parts.append(body)
        return join_signed(parts)

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, {self})"


def primitive_root(order: int) -> CyclotomicNumber:
    """The canonical primitive order-th root of unity zeta in Q(zeta_order)."""
    return CyclotomicNumber.zeta(order)
