"""Tests for exact cyclotomic field arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest

from hopfid.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    field_degree,
    primitive_root,
)


def test_cyclotomic_polynomial_small():
    # classical table values, constant term first
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_field_degree_is_totient():
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6,
                10: 4, 11: 10, 12: 4}
    for n, phi in expected.items():
        assert field_degree(n) == phi


def test_zeta_is_primitive():
    for n in range(1, 13):
        z = CyclotomicNumber.zeta(n)
        assert (z**n).is_one()
        for k in range(1, n):
            assert not (z**k).is_one()


def test_primitive_root_matches_zeta():
    for n in (2, 3, 4, 5, 12):
        q = primitive_root(n)
        assert (q**n).is_one()
        assert not any((q**k).is_one() for k in range(1, n))


def test_reduction_mod_phi():
    z = CyclotomicNumber.zeta(3)
    # z^2 = -1 - z since 1 + z + z^2 = 0
    assert z * z == CyclotomicNumber.from_rational(3, -1) - z
    assert z**3 == 1
    z4 = CyclotomicNumber.zeta(4)
    assert z4 * z4 == -1
    assert z4**4 == 1


def test_arithmetic():
    z = CyclotomicNumber.zeta(5)
    one = CyclotomicNumber.one(5)
    a = one + z
    b = one - z
    assert a + b == 2
    assert a - a == 0
    assert a * b == one - z * z
    assert -(a - b) == b - a
    assert (a * b) * z == a * (b * z)
    assert a * (b + z) == a * b + a * z


def test_rational_coercion():
    half = CyclotomicNumber.from_rational(4, Fraction(1, 2))
    assert half + half == 1
    assert half * 2 == 1
    assert (half + Fraction(1, 2)).is_one()
    assert half.is_rational()
    assert half.rational_value() == Fraction(1, 2)
    z = CyclotomicNumber.zeta(4)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.rational_value()


def test_inverse_and_division():
    z = CyclotomicNumber.zeta(3)
    one = CyclotomicNumber.one(3)
    # (1 + z)^(-1) = -z:  (1 + z)(-z) = -z - z^2 = -z + 1 + z = 1
    assert (one + z).inverse() == -z
    for v in (z, one + z, one - z, 2 * z + 3):
        assert v * v.inverse() == 1
        assert v / v == 1
        assert (one / v) * v == 1
    assert z**-1 == z * z
    assert (2 * one) ** -2 == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(3).inverse()


def test_order_mismatch_is_rejected():
    z3 = CyclotomicNumber.zeta(3)
    z4 = CyclotomicNumber.zeta(4)
    with pytest.raises(ValueError):
        z3 + z4
    with pytest.raises(ValueError):
        z3 * z4


def test_equality_and_hash():
    z = CyclotomicNumber.zeta(6)
    assert CyclotomicNumber.one(6) == 1
    assert CyclotomicNumber.from_rational(6, Fraction(3, 2)) == Fraction(3, 2)
    assert z != 1
    assert hash(z + 1 - 1) == hash(z)
    seen = {z, z + 1, z}
    assert len(seen) == 2


def test_rendering():
    z = CyclotomicNumber.zeta(3)
    assert str(z) == "z"
    assert str(-z) == "-z"
    assert str(z * z) == "-1 - z"
    assert str(CyclotomicNumber.one(3) - z) == "1 - z"
    assert str(CyclotomicNumber.zero(7)) == "0"
    assert str(CyclotomicNumber.from_rational(5, Fraction(-3, 2))) == "-3/2"


def test_zeta_powers_span_basis():
    # in Q(zeta_5) the powers 1, z, z^2, z^3 are the reduced basis
    z = CyclotomicNumber.zeta(5)
    v = 1 + 2 * z + 3 * z**2 + 4 * z**3
    assert v.coeffs == (
        Fraction(1), Fraction(2), Fraction(3), Fraction(4)
    )
    # z^4 = -(1 + z + z^2 + z^3)
    assert z**4 == -(1 + z + z**2 + z**3)


# -- oracle: the former Fraction-coefficient representation ------------------


def _oracle_reduced(order, coeffs):
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            work[i] = Fraction(0)
            for j in range(deg):
                work[i - deg + j] -= c * phi[j]
    work = work[:deg]
    work.extend([Fraction(0)] * (deg - len(work)))
    return tuple(work)


def _oracle_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _oracle_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    inv_lead = 1 / b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv_lead
        if c:
            quot[i - db] = c
            for j in range(len(b)):
                a[i - db + j] -= c * b[j]
    return quot, _oracle_trim(a[:db])


class Oracle:
    """Q(zeta_order) with one Fraction per coefficient: the slow reference path."""

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == field_degree(order)

    @classmethod
    def from_poly(cls, order, coeffs):
        return cls(order, _oracle_reduced(order, coeffs))

    @classmethod
    def from_rational(cls, order, value):
        return cls(order, (Fraction(value),) + (Fraction(0),) * (field_degree(order) - 1))

    def _coerce(self, other):
        if isinstance(other, Oracle):
            return other
        return Oracle.from_rational(self.order, other)

    def __add__(self, other):
        o = self._coerce(other)
        return Oracle(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Oracle(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        n = len(self.coeffs)
        out = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return Oracle.from_poly(self.order, out)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r1 = _oracle_trim(list(self.coeffs))
        t0, t1 = [], [Fraction(1)]
        while r1:
            q, r = _oracle_divmod(r0, r1)
            prod = [Fraction(0)] * (len(q) + len(t1) - 1) if q and t1 else []
            for i, a in enumerate(q):
                for j, b in enumerate(t1):
                    prod[i + j] += a * b
            new_t = [Fraction(0)] * max(len(t0), len(prod))
            for i, a in enumerate(t0):
                new_t[i] += a
            for i, a in enumerate(prod):
                new_t[i] -= a
            t0, t1 = t1, _oracle_trim(new_t)
            r0, r1 = r1, r
        return Oracle.from_poly(self.order, [c / r0[0] for c in t0])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = Oracle.from_rational(self.order, 1)
        for _ in range(k):
            result = result * self
        return result

    def is_zero(self):
        return not any(self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_value(self):
        return self.coeffs[0]

    def __eq__(self, other):
        return self.coeffs == self._coerce(other).coeffs

    def __str__(self):
        return _oracle_str(self.coeffs)


def _oracle_str(coeffs):
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            body = str(c)
        else:
            zp = "z" if k == 1 else f"z^{k}"
            body = zp if c == 1 else f"-{zp}" if c == -1 else f"{c}*{zp}"
        parts.append(body)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


ORACLE_ORDERS = range(1, 13)


def _random_coeffs(rng, length):
    """Small coefficients, many of them zero or integral."""
    out = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.3:
            out.append(0)
        elif kind < 0.6:
            out.append(rng.randint(-9, 9))
        else:
            out.append(Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
    return out


def _random_pairs(order, count=25):
    """Seeded (new, oracle) pairs: general elements, rationals and zero."""
    rng = random.Random(f"oracle:{order}")
    deg = field_degree(order)
    pairs = []
    for i in range(count):
        coeffs = _random_coeffs(rng, deg)
        if i % 5 == 1:
            coeffs = coeffs[:1] + [0] * (deg - 1)
        if i == 0:
            coeffs = [0] * deg
        pairs.append((CyclotomicNumber(order, coeffs), Oracle(order, coeffs)))
    return pairs


def _agree(new, old):
    assert isinstance(new, CyclotomicNumber)
    assert new.den > 0 and gcd(new.den, *new.num) == 1
    assert new.coeffs == old.coeffs
    assert str(new) == str(old)
    assert new.is_zero() == old.is_zero()
    assert new.is_one() == old.is_one()
    assert new.is_rational() == old.is_rational()
    if old.is_rational():
        assert new.rational_value() == old.rational_value()
        assert type(new.rational_value()) is Fraction
    else:
        with pytest.raises(ValueError):
            new.rational_value()


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_field_operations_match_oracle(order):
    pairs = _random_pairs(order)
    rng = random.Random(f"operands:{order}")
    for (a, oa), (b, ob) in zip(pairs, pairs[1:] + pairs[:1]):
        _agree(a, oa)
        _agree(a + b, oa + ob)
        _agree(a - b, oa - ob)
        _agree(-a, -oa)
        _agree(a * b, oa * ob)
        assert (a == b) == (oa == ob)
        assert (a * b == b * a) and (a + b == b + a)
        if not ob.is_zero():
            _agree(a / b, oa / ob)
            _agree(b.inverse(), ob.inverse())
            for k in (-3, -2, -1):
                _agree(b**k, ob**k)
        for k in (0, 1, 2, 5):
            _agree(a**k, oa**k)
        for r in (rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
            _agree(a + r, oa + r)
            _agree(r + a, r + oa)
            _agree(a - r, oa - r)
            _agree(r - a, r - oa)
            _agree(a * r, oa * r)
            _agree(r * a, r * oa)
            assert (a == r) == (oa == r)
            if r:
                _agree(a / r, oa / r)
            if not oa.is_zero():
                _agree(r / a, r / oa)


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_from_poly_matches_oracle(order):
    # lists longer than 2 * degree, with zero and negative entries, reach every
    # row of the table of zeta^k mod Phi (orders 9, 10, 12 have zero and
    # negative coefficients in Phi)
    rng = random.Random(f"from_poly:{order}")
    for length in (0, 1, order, 2 * order + 3):
        for _ in range(5):
            coeffs = _random_coeffs(rng, length)
            _agree(CyclotomicNumber.from_poly(order, coeffs), Oracle.from_poly(order, coeffs))
    for k in range(3 * order):
        power = [0] * k + [1]
        _agree(CyclotomicNumber.zeta(order) ** k, Oracle.from_poly(order, power))


def test_canonical_form_is_unique():
    half = [
        CyclotomicNumber(3, [Fraction(2, 4), 0]),
        CyclotomicNumber.from_rational(3, Fraction(1, 2)),
        # 3/2 + z + z^2 = 3/2 - 1, unreduced and with a common factor
        CyclotomicNumber.from_poly(3, [Fraction(3, 2), 1, 1]),
        CyclotomicNumber.from_poly(3, [2, 0, 0, Fraction(-9, 6)]),
        CyclotomicNumber.from_rational(3, Fraction(1, 4)) + Fraction(1, 4),
        CyclotomicNumber.from_rational(3, 3) / 6,
        CyclotomicNumber.from_rational(3, -2).inverse() * -1,
        (CyclotomicNumber.zeta(3) * 2).inverse() * CyclotomicNumber.zeta(3),
    ]
    for x in half:
        assert (x.num, x.den) == ((1, 0), 2)
        assert x == half[0] and hash(x) == hash(half[0])
    assert len(set(half)) == 1
    # a negative value keeps a positive denominator
    minus = CyclotomicNumber.from_rational(5, 2).inverse() * -1
    assert (minus.num, minus.den) == ((-1, 0, 0, 0), 2)
    assert (CyclotomicNumber.zeta(5) - CyclotomicNumber.zeta(5)).den == 1


@pytest.mark.parametrize(
    "bad", [0.1, 0.5, "1", "1/2", None, 1j]
)
def test_non_exact_coefficients_are_refused(bad):
    with pytest.raises(TypeError):
        CyclotomicNumber(3, [bad, 0])
    with pytest.raises(TypeError):
        CyclotomicNumber.from_rational(2, bad)
    with pytest.raises(TypeError):
        CyclotomicNumber.from_poly(3, [1, 0, bad])


def test_float_operands_are_refused():
    z = CyclotomicNumber.zeta(3)
    for op in (lambda: z + 0.5, lambda: 0.5 * z, lambda: z - 0.5, lambda: z / 0.5):
        with pytest.raises(TypeError):
            op()
