"""The coefficient kernel's typed fast paths against its old general path.

CyclotomicNumber and CommPoly multiply and add through short typed paths:
degree-one fractions, sparse integer products, single-monomial products and
sums that only delete the keys that cancelled.  The oracle here is the
general path they replace, kept as it was: coerce, multiply densely, fold,
cancel the content, merge monomials through a dict and filter the zeros at
the end.  Canonical forms are unique, so the two must agree exactly, down to
the numerators, the denominator and the order of a polynomial's terms.  The
chains at the end check the invariant the fast paths rely on: no terms dict
holds a zero coefficient, and equal values compare equal.
"""

import random
from fractions import Fraction

import pytest

from propsuites import random_element, random_scalar
from hopfid.commpoly import CommPoly, ParamVar, TVar
from hopfid.comodule import galois_object
from hopfid.cyclotomic import CyclotomicNumber, _canonical, _fold
from hopfid.exprparse import parse_object_spec
from hopfid.hopf import en, taft
from hopfid.ncalg import AlgElement, tensor_product

ORDERS = range(1, 8)


# -- the old general path -------------------------------------------------------

def old_int_poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def old_coerce(order, value):
    if isinstance(value, CyclotomicNumber):
        return value
    return CyclotomicNumber.from_rational(order, value)


def old_cn_add(x, y):
    y = old_coerce(x.order, y)
    a, b = x.den, y.den
    if a == b:
        return _canonical(x.order, [p + q for p, q in zip(x.num, y.num)], a)
    return _canonical(x.order, [p * b + q * a for p, q in zip(x.num, y.num)], a * b)


def old_cn_mul(x, y):
    y = old_coerce(x.order, y)
    a, b = x.num, y.num
    num = (a[0] * b[0],) if len(a) == 1 else _fold(x.order, old_int_poly_mul(a, b))
    return _canonical(x.order, num, x.den * y.den)


def old_mono_mul(m1, m2):
    merged = {}
    for v, e in m1 + m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def old_poly(order, value):
    if isinstance(value, CommPoly):
        return value
    return CommPoly(order, {(): old_coerce(order, value)})


def old_cp_add(p, q):
    q = old_poly(p.order, q)
    out = dict(p.terms)
    for m, c in q.terms.items():
        s = out.get(m)
        out[m] = c if s is None else old_cn_add(s, c)
    return CommPoly(p.order, out)


def old_cp_mul(p, q):
    q = old_poly(p.order, q)
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            c = old_cn_mul(c1, c2)
            m = old_mono_mul(m1, m2)
            s = out.get(m)
            out[m] = c if s is None else old_cn_add(s, c)
    return CommPoly(p.order, out)


# -- seeded operands ------------------------------------------------------------

def scalars(order, rng):
    """Zero, one, +-zeta^k, rationals with denominators, and general values."""
    zeta = CyclotomicNumber.zeta(order)
    out = [CyclotomicNumber.zero(order), CyclotomicNumber.one(order)]
    out += [sign * zeta ** k for k in range(order) for sign in (1, -1)]
    rationals = (Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(4))
    out += [CyclotomicNumber.from_rational(order, r) for r in rationals]
    for _ in range(6):
        coeffs = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(order + 1)]
        out.append(CyclotomicNumber.from_poly(order, coeffs))
    return out


def polys(order, rng):
    """Zero, one, constants, one-monomial and multi-term polynomials, and
    pairs built to cancel in a sum or in a product."""
    a, c = CommPoly.variable(order, ParamVar("a")), CommPoly.variable(order, ParamVar("c"))
    c1 = CommPoly.variable(order, ParamVar("c", (1,)))
    t = CommPoly.variable(order, TVar(1, 1, "x"))
    zeta = CyclotomicNumber.zeta(order)
    out = [CommPoly.zero(order), CommPoly.one(order), CommPoly.scalar(order, -3),
           CommPoly.scalar(order, Fraction(5, 6)), CommPoly.constant(zeta)]
    out += [a, c ** 2, -a, a * c1 * zeta ** 2, t * Fraction(-2, 3), a * t]
    out += [a + c, a - c, c - a, a + c * zeta, (a + t) ** 2, a * c - c1 * t + 1]
    out += [random_scalar(rng, order, allow_tvars=True) for _ in range(8)]
    return out


def same_cn(x, y):
    return (x.order, x.num, x.den) == (y.order, y.num, y.den)


def same_poly(p, q):
    # equal dicts, in the same order, with no zero coefficient
    return (p.order == q.order and list(p.terms.items()) == list(q.terms.items())
            and not any(c.is_zero() for c in p.terms.values()))


# -- the tests ------------------------------------------------------------------

@pytest.mark.parametrize("order", ORDERS)
def test_cyclotomic_products_and_sums_match_the_general_path(order):
    rng = random.Random(f"cyclotomic kernel {order}")
    values = scalars(order, rng)
    for x in values:
        for y in values:
            assert same_cn(x * y, old_cn_mul(x, y)), (x, y)
            assert same_cn(x + y, old_cn_add(x, y)), (x, y)
            assert same_cn(x - y, old_cn_add(x, old_cn_mul(y, -1))), (x, y)
        for k in (0, 1, -2, Fraction(3, 4)):
            assert same_cn(x * k, old_cn_mul(x, k)) and same_cn(k * x, old_cn_mul(x, k))
            assert same_cn(x + k, old_cn_add(x, k)) and same_cn(k + x, old_cn_add(x, k))


@pytest.mark.parametrize("order", ORDERS)
def test_commpoly_products_and_sums_match_the_general_path(order):
    rng = random.Random(f"commpoly kernel {order}")
    values = polys(order, rng)
    for p in values:
        for q in values:
            assert same_poly(p * q, old_cp_mul(p, q)), (p, q)
            assert same_poly(p + q, old_cp_add(p, q)), (p, q)
            assert same_poly(p - q, old_cp_add(p, old_cp_mul(q, -1))), (p, q)
        for k in (0, 1, -1, 7, Fraction(-2, 5), CyclotomicNumber.zeta(order)):
            assert same_poly(p * k, old_cp_mul(p, k)), (p, k)
            assert same_poly(p + k, old_cp_add(p, k)), (p, k)


def test_cancelling_polynomials_leave_no_zero_term():
    a = CommPoly.variable(5, ParamVar("a"))
    c = CommPoly.variable(5, ParamVar("c"))
    zeta = CyclotomicNumber.zeta(5)
    assert ((a + c) * (a - c)).terms == (a * a - c * c).terms
    assert (a * zeta + c - a * zeta).terms == c.terms
    assert (a + c - (c + a)).terms == {}
    assert (a - a) == CommPoly.zero(5)


def test_scalars_are_shared_constants():
    for order in ORDERS:
        assert CommPoly.scalar(order, 1) is CommPoly.one(order)
        assert CommPoly.scalar(order, Fraction(1)) is CommPoly.one(order)
        assert CommPoly.scalar(order, -2) is CommPoly.scalar(order, -2)
        assert CommPoly.scalar(order, -2) == CommPoly.constant(CyclotomicNumber.from_rational(order, -2))
        with pytest.raises(TypeError):
            CommPoly.scalar(order, -2.0)  # equal to a cached key, still refused
        assert CommPoly.scalar(order, 0).terms == {}
        big = CommPoly.scalar(order, 100)
        assert big == CommPoly.constant(CyclotomicNumber.from_rational(order, 100))
        assert CommPoly.scalar(order, Fraction(1, 2)).terms[()].rational_value() == Fraction(1, 2)


@pytest.mark.parametrize("spec", ["taft:2;a=sym;c=sym", "en:1;a=sym;c1=sym",
                                  "en:2;a=1;c1=2;c2=sym;d1,2=0"])
def test_products_that_cancel_leave_no_zero_term(spec):
    # the generators anticommute (pairwise, up to d), so the cross terms of a square cancel
    alg = galois_object(parse_object_spec(spec)).algebra
    gens = [alg.gen(g) for g in alg.generators]
    total = sum(gens[1:], gens[0])
    square = total * total
    assert set(square.terms) <= {()}
    assert no_zero_coefficient(square)
    assert square == sum((g * g for g in gens), alg.zero())


def no_zero_coefficient(value):
    if isinstance(value, AlgElement):
        return all(c.terms and no_zero_coefficient(c) for c in value.terms.values())
    return not any(c.is_zero() for c in value.terms.values())


def algebras():
    objects = [galois_object(parse_object_spec(s)) for s in
               ("taft:3;a=sym;c=sym", "taft:4;a=2;c=0", "en:2;a=sym;c1=1;c2=sym;d1,2=sym")]
    # the last is where a coaction lands: a tensor product reduces factor by factor
    return ([A.algebra for A in objects] + [taft(5).algebra, en(1).algebra]
            + [tensor_product(objects[0].algebra, objects[0].hopf.algebra)])


@pytest.mark.parametrize("alg", algebras(), ids=lambda a: a.name)
def test_element_chains_keep_the_invariant(alg):
    rng = random.Random(f"element chain {alg.name}")
    elems = [random_element(rng, alg, allow_tvars=True) for _ in range(6)] + [alg.zero(), alg.one()]
    acc = alg.one()
    for step in range(30):
        x, y, z = (rng.choice(elems) for _ in range(3))
        roll = rng.random()
        acc = acc * x if roll < 0.4 else acc + x if roll < 0.7 else acc - acc * y
        if acc.degree() > 6:
            acc = x
        for value in (acc, x * y, x + y, x - x, x * y - y * x):
            assert no_zero_coefficient(value), (step, value)
        # equal values compare equal, however they were reached
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) - y == x
        assert acc == AlgElement(alg, dict(acc.terms))


@pytest.mark.parametrize("order", ORDERS)
def test_polynomial_chains_keep_the_invariant(order):
    rng = random.Random(f"polynomial chain {order}")
    values = polys(order, rng)
    acc = CommPoly.one(order)
    for step in range(60):
        x, y, z = (rng.choice(values) for _ in range(3))
        roll = rng.random()
        acc = acc * x if roll < 0.4 else acc + x if roll < 0.7 else acc - acc * y
        if len(acc.terms) > 40:
            acc = x
        for value in (acc, x * y, x + y, x - x):
            assert no_zero_coefficient(value), (step, value)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) - y == x
        assert acc == CommPoly(order, dict(acc.terms))
        assert hash(acc) == hash(CommPoly(order, dict(acc.terms)))
