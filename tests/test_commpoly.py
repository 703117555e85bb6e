"""Tests for the commutative coefficient polynomials."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from hopfid.commpoly import CommPoly, ParamVar, TVar
from hopfid.cyclotomic import CyclotomicNumber, field_degree


def test_paramvar_validation():
    ParamVar("a")
    ParamVar("c")
    ParamVar("c", (3,))
    ParamVar("d", (1, 2))
    ParamVar("d", (2, 2))
    with pytest.raises(ValueError):
        ParamVar("b")
    with pytest.raises(ValueError):
        ParamVar("a", (1,))
    with pytest.raises(ValueError):
        ParamVar("c", (1, 2))
    with pytest.raises(ValueError):
        ParamVar("d", (1,))
    with pytest.raises(ValueError):
        ParamVar("d", (2, 1))
    with pytest.raises(ValueError):
        ParamVar("c", (0,))
    with pytest.raises(ValueError):
        ParamVar("c", (1,), -1)


def test_paramvar_render():
    assert ParamVar("a").render() == "a"
    assert ParamVar("c").render() == "c"
    assert ParamVar("c", (2,)).render() == "c[2]"
    assert ParamVar("d", (1, 2)).render() == "d[1,2]"
    assert ParamVar("c", (), 1).render() == "c'"
    assert ParamVar("d", (1, 3), 2).render() == "d[1,3]''"


def test_tvar_identity_ignores_label():
    assert TVar(1, 2, "y") == TVar(1, 2, "anything")
    assert TVar(1, 2, "y") != TVar(2, 2, "y")
    assert TVar(1, 2, "y") != TVar(1, 3, "y")
    assert hash(TVar(1, 2, "y")) == hash(TVar(1, 2, "z"))
    assert TVar(1, 2, "y").render() == "t[1,y]"
    with pytest.raises(ValueError):
        TVar(0, 1, "x")


def test_params_sort_before_tvars():
    a = CommPoly.variable(3, ParamVar("a"))
    t = CommPoly.variable(3, TVar(1, 1, "x"))
    prod = t * a
    [(mono, coeff)] = prod.sorted_terms()
    assert mono[0] == (ParamVar("a"), 1)
    assert mono[1] == (TVar(1, 1, "x"), 1)
    assert str(prod) == "a*t[1,x]"


def test_ring_operations():
    a = CommPoly.variable(2, ParamVar("a"))
    c = CommPoly.variable(2, ParamVar("c"))
    one = CommPoly.one(2)
    zero = CommPoly.zero(2)
    assert a + zero == a
    assert a * one == a
    assert a * zero == zero
    assert a + c == c + a
    assert a * c == c * a
    assert (a + c) * (a - c) == a * a - c * c
    assert (a + c) ** 2 == a * a + 2 * a * c + c * c
    assert a - a == zero
    assert -(a - c) == c - a


def test_scalar_mixing():
    a = CommPoly.variable(4, ParamVar("a"))
    z = CyclotomicNumber.zeta(4)
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert (a * z) * z == -a
    assert a + 1 - 1 == a
    assert CommPoly.scalar(4, 5).constant_value() == 5


def test_is_constant_and_degree():
    a = CommPoly.variable(2, ParamVar("a"))
    assert CommPoly.one(2).is_constant()
    assert CommPoly.zero(2).is_constant()
    assert not a.is_constant()

    def total_degree(p):
        return max((sum(e for _, e in m) for m in p.terms), default=0)

    assert total_degree(a) == 1
    assert total_degree(a * a * a) == 3
    assert total_degree(CommPoly.one(2)) == 0
    with pytest.raises(ValueError):
        a.constant_value()


def test_specialize():
    a = CommPoly.variable(2, ParamVar("a"))
    c = CommPoly.variable(2, ParamVar("c"))
    cp = CommPoly.variable(2, ParamVar("c", (), 1))
    p = a * c + c * c
    # substitute a numeric value for c
    got = p.specialize({ParamVar("c"): CyclotomicNumber.from_rational(2, 3)})
    assert got == 3 * a + 9
    # substitute one variable by another polynomial
    got = p.specialize({ParamVar("c"): cp})
    assert got == a * cp + cp * cp
    # untouched variables stay
    got = p.specialize({ParamVar("d", (1, 2)): 7})
    assert got == p
    # plain integers and fractions are accepted
    got = (a * a).specialize({ParamVar("a"): Fraction(1, 2)})
    assert got == Fraction(1, 4)


def test_variables_listing():
    a = CommPoly.variable(2, ParamVar("a"))
    t = CommPoly.variable(2, TVar(2, 0, "1"))
    p = a * t + t
    assert set(p.variables()) == {ParamVar("a"), TVar(2, 0, "1")}


def test_equality_with_scalars():
    assert CommPoly.one(3) == 1
    assert CommPoly.zero(3) == 0
    assert CommPoly.scalar(3, Fraction(2, 3)) == Fraction(2, 3)
    assert CommPoly.variable(3, ParamVar("a")) != 1


def test_rendering():
    a = CommPoly.variable(3, ParamVar("a"))
    c = CommPoly.variable(3, ParamVar("c"))
    z = CyclotomicNumber.zeta(3)
    assert str(a) == "a"
    assert str(-a) == "-a"
    assert str(a * a - a) == "-a + a^2"
    assert str(2 * a * c) == "2*a*c"
    assert str(a * Fraction(1, 2)) == "1/2*a"
    assert str(CommPoly.constant(z) * a) == "(z)*a"
    assert str(CommPoly.zero(3)) == "0"
    assert str(CommPoly.one(3)) == "1"


def test_primed_variables_are_distinct():
    c = CommPoly.variable(2, ParamVar("c"))
    cp = CommPoly.variable(2, ParamVar("c", (), 1))
    assert c != cp
    assert not (c - cp).is_zero()
    assert str(cp) == "c'"


def test_pow_validation():
    a = CommPoly.variable(2, ParamVar("a"))
    assert a**0 == 1
    assert a**1 == a
    with pytest.raises(ValueError):
        a ** (-1)


def _old_key(v):
    """The sort key each variable computed from its fields: the order's oracle."""
    if isinstance(v, ParamVar):
        return (0, "acd".index(v.tag), v.indices, v.prime)
    return (1, v.copy, (v.basis_index,), 0)


def test_variables_compare_hash_and_sort_by_their_fields():
    t, u = TVar(2, 5, "y"), TVar(2, 5, "x*y")
    assert t == u and hash(t) == hash(u)
    assert {t: 1}[u] == 1 and {u: 2}[t] == 2
    assert ParamVar("d", (1, 3), 2) == ParamVar("d", (1, 3), 2)
    assert hash(ParamVar("d", (1, 3), 2)) == hash(ParamVar("d", (1, 3), 2))
    assert len({ParamVar("c"), ParamVar("c", (), 1), ParamVar("c", (1,)), TVar(1, 0, "1")}) == 4
    pool = [ParamVar("a", (), p) for p in range(3)]
    pool += [ParamVar("c", idx, p) for idx in ((), (1,), (2,), (10,)) for p in range(3)]
    pool += [ParamVar("d", (i, j), p) for i in (1, 2) for j in (2, 3, 10) for p in range(2)]
    pool += [TVar(c, b, f"h{b}") for c in (1, 2, 10) for b in (0, 1, 2, 10)]
    rng = random.Random(15)
    rng.shuffle(pool)
    assert sorted(pool) == sorted(pool, key=_old_key)
    for v in pool:
        for w in pool:
            assert (v < w) == (_old_key(v) < _old_key(w)) and (v == w) == (v is w)
        assert copy.copy(v) == v and repr(pickle.loads(pickle.dumps(v))) == repr(v)
    assert repr(ParamVar("c", (2,))) == "ParamVar(tag='c', indices=(2,), prime=0)"
    assert repr(TVar(2, 5, "y")) == "TVar(copy=2, basis_index=5, label='y')"
    refused = [
        (lambda: ParamVar("b"), "unknown parameter tag 'b'"),
        (lambda: ParamVar("a", (1,)), "parameter a takes no indices"),
        (lambda: ParamVar("c", (1, 2)), "parameter c takes zero or one index"),
        (lambda: ParamVar("d", (1,)), "parameter d takes exactly two indices"),
        (lambda: ParamVar("d", (2, 1)), "d indices must satisfy 1 <= i <= j"),
        (lambda: ParamVar("c", (0,)), "parameter indices start at 1"),
        (lambda: ParamVar("c", (1,), -1), "prime count must be >= 0"),
        (lambda: TVar(0, 5, "y"), "copy index starts at 1"),
        (lambda: TVar(1, -1, "y"), "basis index must be >= 0"),
    ]
    for build, message in refused:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def _reference_mul(p, q):
    """The general double loop: every pair of terms, monomials merged and sorted."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            c = c1 * c2
            if c.is_zero():
                continue
            merged = dict(m1)
            for v, e in m2:
                merged[v] = merged.get(v, 0) + e
            m = tuple(sorted(merged.items(), key=lambda ve: _old_key(ve[0])))
            s = out.get(m)
            out[m] = c if s is None else s + c
    return CommPoly(p.order, out)


# variables are built afresh for each monomial, so lookups meet equal, not identical, keys
_VARIABLES = (
    lambda: ParamVar("a"),
    lambda: ParamVar("c"),
    lambda: ParamVar("c", (2,)),
    lambda: ParamVar("c", (), 1),
    lambda: ParamVar("d", (1, 2)),
    lambda: TVar(1, 0, "1"),
    lambda: TVar(1, 1, "x"),
    lambda: TVar(2, 1, "x"),
)


def _random_scalar(rng, order):
    return CyclotomicNumber(
        order, [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(field_degree(order))]
    )


def _random_poly(rng, order):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        chosen = rng.sample(_VARIABLES, rng.randint(0, 3))
        mono = tuple(sorted(((new(), rng.randint(1, 2)) for new in chosen),
                            key=lambda ve: _old_key(ve[0])))
        terms[mono] = _random_scalar(rng, order)
    return CommPoly(order, terms)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7])
def test_mul_matches_the_reference_double_loop(order):
    rng = random.Random(order)
    constants = [CommPoly.zero(order), CommPoly.one(order), CommPoly.scalar(order, -1),
                 CommPoly.constant(CyclotomicNumber.zeta(order) + 2)]
    polys = constants + [_random_poly(rng, order) for _ in range(40)]
    numbers = [0, 1, -1, 3, Fraction(-2, 3), Fraction(1, 1)]
    for p in polys:
        before = list(p.terms.items())
        q_cases = constants + [_random_poly(rng, order) for _ in range(3)]
        for q in q_cases:
            q_before = list(q.terms.items())
            got = p * q
            assert list(got.terms.items()) == list(_reference_mul(p, q).terms.items()), (p, q)
            assert not any(c.is_zero() for c in got.terms.values())
            assert list(q.terms.items()) == q_before
        for k in numbers + [_random_scalar(rng, order)]:
            as_poly = CommPoly.constant(k) if isinstance(k, CyclotomicNumber) else CommPoly.scalar(order, k)
            ref = _reference_mul(p, as_poly)
            for got in (p * k, k * p):
                assert list(got.terms.items()) == list(ref.terms.items()), (p, k)
                assert not any(c.is_zero() for c in got.terms.values())
        assert list(p.terms.items()) == before
        assert p * CommPoly.one(order) is p and 1 * p is p


def test_equal_constants_hash_equal():
    # a rational constant equals its int or Fraction, and any constant equals
    # its cyclotomic value, so each hashes as that value
    assert CommPoly.scalar(3, 2) == 2
    assert len({CommPoly.scalar(3, 2), 2}) == 1
    half = CyclotomicNumber.from_rational(3, Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert len({half, Fraction(1, 2), CommPoly.constant(half)}) == 1
    z = CyclotomicNumber.zeta(5)
    assert len({z, CommPoly.constant(z)}) == 1
    for order in (1, 2, 3, 5, 12):
        for value in (0, 1, -7, Fraction(-3, 4)):
            assert hash(CommPoly.scalar(order, value)) == hash(value)
            assert hash(CyclotomicNumber.from_rational(order, value)) == hash(value)
    # a zero of one order is not a zero of another, and neither is a variable
    t = CommPoly.variable(3, TVar(1, 0, "1"))
    assert len({t, t + 1, CommPoly.zero(3), CommPoly.zero(4)}) == 4
