"""The one repeated-squaring routine: its product count and its callers.

power(base, k, one) makes one product per set bit of k and one squaring
between bits, so k >= 1 costs k.bit_count() + k.bit_length() - 1 products.
A loop that squares once more after the top bit builds a square it throws
away; on taft_identity(8) that square is (YX - qXY)^16.

mu raises a sum of two q-commuting terms by (u+v)^d = u^d + v^d instead
(identities._power); that rule is checked here against this routine, which
every other base still takes.
"""

import random

import pytest

from hopfid import identities
from hopfid.commpoly import CommPoly, ParamVar, TVar
from hopfid.comodule import galois_object
from hopfid.cyclotomic import CyclotomicNumber, power
from hopfid.exprparse import parse_object_spec
from hopfid.hopf import taft
from hopfid.identities import (
    _bounded_mul,
    _commutation_order,
    _power,
    free_algebra,
    mu,
    taft_identity,
    x_symbol,
)
from hopfid.ncalg import AlgElement, PresentedAlgebra, RewriteRule


def expected_products(k):
    return k.bit_count() + k.bit_length() - 1 if k else 0


class _Counted:
    """Integers under addition, written as a product that counts its calls."""

    calls = 0

    def __init__(self, e):
        self.e = e

    def __mul__(self, other):
        _Counted.calls += 1
        return _Counted(self.e + other.e)


def test_power_on_a_counting_stub():
    for k in range(65):
        _Counted.calls = 0
        seen = []

        def mul(x, y):
            v = x * y
            seen.append(v.e)
            return v

        assert power(_Counted(1), k, _Counted(0), mul).e == k
        assert _Counted.calls == expected_products(k), k
        # mul forms every square and every partial product, and nothing else
        assert len(seen) == _Counted.calls
        if k:
            assert max(seen) == k


def test_power_check_can_refuse():
    def refuse_past_16(x, y):
        v = x * y
        if v.e > 16:
            raise OverflowError(v.e)
        return v

    assert power(_Counted(1), 16, _Counted(0), refuse_past_16).e == 16
    with pytest.raises(OverflowError):
        power(_Counted(1), 17, _Counted(0), refuse_past_16)


def _base(which):
    a = CommPoly.variable(3, ParamVar("a"))
    alg = taft(3).algebra
    return {
        "cyclotomic": CyclotomicNumber.zeta(5) + 1,
        "commpoly": a + 1,
        "algelement": alg.gen("x") + alg.gen("y") * a,
    }[which]


@pytest.mark.parametrize("which", ["cyclotomic", "commpoly", "algelement"])
def test_pow_makes_one_product_per_bit_and_square(monkeypatch, which):
    base = _base(which)
    cls = type(base)
    calls = []
    mul = cls.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    previous = None
    for k in range(65):
        calls.clear()
        value = base**k
        assert len(calls) == expected_products(k), k
        if previous is not None:
            assert value == mul(previous, base)
        previous = value


def test_taft_identity_8_matches_explicit_squarings():
    n = 8
    H = taft(n)
    q = H.q
    alg = H.algebra
    E = x_symbol(1, alg.one())
    X = x_symbol(1, alg.gen("x"))
    Y = x_symbol(1, alg.gen("y"))
    c = CommPoly.variable(n, ParamVar("c"))

    def product(factor):
        out = factor
        for _ in range(n - 1):
            out = out * factor
        return out

    lead = Y * X - q * (X * Y)
    lead = lead * lead
    lead = lead * lead
    lead = lead * lead
    w = product(CyclotomicNumber.one(n) - q)
    expected = lead - w * (product(X) * product(Y)) + (w * c) * (product(E) * product(X))
    assert taft_identity(n).element == expected.element


# -- powers of two q-commuting terms: (u+v)^d = u^d + v^d ---------------------


def _oracle(base, m):
    """base^m by repeated squaring alone, bounded as mu's products are."""
    return power(base, m, base.algebra.one(), _bounded_mul)


def _object(spec):
    return galois_object(parse_object_spec(spec))


ORACLE_SPECS = [
    *(f"taft:{n};a=sym;c=sym" for n in range(2, 7)),
    "taft:2;a=3;c=-1", "taft:3;a=2;c=1", "taft:4;a=-1;c=2", "taft:5;a=1;c=1", "taft:6;a=2;c=-2",
    "en:1", "en:2", "en:3",
    "en:1;a=2;c1=-1", "en:2;a=1;c1=1;c2=-3;d1,2=0", "en:3;a=-1;c1=1;c2=2;c3=1;d1,2=0;d1,3=1;d2,3=0",
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_power_rule_matches_repeated_squaring(spec):
    A = _object(spec)
    alg = A.algebra
    N = alg.order
    rng = random.Random(f"power rule {spec}")
    words = alg.basis()
    pool = [CommPoly.scalar(N, k) for k in (1, -1, 2, -3)]
    pool += [CommPoly.constant(CyclotomicNumber.zeta(N) ** k) for k in range(1, N)]
    pool += [CommPoly.variable(N, ParamVar("a")), CommPoly.variable(N, TVar(1, 0, "1"))]
    taken = 0
    for _ in range(20):
        wu, wv = rng.sample(words, 2)
        base = AlgElement(alg, {wu: rng.choice(pool), wv: rng.choice(pool)})
        for m in sorted({0, 1, 2, N - 1, N, N + 1, 2 * N + 1, rng.randrange(2, 3 * N + 2)}):
            taken += _commutation_order(base, m) is not None
            assert _power(base, m) == _oracle(base, m), (spec, wu, wv, m)
    assert taken > 0


def _taft_terms(spec, *exponents):
    """The two-term base x^i y^j + x^k y^l of the object, coefficients one."""
    alg = _object(spec).algebra
    return sum((alg.element({(0,) * i + (1,) * j: 1}) for i, j in exponents), alg.zero())


@pytest.mark.parametrize("exponents, d", [
    (((1, 0), (0, 1)), 6),  # yx = q xy: λ = q
    (((0, 1), (3, 0)), 2),  # x^3 y = -y x^3: λ = -1
    (((0, 1), (2, 0)), 3),  # y x^2 = q^2 x^2 y: λ = q^-2, a primitive cube root
    (((1, 1), (2, 0)), 3),
])
def test_power_rule_at_each_order_of_lambda(exponents, d):
    base = _taft_terms("taft:6;a=2;c=3", *exponents)
    for m in (1, d - 1, d, 2 * d, 2 * d + 1, 3 * d + d - 1):
        assert _commutation_order(base, m) == (d if m >= d else None), m
        assert _power(base, m) == _oracle(base, m), m
    # the middle terms of base^d cancel
    assert len(_oracle(base, d).terms) <= 2


def _assert_declined(monkeypatch, base, m=7):
    assert _commutation_order(base, m) is None
    calls = []

    def counted(x, y):
        calls.append(1)
        return _bounded_mul(x, y)

    monkeypatch.setattr(identities, "_bounded_mul", counted)
    assert _power(base, m) == _oracle(base, m)
    assert len(calls) == expected_products(m)


def test_power_rule_declines_commuting_terms(monkeypatch):
    # λ = 1: x and x^2, and 1 and y
    _assert_declined(monkeypatch, _taft_terms("taft:4;a=2;c=3", (1, 0), (2, 0)))
    _assert_declined(monkeypatch, _taft_terms("taft:4;a=2;c=3", (0, 0), (0, 1)))


def test_power_rule_declines_a_parameter_in_the_ratio(monkeypatch):
    # x^2 · xy = a y and xy · x^2 = q^2 a y: λ = q^2, but α and β hold a
    base = _taft_terms("taft:3;a=sym;c=sym", (2, 0), (1, 1))
    assert len(base.algebra.mul_words((0, 0), (0, 1))) == 1
    _assert_declined(monkeypatch, base)


def test_power_rule_declines_products_on_different_words(monkeypatch):
    T = free_algebra(taft(2), 1)
    _assert_declined(monkeypatch, T.gen("X[1,x]") + T.gen("X[1,y]") * 2)
    # u2 u1 = -u1 u2 + d12 in the object of en:2: vu is two words
    alg = _object("en:2").algebra
    _assert_declined(monkeypatch, alg.gen("u1") + alg.gen("u2"))


def test_power_rule_declines_a_zero_product(monkeypatch):
    # y · xy = 0 and xy · y = 0 in taft:2, where y^2 = 0
    _assert_declined(monkeypatch, _taft_terms("taft:2;a=1;c=0", (0, 1), (1, 1)))
    # ab is normal and ba = 0: uv is a word, vu is zero
    alg = PresentedAlgebra("ab", ["a", "b"], 3, (RewriteRule((1, 0), []),))
    _assert_declined(monkeypatch, alg.gen("a") + alg.gen("b"))


def test_power_rule_declines_three_terms(monkeypatch):
    _assert_declined(monkeypatch, _taft_terms("taft:3;a=2;c=1", (0, 0), (1, 0), (0, 1)))


@pytest.mark.parametrize("n", [8, 16, 64])
def test_mu_of_taft_identity_never_squares_mu_y(monkeypatch, n):
    # mu(Y) = t[1,1] y + t[1,y] x with yx = q xy: its n-th power is
    # t[1,1]^n y^n + t[1,y]^n x^n, so no product holds mu(Y)^k for 1 < k < n
    # (k + 1 terms) or multiplies mu(Y) by anything but mu(X), as in YX and XY
    A = _object(f"taft:{n};a=sym;c=sym")
    alg = A.hopf.algebra
    mu_x, mu_y = (mu(x_symbol(1, alg.gen(g)), A).terms for g in ("x", "y"))
    assert len(mu_y) == 2
    seen = []

    def recorded(x, y):
        seen.append((x, y))
        return _bounded_mul(x, y)

    monkeypatch.setattr(identities, "_bounded_mul", recorded)
    assert mu(taft_identity(n), A).is_zero()
    for x, y in seen:
        for mine, other in ((x, y), (y, x)):
            if isinstance(mine, AlgElement):
                assert len(mine.terms) <= 2
                if mine.terms == mu_y:
                    assert isinstance(other, AlgElement) and other.terms == mu_x
