"""The one repeated-squaring routine: its product count and its callers.

power(base, k, one) makes one product per set bit of k and one squaring
between bits, so k >= 1 costs k.bit_count() + k.bit_length() - 1 products.
A loop that squares once more after the top bit builds a square it throws
away; on taft_identity(8) that square is (YX - qXY)^16.
"""

import pytest

from hopfid.commpoly import CommPoly, ParamVar
from hopfid.cyclotomic import CyclotomicNumber, power
from hopfid.hopf import taft
from hopfid.identities import taft_identity, x_symbol
from hopfid.ncalg import AlgElement


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
