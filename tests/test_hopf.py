"""Tests for the Taft and E(n) Hopf presentations and the axiom checker."""

import pytest

from hopfid.commpoly import CommPoly
from hopfid.cyclotomic import CyclotomicNumber, primitive_root
from hopfid.hopf import (
    HopfPresentation,
    antipode,
    check_hopf_axioms,
    coproduct,
    counit,
    en,
    qbinom,
    taft,
    trivial_hopf,
)
from hopfid.ncalg import PresentedAlgebra, RewriteRule, embed, tensor_product


def test_taft_dimensions_and_cache():
    for n in (2, 3, 4, 5):
        H = taft(n)
        assert len(H.basis()) == n * n
        assert H.q == primitive_root(n)
    assert taft(3) is taft(3)
    with pytest.raises(ValueError):
        taft(1)


def test_taft_relations():
    H = taft(3)
    x, y = H.algebra.gen("x"), H.algebra.gen("y")
    q = H.q
    assert x**3 == H.algebra.one()
    assert y**3 == H.algebra.zero()
    assert y * x == (x * y) * q


def test_taft_structure_maps_on_generators():
    H = taft(2)
    alg = H.algebra
    x, y = alg.gen("x"), alg.gen("y")
    sq = H.square
    assert coproduct(H, x) == embed(x, sq, 0) * embed(x, sq, 1)
    assert coproduct(H, y) == embed(y, sq, 1) + embed(y, sq, 0) * embed(x, sq, 1)
    assert counit(H, x).is_one()
    assert counit(H, y).is_zero()
    assert antipode(H, x) == x  # x^(n-1) with n = 2
    assert antipode(H, y) == x * y  # -q^(-1) x y with q = -1


def test_sweedler_coproduct_of_xy():
    H = taft(2)
    x, y = H.algebra.gen("x"), H.algebra.gen("y")
    got = coproduct(H, x * y)
    assert got == coproduct(H, x) * coproduct(H, y)
    assert str(coproduct(H, y)) == "1⊗y + y⊗x"


def test_taft3_coproduct_of_y_squared():
    # Delta(y^2) = 1 (x) y^2 + (1+q) y (x) xy + y^2 (x) x^2
    H = taft(3)
    y = H.algebra.gen("y")
    got = coproduct(H, y * y)
    q = H.q
    sq = H.square
    one_plus_q = CommPoly.constant(CyclotomicNumber.one(3) + q)
    expected = (
        sq.element({sq.join((), (1, 1)): 1})
        + sq.element({sq.join((1,), (0, 1)): 1}) * one_plus_q
        + sq.element({sq.join((1, 1), (0, 0)): 1})
    )
    assert got == expected
    assert str(got) == "1⊗y^2 + (1 + z)*y⊗x*y + y^2⊗x^2"


def test_closed_qbinomial_coproduct_formula():
    # Delta(x^i y^j) = sum_k qbinom(j, k, q) x^i y^k (x) x^(i+k) y^(j-k)
    for n in (2, 3, 4, 5):
        H = taft(n)
        q = H.q
        for i in range(n):
            for j in range(n):
                got = H.coproduct_word((0,) * i + (1,) * j)
                expected = H.square.zero()
                for k in range(j + 1):
                    left = (0,) * i + (1,) * k
                    right = (0,) * ((i + k) % n) + (1,) * (j - k)
                    expected = expected + H.square.element(
                        {H.square.join(left, right): CommPoly.constant(qbinom(j, k, q))}
                    )
                assert got == expected


def test_counit_multiplicative():
    H = taft(3)
    x, y = H.algebra.gen("x"), H.algebra.gen("y")
    e = x * x + 2 * x - 3
    assert counit(H, e) == CyclotomicNumber.zero(3)
    assert counit(H, x * x * x) == CyclotomicNumber.one(3)
    assert counit(H, y * x) == CyclotomicNumber.zero(3)
    with pytest.raises(ValueError):
        counit(H, en(2).algebra.gen("x"))  # element of a different algebra


def test_antipode_reverses_words():
    H = taft(3)
    x, y = H.algebra.gen("x"), H.algebra.gen("y")
    assert antipode(H, x * y) == antipode(H, y) * antipode(H, x)
    assert antipode(H, x) * x == H.algebra.one()


def test_en_dimensions_and_relations():
    for n in (1, 2, 3):
        H = en(n)
        assert len(H.basis()) == 2 ** (n + 1)
    H = en(2)
    alg = H.algebra
    x, y1, y2 = alg.gen("x"), alg.gen("y1"), alg.gen("y2")
    assert x * x == alg.one()
    assert y1 * y1 == alg.zero()
    assert y1 * x == -(x * y1)
    assert y2 * y1 == -(y1 * y2)
    with pytest.raises(ValueError):
        en(0)


def test_en_structure_maps():
    H = en(2)
    alg = H.algebra
    x, y1 = alg.gen("x"), alg.gen("y1")
    sq = H.square
    assert coproduct(H, y1) == embed(y1, sq, 1) + embed(y1, sq, 0) * embed(x, sq, 1)
    assert antipode(H, x) == x
    assert antipode(H, y1) == x * y1  # -y1 x reduced
    assert counit(H, y1).is_zero()


def test_en1_matches_sweedler():
    # E(1) and taft(2) have the same structure constants over Q
    H1, H2 = en(1), taft(2)
    # generator ids agree (x = 0, nilpotent = 1), so words compare directly
    for w in H1.basis():
        a = {tw: str(c) for tw, c in H1.coproduct_word(w).terms.items()}
        b = {tw: str(c) for tw, c in H2.coproduct_word(w).terms.items()}
        assert a == b
        sa = {sw: str(c) for sw, c in H1.antipode_word(w).terms.items()}
        sb = {sw: str(c) for sw, c in H2.antipode_word(w).terms.items()}
        assert sa == sb


def test_en_subalgebras_reproduce_sweedler():
    # inside E(n) each pair (x, yi) generates a Sweedler copy
    H = en(3)
    Hs = taft(2)
    for i in (1, 2, 3):
        word_pairs = [((), ()), ((0,), (0,)), ((i,), (1,)), ((0, i), (0, 1))]
        for w_en, w_sw in word_pairs:
            got = H.coproduct_word(w_en)
            want = Hs.coproduct_word(w_sw)
            # compare through the index translation 0 -> 0, i -> 1
            trans = {}
            for w, c in got.terms.items():
                key = tuple(tuple(int(g != 0) for g in part) for part in w)
                trans[key] = trans.get(key, CommPoly.zero(2)) + c
            want_keys = {w: c for w, c in want.terms.items()}
            assert {k: str(v) for k, v in trans.items()} == {
                k: str(v) for k, v in want_keys.items()
            }


def test_trivial_hopf():
    H = trivial_hopf()
    assert len(H.basis()) == 1
    assert check_hopf_axioms(H).ok


def test_qbinom_at_one_is_binomial():
    from math import comb

    one = CyclotomicNumber.one(1)
    for m in range(8):
        for k in range(m + 1):
            assert qbinom(m, k, one) == comb(m, k)


def test_qbinom_recurrence_and_symmetry():
    q = CyclotomicNumber.from_rational(1, 2)  # q = 2, a generic value
    # [4 2]_2 = 1 + q + 2q^2 + q^3 + q^4 = 35
    assert qbinom(4, 2, q) == 35
    for m in range(1, 7):
        for k in range(1, m):
            assert qbinom(m, k, q) == qbinom(m - 1, k - 1, q) + q**k * qbinom(
                m - 1, k, q
            )
    assert qbinom(3, 5, q).is_zero()
    assert qbinom(3, -1, q).is_zero()


def test_qbinom_vanishes_at_primitive_roots():
    for n in range(2, 13):
        q = primitive_root(n)
        for k in range(1, n):
            assert qbinom(n, k, q).is_zero()


def test_hopf_axioms_pass_for_shipped_families():
    for n in (2, 3, 4):
        assert check_hopf_axioms(taft(n)).ok
    for n in (1, 2, 3):
        assert check_hopf_axioms(en(n)).ok


def test_corrupted_coproduct_is_flagged():
    # drop the y (x) x term of Delta(y); the twisted-primitive shape is what
    # makes the right counit law and the antipode laws work, while the
    # relations and coassociativity hold for the plain-primitive shape too
    one = CommPoly.one(2)
    minus = CommPoly.scalar(2, -1)
    rules = (
        RewriteRule((0, 0), [((), one)]),
        RewriteRule((1, 0), [((0, 1), minus)]),
        RewriteRule((1, 1), []),
    )
    alg = PresentedAlgebra("corrupted", ("x", "y"), 2, rules)
    sq = tensor_product(alg, alg)
    x0, x1 = embed(alg.gen("x"), sq, 0), embed(alg.gen("x"), sq, 1)
    y1 = embed(alg.gen("y"), sq, 1)
    bad = HopfPresentation(
        "corrupted", "taft", 2, alg,
        (x0 * x1, y1),
        (CyclotomicNumber.one(2), CyclotomicNumber.zero(2)),
        (alg.gen("x"), alg.element({(0, 1): 1})),
        primitive_root(2),
    )
    rep = check_hopf_axioms(bad)
    assert not rep.ok
    failures = "\n".join(rep.failures)
    assert "right counit law fails on y" in failures
    assert "antipode law" in failures
    # the corrupted coproduct still respects the relations and coassociativity
    assert "coassociativity" not in failures
    assert "relation" not in failures
    assert "left counit" not in failures
