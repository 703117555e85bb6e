"""Tests for the noncommutative rewriting engine."""

import re
from fractions import Fraction

import pytest

from hopfid import ncalg
from hopfid.commpoly import CommPoly
from hopfid.comodule import galois_object
from hopfid.cyclotomic import CyclotomicNumber
from hopfid.exprparse import parse_object_spec
from hopfid.hopf import en, taft
from hopfid.ncalg import (
    AlgElement,
    PresentedAlgebra,
    RewriteRule,
    check_confluence,
    deglex_key,
    embed,
    tensor_product,
)


def sweedler_like():
    one = CommPoly.one(2)
    minus = CommPoly.scalar(2, -1)
    rules = (
        RewriteRule((0, 0), [((), one)]),
        RewriteRule((1, 0), [((0, 1), minus)]),
        RewriteRule((1, 1), []),
    )
    return PresentedAlgebra("sw", ("x", "y"), 2, rules)


def test_deglex_key():
    assert deglex_key(()) < deglex_key((0,))
    assert deglex_key((1,)) < deglex_key((0, 0))
    assert deglex_key((0, 1)) < deglex_key((1, 0))
    assert sorted([(1, 0), (), (0,), (1,), (0, 1)], key=deglex_key) == [
        (), (0,), (1,), (0, 1), (1, 0)
    ]


def test_rewrite_rule_validation():
    one = CommPoly.one(2)
    with pytest.raises(ValueError):
        RewriteRule((), [((), one)])
    with pytest.raises(ValueError):
        # rhs word not smaller than lhs
        RewriteRule((0,), [((0, 0), one)])
    with pytest.raises(ValueError):
        RewriteRule((1, 0), [((1, 0), one)])
    # equal length but lexicographically smaller is fine
    RewriteRule((1, 0), [((0, 1), one)])


def test_normal_form_words():
    alg = sweedler_like()
    assert alg.normal_form_word((0, 0)) == alg.one()
    assert alg.normal_form_word((1, 1)).is_zero()
    assert alg.normal_form_word((1, 0)) == -alg.element({(0, 1): 1})
    # yxy -> -xyy -> 0
    assert alg.normal_form_word((1, 0, 1)).is_zero()
    # xyx -> -xxy -> -y
    assert alg.normal_form_word((0, 1, 0)) == -alg.element({(1,): 1})


def test_basis_enumeration():
    alg = sweedler_like()
    assert alg.basis() == ((), (0,), (1,), (0, 1))
    # deglex order, stable on repeat calls
    assert alg.basis() is alg.basis()


def tail_scan_basis(alg):
    """The normal words by a redex scan of each candidate's last max|lhs| letters."""
    window = max(len(r.lhs) for r in alg.rules)
    out = level = [()]
    while level:
        level = [w + (g,) for w in level for g in range(len(alg.generators))
                 if alg.find_redex((w + (g,))[-window:]) is None]
        out = out + level
    return tuple(out)


@pytest.mark.parametrize("spec", [f"taft:{n}" for n in range(2, 10)]
                                 + [f"en:{n}" for n in range(1, 6)])
def test_basis_matches_the_tail_scan(spec):
    # basis() tests a candidate only against the rules ending in its last letter
    H = taft(int(spec[5:])) if spec.startswith("taft") else en(int(spec[3:]))
    for alg in (H.algebra, galois_object(parse_object_spec(spec)).algebra):
        assert alg.basis() == tail_scan_basis(alg)


def test_basis_limit_guard(monkeypatch):
    monkeypatch.setattr(ncalg, "MAX_BASIS_WORDS", 10)
    free = PresentedAlgebra("free", ("a", "b"), 1, ())
    with pytest.raises(ValueError):
        free.basis()


def test_element_builder_and_coercion():
    alg = sweedler_like()
    e = alg.element({("x", "y"): 1, ("y", "x"): 1})
    # yx reduces to -xy, so the two terms cancel
    assert e.is_zero()
    assert alg.element({(): Fraction(1, 2)}) * 2 == alg.one()
    with pytest.raises(ValueError):
        alg.element({("x", "w"): 1})


def test_gen_lookup():
    alg = sweedler_like()
    assert alg.gen_index("x") == 0
    assert alg.gen_index("y") == 1
    assert alg.gen("y") == alg.element({(1,): 1})
    with pytest.raises(ValueError):
        alg.gen_index("u")


def test_algelement_arithmetic():
    alg = sweedler_like()
    x, y = alg.gen("x"), alg.gen("y")
    assert x * x == alg.one()
    assert y * y == alg.zero()
    assert y * x == -(x * y)
    assert (x + y) ** 2 == alg.one()
    assert (x + y) * (x - y) == alg.one() - 2 * (x * y)
    assert x - x == 0
    assert (x + 1) - 1 == x
    assert 2 * x == x + x
    assert x * Fraction(1, 2) * 2 == x
    assert x != y
    assert x**0 == alg.one()


def test_algelement_coefficient_and_degree():
    alg = sweedler_like()
    x, y = alg.gen("x"), alg.gen("y")
    e = 2 * (x * y) + y
    assert e.coefficient((1,)) == 2 or e.coefficient((0, 1)) == 2
    assert e.degree() == 2
    assert alg.zero().degree() == 0
    assert alg.one().degree() == 0


def test_render_words():
    alg = sweedler_like()
    assert alg.render_word(()) == "1"
    assert alg.render_word((0,)) == "x"
    assert alg.render_word((0, 0, 1)) == "x^2*y"
    assert str(alg.gen("x") * alg.gen("y")) == "x*y"
    assert str(alg.zero()) == "0"


def test_scalar_coefficient_rendering():
    alg = sweedler_like()
    x, y = alg.gen("x"), alg.gen("y")
    assert str(-x) == "-x"
    assert str(x - y) == "x - y"
    assert str(x * Fraction(3, 2)) == "3/2*x"


def test_tensor_product_structure():
    alg = sweedler_like()
    sq = tensor_product(alg, alg)
    assert len(sq.generators) == 4
    # factors commute across the tensor sign
    right_y = sq.gen("y@1")
    left_x = sq.gen("x@0")
    assert right_y * left_x == left_x * right_y
    # within one factor the original relations hold
    assert sq.gen("y@0") * sq.gen("x@0") == -(sq.gen("x@0") * sq.gen("y@0"))
    assert tensor_product(alg, alg) is sq


def test_tensor_split_and_render():
    alg = sweedler_like()
    sq = tensor_product(alg, alg)
    assert sq.render_word(((0,), (0,))) == "x⊗x"
    assert sq.render_word(((), ())) == "1⊗1"
    assert sq.render_word(((1,), (0, 1))) == "y⊗x*y"
    assert sq.gen("y@1") * sq.gen("x@0") == sq.element({((0,), (1,)): 1})
    assert sq.one().terms == {((), ()): CommPoly.one(alg.order)}
    assert str(sq.one() * 3) == "3" and str(sq.gen("x@1") - 2) == "-2 + 1⊗x"
    triple = tensor_product(alg, alg, alg)
    assert triple.render_word(((0,), (), ())) == "x⊗1⊗1"


def test_embed():
    alg = sweedler_like()
    sq = tensor_product(alg, alg)
    x = alg.gen("x")
    assert embed(x, sq, 0) == sq.gen("x@0")
    assert embed(x, sq, 1) == sq.gen("x@1")
    e = embed(alg.gen("x") + alg.gen("y"), sq, 1)
    assert e == sq.gen("x@1") + sq.gen("y@1")


def test_tensor_basis_is_product_basis():
    alg = sweedler_like()
    sq = tensor_product(alg, alg)
    assert len(sq.basis()) == 16


def test_confluence_of_shipped_presentation():
    rep = check_confluence(sweedler_like())
    assert rep.ok
    checked = re.fullmatch(r"sw: confluent \((\d+) ambiguities resolve\)", str(rep))
    assert checked and int(checked[1]) > 0


def test_confluence_detects_failure():
    # aa -> b leaves the overlap aaa with distinct normal forms ba and ab
    one = CommPoly.one(1)
    bad = PresentedAlgebra(
        "bad", ("a", "b"), 1, (RewriteRule((0, 0), [((1,), one)]),)
    )
    rep = check_confluence(bad)
    assert not rep.ok
    assert any(f.startswith("word (0, 0, 0): ") for f in rep.failures)


def test_normal_form_cache_consistency():
    alg = sweedler_like()
    first = alg.normal_form_word((1, 0, 1, 0))
    second = alg.normal_form_word((1, 0, 1, 0))
    assert first == second
    # yxyx -> -x(yxy)x... reduces to zero since y^2 appears eventually
    assert first.is_zero()


def test_coefficient_of_another_order_is_refused():
    # element() and the operators coerce as CommPoly does: a wrong order raises,
    # and only a type no coercion reads is left to the other operand
    alg = taft(3).algebra
    with pytest.raises(ValueError, match="cyclotomic order 4, need 3"):
        alg.element({(0,): CyclotomicNumber.zeta(4)})
    with pytest.raises(ValueError, match="cyclotomic order 2, need 3"):
        alg.gen("x") + CommPoly.one(2)
    with pytest.raises(ValueError, match="cannot use 'x' as a coefficient"):
        alg.coerce_poly("x")
    with pytest.raises(TypeError):
        alg.gen("x") * "x"


def test_mixed_order_rejected():
    alg2 = sweedler_like()
    alg3 = PresentedAlgebra("other", ("x", "y"), 3, ())
    with pytest.raises(ValueError):
        alg2.gen("x") + alg3.gen("x")
    with pytest.raises(ValueError):
        alg2.gen("x") * CyclotomicNumber.zeta(3)
