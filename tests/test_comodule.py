"""Tests for the parameterized comodule algebras and their Galois properties."""

import pytest

from hopfid import comodule
from hopfid.comodule import (
    ComoduleAlgebra,
    GaloisObjectSpec,
    Symbolic,
    check_comodule,
    coaction,
    coinvariants,
    en_object_spec,
    galois_map_bijective,
    galois_object,
    object_spec,
    taft_object_spec,
)
from hopfid.commpoly import CommPoly
from hopfid.cyclotomic import CyclotomicNumber
from hopfid.exprparse import parse_object_spec
from hopfid.hopf import (HopfPresentation, check_hopf_axioms, coaction_images, coproduct, en,
                         family_hopf, family_relations, relation_failures, taft)
from hopfid.ncalg import (AlgElement, Morphism, PresentedAlgebra, RewriteRule, embed,
                          tensor_product)
from test_galois_oracle import coinvariants_by_elimination, galois_map_by_elimination
from test_law_oracle import corrupted_hopf


def test_taft_spec_construction():
    spec = taft_object_spec(3, a=1, c=0)
    assert spec.family == "taft"
    assert spec.n == 3
    assert spec.value("a") == CyclotomicNumber.one(3)
    assert not spec.symbolic_keys()
    assert spec.render() == "taft:3;a=1;c=0"
    sym = taft_object_spec(3)
    assert sym.symbolic_keys() == ["a", "c"]
    assert sym.render() == "taft:3;a=sym;c=sym"
    primed = taft_object_spec(3, c=Symbolic(1))
    assert primed.render() == "taft:3;a=sym;c=sym'"


def test_taft_spec_rejects_zero_a():
    with pytest.raises(ValueError):
        taft_object_spec(3, a=0)


def test_en_spec_construction():
    spec = en_object_spec(2, a=1, c=[0, 1], d={(1, 2): 0})
    assert spec.render() == "en:2;a=1;c1=0;c2=1;d1,2=0"
    assert not spec.symbolic_keys()
    # missing d values stay symbolic
    partial = en_object_spec(2, a=1, c=[0, 0])
    assert partial.symbolic_keys() == ["d1,2"]


def test_en_spec_rejects_diagonal_d():
    # d_ii is 2 c_i by the defining relation, not a free parameter
    with pytest.raises(ValueError) as err:
        en_object_spec(2, d={(1, 1): 1})
    assert "derived" in str(err.value)
    with pytest.raises(ValueError):
        en_object_spec(2, d={(2, 1): 1})
    with pytest.raises(ValueError):
        en_object_spec(2, d={(1, 3): 1})


def test_taft_object_relations():
    A = galois_object(taft_object_spec(3, a=2, c=5))
    x, y = A.algebra.gen("x"), A.algebra.gen("y")
    assert x**3 == A.algebra.one() * 2
    assert y**3 == A.algebra.one() * 5
    q = A.hopf.q
    assert y * x == (x * y) * q
    assert len(A.algebra.basis()) == 9


def test_symbolic_object_relations():
    A = galois_object(taft_object_spec(2))
    x, y = A.algebra.gen("x"), A.algebra.gen("y")
    assert x * x == A.algebra.one() * A.param_poly("a")
    assert y * y == A.algebra.one() * A.param_poly("c")


def test_en_object_relations():
    A = galois_object(en_object_spec(2, a=1, c=[1, 0], d={(1, 2): 3}))
    u, u1, u2 = A.algebra.gen("u"), A.algebra.gen("u1"), A.algebra.gen("u2")
    one = A.algebra.one()
    assert u * u == one
    assert u1 * u1 == one
    assert u2 * u2 == A.algebra.zero()
    assert u1 * u == -(u * u1)
    assert u2 * u1 == 3 * one - u1 * u2
    assert len(A.algebra.basis()) == 8


def test_coaction_on_generators():
    A = galois_object(taft_object_spec(2, a=1, c=1))
    x, y = A.algebra.gen("x"), A.algebra.gen("y")
    dx = coaction(A, x)
    dy = coaction(A, y)
    assert str(dx) == "x⊗x"
    assert str(dy) == "1⊗y + y⊗x"
    # the coaction is an algebra map, so it respects products
    assert coaction(A, x * y) == dx * dy


def test_coaction_respects_object_relations():
    # delta(y)^2 must equal c (x) 1 when y^2 = c, forced by y^n = c in A
    # and y^n = 0 in H
    A = galois_object(taft_object_spec(2, a=1, c=1))
    y = A.algebra.gen("y")
    assert coaction(A, y * y) == coaction(A, y) ** 2
    assert coaction(A, y * y) == A.tensor.one()


def test_coaction_wrong_algebra_rejected():
    A = galois_object(taft_object_spec(2, a=1, c=1))
    H = taft(2)
    with pytest.raises(ValueError):
        coaction(A, H.algebra.gen("x"))


def test_section_intertwines():
    A = galois_object(taft_object_spec(3))
    H = A.hopf

    def section(h):  # u is the identity on words, so it copies h's terms
        return AlgElement(A.algebra, h.terms)

    for w in H.basis():
        u = section(H.algebra.element({w: 1}))
        # u sends each basis word to the same word, normal in the object
        assert u == A.algebra.element({w: 1})
        lhs = coaction(A, u)
        rhs = A.tensor.zero()
        for (left, right), c in H.coproduct_word(w).terms.items():
            u_left = section(H.algebra.element({left: 1}))
            h_right = H.algebra.element({right: 1})
            rhs = rhs + embed(u_left, A.tensor, 0) * embed(h_right, A.tensor, 1) * c
        assert lhs == rhs


def test_a_section_image_that_is_not_normal_is_refused(monkeypatch):
    # y^2 -> 0 added to A's rules makes the basis word y^2 of H reducible in A;
    # its tail y is normal, so the walk reaches it from the cached tail
    def with_y_squared(*args):
        return family_relations(*args) + (RewriteRule((1, 1), []),)

    monkeypatch.setattr(comodule, "family_relations", with_y_squared)
    with pytest.raises(ValueError) as err:
        ComoduleAlgebra(parse_object_spec("taft:3;a=1;c=0"))
    assert str(err.value) == "section image (1, 1) is not normal in A(taft:3;a=1;c=0)"


def test_check_comodule_passes_symbolically():
    assert check_comodule(galois_object(taft_object_spec(2))).ok
    assert check_comodule(galois_object(taft_object_spec(3))).ok
    assert check_comodule(galois_object(en_object_spec(1))).ok
    assert check_comodule(galois_object(en_object_spec(2))).ok


def _drop_y_tensor_x(A):
    """Send y to 1 (x) y on the taft:2 object A, dropping the y (x) x term, as
    test_hopf corrupts a coproduct; the relations still hold, the comodule
    laws do not."""
    images = (A.coaction_word((0,)), A.tensor.element({((), (1,)): 1}))
    A.coaction_map = Morphism(A.algebra, A.tensor, images.__getitem__)


def test_corrupted_coaction_is_flagged():
    A = ComoduleAlgebra(taft_object_spec(2, a=1, c=0))
    _drop_y_tensor_x(A)
    rep = check_comodule(A)
    assert not rep.ok
    failures = "\n".join(rep.failures)
    assert "coaction coassociativity fails on y" in failures
    assert "coaction counit law fails on y" in failures
    assert not [f for f in rep.failures if f.endswith(" on x")]
    assert "relation" not in failures


def test_coinvariants_trivial_for_galois_objects():
    for spec in (
        taft_object_spec(2, a=1, c=0),
        taft_object_spec(2, a=1, c=1),
        taft_object_spec(3, a=1, c=1),
        en_object_spec(1, a=1, c=[1], d={}),
        en_object_spec(2, a=1, c=[0, 0], d={(1, 2): 1}),
    ):
        A = galois_object(spec)
        basis = coinvariants(A)
        assert len(basis) == 1
        assert basis[0] == A.algebra.one() * basis[0].coefficient(())


def test_coinvariants_need_numeric_parameters():
    A = galois_object(taft_object_spec(2))
    with pytest.raises(ValueError) as err:
        coinvariants(A)
    assert "symbolic" in str(err.value)


def test_galois_map_bijective():
    for spec in (
        taft_object_spec(2, a=1, c=0),
        taft_object_spec(3, a=1, c=1),
        taft_object_spec(4, a=1, c=1),
        en_object_spec(2, a=1, c=[1, 1], d={(1, 2): 0}),
        en_object_spec(3, a=1, c=[1, -1, 1], d={(1, 2): 1, (1, 3): -1, (2, 3): 1}),
    ):
        assert galois_map_bijective(galois_object(spec))


def _dropping_1_tensor_y(spec):
    # send y to y (x) x, dropping the 1 (x) y term: then xy is coinvariant
    # next to 1, and beta misses every tensor with a y on the Hopf side
    A = ComoduleAlgebra(spec)
    images = (A.coaction_word((0,)), A.tensor.element({((1,), (0,)): 1}))
    A.coaction_map = Morphism(A.algebra, A.tensor, images.__getitem__)
    return A


def test_corrupted_coaction_is_not_galois():
    A = _dropping_1_tensor_y(taft_object_spec(2, a=1, c=0))
    assert galois_map_by_elimination(A) is False
    # the relations still hold, so the certificate names the generator it cannot invert
    with pytest.raises(ValueError, match=r"family coaction: beta\(kappa\(y\)\) is not 1⊗y"):
        galois_map_bijective(A)
    # coinvariants are read off that proof, so they refuse too; elimination finds 2
    with pytest.raises(ValueError, match=r"family coaction: beta\(kappa\(y\)\) is not 1⊗y"):
        coinvariants(A)
    assert len(coinvariants_by_elimination(A)) == 2
    # with a symbolic the proof refuses the same generator
    with pytest.raises(ValueError, match=r"family coaction: beta\(kappa\(y\)\) is not 1⊗y"):
        galois_map_bijective(_dropping_1_tensor_y(taft_object_spec(2, c=0)))


def test_galois_map_refuses_a_coaction_breaking_relations():
    # y -> y (x) 1 + 1 (x) y sends y^2 = 0 to 2 y (x) y, so delta is no algebra map
    A = ComoduleAlgebra(taft_object_spec(2, a=1, c=0))
    images = (A.coaction_word((0,)), A.tensor.element({((1,), ()): 1,
                                                       ((), (1,)): 1}))
    A.coaction_map = Morphism(A.algebra, A.tensor, images.__getitem__)
    with pytest.raises(ValueError, match=r"needs an algebra map: coaction incompatible with relation y\^2$"):
        galois_map_bijective(A)


@pytest.mark.parametrize("spec", [
    taft_object_spec(3, a=2),
    taft_object_spec(8, a=2),
    en_object_spec(2, a=3),
    *(object_spec("taft", n) for n in range(2, 9)),
    *(object_spec("en", n) for n in range(1, 5)),
], ids=str)
def test_galois_map_bijective_for_every_c_and_d(spec):
    assert spec.symbolic_keys()
    A = galois_object(spec)
    assert galois_map_bijective(A) is True
    # only the coinvariants still need every parameter numeric
    with pytest.raises(ValueError, match="coinvariant computation needs numeric parameters"):
        coinvariants(A)


# the numeric objects of the galois_linear benchmark workload
GALOIS_LINEAR_SPECS = [f"taft:{n};a=1;c={c}" for n in (2, 3, 4) for c in (0, 1)] + [
    "en:1;a=1;c1=1",
    "en:2;a=1;c1=1;c2=-1;d1,2=1",
    "en:3;a=1;c1=1;c2=-1;c3=1;d1,2=1;d1,3=-1;d2,3=1",
]


def test_galois_map_visits_no_basis_word(monkeypatch):
    specs = [object_spec("taft", n) for n in range(2, 9)]
    specs += [object_spec("en", n) for n in range(1, 5)]
    specs += [parse_object_spec(text) for text in GALOIS_LINEAR_SPECS]
    objects = [galois_object(spec) for spec in specs]  # the section loop walks H's basis

    def refuse(self):
        raise AssertionError(f"basis of {self.name} enumerated")

    monkeypatch.setattr(PresentedAlgebra, "basis", refuse)
    for A in objects:
        assert galois_map_bijective(A) is True, A.name


def test_coinvariants_then_the_galois_map_prove_once(monkeypatch):
    calls = []

    def counted(name, f):
        calls.append(name)
        return relation_failures(name, f)

    monkeypatch.setattr(comodule, "relation_failures", counted)
    A = ComoduleAlgebra(taft_object_spec(3, a=1, c=1))
    assert coinvariants(A) == [A.algebra.one()]
    assert galois_map_bijective(A) is True
    assert galois_map_bijective(A) is True
    assert calls == ["coaction"]


def test_a_swapped_coaction_is_proved_again():
    A = ComoduleAlgebra(taft_object_spec(2, a=1, c=0))
    assert galois_map_bijective(A) is True
    _drop_y_tensor_x(A)
    with pytest.raises(ValueError, match=r"family coaction: beta\(kappa\(y\)\) is not 1⊗y"):
        galois_map_bijective(A)
    with pytest.raises(ValueError, match=r"family coaction: beta\(kappa\(y\)\) is not 1⊗y"):
        coinvariants(A)  # the refusal was not kept as a proof either


def test_a_dropped_rule_is_proved_again():
    A = ComoduleAlgebra(taft_object_spec(2, a=1, c=0))
    assert galois_map_bijective(A) is True
    A.algebra.rules = A.algebra.rules[:-1]
    with pytest.raises(ValueError, match="needs the rules' left sides of taft:2$"):
        galois_map_bijective(A)


def test_galois_map_refuses_other_left_sides():
    # the proof counts dimensions by the rules' left sides: without y^2 -> c
    # A is infinite dimensional, and the proof says nothing either way
    A = ComoduleAlgebra(taft_object_spec(2, a=1, c=0))
    A.algebra.rules = A.algebra.rules[:-1]
    with pytest.raises(ValueError, match="needs the rules' left sides of taft:2$"):
        galois_map_bijective(A)


def test_check_comodule_fails_on_other_left_sides():
    # without y^2 -> c no law and no generator fails, but the section proof
    # rests on H's left sides: a failed premise is a failure, not a pass
    A = ComoduleAlgebra(taft_object_spec(2, a=1, c=0))
    A.algebra.rules = A.algebra.rules[:-1]
    rep = check_comodule(A)
    assert rep.failures == ("the section check needs the rules' left sides of taft:2",)
    assert str(rep) == ("A(taft:2;a=1;c=0): 1 comodule failures\n"
                        "  the section check needs the rules' left sides of taft:2")


def _hopf_as_object(H):
    """H coacting on itself by its coproduct, shaped like a ComoduleAlgebra."""
    A = object.__new__(ComoduleAlgebra)
    A.hopf, A.algebra, A.tensor, A.name = H, H.algebra, H.square, f"A({H.name})"
    A.coaction_map = H.coproduct_map
    return A


def test_check_comodule_fails_where_deleting_a_letter_is_unproved():
    # with x^2 = 1 the only rule, deleting y from the normal word x*y*x leaves
    # x^2, so the section is not proved, though it holds on this object
    one, zero = CyclotomicNumber.one(2), CyclotomicNumber.zero(2)
    alg = PresentedAlgebra("x^2=1", ("x", "y"), 2, (RewriteRule((0, 0), [((), CommPoly.one(2))]),))
    H = HopfPresentation(alg.name, "free", 0, alg, coaction_images(tensor_product(alg, alg)),
                         (one, zero), (alg.gen("x"), -alg.element({(1, 0): 1})), -one)
    assert check_hopf_axioms(H).ok
    assert check_comodule(_hopf_as_object(H)).failures == (
        "the section check needs x*y*x reducible",)


def test_check_comodule_fails_on_other_first_factors():
    # Delta(y) = y (x) 1 + x (x) y and S(y) = -xy make taft:2 a Hopf algebra
    # too, but the first factor x of y's image is neither 1 nor y: nothing is
    # proved, though the section holds on this object
    H = corrupted_hopf(taft(2), coproduct={1: {((1,), ()): 1, ((0,), (1,)): 1}}, antipode={1: {(0, 1): -1}})
    assert check_hopf_axioms(H).ok
    assert check_comodule(_hopf_as_object(H)).failures == (
        "the section check needs first factors 1 or y in Delta(y)",)


@pytest.mark.parametrize("spec", [
    object_spec("taft", 9),
    taft_object_spec(9, a=2, c=1),
    object_spec("en", 8),
    en_object_spec(8, a=3, c=[i % 2 for i in range(8)],
                   d={(i, j): (i + j) % 3 - 1 for i in range(1, 9) for j in range(i + 1, 9)}),
], ids=["taft:9", "taft:9-numeric", "en:8", "en:8-numeric"])
def test_check_comodule_visits_no_basis_word(spec, monkeypatch):
    A = galois_object(spec)  # the section loop walks H's basis

    def refuse(self):
        raise AssertionError(f"basis of {self.name} enumerated")

    monkeypatch.setattr(PresentedAlgebra, "basis", refuse)
    assert check_comodule(A).ok, A.name


def test_galois_map_proved_with_a_symbolic():
    # a kappa(g) needs no a^-1, so a symbolic a is proved, not refused
    for spec in (taft_object_spec(2, c=1), en_object_spec(1, c=[0])):
        assert spec.symbolic_keys() == ["a"]
        assert galois_map_bijective(galois_object(spec)) is True


def test_galois_object_cache():
    s1 = taft_object_spec(2, a=1, c=0)
    s2 = taft_object_spec(2, a=1, c=0)
    assert galois_object(s1) is galois_object(s2)


def test_counit_law_of_coaction():
    A = galois_object(en_object_spec(2))
    H = A.hopf
    from hopfid.hopf import counit

    for w in A.algebra.basis():
        target = A.algebra.element({w: 1})
        acc = A.algebra.zero()
        for (wa, wh), c in A.coaction_word(w).terms.items():
            acc = acc + A.algebra.element({wa: c * H.counit_word(wh)})
        assert acc == target


def test_spec_value_lookup_errors():
    spec = taft_object_spec(2, a=1, c=0)
    with pytest.raises(KeyError):
        spec.value("d1,2")
    spec2 = en_object_spec(2)
    assert isinstance(spec2.value("d1,2"), Symbolic)


def test_spec_builder_is_behind_both_family_functions():
    assert taft_object_spec(3, a=2) == object_spec("taft", 3, {"a": 2})
    assert en_object_spec(3, c={2: 1}, d={(1, 3): 0}) == object_spec("en", 3, {"c2": 1, "d1,3": 0})
    assert en_object_spec(2, c=[5]) == object_spec("en", 2, {"c1": 5})
    assert object_spec("en", 2).hopf() is en(2) is family_hopf("en", 2)
    assert object_spec("taft", 4).hopf() is taft(4)
    with pytest.raises(ValueError, match="unknown family"):
        object_spec("sweedler", 2)
    with pytest.raises(ValueError, match="invertible"):
        object_spec("en", 1, {"a": 0})
    with pytest.raises(ValueError, match="cyclotomic order 3, need 2"):
        object_spec("en", 1, {"c1": CyclotomicNumber.zeta(3)})


def test_object_spec_reads_keys_as_the_parser_does():
    # one key reader: index digits as numbers, d<ij> as d<i>,<j>, pairs in order
    assert object_spec("en", 2, {"c01": 1, "d12": 0}) == parse_object_spec("en:2;c01=1;d12=0")
    assert object_spec("en", 2, [("d01,2", 5), ("a", 2)]) == en_object_spec(2, a=2, d={(1, 2): 5})
    with pytest.raises(ValueError, match="^duplicate parameter 'c1'$"):
        object_spec("en", 2, {"c1": 1, "c01": 2})
    with pytest.raises(ValueError, match="^duplicate parameter 'd1,2'$"):
        object_spec("en", 2, [("d12", 1), ("d1,2", 0)])
    with pytest.raises(ValueError, match="^c index out of range in 'c3'$"):
        object_spec("en", 2, {"c03": 1})


def test_symbolic_keys_and_priming_apart():
    first = en_object_spec(2, a=1, c=[Symbolic(), 0], d={(1, 2): Symbolic(1)})
    assert first.symbolic_keys() == ["c1", "d1,2"]
    second = en_object_spec(2, a=Symbolic(), c=[Symbolic(1), Symbolic()], d={(1, 2): 2})
    primed = second.primed_apart(first)
    # only values that collide with a symbolic value of first move, each to its next free prime
    assert primed.render() == "en:2;a=sym;c1=sym';c2=sym;d1,2=2"
    third = en_object_spec(2, a=1, c=[Symbolic(), Symbolic(1)], d={(1, 2): 0})
    assert third.primed_apart(en_object_spec(2)).render() == "en:2;a=1;c1=sym';c2=sym';d1,2=0"
    # a numeric a in self stays numeric whatever other's a is
    assert third.primed_apart(object_spec("en", 2, {"a": 1})) == third.primed_apart(en_object_spec(2))
