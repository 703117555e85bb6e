"""The Hopf and coaction laws proved on generators, against a basis walk.

check_hopf_axioms and check_comodule check each structure map against the
defining relations and then the laws on generators only.  The oracles below
check every law on every basis word instead, with their own accumulators and
relation loops.  On every case the two must agree on ok, and every failure
the generator check reports must also be an oracle failure.
"""

import pytest

from hopfid.comodule import (
    ComoduleAlgebra,
    check_comodule,
    en_object_spec,
    galois_object,
    taft_object_spec,
)
from hopfid.cyclotomic import CyclotomicNumber
from hopfid.hopf import HopfPresentation, check_hopf_axioms, counit, en, taft
from hopfid.ncalg import AlgElement, Morphism, PresentedAlgebra, tensor_product


def oracle_coaction_laws(H, tensor, coaction_word, coassociativity, counit_law):
    alg = tensor.tensor_factors[0]
    triple = tensor_product(alg, H.algebra, H.algebra)
    failures = []
    for b in alg.basis():
        name = alg.render_word(b)
        lhs_acc: dict = {}
        rhs_acc: dict = {}
        counit_acc = alg.zero()
        for w, c in coaction_word(b).terms.items():
            wm, wh = tensor.split_word(w)
            for w2, c2 in coaction_word(wm).terms.items():
                key = triple.join(*tensor.split_word(w2), wh)
                lhs_acc[key] = lhs_acc.get(key, 0) + c * c2
            for w2, c2 in H.coproduct_word(wh).terms.items():
                key = triple.join(wm, *H.square.split_word(w2))
                rhs_acc[key] = rhs_acc.get(key, 0) + c * c2
            counit_acc = counit_acc + alg.element({wm: c * H.counit_word(wh)})
        if AlgElement(triple, lhs_acc) != AlgElement(triple, rhs_acc):
            failures.append(f"{coassociativity} fails on {name}")
        if counit_acc != alg.element({b: 1}):
            failures.append(f"{counit_law} fails on {name}")
    return failures


def oracle_hopf_axioms(H):
    """Every law on every basis word, and each map against every relation."""
    alg = H.algebra
    failures = oracle_coaction_laws(
        H, H.square, H.coproduct_word, "coassociativity", "right counit law"
    )
    for b in H.basis():
        name = alg.render_word(b)
        left = alg.zero()
        s_left = alg.zero()
        s_right = alg.zero()
        for w, c in H.coproduct_word(b).terms.items():
            u, v = H.square.split_word(w)
            left = left + alg.element({v: c * H.counit_word(u)})
            s_left = s_left + (H.antipode_word(u) * alg.element({v: 1})) * c
            s_right = s_right + (alg.element({u: 1}) * H.antipode_word(v)) * c
        if left != alg.element({b: 1}):
            failures.append(f"left counit law fails on {name}")
        eps_b = alg.one() * H.counit_word(b)
        if s_left != eps_b:
            failures.append(f"antipode law m(S x id)Delta fails on {name}")
        if s_right != eps_b:
            failures.append(f"antipode law m(id x S)Delta fails on {name}")
    for rule in alg.rules:
        lhs_name = alg.render_word(rule.lhs)
        rhs_elem = alg.element(rule.rhs)
        if H.coproduct_word(rule.lhs) != H.coproduct_map(rhs_elem):
            failures.append(f"coproduct incompatible with relation {lhs_name}")
        if H.counit_word(rule.lhs) != counit(H, rhs_elem):
            failures.append(f"counit incompatible with relation {lhs_name}")
        if H.antipode_word(rule.lhs) != H.antipode_map(rhs_elem):
            failures.append(f"antipode incompatible with relation {lhs_name}")
    return failures


def oracle_comodule(A):
    """The coaction against every relation, and every law on every basis word."""
    H = A.hopf
    alg = A.algebra
    failures = []
    for rule in alg.rules:
        rhs = sum((A.coaction_word(w) * c for w, c in rule.rhs), A.tensor.zero())
        if A.coaction_word(rule.lhs) != rhs:
            failures.append(
                f"coaction incompatible with relation {alg.render_word(rule.lhs)}"
            )
    failures += oracle_coaction_laws(
        H, A.tensor, A.coaction_word, "coaction coassociativity", "coaction counit law"
    )
    for h in H.basis():
        name = H.algebra.render_word(h)
        rhs_acc = {}
        for w, c in H.coproduct_word(h).terms.items():
            u, v = H.square.split_word(w)
            key = A.tensor.join(u, v)
            rhs_acc[key] = rhs_acc.get(key, 0) + c
        if A.coaction_word(h) != AlgElement(A.tensor, rhs_acc):
            failures.append(f"section does not intertwine the coactions on {name}")
    return failures


def corrupted_hopf(H, coproduct=None, counit=None, antipode=None):
    """A copy of H on a fresh algebra, with some generator images replaced.

    coproduct and antipode map generator indices to {word: coefficient}
    dicts, counit maps them to CyclotomicNumbers; the other images stay H's.
    """
    coproduct, counit, antipode = coproduct or {}, counit or {}, antipode or {}
    alg = PresentedAlgebra(f"corrupted {H.name}", H.algebra.generators,
                           H.algebra.order, H.algebra.rules)
    sq = tensor_product(alg, alg)
    gens = range(len(alg.generators))
    cop = [sq.element(coproduct.get(g, H.coproduct_word((g,)).terms)) for g in gens]
    eps = [counit.get(g, H.counit_on_generators[g]) for g in gens]
    s = [alg.element(antipode.get(g, H.antipode_word((g,)).terms)) for g in gens]
    return HopfPresentation(alg.name, H.family, H.n, alg, cop, eps, s, H.q)


def corrupted_coaction(spec, y_image):
    """A fresh object for spec whose coaction sends y to y_image, given as
    {word of A tensor H: coefficient}; x keeps its image."""
    A = ComoduleAlgebra(spec)
    images = (A.coaction_word((0,)), A.tensor.element(y_image))
    A.coaction_map = Morphism(A.algebra, A.tensor, images.__getitem__)
    return A


def assert_agrees(report, oracle_failures):
    assert report.ok == (not oracle_failures)
    assert set(report.failures) <= set(oracle_failures)


def family_cases():
    """H, then H as an object (a = 1, c = d = 0), a symbolic and a numeric object."""
    for n in range(2, 7):
        yield taft(n), (taft_object_spec(n, a=1, c=0), taft_object_spec(n),
                        taft_object_spec(n, a=2, c=1))
    for n in range(1, 5):
        c = [i % 2 for i in range(1, n + 1)]
        d = {(i, j): 1 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        yield en(n), (en_object_spec(n, a=1, c=[0] * n, d={}), en_object_spec(n),
                      en_object_spec(n, a=3, c=c, d=d))


@pytest.mark.parametrize("H, specs", [pytest.param(*case, id=case[0].name)
                                      for case in family_cases()])
def test_generator_laws_match_basis_walk(H, specs):
    report = check_hopf_axioms(H)
    assert report.ok
    assert_agrees(report, oracle_hopf_axioms(H))
    for spec in specs:
        A = galois_object(spec)
        report = check_comodule(A)
        assert report.ok
        assert_agrees(report, oracle_comodule(A))


# generators of taft:2 are x = 0, y = 1; a word of its square or of an
# object's tensor with H is the pair of its factors' words, so 1 (x) y is ((), (1,))
HOPF_CORRUPTIONS = {
    # Delta(y) = 1 (x) y: relations hold, the twisted shape is lost
    "coproduct_untwisted": (dict(coproduct={1: {((), (1,)): 1}}), None),
    # Delta(y) = y (x) 1 + 1 (x) y squares to 2 y (x) y, not to 0
    "coproduct_primitive": (dict(coproduct={1: {((1,), ()): 1, ((), (1,)): 1}}), "coproduct"),
    # eps(y) = 1 breaks y^2 = 0 and yx = -xy
    "counit_of_y": (dict(counit={1: CyclotomicNumber.one(2)}), "counit"),
    # S(x) = 2x breaks x^2 = 1
    "antipode_of_x": (dict(antipode={0: {(0,): 2}}), "antipode"),
}


@pytest.mark.parametrize("name", sorted(HOPF_CORRUPTIONS))
def test_corrupted_hopf_matches_basis_walk(name):
    changes, broken_map = HOPF_CORRUPTIONS[name]
    H = corrupted_hopf(taft(2), **changes)
    report = check_hopf_axioms(H)
    assert not report.ok
    assert_agrees(report, oracle_hopf_axioms(H))
    broken = {f.split(" incompatible")[0] for f in report.failures if "relation" in f}
    assert broken == ({broken_map} if broken_map else set())


COACTION_CORRUPTIONS = {
    # delta(y) = 1 (x) y: relations hold, coassociativity and counit fail
    "coaction_untwisted": ({((), (1,)): 1}, None),
    # delta(y) = y (x) 1 + 1 (x) y squares to 2 y (x) y, not to c = 0
    "coaction_primitive": ({((1,), ()): 1, ((), (1,)): 1}, "coaction"),
    # delta(y) = 1 (x) y + 2 y (x) x: relations hold, the laws and the section
    # fail on y, and the walk finds more failing words than the generators
    "coaction_doubled": ({((), (1,)): 1, ((1,), (0,)): 2}, None),
    # delta(y) = y (x) 1, y coinvariant: a comodule algebra, but the section
    # fails on y, and only the section check can say so
    "coaction_trivial_on_y": ({((1,), ()): 1}, None),
}


@pytest.mark.parametrize("name", sorted(COACTION_CORRUPTIONS))
def test_corrupted_coaction_matches_basis_walk(name):
    y_image, broken_map = COACTION_CORRUPTIONS[name]
    A = corrupted_coaction(taft_object_spec(2, a=1, c=0), y_image)
    report = check_comodule(A)
    assert not report.ok
    assert_agrees(report, oracle_comodule(A))
    broken = {f.split(" incompatible")[0] for f in report.failures if "relation" in f}
    assert broken == ({broken_map} if broken_map else set())
