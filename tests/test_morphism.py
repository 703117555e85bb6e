"""Oracle tests for ncalg.Morphism at small sizes.

The reference below is the plain product of generator images, word by word:
left to right for a homomorphism, right to left (each image multiplied in
front) for an antihomomorphism.  Morphism must agree with it on seeded
random elements, for every structure map routed through it.
"""

import random

import pytest

from hopfid.comodule import coaction, en_object_spec, galois_object, taft_object_spec
from hopfid.hopf import antipode, coproduct, en, taft
from hopfid.identities import (
    FreeComodulePoly,
    free_algebra,
    mu,
    substitute,
    x_symbol,
)
from hopfid.ncalg import Morphism
from free_coaction import t_coaction
from propsuites import random_element, random_free

CASES = 12


def reference(target, gen_image, elem, anti=False):
    out = target.zero()
    for w, c in elem.terms.items():
        img = target.one()
        for g in w:
            img = gen_image(g) * img if anti else img * gen_image(g)
        out = out + img * c
    return out


def reference_words(target, gen_image, words, anti=False):
    """Word images by the reference product, one word at a time."""
    out = []
    for w in words:
        img = target.one()
        for g in w:
            img = gen_image(g) * img if anti else img * gen_image(g)
        out.append(img)
    return out


def hopf_algebras():
    return [taft(2), taft(3), en(1), en(2)]


def objects():
    return [
        galois_object(taft_object_spec(2)),
        galois_object(taft_object_spec(3)),
        galois_object(en_object_spec(1)),
        galois_object(en_object_spec(2)),
    ]


def random_word(rng, alg, max_len=6):
    return tuple(
        rng.randrange(len(alg.generators)) for _ in range(rng.randrange(max_len + 1))
    )


@pytest.mark.parametrize("H", hopf_algebras(), ids=lambda H: H.name)
def test_coproduct_and_antipode_match_reference(H):
    rng = random.Random(f"hopf {H.name}")
    alg = H.algebra
    delta = lambda g: H.coproduct_word((g,))  # noqa: E731
    s = lambda g: H.antipode_word((g,))  # noqa: E731
    for _ in range(CASES):
        e = random_element(rng, alg, max_len=4, max_terms=4)
        assert coproduct(H, e) == reference(H.square, delta, e)
        assert antipode(H, e) == reference(alg, s, e, anti=True)
    words = [random_word(rng, alg) for _ in range(CASES)]
    assert [H.coproduct_word(w) for w in words] == reference_words(
        H.square, delta, words
    )
    assert [H.antipode_word(w) for w in words] == reference_words(
        alg, s, words, anti=True
    )


@pytest.mark.parametrize("A", objects(), ids=lambda A: A.name)
def test_coaction_matches_reference(A):
    rng = random.Random(f"coaction {A.name}")
    delta = lambda g: A.coaction_word((g,))  # noqa: E731
    for _ in range(CASES):
        e = random_element(rng, A.algebra, allow_tvars=True, max_len=4, max_terms=4)
        assert coaction(A, e) == reference(A.tensor, delta, e)
    words = [random_word(rng, A.algebra) for _ in range(CASES)]
    assert [A.coaction_word(w) for w in words] == reference_words(
        A.tensor, delta, words
    )


def _symbol_of(H, T, gid):
    """The free generator gid of T as a polynomial."""
    return FreeComodulePoly(H, T.free_copies, T.element({(gid,): 1}))


@pytest.mark.parametrize("A", objects(), ids=lambda A: A.name)
def test_mu_and_t_coaction_match_reference(A):
    rng = random.Random(f"mu {A.name}")
    H = A.hopf
    for _ in range(CASES):
        P = random_free(rng, H)
        T = free_algebra(H, P.copies)
        mu_gen = lambda g: mu(_symbol_of(H, T, g), A)  # noqa: E731
        assert mu(P, A) == reference(A.algebra, mu_gen, P.element)
        t_gen = lambda g: t_coaction(_symbol_of(H, T, g))  # noqa: E731
        TH = t_coaction(P).algebra
        assert t_coaction(P) == reference(TH, t_gen, P.element)


def reference_substitute(P, image_fn):
    """The product of image polynomials, generator by generator."""
    H = P.hopf
    basis = H.basis()
    dim = len(basis)
    out = FreeComodulePoly.zero(H, P.copies)
    for w, c in P.element.terms.items():
        img = FreeComodulePoly.scalar(H, 1, P.copies)
        for gid in w:
            img = img * image_fn(gid // dim + 1, basis[gid % dim])
        out = out + img * c
    return out


@pytest.mark.parametrize("H", hopf_algebras(), ids=lambda H: H.name)
def test_substitute_matches_reference(H):
    rng = random.Random(f"substitute {H.name}")
    alg = H.algebra

    def image(i, w):
        # swap the two copies, and add a third copy to stretch the target
        hb = alg.element({w: 1})
        return x_symbol(3 - i, hb) * 2 + x_symbol(3, hb)

    for _ in range(CASES):
        P = random_free(rng, H)
        got = substitute(P, image)
        want = reference_substitute(P, image)
        assert got.copies == want.copies
        assert got == want


def test_morphism_from_a_function_computes_each_image_once():
    H = taft(2)
    calls = []

    def image(g):
        calls.append(g)
        return H.coproduct_word((g,))

    f = Morphism(H.algebra, H.square, image)
    e = H.algebra.element({("x", "y"): 1, ("y",): 2, ("x",): 1})
    assert f(e) == coproduct(H, e)
    assert f(e * e) == coproduct(H, e * e)
    assert sorted(calls) == [0, 1]


def test_morphism_rejects_foreign_elements():
    H = taft(2)
    f = Morphism(H.algebra, H.square, lambda g: H.coproduct_word((g,)))
    with pytest.raises(ValueError):
        f(taft(3).algebra.gen("x"))


def test_long_words_do_not_recurse():
    # x^2 = 1 in taft:2 and in its a = 1 object, so x^3000 maps to one
    H = taft(2)
    word = (0,) * 3000
    assert H.coproduct_word(word) == H.square.one()
    assert H.antipode_word(word) == H.algebra.one()
    A = galois_object(taft_object_spec(2, a=1, c=0))
    assert A.coaction_word(word) == A.tensor.one()
