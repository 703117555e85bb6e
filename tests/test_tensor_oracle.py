"""The rewriting tensor product, kept as the oracle for factor-by-factor reduction.

rewriting_tensor_product builds a tensor product as a rewriting system of
its own: every factor rule with its generators shifted into the factor's
block, and one cross rule (h, g) -> (g, h) for each generator h of a later
factor and g of an earlier one; its words are flat, the factors' letters
laid out block by block.  tensor_product has no rules, keeps a word as the
tuple of its factors' words and reduces each in its factor instead.  Read
through _split and _flat, both must give the same normal forms, the same
basis and the same order.
"""

import itertools
import random

import pytest

from hopfid import ncalg
from hopfid.commpoly import CommPoly
from hopfid.comodule import en_object_spec, galois_object, taft_object_spec
from hopfid.hopf import en, taft
from hopfid.identities import free_algebra
from hopfid.ncalg import PresentedAlgebra, RewriteRule, tensor_product


def _offsets(factors):
    return list(itertools.accumulate([0] + [len(f.generators) for f in factors[:-1]]))


def _split(factors, word):
    """The factor words of a flat word, each factor's letters in their order."""
    offsets = _offsets(factors)
    parts = [[] for _ in factors]
    for g in word:
        k = max(k for k, off in enumerate(offsets) if g >= off)
        parts[k].append(g - offsets[k])
    return tuple(map(tuple, parts))


def _flat(factors, word):
    """The flat word of a tensor word: its factors' words laid out block by block."""
    return tuple(g + off for part, off in zip(word, _offsets(factors)) for g in part)


def _flat_terms(factors, elem):
    return {_flat(factors, w): c for w, c in elem.terms.items()}


def rewriting_tensor_product(*factors):
    offsets = _offsets(factors)
    gens = [f"{g}@{k}" for k, f in enumerate(factors) for g in f.generators]
    rules = []
    for off, f in zip(offsets, factors):
        for r in f.rules:
            rhs = [(tuple(g + off for g in w), c) for w, c in r.rhs]
            rules.append(RewriteRule(tuple(g + off for g in r.lhs), rhs))
    one = CommPoly.one(factors[0].order)
    for k1, k2 in itertools.combinations(range(len(factors)), 2):
        for g2 in range(len(factors[k2].generators)):
            for g1 in range(len(factors[k1].generators)):
                hi, lo = offsets[k2] + g2, offsets[k1] + g1
                rules.append(RewriteRule((hi, lo), [((lo, hi), one)]))
    return PresentedAlgebra(" ⊗ ".join(f.name for f in factors), gens, factors[0].order, rules)


def _factor_word(rng, f, redex=True):
    """A random word of f; with redex, it holds the left side of one of f's rules."""
    n = len(f.generators)
    redex = rng.choice(f.rules).lhs if redex and f.rules else ()
    pre = tuple(rng.randrange(n) for _ in range(rng.randrange(3)))
    post = tuple(rng.randrange(n) for _ in range(rng.randrange(3)))
    return pre + redex + post


def _interleaved_word(rng, factors, redex=lambda: True):
    """A word with a subword from _factor_word in every factor, letters shuffled
    across factors with each factor's order kept; redex() says for each factor
    whether its subword holds a redex."""
    parts = [[g + off for g in _factor_word(rng, f, redex())]
             for off, f in zip(_offsets(factors), factors)]
    slots = [k for k, p in enumerate(parts) for _ in p]
    rng.shuffle(slots)
    letters = [iter(p) for p in parts]
    return tuple(next(letters[k]) for k in slots)


def _objects():
    return {
        "taft:3 numeric": galois_object(taft_object_spec(3, 2, 1)).algebra,
        "taft:3 symbolic": galois_object(taft_object_spec(3)).algebra,
        "en:2 numeric": galois_object(en_object_spec(2, 3, [1, 0], {(1, 2): 2})).algebra,
        "en:2 symbolic": galois_object(en_object_spec(2)).algebra,
    }


def _cases():
    cases = [(f"taft:{n}⊗taft:{n}", lambda n=n: (taft(n).algebra,) * 2) for n in (2, 3, 4)]
    cases += [(f"en:{n}⊗en:{n}", lambda n=n: (en(n).algebra,) * 2) for n in (1, 2, 3)]
    for label in _objects():
        H = (taft(3) if label.startswith("taft") else en(2)).algebra
        cases.append((f"A({label})⊗H", lambda label=label, H=H: (_objects()[label], H)))
        cases.append((f"A({label})⊗H⊗H", lambda label=label, H=H: (_objects()[label], H, H)))
    # one factor: the fold takes its normal forms as they are
    cases.append(("A(taft:3 symbolic) alone", lambda: (_objects()["taft:3 symbolic"],)))
    cases.append(("T(X_taft:2)⊗taft:2", lambda: (free_algebra(taft(2), 2), taft(2).algebra)))
    cases.append(("T(X_en:1)⊗en:1", lambda: (free_algebra(en(1), 1), en(1).algebra)))
    return cases


CASES = _cases()


@pytest.mark.parametrize("label, factors", CASES, ids=[c[0] for c in CASES])
def test_factorwise_normal_forms_match_the_rewriting_oracle(label, factors):
    factors = factors()
    product = tensor_product(*factors)
    oracle = rewriting_tensor_product(*factors)
    assert product.rules == ()
    assert product.generators == oracle.generators
    rng = random.Random(f"tensor-oracle {label}")
    # a redex in every factor, then in a random choice of factors, so that a
    # normal subword also follows a reduced one
    for k in range(50):
        redex = (lambda: True) if k < 25 else (lambda: rng.random() < 0.5)
        word = _interleaved_word(rng, factors, redex)
        parts = _split(factors, word)
        got = product.normal_form_word(parts)
        assert _flat_terms(factors, got) == oracle.normal_form_word(word).terms, word
        # one normal word per factor
        assert all(len(w) == len(factors) and all(map(PresentedAlgebra.is_normal, factors, w))
                   for w in got.terms), word
        assert product.is_normal(parts) == (oracle.find_redex(_flat(factors, parts)) is None), word
    # products of elements go through the same normal forms, in the same order
    words = [_interleaved_word(rng, factors) for _ in range(4)]
    left = product.element([(_split(factors, w), k + 1) for k, w in enumerate(words[:2])])
    right = product.element([(_split(factors, w), 1 - k) for k, w in enumerate(words[2:])])
    o_left = oracle.element({w: k + 1 for k, w in enumerate(words[:2])})
    o_right = oracle.element({w: 1 - k for k, w in enumerate(words[2:])})
    # operand words that are products' normal words too
    chained = [(left * right, o_left * o_right),
               ((left * right) * left, (o_left * o_right) * o_left),
               (right * (left * right), o_right * (o_left * o_right)),
               ((left * left) * (right * right), (o_left * o_left) * (o_right * o_right))]
    for got, want in chained:
        assert _flat_terms(factors, got) == want.terms
        assert [_flat(factors, w) for w, _ in got.sorted_terms()] == [w for w, _ in want.sorted_terms()]
        assert got.degree() == want.degree()


@pytest.mark.parametrize("label, factors", CASES, ids=[c[0] for c in CASES])
def test_product_basis_matches_the_rewriting_oracle(label, factors, monkeypatch):
    factors = factors()
    product = tensor_product(*factors)
    oracle = rewriting_tensor_product(*factors)
    if any(not f.rules for f in factors):  # T(X_H) is infinite dimensional
        monkeypatch.setattr(ncalg, "MAX_BASIS_WORDS", 50)
        for alg in (product, oracle):
            with pytest.raises(ValueError, match="more than 50 normal words"):
                alg.basis()
        return
    assert [_flat(factors, w) for w in product.basis()] == list(oracle.basis())
    assert all(product.is_normal(w) for w in product.basis())


@pytest.mark.parametrize("label, factors", CASES, ids=[c[0] for c in CASES])
def test_join_inverts_split_word(label, factors):
    factors = factors()
    product = tensor_product(*factors)
    offsets = _offsets(factors)
    rng = random.Random(f"tensor-join {label}")
    for _ in range(25):
        parts = tuple(_factor_word(rng, f) for f in factors)
        word = product.join(*parts)
        assert word == parts and product.split_word(word) == parts
        assert _split(factors, _flat(factors, word)) == parts
        # an interleaved word splits into its factors' subwords in order
        mixed = _interleaved_word(rng, factors)
        assert _flat(factors, _split(factors, mixed)) == tuple(sorted(
            mixed, key=lambda g: max(k for k, off in enumerate(offsets) if g >= off)))
    with pytest.raises(ValueError, match="not a tensor product"):
        product.join(*parts[:-1])
    with pytest.raises(ValueError, match="not a tensor product"):
        factors[-1].join(parts[-1])
