"""The rewriting tensor product, kept as the oracle for factor-by-factor reduction.

rewriting_tensor_product builds a tensor product as a rewriting system of
its own: every factor rule with its generators shifted into the factor's
block, and one cross rule (h, g) -> (g, h) for each generator h of a later
factor and g of an earlier one.  tensor_product has no rules and reduces
each factor's subword in that factor instead; both must give the same
normal forms, the same basis and the same word layout.
"""

import itertools
import math
import random

import pytest

from hopfid import ncalg
from hopfid.commpoly import CommPoly
from hopfid.comodule import (check_comodule, coinvariants, en_object_spec, galois_map_bijective,
                             galois_object, taft_object_spec)
from hopfid.hopf import en, taft
from hopfid.identities import free_algebra
from hopfid.ncalg import PresentedAlgebra, RewriteRule, tensor_product


def _offsets(factors):
    return list(itertools.accumulate([0] + [len(f.generators) for f in factors[:-1]]))


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
        assert product.normal_form_word(word).terms == oracle.normal_form_word(word).terms, word
        assert product.is_normal(word) == (oracle.find_redex(word) is None), word
    # products of elements go through the same normal forms
    words = [_interleaved_word(rng, factors) for _ in range(4)]
    left = product.element({w: k + 1 for k, w in enumerate(words[:2])})
    right = product.element({w: 1 - k for k, w in enumerate(words[2:])})
    o_left = oracle.element({w: k + 1 for k, w in enumerate(words[:2])})
    o_right = oracle.element({w: 1 - k for k, w in enumerate(words[2:])})
    assert (left * right).terms == (o_left * o_right).terms
    # operand words that are products' normal words, as the split table holds them
    chained = [((left * right) * left, (o_left * o_right) * o_left),
               (right * (left * right), o_right * (o_left * o_right)),
               ((left * left) * (right * right), (o_left * o_left) * (o_right * o_right))]
    for got, want in chained:
        assert got.terms == want.terms


SPECS = [(f"taft:{n} numeric", lambda n=n: taft_object_spec(n, 2, 1)) for n in (2, 3, 4, 5)]
SPECS += [(f"taft:{n} symbolic", lambda n=n: taft_object_spec(n)) for n in (2, 3, 4, 5)]
SPECS += [(f"en:{n} numeric", lambda n=n: en_object_spec(
    n, 3, [1 - i for i in range(n)], {(i, j): i - j for i in range(1, n + 1) for j in range(i + 1, n + 1)}))
    for n in (1, 2, 3)]
SPECS += [(f"en:{n} symbolic", lambda n=n: en_object_spec(n)) for n in (1, 2, 3)]


@pytest.mark.parametrize("label, spec", SPECS, ids=[s[0] for s in SPECS])
def test_split_table_holds_only_normal_words(label, spec):
    A = galois_object(spec())
    if A.spec.symbolic_keys():
        with pytest.raises(ValueError, match="needs numeric parameters"):
            coinvariants(A)
    else:
        assert coinvariants(A) == [A.algebra.one()]
    assert galois_map_bijective(A) is True
    assert check_comodule(A).ok
    H = A.hopf.algebra
    products = (A.tensor, A.hopf.square, tensor_product(A.algebra, H, H))
    assert A.tensor._splits and A.hopf.square._splits  # the checks multiply in both
    for T in products:
        assert len(T._splits) <= math.prod(len(f.basis()) for f in T.tensor_factors)
        for w, parts in T._splits.items():
            # normal: one normal word per factor, in block layout (is_normal reads the table)
            assert w == T.join(*parts) and parts == T.split_word(w), (T.name, w)
            assert all(f.is_normal(p) for f, p in zip(T.tensor_factors, parts)), (T.name, w)


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
    assert list(product.basis()) == list(oracle.basis())
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
        assert word == tuple(g + off for p, off in zip(parts, offsets) for g in p)
        assert product.split_word(word) == parts
        # an interleaved word splits into its factors' subwords in order
        mixed = _interleaved_word(rng, factors)
        assert product.join(*product.split_word(mixed)) == tuple(sorted(
            mixed, key=lambda g: max(k for k, off in enumerate(offsets) if g >= off)))
    with pytest.raises(ValueError, match="not a tensor product"):
        product.join(*parts[:-1])
    with pytest.raises(ValueError, match="not a tensor product"):
        factors[-1].join(parts[-1])
