"""Leftmost-redex rewriting, kept as the oracle for normal forms by generator actions.

rewrite_normal_form reduces a word one redex at a time: find_redex gives
the leftmost redex, the rule replaces it, and every resulting word is
scanned again from position 0 until none is left.  normal_form_word lets
the word's letters act, last first, on the empty word instead, through a
table of act(g, v) = nf(g·v) for normal words v.  On a confluent system
both are the normal form, so they must agree on every word; on a system
that is not confluent the two reduction orders may differ, and
check_confluence must still say so.

A cache miss folds only word[0] onto the cached normal form of word[1:]
when there is one.  fold_from_empty, which folds every word from the empty
word, is kept as the oracle for that start: the two must give the same
normal forms, and the section walk over H's basis must leave the same act
table and normal-form cache behind.
"""

import random

import pytest

from hopfid.commpoly import CommPoly
from hopfid.comodule import ComoduleAlgebra, en_object_spec, galois_object, taft_object_spec
from hopfid.exprparse import parse_object_spec
from hopfid.hopf import en, taft
from hopfid.identities import bind_to_object, catalog, mu
from hopfid.ncalg import PresentedAlgebra, RewriteRule, _raw, check_confluence
from test_ncalg import sweedler_like


def rewrite_normal_form(alg, word, cache):
    """The terms of nf(word) by leftmost-redex rewriting; cache holds earlier results."""
    word = tuple(word)
    if word in cache:
        return cache[word]
    one = CommPoly.one(alg.order)
    acc = {}
    stack = [(word, one)]
    while stack:
        w, c = stack.pop()
        if w != word and w in cache:
            for nw, nc in cache[w].items():
                acc[nw] = acc[nw] + nc * c if nw in acc else nc * c
            continue
        red = alg.find_redex(w)
        if red is None:
            acc[w] = acc[w] + c if w in acc else c
        else:
            pos, rule = red
            tail = pos + len(rule.lhs)
            for rw, rc in rule.rhs:
                stack.append((w[:pos] + rw + w[tail:], rc * c))
    cache[word] = result = {w: c for w, c in acc.items() if not c.is_zero()}
    return result


def _numeric_en(n):
    c = [1, 0, 2, -1][:n]
    d = {(i, j): (i + j) % 3 - 1 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return en_object_spec(n, 3, c, d)


def _algebras():
    cases = []
    for n in range(2, 7):
        cases += [(f"taft:{n} H", lambda n=n: taft(n).algebra),
                  (f"taft:{n} numeric", lambda n=n: galois_object(taft_object_spec(n, 2, -1)).algebra),
                  (f"taft:{n} symbolic", lambda n=n: galois_object(taft_object_spec(n)).algebra)]
    for n in range(1, 5):
        cases += [(f"en:{n} H", lambda n=n: en(n).algebra),
                  (f"en:{n} numeric", lambda n=n: galois_object(_numeric_en(n)).algebra),
                  (f"en:{n} symbolic", lambda n=n: galois_object(en_object_spec(n)).algebra)]
    return cases


CASES = _algebras()


@pytest.mark.parametrize("label, algebra", CASES, ids=[c[0] for c in CASES])
def test_products_of_basis_words_match_the_rewriting_oracle(label, algebra):
    alg = algebra()
    basis = alg.basis()
    cache = {}
    for w1 in basis:
        for w2 in basis:
            word = w1 + w2
            assert alg.normal_form_word(word).terms == rewrite_normal_form(alg, word, cache), word


@pytest.mark.parametrize("label, algebra", CASES, ids=[c[0] for c in CASES])
def test_normal_forms_scan_for_no_redex(label, algebra, monkeypatch):
    # act tries only the rules that start with its generator, at position 0:
    # a fresh algebra (empty act table) never calls find_redex, and agrees
    # with the algebra the test above checks against the oracle
    alg = algebra()
    basis = alg.basis()
    want = {w1 + w2: alg.normal_form_word(w1 + w2).terms for w1 in basis for w2 in basis}
    fresh = PresentedAlgebra(alg.name, alg.generators, alg.order, alg.rules)

    def refuse(self, word):
        raise AssertionError(f"find_redex called on {word}")

    monkeypatch.setattr(PresentedAlgebra, "find_redex", refuse)
    for word, terms in want.items():
        assert fresh.normal_form_word(word).terms == terms, word


def _words(n_gens, length):
    words = [()]
    level = [()]
    for _ in range(length):
        level = [w + (g,) for w in level for g in range(n_gens)]
        words += level
    return words


def test_hand_built_algebras_match_the_rewriting_oracle():
    one, two = CommPoly.one(1), CommPoly.scalar(1, 2)
    # U(sl_2) on e, f, h: fe -> ef - h, he -> eh + 2e, hf -> fh - 2f; confluent by the
    # Jacobi identity, with two-word right sides and an overlap hfe
    sl2 = PresentedAlgebra("U(sl2)", ("e", "f", "h"), 1, (
        RewriteRule((1, 0), [((0, 1), one), ((2,), -one)]),
        RewriteRule((2, 0), [((0, 2), one), ((0,), two)]),
        RewriteRule((2, 1), [((1, 2), one), ((1,), -two)]),
    ))
    assert check_confluence(sl2).ok
    free = PresentedAlgebra("free", ("a", "b"), 1, ())
    for alg in (sweedler_like(), sl2, free):
        cache = {}
        for word in _words(len(alg.generators), 5):
            assert alg.normal_form_word(word).terms == rewrite_normal_form(alg, word, cache), word


def test_a_system_that_is_not_confluent_is_still_reported():
    # aa -> b leaves the overlap aaa: acting from the right gives a·b = ab,
    # the leftmost redex gives ba
    one = CommPoly.one(1)
    bad = PresentedAlgebra("bad", ("a", "b"), 1, (RewriteRule((0, 0), [((1,), one)]),))
    rep = check_confluence(bad)
    assert not rep.ok
    assert any(f.startswith("word (0, 0, 0): ") for f in rep.failures)
    assert set(bad.normal_form_word((0, 0, 0)).terms) == {(0, 1)}
    assert set(rewrite_normal_form(bad, (0, 0, 0), {})) == {(1, 0)}


def _check_tables(A):
    for alg in (A.algebra, A.hopf.algebra):
        assert 0 < sum(map(len, alg._acts)) <= len(alg.generators) * len(alg.basis()), alg.name
        one = alg._one_poly
        for g, table in enumerate(alg._acts):
            for v, terms in table.items():
                if (g,) + v in terms:  # g·v is normal: the is-one skips of products fire on it
                    assert len(terms) == 1 and terms[(g,) + v] is one
    assert not A.tensor._acts  # no rules, no table


@pytest.mark.parametrize("n", range(3, 13))
def test_act_table_bound_after_taft_pc(n):
    A = galois_object(taft_object_spec(n))
    (template,) = [P for name, P in catalog(A.hopf) if name == "taft_pc"]
    assert mu(bind_to_object(template, A), A).is_zero()
    _check_tables(A)


@pytest.mark.parametrize("n", range(1, 7))
def test_act_table_bound_after_the_en_catalog(n):
    A = galois_object(en_object_spec(n))
    for name, template in catalog(A.hopf):
        assert mu(bind_to_object(template, A), A).is_zero(), name
    _check_tables(A)


def fold_from_empty(self, word):
    """PresentedAlgebra.normal_form_word without the tail start: a cache miss
    lets every letter of word act, last first, on the empty word."""
    word = tuple(word)
    if self.tensor_factors is not None:
        return _raw(self, self._reduce_parts(word))
    if not self.rules:
        return _raw(self, {word: self._one_poly})
    hit = self._nf_cache.get(word)
    if hit is None:
        hit = self._nf_cache[word] = _raw(self, self._fold(word, {(): self._one_poly}))
    return hit


def _caches(alg):
    return alg._acts, {w: e.terms for w, e in alg._nf_cache.items()}


def _numeric_en_text(n):
    c = [f"c{i}={i % 3 - 1}" for i in range(1, n + 1)]
    d = [f"d{i},{j}={(i + j) % 3 - 1}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return ";".join([f"en:{n};a=1"] + c + d)


# symbolic, numeric and primed objects, and the objects of the galois_linear benchmark
SECTION_SPECS = (
    [s for n in range(2, 10) for s in (f"taft:{n};a=sym;c=sym", f"taft:{n};a=2;c=-1", f"taft:{n};a=sym;c=sym'")]
    + [s for n in range(1, 7) for s in (f"en:{n}", _numeric_en_text(n), f"en:{n};a=sym;c1=sym'")]
    + [f"taft:{n};a=1;c={c}" for n in (2, 3, 4) for c in (0, 1)]
    + ["en:1;a=1;c1=1", "en:2;a=1;c1=1;c2=-1;d1,2=1", "en:3;a=1;c1=1;c2=-1;c3=1;d1,2=1;d1,3=-1;d2,3=1"]
)


@pytest.mark.parametrize("text", SECTION_SPECS)
def test_the_section_walk_leaves_the_caches_of_the_fold_from_empty(text, monkeypatch):
    # galois_object(spec) is ComoduleAlgebra(spec), built once per spec: both are built fresh here
    spec = parse_object_spec(text)
    A = ComoduleAlgebra(spec)
    assert A.hopf.basis() and all(w in A.algebra._nf_cache for w in A.hopf.basis())
    monkeypatch.setattr(PresentedAlgebra, "normal_form_word", fold_from_empty)
    assert _caches(A.algebra) == _caches(ComoduleAlgebra(spec).algebra)


@pytest.mark.parametrize("label, algebra", [c for c in CASES if c[0].endswith("symbolic")],
                         ids=[c[0] for c in CASES if c[0].endswith("symbolic")])
def test_seeded_words_match_the_fold_from_empty_with_and_without_a_cached_tail(label, algebra):
    alg = algebra()
    fresh = PresentedAlgebra(alg.name, alg.generators, alg.order, alg.rules)
    oracle = PresentedAlgebra(alg.name, alg.generators, alg.order, alg.rules)
    rng = random.Random(label)
    longest = max(map(len, alg.basis()))
    tail_cached = set()
    for _ in range(200):
        word = tuple(rng.randrange(len(alg.generators)) for _ in range(rng.randint(1, 2 * longest + 2)))
        if rng.random() < 0.5:
            fresh.normal_form_word(word[1:])
        tail_cached.add(word[1:] in fresh._nf_cache)
        assert fresh.normal_form_word(word).terms == fold_from_empty(oracle, word).terms, word
    assert tail_cached == {True, False}
