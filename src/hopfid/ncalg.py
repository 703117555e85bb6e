"""Noncommutative algebras presented by confluent rewriting rules.

A PresentedAlgebra owns a generator list, a cyclotomic order for its
coefficient polynomials, and a set of oriented rewrite rules.  Words are
tuples of generator indices; the term order is degree-then-lexicographic in
the generator order, and every rule must strictly decrease it, which makes
reduction terminate.  Confluence is *checked*, not completed: the rule sets
shipped here are supplied in already-confluent form and check_confluence
verifies all overlap ambiguities by double reduction.

A word is reduced by generator actions, right to left: act(g, v) is the
normal form of g·v for a generator g and a normal word v.  Every factor of
a normal word is normal (Bergman's diamond lemma), so a redex of g·v can
only start at position 0, and act is g·v itself or one rule applied there,
after which each right-hand word's letters act on the normal rest.  act is
memoised per algebra, with at most #generators × dim entries.  A tensor
product has no rules of its own and reduces factor by factor.  Its words
lay out the factors' words block by block (split_word and join); a product
of two of its normal words is formed factor by factor too (mul_words), from
a split table of the normal words, with at most Π dim(factor) entries.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .commpoly import CommPoly
from .cyclotomic import CyclotomicNumber, join_signed, power

__all__ = [
    "RewriteRule",
    "PresentedAlgebra",
    "AlgElement",
    "Morphism",
    "tensor_product",
    "check_confluence",
    "ConfluenceReport",
]

Word = tuple  # tuple of generator indices

MAX_BASIS_WORDS = 100000  # for basis(), and for the family sizes a spec may name


def deglex_key(word):
    return (len(word), word)


class RewriteRule:
    """An oriented rule lhs -> sum of coeff*word, decreasing in deglex order.

    Words with a zero coefficient are dropped, so that reduction never
    makes a zero term."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = tuple(lhs)
        self.rhs = tuple((tuple(w), c) for w, c in rhs if not c.is_zero())
        if not self.lhs:
            raise ValueError("rule left side must be a nonempty word")
        for w, _ in self.rhs:
            if deglex_key(w) >= deglex_key(self.lhs):
                raise ValueError(
                    f"rule does not decrease the term order: {self.lhs} -> {w}"
                )


class PresentedAlgebra:
    """An associative algebra over Q(zeta_order) given by generators and rules."""

    def __init__(self, name, generators, order, rules=(), tensor_factors=None):
        self.name = name
        self.generators = tuple(generators)
        self.order = order
        self.rules = tuple(rules)
        self.tensor_factors = tensor_factors
        self.factor_offsets = None
        if tensor_factors is not None:
            sizes = [len(f.generators) for f in tensor_factors]
            self.factor_offsets = tuple(itertools.accumulate([0] + sizes[:-1]))
            self._letters = [(k, g) for k, n in enumerate(sizes) for g in range(n)]
            self._splits = {}  # normal word -> its factor parts; see mul_words
        self._gen_index = {g: i for i, g in enumerate(self.generators)}
        if len(self._gen_index) != len(self.generators):
            raise ValueError("generator names must be distinct")
        self._rules_by_first = {}
        for r in self.rules:
            self._rules_by_first.setdefault(r.lhs[0], []).append(r)
        self._nf_cache = {}
        self._acts = [{} for _ in self.generators] if self.rules else ()  # see _act
        self._lhs_len = max((len(r.lhs) for r in self.rules), default=0)
        self._basis_cache = None
        self._one_poly = CommPoly.one(order)

    # -- construction helpers ------------------------------------------------

    def gen_index(self, name) -> int:
        try:
            return self._gen_index[name]
        except KeyError:
            raise ValueError(f"{self.name} has no generator {name!r}") from None

    def coerce_poly(self, value) -> CommPoly:
        if isinstance(value, CommPoly):
            if value.order != self.order:
                raise ValueError("coefficient has the wrong cyclotomic order")
            return value
        if isinstance(value, CyclotomicNumber):
            return CommPoly.constant(value)
        if isinstance(value, (int, Fraction)):
            return CommPoly.scalar(self.order, value)
        raise ValueError(f"cannot use {value!r} as a coefficient")

    def zero(self) -> AlgElement:
        return AlgElement(self, {})

    def one(self) -> AlgElement:
        return AlgElement(self, {(): self._one_poly})

    def gen(self, name) -> AlgElement:
        return AlgElement(self, {(self.gen_index(name),): self._one_poly})

    def element(self, pairs) -> AlgElement:
        """Build an element from (word, coefficient) pairs, reducing each word."""
        if isinstance(pairs, dict):
            pairs = pairs.items()
        acc = {}
        for w, c in pairs:
            poly = self.coerce_poly(c)
            if poly.is_zero():
                continue
            w = tuple(self.gen_index(g) if isinstance(g, str) else g for g in w)
            _add_scaled(acc, self.normal_form_word(w).terms, poly, self._one_poly)
        return _raw(self, acc)

    # -- rewriting -----------------------------------------------------------

    def find_redex(self, word):
        """The leftmost redex of word as (position, rule), or None.

        A left side longer than what is left of word from a position is
        skipped before any slice, so a scan costs O(len(word)) letter
        lookups, not a slice of every long left side at every position."""
        limit = len(word)
        for pos in range(limit):
            cands = self._rules_by_first.get(word[pos])
            if not cands:
                continue
            room = limit - pos
            for rule in cands:
                L = rule.lhs
                if len(L) <= room and word[pos : pos + len(L)] == L:
                    return pos, rule
        return None

    def is_normal(self, word) -> bool:
        # rules decrease the term order, so a reducible word is not in its normal form
        return tuple(word) in self.normal_form_word(word).terms

    def normal_form_word(self, word) -> AlgElement:
        """The normal form of a single word, with coefficient one.

        With rules, the word's letters act, last first, on the empty word
        (act(g, v) is the normal form of g·v for a normal word v; see _act,
        whose table holds at most #generators × dim entries), and the result
        is cached per word.  A tensor product returns a word of its split
        table (see mul_words) as itself, since the table holds normal words
        only; any other word, which may interleave the factors' letters, is
        split and reduced factor by factor (see _reduce_parts) through the
        factors' cached normal forms, and is not kept, since a word asked
        for here is mostly a one-off.  A free algebra's word is its own
        normal form."""
        word = tuple(word)
        one = self._one_poly
        if self.tensor_factors is not None:  # no rules: nothing is left to rewrite
            if word in self._splits:  # a normal word
                return _raw(self, {word: one})
            return _raw(self, self._reduce_parts(self.split_word(word)))
        if not self.rules:  # a free algebra: every word is normal
            return _raw(self, {word: one})
        hit = self._nf_cache.get(word)
        if hit is None:
            hit = self._nf_cache[word] = _raw(self, self._fold(word, {(): one}))
        return hit

    def mul_words(self, w1, w2):
        """The normal form of w1·w2, for normal words w1 and w2, as a terms dict.

        No caller may change the dict.  In a tensor product each operand's
        factor parts come from the split table _splits, which holds normal
        words of the product only, so at most Π dim(factor) entries, and
        never the one-off concatenation w1 + w2: the generator images a
        Morphism multiplies by recur in every product.  Each factor then
        reduces its two parts' concatenation through its own cached normal
        forms.
        """
        if self.tensor_factors is None:
            return self.normal_form_word(w1 + w2).terms
        splits = self._splits
        p1 = splits.get(w1)
        if p1 is None:
            p1 = splits[w1] = self.split_word(w1)
        p2 = splits.get(w2)
        if p2 is None:
            p2 = splits[w2] = self.split_word(w2)
        return self._reduce_parts(map(tuple.__add__, p1, p2))

    def _reduce_parts(self, parts):
        """The normal form of the tensor word with these factor parts, as a terms dict.

        Each part is reduced in its factor and the results are joined: the
        joins of normal factor words are the product's normal words
        (Bergman's diamond lemma).  Distinct factor words join to distinct
        words, and coefficients are nonzero, so nothing is summed.
        """
        one = self._one_poly
        out = {}
        for combo in itertools.product(*[factor.normal_form_word(part).terms.items()
                                         for factor, part in zip(self.tensor_factors, parts)]):
            word, c = (), one
            for (w, fc), off in zip(combo, self.factor_offsets):
                word += tuple([g + off for g in w]) if off else w  # into the factor's block
                if fc is not one:
                    c = fc if c is one else c * fc
            out[word] = c
        return out

    def _fold(self, word, terms):
        """Let the letters of word act, last first, on terms (normal word -> coefficient).

        A single term with coefficient one becomes the table's own dict, so a
        normal word folds without a copy; no caller changes the result.
        """
        one, act = self._one_poly, self._act
        for g in reversed(word):
            if len(terms) == 1:
                ((v, c),) = terms.items()
                if c is one:
                    terms = act(g, v)
                    continue
            acc = {}
            for v, c in terms.items():
                _add_scaled(acc, act(g, v), c, one)
            terms = acc
        return terms

    def _act(self, g, v):
        """The normal form of g·v, for a normal word v, as a terms dict.

        A redex of g·v can only start at position 0, since v is normal and
        so holds none; find_redex looks for it in the first max|lhs|
        letters.  If there is none, g·v is normal and its coefficient is
        _one_poly itself.  Otherwise the rule is applied there, and each
        right-hand word acts on the rest of v, a suffix of a normal word and
        so normal.  The results are kept in _acts[g][v]: at most
        #generators × dim entries.
        """
        table = self._acts[g]
        hit = table.get(v)
        if hit is None:
            word = (g,) + v
            red = self.find_redex(word[: self._lhs_len])
            if red is None:
                hit = {word: self._one_poly}
            else:
                rule = red[1]
                rest = {v[len(rule.lhs) - 1 :]: self._one_poly}
                hit = {}
                for rw, rc in rule.rhs:
                    _add_scaled(hit, self._fold(rw, rest), rc, self._one_poly)
            table[v] = hit
        return hit

    # -- basis enumeration ---------------------------------------------------

    def basis(self):
        """All normal words in deglex order; errors out past MAX_BASIS_WORDS."""
        if self._basis_cache is not None:
            return self._basis_cache
        out = [()]
        level = [()]
        if self.tensor_factors is not None:
            parts = itertools.islice(itertools.product(*(f.basis() for f in self.tensor_factors)),
                                     MAX_BASIS_WORDS + 1)
            out = sorted(itertools.starmap(self.join, parts), key=deglex_key)
            level = []
        # w is already normal, so a redex of w + (g,) can only be a suffix:
        # one set lookup per length of a left side
        lhss = {r.lhs for r in self.rules}
        lengths = {len(L) for L in lhss}
        while level and len(out) <= MAX_BASIS_WORDS:
            nxt = []
            for w in level:
                for g in range(len(self.generators)):
                    cand = w + (g,)
                    if not any(cand[-k:] in lhss for k in lengths):
                        nxt.append(cand)
            out.extend(nxt)
            level = nxt
        if len(out) > MAX_BASIS_WORDS:
            raise ValueError(
                f"{self.name}: more than {MAX_BASIS_WORDS} normal words; "
                "is this algebra finite dimensional?"
            )
        self._basis_cache = tuple(out)
        return self._basis_cache

    # -- rendering -----------------------------------------------------------

    def render_word(self, word) -> str:
        if self.tensor_factors is not None:
            parts = zip(self.tensor_factors, self.split_word(word))
            return "⊗".join(f.render_word(sub) for f, sub in parts)
        if not word:
            return "1"
        runs = []
        for g in word:
            if runs and runs[-1][0] == g:
                runs[-1][1] += 1
            else:
                runs.append([g, 1])
        return "*".join(
            self.generators[g] if e == 1 else f"{self.generators[g]}^{e}"
            for g, e in runs
        )

    def split_word(self, word):
        """Partition a tensor-product word into per-factor subwords."""
        if self.tensor_factors is None:
            raise ValueError(f"{self.name} is not a tensor product")
        parts = [[] for _ in self.tensor_factors]
        for k, local in map(self._letters.__getitem__, word):
            parts[k].append(local)
        return tuple(map(tuple, parts))

    def join(self, *parts) -> Word:
        """The tensor-product word of one subword per factor; inverts split_word."""
        if self.tensor_factors is None or len(parts) != len(self.tensor_factors):
            raise ValueError(f"{self.name} is not a tensor product of {len(parts)} factors")
        return tuple([g + off for part, off in zip(parts, self.factor_offsets) for g in part])

    def __repr__(self):
        return f"PresentedAlgebra({self.name})"


def _add_scaled(acc, terms, c, one):
    """acc += c * terms, over dicts of normal words; a coefficient _one_poly is skipped."""
    for w, tc in terms.items():
        prod = c if tc is one else tc if c is one else tc * c
        s = acc.get(w)
        if s is None:
            acc[w] = prod
        elif (s := s + prod).terms:
            acc[w] = s
        else:  # only a sum can cancel
            del acc[w]


def _raw(algebra, terms):
    """The AlgElement on terms as given: the caller ensures no coefficient is zero."""
    e = object.__new__(AlgElement)
    e.algebra, e.terms = algebra, terms
    return e


class AlgElement:
    """A linear combination of normal words with CommPoly coefficients.

    terms maps each normal word to its coefficient and never holds a zero
    polynomial, so the zero element has no terms and equal values have
    equal dicts.  The constructor filters zeros out; the arithmetic keeps the
    invariant by construction and builds through _raw without a filter.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    def _check(self, other):
        if other.algebra is not self.algebra:
            raise ValueError(
                f"elements of different algebras: "
                f"{self.algebra.name} vs {other.algebra.name}"
            )

    def __add__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            out = dict(self.terms)
            one = self.algebra._one_poly
            _add_scaled(out, other.terms, one, one)
            return _raw(self.algebra, out)
        try:
            poly = self.algebra.coerce_poly(other)
        except ValueError:
            return NotImplemented
        return self + AlgElement(self.algebra, {(): poly})

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return self + (-other)
        try:
            poly = self.algebra.coerce_poly(other)
        except ValueError:
            return NotImplemented
        return self - AlgElement(self.algebra, {(): poly})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        alg = self.algebra
        if isinstance(other, AlgElement):
            self._check(other)
            one, mul_words = alg._one_poly, alg.mul_words
            acc = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    # terms are nonzero, and so is their product: coefficients form a domain
                    c = c2 if c1 is one else c1 if c2 is one else c1 * c2
                    # a normal word is its own normal form, with the coefficient _one_poly itself
                    _add_scaled(acc, mul_words(w1, w2), c, one)
            return _raw(alg, acc)
        try:
            poly = alg.coerce_poly(other)
        except ValueError:
            return NotImplemented
        if not poly.terms:
            return alg.zero()
        if poly is alg._one_poly:  # elements are values: no caller changes their terms
            return self
        return _raw(alg, {w: c * poly for w, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything here
        try:
            poly = self.algebra.coerce_poly(other)
        except ValueError:
            return NotImplemented
        return self * poly

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return power(self, k, self.algebra.one())

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(len(w) for w in self.terms)

    def coefficient(self, word) -> CommPoly:
        word = tuple(
            self.algebra.gen_index(g) if isinstance(g, str) else g for g in word
        )
        return self.terms.get(word, CommPoly.zero(self.algebra.order))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda p: deglex_key(p[0]))

    def __eq__(self, other):
        if isinstance(other, AlgElement):
            return self.algebra is other.algebra and self.terms == other.terms
        if isinstance(other, (int, Fraction, CyclotomicNumber, CommPoly)):
            try:
                poly = self.algebra.coerce_poly(other)
            except ValueError:
                return NotImplemented
            return self.terms == AlgElement(self.algebra, {(): poly}).terms
        return NotImplemented

    def __str__(self):
        rendered = []
        for w, c in self.sorted_terms():
            word = self.algebra.render_word(w)
            single = len(c.terms) == 1
            if not w:
                body = str(c) if (single or not c.terms) else f"({c})"
            elif single:
                cs = str(c)
                if cs == "1":
                    body = word
                elif cs == "-1":
                    body = f"-{word}"
                elif cs.startswith("(") or "(" not in cs:
                    body = f"{cs}*{word}"
                else:
                    body = f"({cs})*{word}"
            else:
                body = f"({c})*{word}"
            rendered.append(body)
        return join_signed(rendered)

    def __repr__(self):
        return f"AlgElement({self.algebra.name}: {self})"


class Morphism:
    """An algebra map, or antihomomorphism if anti, fixed on generators.

    image is a function of the generator index (pass tuple(seq).__getitem__
    for images listed in order); each generator image is computed at most
    once.  word(w) multiplies generator images left to right (right to
    left when anti) and keeps the result for w alone; it starts from the
    image of w less its last letter (first when anti) if that word was
    asked for before, as happens when callers walk a basis in order.
    Applied to an element, the map sums word(w) * c over its terms, so it
    caches the image of each word it meets: from H or A those words are
    normal, at most dim of them, and from T(X_H), the source of mu and of
    substitute, they are the words of the leaves.
    """

    def __init__(self, source, target, image, anti=False):
        self.source = source
        self.target = target
        self.anti = anti
        self._image = image
        self._gens = {}
        self._words = {(): target.one()}

    def generator(self, g) -> AlgElement:
        hit = self._gens.get(g)
        if hit is None:
            hit = self._gens[g] = self._image(g)
        return hit

    def word(self, word) -> AlgElement:
        word = tuple(word)
        hit = self._words.get(word)
        if hit is None:
            letters = word[::-1] if self.anti else word
            base = self._words.get(word[1:] if self.anti else word[:-1])
            hit = self.target.one() if base is None else base
            for g in letters if base is None else letters[-1:]:
                hit = hit * self.generator(g)
            self._words[word] = hit
        return hit

    def broken_relations(self) -> list:
        """The source's rules whose two sides map to different elements.

        Both sides go word by word through word(), so an empty list proves
        that the map is well defined on the presented algebra.
        """
        zero = self.target.zero()
        return [rule for rule in self.source.rules
                if self.word(rule.lhs) != sum((self.word(w) * c for w, c in rule.rhs), zero)]

    def __call__(self, elem: AlgElement) -> AlgElement:
        if elem.algebra is not self.source:
            raise ValueError(f"element does not belong to {self.source.name}")
        acc = {}
        for w, c in elem.terms.items():
            for tw, tc in self.word(w).terms.items():
                acc[tw] = acc[tw] + tc * c if tw in acc else tc * c
        return AlgElement(self.target, acc)


# -- tensor products ----------------------------------------------------------

@lru_cache(maxsize=None)
def tensor_product(*factors) -> PresentedAlgebra:
    """The tensor product algebra; it reduces factor by factor.

    Generators are the factors' generators laid out block by block, left
    factors first, and a normal word is the join of one normal word per
    factor.  The product has no rules of its own: normal_form_word reduces
    each factor's subword in that factor.
    """
    if not factors:
        raise ValueError("tensor product needs at least one factor")
    order = factors[0].order
    for f in factors:
        if f.order != order:
            raise ValueError("tensor factors must share a cyclotomic order")
    gens = [f"{g}@{k}" for k, f in enumerate(factors) for g in f.generators]
    name = " ⊗ ".join(f.name for f in factors)
    return PresentedAlgebra(name, gens, order, (), tensor_factors=tuple(factors))


def embed(elem: AlgElement, product: PresentedAlgebra, factor: int) -> AlgElement:
    """Include an element of one tensor factor into the product algebra."""
    factors = product.tensor_factors
    if factors is None or elem.algebra is not factors[factor]:
        raise ValueError("element is not from the requested tensor factor")
    before, after = ((),) * factor, ((),) * (len(factors) - factor - 1)
    return AlgElement(product, {product.join(*before, w, *after): c for w, c in elem.terms.items()})


# -- confluence ---------------------------------------------------------------


ConfluenceFailure = namedtuple("ConfluenceFailure", "word first second difference")


class ConfluenceReport(namedtuple("ConfluenceReport", "algebra failures ambiguities_checked",
                                  defaults=(0,))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.ok:
            return (
                f"{self.algebra}: confluent "
                f"({self.ambiguities_checked} ambiguities resolve)"
            )
        lines = [f"{self.algebra}: {len(self.failures)} unresolved ambiguities"]
        for f in self.failures:
            lines.append(
                f"  word {f.word}: reductions disagree by {f.difference}"
            )
        return "\n".join(lines)


def _one_step(word, pos, rule):
    tail = pos + len(rule.lhs)
    return [(word[:pos] + rw + word[tail:], rc) for rw, rc in rule.rhs]


def check_confluence(alg: PresentedAlgebra) -> ConfluenceReport:
    """Resolve every overlap and inclusion ambiguity by double reduction."""
    failures = []
    seen = set()

    def probe(word, apply1, apply2):
        if (word, apply1, apply2) in seen:
            return
        seen.add((word, apply1, apply2))
        nf = []
        for pos, rule in (apply1, apply2):
            acc = alg.zero()
            for w, c in _one_step(word, pos, rule):
                acc = acc + alg.normal_form_word(w) * c
            nf.append(acc)
        if nf[0] != nf[1]:
            failures.append(
                ConfluenceFailure(
                    word,
                    (apply1[0], apply1[1].lhs),
                    (apply2[0], apply2[1].lhs),
                    str(nf[0] - nf[1]),
                )
            )

    rules = alg.rules
    for r1 in rules:
        for r2 in rules:
            l1, l2 = r1.lhs, r2.lhs
            # proper overlaps: a suffix of l1 is a prefix of l2
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k :] == l2[:k]:
                    word = l1 + l2[k:]
                    probe(word, (0, r1), (len(l1) - k, r2))
            # inclusions: l2 occurs inside l1
            if len(l2) < len(l1):
                for pos in range(len(l1) - len(l2) + 1):
                    if l1[pos : pos + len(l2)] == l2:
                        probe(l1, (0, r1), (pos, r2))
            # distinct rules with identical left sides
            if r1 is not r2 and l1 == l2:
                probe(l1, (0, r1), (0, r2))
    return ConfluenceReport(alg.name, tuple(failures), len(seen))
