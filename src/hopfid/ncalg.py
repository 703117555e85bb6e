"""Noncommutative algebras presented by confluent rewriting rules.

A PresentedAlgebra owns a generator list, a cyclotomic order for its
coefficient polynomials, and a set of oriented rewrite rules.  Words are
tuples of generator indices; the term order is degree-then-lexicographic in
the generator order, and every rule must strictly decrease it, which makes
reduction terminate.  Confluence is *checked*, not completed: the rule sets
shipped here are supplied in already-confluent form and check_confluence
verifies all overlap ambiguities by double reduction.  Its CheckReport is
the one report type of every check suite.

A word is reduced by generator actions, right to left: act(g, v) is the
normal form of g·v for a generator g and a normal word v.  Every factor of
a normal word is normal (Bergman's diamond lemma), so a redex of g·v can
only start at position 0: act is g·v itself or one rule starting with g
applied there (find_redex is left to the checks), after which each
right-hand word's letters act on the normal rest.  act is memoised per
algebra, with at most #generators × dim entries.  A tensor product has no
rules of its own: its word is the tuple of one word per factor, and it
reduces factor by factor, each factor through its own cached normal forms.
Its normal words are the tuples of the factors' normal words (Bergman's
diamond lemma), ordered like the factors' words laid out block by block.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import lru_cache

from .commpoly import CommPoly
from .cyclotomic import join_signed, power

__all__ = [
    "RewriteRule",
    "PresentedAlgebra",
    "AlgElement",
    "Morphism",
    "tensor_product",
    "check_confluence",
    "CheckReport",
]

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
        self.empty_word = () if tensor_factors is None else ((),) * len(tensor_factors)
        self._gen_index = {g: i for i, g in enumerate(self.generators)}
        if len(self._gen_index) != len(self.generators):
            raise ValueError("generator names must be distinct")
        self._rules_by_first = {}
        for r in self.rules:
            self._rules_by_first.setdefault(r.lhs[0], []).append(r)
        self._nf_cache = {}
        self._acts = [{} for _ in self.generators] if self.rules else ()  # see _act
        self._basis_cache = None
        self._one_poly = CommPoly.one(order)

    # -- construction helpers ------------------------------------------------

    def gen_index(self, name) -> int:
        try:
            return self._gen_index[name]
        except KeyError:
            raise ValueError(f"{self.name} has no generator {name!r}") from None

    def coerce_poly(self, value) -> CommPoly:
        """value as a coefficient: CommPoly's coercion, which refuses another
        cyclotomic order; a type it cannot read is refused here."""
        poly = self._one_poly._coerce(value)
        if poly is None:
            raise ValueError(f"cannot use {value!r} as a coefficient")
        return poly

    def zero(self) -> AlgElement:
        return AlgElement(self, {})

    def one(self) -> AlgElement:
        return AlgElement(self, {self.empty_word: self._one_poly})

    def gen(self, name) -> AlgElement:
        i = self.gen_index(name)
        if self.tensor_factors is not None:  # "g@k" is generator g of factor k
            g, k = name.rsplit("@", 1)
            return embed(self.tensor_factors[int(k)].gen(g), self, int(k))
        return AlgElement(self, {(i,): self._one_poly})

    def word_key(self, word):
        """The term order: length, then the letters in order.  A tensor word's
        letters are its (factor, letter) pairs, which orders tensor words like
        their factors' words laid out block by block."""
        if self.tensor_factors is None:
            return deglex_key(word)
        return sum(map(len, word)), [(k, g) for k, part in enumerate(word) for g in part]

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
        is cached per word.  A tensor product reduces factor by factor (see
        _reduce_parts) and keeps nothing of its own.  A free algebra's word
        is its own normal form."""
        word = tuple(word)
        one = self._one_poly
        if self.tensor_factors is not None:  # no rules: nothing is left to rewrite
            return _raw(self, self._reduce_parts(word))
        if not self.rules:  # a free algebra: every word is normal
            return _raw(self, {word: one})
        hit = self._nf_cache.get(word)
        if hit is None:
            hit = self._nf_cache[word] = _raw(self, self._fold(word, {(): one}))
        return hit

    def mul_words(self, w1, w2):
        """The normal form of w1·w2, for normal words w1 and w2, as a terms dict.

        No caller may change the dict.  In a tensor product each factor
        reduces the concatenation of its two parts.
        """
        if self.tensor_factors is None:
            return self.normal_form_word(w1 + w2).terms
        return self._reduce_parts(map(tuple.__add__, w1, w2))

    def _reduce_parts(self, parts):
        """The normal form of the tensor word with these factor parts, as a terms dict.

        Each part is reduced in its factor, and each normal word of the next
        factor is appended to every partial word.  Distinct factor words make
        distinct tuples, and coefficients are nonzero, so nothing is summed.
        """
        one, out = self._one_poly, {(): self._one_poly}
        for factor, part in zip(self.tensor_factors, parts):
            terms = factor.normal_form_word(part).terms
            out = {w + (fw,): c if fc is one else fc if c is one else c * fc
                   for w, c in out.items() for fw, fc in terms.items()}
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
        so holds none; so only the rules whose left side starts with g are
        tried, each against the start of g·v, in find_redex's order.  If
        none matches, g·v is normal and its coefficient is _one_poly itself.
        Otherwise the rule is applied there, and each right-hand word acts on
        the rest of v, a suffix of a normal word and so normal.  The results
        are kept in _acts[g][v]: at most #generators × dim entries.
        """
        table = self._acts[g]
        hit = table.get(v)
        if hit is None:
            word = (g,) + v
            for rule in self._rules_by_first.get(g, ()):
                if word[: len(rule.lhs)] == rule.lhs:
                    rest = {v[len(rule.lhs) - 1 :]: self._one_poly}
                    hit = {}
                    for rw, rc in rule.rhs:
                        _add_scaled(hit, self._fold(rw, rest), rc, self._one_poly)
                    break
            else:
                hit = {word: self._one_poly}
            table[v] = hit
        return hit

    # -- basis enumeration ---------------------------------------------------

    def basis(self):
        """All normal words in word_key order; errors out past MAX_BASIS_WORDS."""
        if self._basis_cache is not None:
            return self._basis_cache
        out = [()]
        level = [()]
        if self.tensor_factors is not None:
            out = sorted(itertools.islice(itertools.product(*(f.basis() for f in self.tensor_factors)),
                                          MAX_BASIS_WORDS + 1), key=self.word_key)
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
            return "⊗".join(f.render_word(sub) for f, sub in zip(self.tensor_factors, word))
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
        poly = self.algebra._one_poly._coerce(other)
        if poly is None:
            return NotImplemented
        return self + self.algebra.one() * poly

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return self + (-other)
        poly = self.algebra._one_poly._coerce(other)
        if poly is None:
            return NotImplemented
        return self - self.algebra.one() * poly

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
        poly = alg._one_poly._coerce(other)
        if poly is None:
            return NotImplemented
        if not poly.terms:
            return alg.zero()
        if poly is alg._one_poly:  # elements are values: no caller changes their terms
            return self
        return _raw(alg, {w: c * poly for w, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything here
        poly = self.algebra._one_poly._coerce(other)
        if poly is None:
            return NotImplemented
        return self * poly

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return self.power(k)

    def power(self, m, mul=operator.mul) -> AlgElement:
        """self^m, each product formed by mul, which may raise to refuse the power.

        For self = u + v with vu = λ·uv and λ of order d, 2 <= d <= m, the
        q-binomial theorem gives (u+v)^d = u^d + v^d, since every middle
        coefficient [d,k]_λ vanishes (Kassel, Quantum Groups, ch. IV), so
        self^m = (u^d + v^d)^(m//d) · self^(m mod d), and the cancelling middle
        terms of self^d are never formed.  u^d and v^d commute, so the outer
        power takes repeated squaring; so does every other base.
        """
        d = _commutation_order(self, m)
        if d is None:
            return power(self, m, self.algebra.one(), mul)
        u, v = (_raw(self.algebra, {w: c}) for w, c in self.terms.items())
        k, r = divmod(m, d)
        value = (u.power(d, mul) + v.power(d, mul)).power(k, mul)
        if r:  # r < d, so self^r takes repeated squaring
            value = mul(value, power(self, r, self.algebra.one(), mul))
        return value

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(self.algebra.word_key(w)[0] for w in self.terms)

    def coefficient(self, word) -> CommPoly:
        word = tuple(
            self.algebra.gen_index(g) if isinstance(g, str) else g for g in word
        )
        return self.terms.get(word, CommPoly.zero(self.algebra.order))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda p: self.algebra.word_key(p[0]))

    def __eq__(self, other):
        if isinstance(other, AlgElement):
            return self.algebra is other.algebra and self.terms == other.terms
        poly = self.algebra._one_poly._coerce(other)
        if poly is None:
            return NotImplemented
        return self.terms == (self.algebra.one() * poly).terms

    def __str__(self):
        rendered = []
        for w, c in self.sorted_terms():
            word = self.algebra.render_word(w)
            single = len(c.terms) == 1
            if w == self.algebra.empty_word:
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


def _commutation_order(base: AlgElement, m: int):
    """The order d of λ if base = u + v with vu = λ·uv and 2 <= d <= m, else None.

    The coefficients of u and v commute with everything, so λ depends on
    their words alone.  When the normal forms of w_u·w_v and w_v·w_u are α·w
    and β·w for one word w and constants α, β, then λ = β/α, and d is the
    least d >= 1 with β^d = α^d, which needs no inverse.  A root of unity in
    Q(ζ_N) has an order dividing lcm(2, N), so no d past 2N is tried.
    """
    if len(base.terms) != 2 or m < 2:
        return None
    alg, (wu, wv) = base.algebra, base.terms
    uv, vu = alg.mul_words(wu, wv), alg.mul_words(wv, wu)
    if len(uv) != 1 or uv.keys() != vu.keys():  # also uv = 0 or vu = 0
        return None
    [alpha], [beta] = uv.values(), vu.values()
    if not (alpha.is_constant() and beta.is_constant()):
        return None
    alpha, beta = alpha.constant_value(), beta.constant_value()
    a, b = alpha, beta
    for d in range(1, min(m, 2 * alg.order) + 1):
        if a == b:
            return d if d >= 2 else None
        a, b = a * alpha, b * beta
    return None


class Morphism:
    """An algebra map, or antihomomorphism if anti, fixed on generators.

    image is a function of the generator index (pass tuple(seq).__getitem__
    for images listed in order); each generator image is computed at most
    once.  word(w) multiplies generator images left to right (right to
    left when anti) and keeps the result for w alone; it starts from the
    image of w less its last letter (first when anti) if that word was
    asked for before, as happens when callers walk a basis in order, and
    from its first generator image otherwise, so it forms no product by one.
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
            base = self._words.get(word[1:] if self.anti else word[:-1]) if len(word) > 1 else None
            hit, rest = (self.generator(letters[0]), letters[1:]) if base is None else (base, letters[-1:])
            for g in rest:
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
        acc, one = {}, self.target._one_poly
        for w, c in elem.terms.items():
            _add_scaled(acc, self.word(w).terms, c, one)
        return _raw(self.target, acc)


# -- tensor products ----------------------------------------------------------

@lru_cache(maxsize=None)
def tensor_product(*factors) -> PresentedAlgebra:
    """The tensor product algebra; it reduces factor by factor.

    Generators are the factors' generators, left factors first, generator g
    of factor k named "g@k"; a word is a tuple of one word per factor.  The
    product has no rules of its own: normal_form_word reduces each factor's
    word in that factor.
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
    return AlgElement(product, {before + (w,) + after: c for w, c in elem.terms.items()})


# -- check reports and confluence --------------------------------------------


class CheckReport(namedtuple("CheckReport", "name failures passed noun")):
    """The failures of one suite of checks on name, each a rendered line.

    str is "<name>: <passed>" when there are none, else "<name>: N <noun>"
    and one indented line per failure."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.ok:
            return f"{self.name}: {self.passed}"
        return "\n".join([f"{self.name}: {len(self.failures)} {self.noun}"]
                         + [f"  {f}" for f in self.failures])


def check_confluence(alg: PresentedAlgebra) -> CheckReport:
    """Resolve every overlap and inclusion ambiguity by double reduction.

    A failure reads "word <w>: reductions disagree by <difference>"."""
    failures = []
    seen = set()

    def probe(word, apply1, apply2):
        if (word, apply1, apply2) in seen:
            return
        seen.add((word, apply1, apply2))
        # one rule applied at pos, then the normal form of each resulting word
        nf = [sum((alg.normal_form_word(word[:pos] + rw + word[pos + len(rule.lhs):]) * c
                   for rw, c in rule.rhs), alg.zero()) for pos, rule in (apply1, apply2)]
        if nf[0] != nf[1]:
            failures.append(f"word {word}: reductions disagree by {nf[0] - nf[1]}")

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
    return CheckReport(alg.name, tuple(failures), f"confluent ({len(seen)} ambiguities resolve)",
                       "unresolved ambiguities")
