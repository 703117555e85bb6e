"""Pointed Hopf algebra presentations: the Taft family and the E(n) family.

A HopfPresentation couples a finite dimensional PresentedAlgebra with the
three structure maps given on generators, each an ncalg Morphism: the
coproduct (into the tensor square), the counit (into the ground algebra, which
has no generators) and the antipode (an antihomomorphism of the algebra).
check_hopf_axioms proves the axioms from the relations and the generators;
check_coaction_laws serves it and the comodule algebras alike.

Both families are defined once.  family_relations gives the rules on x,
y1..yk for parameters a, c, d; H is the case a = 1, c = d = 0 and its Galois
objects (comodule.py) are the others.  coaction_images gives x -> x⊗x,
yi -> 1⊗yi + yi⊗x, the coproduct on generators and every object's coaction.
"""

from __future__ import annotations

import bisect
from functools import lru_cache

from .commpoly import CommPoly
from .cyclotomic import CyclotomicNumber, primitive_root
from .ncalg import (
    MAX_BASIS_WORDS,
    AlgElement,
    CheckReport,
    Morphism,
    PresentedAlgebra,
    RewriteRule,
    tensor_product,
)

__all__ = [
    "HopfPresentation",
    "family_relations",
    "coaction_images",
    "taft",
    "en",
    "trivial_hopf",
    "family_hopf",
    "coproduct",
    "counit",
    "antipode",
    "qbinom",
    "check_hopf_axioms",
    "check_coaction_laws",
    "relation_failures",
    "CheckReport",
]


class HopfPresentation:
    """A Hopf algebra given by a presentation and structure maps on generators."""

    def __init__(self, name, family, n, algebra, coproduct_on_generators,
                 counit_on_generators, antipode_on_generators, q):
        self.name = name
        self.family = family
        self.n = n
        self.algebra = algebra
        self.q = q
        self.square = tensor_product(algebra, algebra)
        co, s = tuple(coproduct_on_generators), tuple(antipode_on_generators)
        self.coproduct_map = Morphism(algebra, self.square, co.__getitem__)
        self.counit_on_generators = tuple(counit_on_generators)
        ground = PresentedAlgebra("k", (), algebra.order)
        eps = tuple(ground.one() * c for c in self.counit_on_generators)
        self.counit_map = Morphism(algebra, ground, eps.__getitem__)
        self.antipode_map = Morphism(algebra, algebra, s.__getitem__, anti=True)
        algebra.hopf = self

    def basis(self):
        return self.algebra.basis()

    def basis_index(self, word):
        """The position of word in basis(), found by bisection in the term order."""
        word, basis, key = tuple(word), self.basis(), self.algebra.word_key
        r = bisect.bisect_left(basis, key(word), key=key)
        if r < len(basis) and basis[r] == word:
            return r
        raise ValueError(f"{self.algebra.render_word(word)} is not a basis word of {self.name}")

    def coproduct_word(self, word) -> AlgElement:
        return self.coproduct_map.word(word)

    def counit_word(self, word) -> CyclotomicNumber:
        return self.counit_map.word(word).coefficient(()).constant_value()

    def antipode_word(self, word) -> AlgElement:
        # the antipode reverses products: S(gh) = S(h)S(g)
        return self.antipode_map.word(word)

    def __repr__(self):
        return f"HopfPresentation({self.name})"


def coproduct(H: HopfPresentation, e: AlgElement) -> AlgElement:
    """The coproduct, extended multiplicatively to any element."""
    return H.coproduct_map(e)


def counit(H: HopfPresentation, e: AlgElement) -> CyclotomicNumber:
    return H.counit_map(e).coefficient(()).constant_value()


def antipode(H: HopfPresentation, e: AlgElement) -> AlgElement:
    return H.antipode_map(e)


def family_relations(order, a, c, d) -> tuple:
    """The rules on x, y1..yk of a family algebra with parameters a, c, d.

    With N = order and q = primitive_root(order): x^N -> a, then for each i
    yi x -> q x yi, yi^N -> ci and, for j < i, yi yj -> -yj yi + d[(j, i)].
    a and the k entries of c are CommPolys; d maps pairs (j, i) to CommPolys
    and may omit zeros.  The Hopf algebra itself is a = 1, c = d = 0.
    """
    q = CommPoly.constant(primitive_root(order))
    minus = CommPoly.scalar(order, -1)

    def const(p):
        return [((), p)] if p is not None and not p.is_zero() else []

    rules = [RewriteRule((0,) * order, const(a))]
    for i, ci in enumerate(c, start=1):
        rules.append(RewriteRule((i, 0), [((0, i), q)]))
        rules.append(RewriteRule((i,) * order, const(ci)))
        for j in range(1, i):
            rules.append(RewriteRule((i, j), [((j, i), minus)] + const(d.get((j, i)))))
    return tuple(rules)


def coaction_images(tensor) -> tuple:
    """x -> x⊗x and yi -> 1⊗yi + yi⊗x in M ⊗ H, for M laid out like H.

    Generator 0 of both factors is x, the others y1..yk.  With M = H these
    are the coproduct on generators; with M a family object, its coaction.
    """
    one = CommPoly.one(tensor.order)
    return (AlgElement(tensor, {((0,), (0,)): one}),) + tuple(
        AlgElement(tensor, {((), (i,)): one, ((i,), (0,)): one})
        for i in range(1, len(tensor.tensor_factors[0].generators))
    )


def _build_family(family, n, order, names) -> HopfPresentation:
    """The family's Hopf algebra on generators x, y1..yk.

    Its relations are family_relations at a = 1, c = d = 0; eps(x) = 1,
    eps(yi) = 0, S(x) = x^(N-1) and S(yi) = -q^-1 x^(N-1) yi, N = order.
    """
    k = len(names) - 1
    rules = family_relations(order, CommPoly.one(order), [CommPoly.zero(order)] * k, {})
    alg = PresentedAlgebra(f"{family}:{n}", names, order, rules)
    q = primitive_root(order)
    xs = (0,) * (order - 1)
    anti = [alg.element({xs: 1})]
    anti += [alg.element({xs + (i,): -q.inverse()}) for i in range(1, k + 1)]
    eps = [CyclotomicNumber.one(order)] + [CyclotomicNumber.zero(order)] * k
    cop = coaction_images(tensor_product(alg, alg))
    return HopfPresentation(alg.name, family, n, alg, cop, eps, anti, q)


@lru_cache(maxsize=None)
def taft(n: int) -> HopfPresentation:
    """The n^2-dimensional Taft algebra over Q(zeta_n); n = 2 is Sweedler's.

    Generators x (grouplike) and y (skew primitive) with x^n = 1, yx = q xy,
    y^n = 0, where q is the canonical primitive n-th root of unity.
    """
    if n < 2:
        raise ValueError("the Taft family needs n >= 2")
    return _build_family("taft", n, n, ("x", "y"))


@lru_cache(maxsize=None)
def en(n: int) -> HopfPresentation:
    """The 2^(n+1)-dimensional Hopf algebra E(n) over Q; E(1) is Sweedler's.

    Generators x, y1..yn with x^2 = 1, yi^2 = 0, yi x = -x yi and
    yi yj = -yj yi; each yi is skew primitive over the grouplike x.
    """
    if n < 1:
        raise ValueError("the E(n) family needs n >= 1")
    return _build_family("en", n, 2, ("x",) + tuple(f"y{i}" for i in range(1, n + 1)))


def family_hopf(family, n) -> HopfPresentation:
    """The Hopf algebra of a family by its name: taft(n) or en(n).

    A size whose basis would pass MAX_BASIS_WORDS words is refused with a
    ValueError, judged from n alone.  The dimension is written out up to
    2^64 and as a power past it, so a large n forms no large number.
    """
    if family not in ("taft", "en"):
        raise ValueError(f"unknown family {family!r}")
    if family == "taft" and n > 1 and n * n > MAX_BASIS_WORDS:  # taft(n) refuses n < 2
        dim = n * n if n < 1 << 32 else f"{n}^2"
    elif family == "en" and n + 1 >= MAX_BASIS_WORDS.bit_length():  # 2^(n+1) > MAX_BASIS_WORDS
        dim = 2 ** (n + 1) if n < 64 else f"2^{n + 1}"
    else:
        return taft(n) if family == "taft" else en(n)
    raise ValueError(f"{family}:{n} has dimension {dim}, past the {MAX_BASIS_WORDS}-word bound")


@lru_cache(maxsize=None)
def trivial_hopf() -> HopfPresentation:
    """The ground field Q viewed as a Hopf algebra (no generators)."""
    alg = PresentedAlgebra("k", (), 1, ())
    return HopfPresentation(
        "k", "trivial", 0, alg, (), (), (), CyclotomicNumber.one(1)
    )


@lru_cache(maxsize=None)
def qbinom(m: int, k: int, q: CyclotomicNumber) -> CyclotomicNumber:
    """Gaussian binomial coefficient by the q-Pascal recurrence.

    [m, k]_q = [m-1, k-1]_q + q^k [m-1, k]_q with [0, 0]_q = 1.
    """
    if k < 0 or k > m:
        return CyclotomicNumber.zero(q.order)
    if k == 0 or k == m:
        return CyclotomicNumber.one(q.order)
    return qbinom(m - 1, k - 1, q) + q**k * qbinom(m - 1, k, q)


def relation_failures(name, f: Morphism) -> list:
    """A line "<name> incompatible with relation <lhs>" per rule f breaks."""
    return [f"{name} incompatible with relation {f.source.render_word(rule.lhs)}"
            for rule in f.broken_relations()]


def check_coaction_laws(
    H: HopfPresentation, tensor, coaction_word, coassociativity, counit_law
) -> list:
    """Coassociativity and the counit law of a right coaction, on generators.

    tensor is M tensor H for an algebra M, and coaction_word maps each word
    of M into it; H coacting on itself by its coproduct is one instance.
    H's coproduct and counit are checked against H's relations here, the
    coaction against M's by the caller.  Once all three respect them they
    are algebra maps, so both sides of each law are algebra maps out of M,
    and two algebra maps that agree on generators agree everywhere
    (Sweedler, Hopf Algebras, 1969).  Failures read coassociativity or
    counit_law followed by " fails on" and the generator.
    """
    alg = tensor.tensor_factors[0]
    triple = tensor_product(alg, H.algebra, H.algebra)
    failures = relation_failures("coproduct", H.coproduct_map)
    failures += relation_failures("counit", H.counit_map)
    for i, name in enumerate(alg.generators):
        lhs_acc: dict = {}
        rhs_acc: dict = {}
        counit_acc = alg.zero()
        for w, c in coaction_word((i,)).terms.items():
            wm, wh = w
            for w2, c2 in coaction_word(wm).terms.items():
                key = w2 + (wh,)
                lhs_acc[key] = lhs_acc.get(key, 0) + c * c2
            for w2, c2 in H.coproduct_word(wh).terms.items():
                key = (wm,) + w2
                rhs_acc[key] = rhs_acc.get(key, 0) + c * c2
            counit_acc = counit_acc + alg.element({wm: c * H.counit_word(wh)})
        if AlgElement(triple, lhs_acc) != AlgElement(triple, rhs_acc):
            failures.append(f"{coassociativity} fails on {name}")
        if counit_acc != alg.element({(i,): 1}):
            failures.append(f"{counit_law} fails on {name}")
    return failures


def check_hopf_axioms(H: HopfPresentation) -> CheckReport:
    """Coassociativity, both counit laws and both antipode laws, proved from
    the relations and the generators.

    check_coaction_laws, with the coproduct as the coaction, checks the
    coproduct and the counit against the relations and then coassociativity
    and the right counit law on generators.  Once the antipode respects the
    relations too, it is an antihomomorphism, and the h with S(h1)h2 =
    eps(h)1 form a subalgebra, since S(g1)S(h1)h2g2 = eps(h)eps(g); likewise
    for h1S(h2).  So these laws, and the left counit law, whose sides are
    algebra maps, hold once they hold on generators.
    """
    alg = H.algebra
    failures = check_coaction_laws(
        H, H.square, H.coproduct_word, "coassociativity", "right counit law"
    )

    for i, name in enumerate(alg.generators):
        left = alg.zero()
        s_left = alg.zero()
        s_right = alg.zero()
        for (u, v), c in H.coproduct_word((i,)).terms.items():
            left = left + alg.element({v: c * H.counit_word(u)})
            s_left = s_left + (H.antipode_word(u) * alg.element({v: 1})) * c
            s_right = s_right + (alg.element({u: 1}) * H.antipode_word(v)) * c
        if left != alg.element({(i,): 1}):
            failures.append(f"left counit law fails on {name}")
        eps_g = alg.one() * H.counit_word((i,))
        if s_left != eps_g:
            failures.append(f"antipode law m(S x id)Delta fails on {name}")
        if s_right != eps_g:
            failures.append(f"antipode law m(id x S)Delta fails on {name}")

    failures += relation_failures("antipode", H.antipode_map)
    return CheckReport(H.name, tuple(failures), "all Hopf axioms proved on generators",
                       "axiom failures")
