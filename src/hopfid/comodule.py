"""Comodule algebras with trivial coinvariants over the shipped Hopf families.

A GaloisObjectSpec records the family, the size n, and the structure
parameters, each either an exact cyclotomic number or symbolic (optionally
primed, so two symbolic objects can coexist in one computation).  The Taft
family object has relations x^n = a, yx = q xy, y^n = c; the E(n) family
object has u^2 = a, ui^2 = ci, ui u = -u ui, ui uj + uj ui = dij.  The
coaction is an ncalg Morphism declared on generators by the same formulas as
the coproduct; the section u maps the Hopf basis word-for-word onto the
object's normal words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .commpoly import CommPoly, ParamVar
from .cyclotomic import CyclotomicNumber
from .hopf import HopfPresentation, check_coaction_laws, en, taft
from .linalg import kernel_basis, rank
from .ncalg import AlgElement, Morphism, PresentedAlgebra, RewriteRule, tensor_product

__all__ = [
    "Symbolic",
    "GaloisObjectSpec",
    "taft_object_spec",
    "en_object_spec",
    "ComoduleAlgebra",
    "galois_object",
    "coaction",
    "coinvariants",
    "galois_map_bijective",
    "check_comodule",
    "ComoduleReport",
]


@dataclass(frozen=True)
class Symbolic:
    """Marks a parameter left as a free variable; prime distinguishes copies."""

    prime: int = 0


@dataclass(frozen=True)
class GaloisObjectSpec:
    family: str
    n: int
    values: tuple  # sorted (key, CyclotomicNumber | Symbolic) pairs

    def value(self, key):
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)

    def keys(self):
        return [k for k, _ in self.values]

    def is_numeric(self) -> bool:
        return not any(isinstance(v, Symbolic) for _, v in self.values)

    def hopf(self) -> HopfPresentation:
        if self.family == "taft":
            return taft(self.n)
        if self.family == "en":
            return en(self.n)
        raise ValueError(f"unknown family {self.family!r}")

    def render(self) -> str:
        parts = [f"{self.family}:{self.n}"]
        for k, v in self.values:
            if isinstance(v, Symbolic):
                parts.append(f"{k}=sym" + "'" * v.prime)
            else:
                parts.append(f"{k}={v}")
        return ";".join(parts)

    def __str__(self):
        return self.render()


def _coerce_value(order, v):
    if isinstance(v, Symbolic):
        return v
    if isinstance(v, CyclotomicNumber):
        if v.order != order:
            raise ValueError(f"parameter has cyclotomic order {v.order}, need {order}")
        return v
    if isinstance(v, (int, Fraction)):
        return CyclotomicNumber.from_rational(order, v)
    raise ValueError(f"cannot use {v!r} as a parameter value")


def taft_object_spec(n, a=Symbolic(), c=Symbolic()) -> GaloisObjectSpec:
    a = _coerce_value(n, a)
    c = _coerce_value(n, c)
    if isinstance(a, CyclotomicNumber) and a.is_zero():
        raise ValueError("the parameter a must be invertible (nonzero)")
    return GaloisObjectSpec("taft", n, (("a", a), ("c", c)))

def en_object_spec(n, a=Symbolic(), c=None, d=None) -> GaloisObjectSpec:
    """Spec for the E(n) family object; d maps pairs (i, j) with i < j.

    The diagonal slots are not free parameters: the defining relation at
    i = j reads 2 ui^2 = d_ii, so d_ii = 2 ci is derived and rejected here.
    """
    a = _coerce_value(2, a)
    if isinstance(a, CyclotomicNumber) and a.is_zero():
        raise ValueError("the parameter a must be invertible (nonzero)")
    if c is None:
        c = [Symbolic()] * n
    if isinstance(c, dict):
        c = [c.get(i, Symbolic()) for i in range(1, n + 1)]
    c = [_coerce_value(2, v) for v in c]
    if len(c) != n:
        raise ValueError(f"need exactly {n} values for c1..c{n}")
    d = dict(d or {})
    values = [("a", a)]
    for i, v in enumerate(c, start=1):
        values.append((f"c{i}", v))
    for (i, j), v in sorted(d.items()):
        if not 1 <= i < j <= n:
            raise ValueError(
                f"d indices must satisfy 1 <= i < j <= n; d[{i},{j}] is "
                "derived or out of range"
            )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            values.append((f"d{i},{j}", _coerce_value(2, d.get((i, j), Symbolic()))))
    return GaloisObjectSpec("en", n, tuple(values))


def _param_poly(order, tag, indices, value) -> CommPoly:
    if isinstance(value, Symbolic):
        return CommPoly.variable(order, ParamVar(tag, indices, value.prime))
    return CommPoly.constant(value)


class ComoduleAlgebra:
    """A right comodule algebra A with coaction valued in A tensor H."""

    def __init__(self, spec: GaloisObjectSpec):
        self.spec = spec
        self.hopf = spec.hopf()
        H = self.hopf
        order = H.algebra.order
        self.name = f"A({spec.render()})"
        if spec.family == "taft":
            n = spec.n
            a_poly = _param_poly(order, "a", (), spec.value("a"))
            c_poly = _param_poly(order, "c", (), spec.value("c"))
            qp = CommPoly.constant(H.q)
            rules = (
                RewriteRule((0,) * n, [((), a_poly)]),
                RewriteRule((1, 0), [((0, 1), qp)]),
                RewriteRule((1,) * n, [((), c_poly)] if not c_poly.is_zero() else []),
            )
            alg = PresentedAlgebra(self.name, ("x", "y"), order, rules)
        else:
            n = spec.n
            a_poly = _param_poly(order, "a", (), spec.value("a"))
            minus = CommPoly.scalar(order, -1)
            names = ["u"] + [f"u{i}" for i in range(1, n + 1)]
            rules = [RewriteRule((0, 0), [((), a_poly)])]
            for i in range(1, n + 1):
                ci = _param_poly(order, "c", (i,), spec.value(f"c{i}"))
                rules.append(RewriteRule((i, 0), [((0, i), minus)]))
                rules.append(
                    RewriteRule((i, i), [((), ci)] if not ci.is_zero() else [])
                )
                for j in range(1, i):
                    dji = _param_poly(order, "d", (j, i), spec.value(f"d{j},{i}"))
                    rhs = [((j, i), minus)]
                    if not dji.is_zero():
                        rhs.append(((), dji))
                    rules.append(RewriteRule((i, j), rhs))
            alg = PresentedAlgebra(self.name, names, order, rules)
        self.algebra = alg
        # lets element parsing resolve t[i,h] labels against the Hopf basis
        alg.comodule_hopf = H
        self.tensor = tensor_product(alg, H.algebra)
        ng = len(alg.generators)
        one = CommPoly.one(order)
        # same formulas as the coproduct: x -> x(x)x, y -> 1(x)y + y(x)x,
        # and each ui of the E(n) family as y
        co = [AlgElement(self.tensor, {(0, ng): one})]
        for i in range(1, ng):
            co.append(AlgElement(self.tensor, {(ng + i,): one, (i, ng): one}))
        self.coaction_map = Morphism(alg, self.tensor, tuple(co).__getitem__)
        # the section: Hopf basis words map one-for-one onto object words
        self.section = {}
        for w in H.basis():
            if not alg.is_normal(w):
                raise ValueError(f"section image {w} is not normal in {self.name}")
            self.section[w] = w
        # identities.mu keeps its map from the free algebra T(X_H) here
        self.mu_map = None

    def param_poly(self, key) -> CommPoly:
        order = self.algebra.order
        value = self.spec.value(key)
        if key == "a":
            return _param_poly(order, "a", (), value)
        if key == "c":
            return _param_poly(order, "c", (), value)
        if key.startswith("c"):
            return _param_poly(order, "c", (int(key[1:]),), value)
        i, j = key[1:].split(",")
        return _param_poly(order, "d", (int(i), int(j)), value)

    def section_element(self, h: AlgElement) -> AlgElement:
        """Apply the section u to any element of the Hopf algebra linearly."""
        if h.algebra is not self.hopf.algebra:
            raise ValueError("section argument must be a Hopf algebra element")
        return AlgElement(self.algebra, {self.section[w]: c for w, c in h.terms.items()})

    def coaction_word(self, word) -> AlgElement:
        return self.coaction_map.word(word)

    def __repr__(self):
        return f"ComoduleAlgebra({self.name})"


@lru_cache(maxsize=None)
def galois_object(spec: GaloisObjectSpec) -> ComoduleAlgebra:
    return ComoduleAlgebra(spec)


def coaction(A: ComoduleAlgebra, e: AlgElement) -> AlgElement:
    """The coaction delta: A -> A tensor H, extended multiplicatively."""
    return A.coaction_map(e)


def _require_numeric(A: ComoduleAlgebra, what: str):
    if not A.spec.is_numeric():
        symbolic = [
            k for k, v in A.spec.values if isinstance(v, Symbolic)
        ]
        raise ValueError(
            f"{what} needs numeric parameters; symbolic: {', '.join(symbolic)}"
        )


def _const(c: CommPoly) -> CyclotomicNumber:
    return c.constant_value()


def coinvariants(A: ComoduleAlgebra):
    """A basis of the coinvariant subalgebra, by exact linear algebra.

    Solves delta(v) = v tensor 1 over the object's basis; needs numeric
    parameters.  For a Galois object the result is the span of 1.
    """
    _require_numeric(A, "coinvariant computation")
    order = A.algebra.order
    basis = A.algebra.basis()
    columns = []
    row_index = {}
    for w in basis:
        col = {tw: _const(c) for tw, c in A.coaction_word(w).terms.items()}
        # subtract w tensor 1 (the object word embeds with unchanged indices)
        col[w] = col.get(w, CyclotomicNumber.zero(order)) - CyclotomicNumber.one(order)
        for tw in col:
            row_index.setdefault(tw, len(row_index))
        columns.append(col)
    zero = CyclotomicNumber.zero(order)
    rows = [[zero] * len(basis) for _ in range(len(row_index))]
    for j, col in enumerate(columns):
        for tw, val in col.items():
            rows[row_index[tw]][j] = val
    vectors = kernel_basis(rows, len(basis), order)
    out = []
    for vec in vectors:
        terms = {
            basis[j]: CommPoly.constant(v)
            for j, v in enumerate(vec)
            if not v.is_zero()
        }
        out.append(AlgElement(A.algebra, terms))
    return out


def galois_map_bijective(A: ComoduleAlgebra) -> bool:
    """Whether beta(a tensor a') = (a tensor 1) delta(a') is bijective.

    Assembles the full matrix of beta on the product basis and computes its
    exact rank; needs numeric parameters.
    """
    _require_numeric(A, "the Galois map test")
    order = A.algebra.order
    basis = A.algebra.basis()
    dim = len(basis)
    row_index = {}
    columns = []
    for w1 in basis:
        left = AlgElement(A.tensor, {w1: CommPoly.one(order)})
        for w2 in basis:
            img = left * A.coaction_word(w2)
            col = {tw: _const(c) for tw, c in img.terms.items()}
            for tw in col:
                row_index.setdefault(tw, len(row_index))
            columns.append(col)
    if len(row_index) > dim * dim:
        raise RuntimeError("tensor basis larger than expected")
    zero = CyclotomicNumber.zero(order)
    rows = [[zero] * (dim * dim) for _ in range(dim * dim)]
    for j, col in enumerate(columns):
        for tw, val in col.items():
            rows[row_index[tw]][j] = val
    return rank(rows) == dim * dim


@dataclass(frozen=True)
class ComoduleReport:
    name: str
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.ok:
            return f"{self.name}: comodule algebra checks pass"
        lines = [f"{self.name}: {len(self.failures)} comodule failures"]
        lines.extend(f"  {f}" for f in self.failures)
        return "\n".join(lines)


def check_comodule(A: ComoduleAlgebra) -> ComoduleReport:
    """Structural checks: the coaction is a well defined coassociative,
    counital algebra map and the section intertwines it with the coproduct.

    Works symbolically, so it also validates fully generic objects.
    """
    H = A.hopf
    alg = A.algebra
    ngA = len(alg.generators)
    failures = []

    for rule in alg.rules:
        rhs = sum((A.coaction_word(w) * c for w, c in rule.rhs), A.tensor.zero())
        if A.coaction_word(rule.lhs) != rhs:
            failures.append(
                f"coaction incompatible with relation {alg.render_word(rule.lhs)}"
            )

    failures += check_coaction_laws(
        H, A.tensor, A.coaction_word, "coaction coassociativity", "coaction counit law"
    )

    for h in H.basis():
        name = H.algebra.render_word(h)
        lhs = A.coaction_word(A.section[h])
        rhs_acc = {}
        for w, c in H.coproduct_word(h).terms.items():
            u, v = H.square.split_word(w)
            key = A.section[u] + tuple(g + ngA for g in v)
            rhs_acc[key] = rhs_acc.get(key, 0) + c
        if lhs != AlgElement(A.tensor, rhs_acc):
            failures.append(f"section does not intertwine the coactions on {name}")

    return ComoduleReport(A.name, tuple(failures))
