"""Free comodule polynomials, the universal evaluation map, and identity tests.

T(X_H) is the free algebra on symbols X[i,h] with i a copy index and h a
Hopf-basis element, graded with every X of degree one and carrying the
diagonal coaction X[i,h] -> X[i,h1] tensor h2.  The universal map mu sends
X[i,h] to t[i,h1] * u(h2) inside the object with coinvariant coefficients
adjoined; an element is an identity for the object exactly when its image
vanishes.  The catalogs built here carry the structure parameters of the
target family symbolically.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .commpoly import CommPoly, ParamVar, TVar
from .comodule import ComoduleAlgebra, Symbolic, galois_object
from .cyclotomic import CyclotomicNumber
from .hopf import HopfPresentation, antipode, taft, en, trivial_hopf
from .ncalg import AlgElement, Morphism, PresentedAlgebra

__all__ = [
    "FreeComodulePoly",
    "free_algebra",
    "x_symbol",
    "t_var",
    "mu",
    "is_identity",
    "taft_identity",
    "en_identities",
    "catalog",
    "bind_to_object",
    "coinvariant_P",
    "coinvariant_Q",
    "commutator_identity",
    "standard_polynomial",
    "verify_matrix_identity",
    "matrix_identity_witness",
    "substitute",
    "distinguish",
    "Distinguished",
    "Isomorphic",
]

class _FreeAlgebra(PresentedAlgebra):
    """T(X_H): the free algebra on X[i,h] for every copy i >= 1 and basis word h.

    X[i,h] is the letter (i - 1)·dim H + rank(h) (see _gen_id), so words
    order by copy, then by basis position.  No generator list is kept: a
    letter is named when it is first printed, and its name is kept.
    """

    def __init__(self, H: HopfPresentation):
        super().__init__(f"T(X_{H.name})", (), H.algebra.order)
        self.free_hopf, self._names = H, {}

    def generator_name(self, g) -> str:
        try:
            return self._names[g]
        except KeyError:
            (i, r), H = _gen_meta(self, g), self.free_hopf
            self._names[g] = f"X[{i},{H.algebra.render_word(H.basis()[r])}]"
            return self._names[g]

    def basis(self):
        raise ValueError(f"{self.name} is free on infinitely many letters; it has no finite basis")


@lru_cache(maxsize=None)
def free_algebra(H: HopfPresentation) -> PresentedAlgebra:
    """The one free algebra T(X_H) of H, on X[i,h] for every copy i."""
    return _FreeAlgebra(H)


_SCALARS = (int, Fraction, CyclotomicNumber, CommPoly)


class FreeComodulePoly:
    """An element of T(X_H) kept as an expression tree; coefficients are
    parameter-only polynomials.

    op is "leaf" (args: an expanded element of T), "sum" or "mul" (two
    polynomials), "scale" (a polynomial and a coefficient) or "pow" (a
    polynomial and an exponent); degree_bound is a static upper bound on the
    degree.  mu, bind_to_object and substitute evaluate the tree in their
    own targets; the expanded element, which can be exponentially larger, is
    built on first use of element, for printing, comparison and degree, under
    mu's pair bound.
    """

    __slots__ = ("hopf", "op", "args", "degree_bound", "_element")

    def __init__(self, hopf, element):
        self.hopf, self.op, self.args = hopf, "leaf", (element, None)
        self.degree_bound, self._element = element.degree(), element

    @classmethod
    def _node(cls, op, first, second):
        node = cls.__new__(cls)
        node.hopf, node.op, node.args, node._element = first.hopf, op, (first, second), None
        node.degree_bound = first.degree_bound
        if isinstance(second, cls):
            if second.hopf is not first.hopf:
                raise ValueError("free polynomials over different Hopf algebras")
            both = (first.degree_bound, second.degree_bound)
            node.degree_bound = max(both) if op == "sum" else sum(both)
        elif op == "pow":
            node.degree_bound *= second
        return node

    @classmethod
    def zero(cls, H):
        return cls(H, free_algebra(H).zero())

    @classmethod
    def scalar(cls, H, value):
        T = free_algebra(H)
        return cls(H, T.one() * cls._check_coeff(T.coerce_poly(value)))

    @staticmethod
    def _check_coeff(poly: CommPoly):
        # the least offender in monomial order, the order the polynomial prints in
        bad = [v for v in poly.variables() if not isinstance(v, ParamVar)]
        if bad:
            raise ValueError(
                "free comodule polynomial coefficients may only contain "
                f"structure parameters, not {min(bad).render()}"
            )
        return poly

    @property
    def element(self) -> AlgElement:
        """The expanded element of free_algebra(hopf), computed once."""
        if self._element is None:
            self._element = _evaluate(self, lambda e: e)
        return self._element

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = FreeComodulePoly.scalar(self.hopf, other)
        if isinstance(other, FreeComodulePoly):
            return FreeComodulePoly._node("sum", self, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FreeComodulePoly):
            return FreeComodulePoly._node("mul", self, other)
        if isinstance(other, _SCALARS):
            poly = self._check_coeff(self.hopf.algebra.coerce_poly(other))
            return FreeComodulePoly._node("scale", self, poly)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return FreeComodulePoly._node("pow", self, k)

    def __eq__(self, other):
        if not isinstance(other, FreeComodulePoly):
            return NotImplemented
        if other.hopf is not self.hopf:
            raise ValueError("free polynomials over different Hopf algebras")
        return self.element.terms == other.element.terms

    def is_zero(self) -> bool:
        return self.element.is_zero()

    def degree(self) -> int:
        return self.element.degree()

    def __str__(self):
        return str(self.element)

    def __repr__(self):
        return f"FreeComodulePoly({self.element})"


# a product of two algebra elements pairs every coefficient monomial of one
# factor with every one of the other; a product, scalar multiple or power step
# that would form more than MAX_MU_PAIRS pairs is refused before it is formed,
# which bounds both its time and the size of the value it builds
MAX_MU_PAIRS = 1 << 16


def _monomials(v) -> int:
    return len(v.terms) if isinstance(v, CommPoly) else sum(len(c.terms) for c in v.terms.values())


def _bounded_mul(x, y):
    if not isinstance(x, AlgElement):
        return x * y
    m = _monomials(x)
    k = m if y is x else _monomials(y)  # every squaring in a power passes one object twice
    if m * k > MAX_MU_PAIRS:
        raise ValueError(f"mu image bound: a product of {m} by {k} monomials would "
                         f"form {m * k} monomial pairs, past {MAX_MU_PAIRS}")
    return x * y


def _evaluate(P: FreeComodulePoly, leaf_map, coeff_map=None):
    """P evaluated by the algebra map that sends each leaf element to leaf_map(leaf).

    Values may be elements of any algebra, each product, scalar multiple and
    power step of them bounded by MAX_MU_PAIRS, or free polynomials again,
    which keep their tree.  coeff_map, if given, rewrites the coefficient of
    each scalar multiple.  An element's power is AlgElement.power: a power of
    two q-commuting terms by (u+v)^d = u^d + v^d, any other by repeated squaring.
    Nodes are memoised by identity, so a subtree the tree shares is computed
    once, and the walk keeps its own stack, so depth costs no recursion.
    """
    memo, stack = {}, [P]
    while stack:
        node = stack.pop()
        if id(node) in memo:
            continue
        first, second = node.args
        pending = [a for a in node.args if isinstance(a, FreeComodulePoly) and id(a) not in memo]
        if pending:
            stack += [node, *pending]
            continue
        if node.op == "leaf":
            value = leaf_map(first)
        elif node.op == "sum":
            value = memo[id(first)] + memo[id(second)]
        elif node.op == "mul":
            value = _bounded_mul(memo[id(first)], memo[id(second)])
        elif node.op == "scale":
            value = _bounded_mul(memo[id(first)], coeff_map(second) if coeff_map else second)
        elif isinstance(memo[id(first)], AlgElement):
            value = memo[id(first)].power(second, _bounded_mul)
        else:
            value = memo[id(first)] ** second
        memo[id(node)] = value
    return memo[id(P)]


def _gen_meta(T: PresentedAlgebra, gid: int):
    dim = len(T.free_hopf.basis())
    return gid // dim + 1, gid % dim


def _gen_id(T: PresentedAlgebra, copy: int, basis_index: int):
    dim = len(T.free_hopf.basis())
    return (copy - 1) * dim + basis_index


def x_symbol(i: int, h: AlgElement) -> FreeComodulePoly:
    """The symbol X[i,h], extended linearly in h over the Hopf basis."""
    H = getattr(getattr(h, "algebra", None), "hopf", None)
    if H is None:
        raise ValueError("x_symbol needs an element of a Hopf algebra")
    if i < 1:
        raise ValueError(f"copy indices start at 1, not {i}")
    T = free_algebra(H)
    terms = {}
    for w, c in h.terms.items():
        key = (_gen_id(T, i, H.basis_index(w)),)
        terms[key] = terms.get(key, CommPoly.zero(T.order)) + FreeComodulePoly._check_coeff(c)
    return FreeComodulePoly(H, AlgElement(T, terms))


def t_var(H: HopfPresentation, i: int, h) -> CommPoly:
    """The coinvariant coefficient t[i,h] for a basis word h."""
    if isinstance(h, AlgElement):
        if len(h.terms) != 1 or next(iter(h.terms.values())) != 1:
            raise ValueError("t[i,h] needs a single basis word with coefficient 1")
        [word] = h.terms
    else:
        word = tuple(h)
    r = H.basis_index(word)
    label = H.algebra.render_word(word)
    return CommPoly.variable(H.algebra.order, TVar(i, r, label))


def _mu_image(T: PresentedAlgebra, A: ComoduleAlgebra, gid: int) -> AlgElement:
    """X[i,h] -> sum t[i,h1] * u(h2)."""
    H = A.hopf
    i, r = _gen_meta(T, gid)
    acc = A.algebra.zero()
    for (u, v), sc in H.coproduct_word(H.basis()[r]).terms.items():
        acc = acc + AlgElement(A.algebra, {v: sc * t_var(H, i, u)})
    return acc


@lru_cache(maxsize=None)
def _mu_map(A: ComoduleAlgebra) -> Morphism:
    T = free_algebra(A.hopf)
    return Morphism(T, A.algebra, lambda gid: _mu_image(T, A, gid))


def mu(P: FreeComodulePoly, A: ComoduleAlgebra) -> AlgElement:
    """The universal evaluation: X[i,h] -> sum t[i,h1] * u(h2) inside A.

    The result is an element of the object with coefficients in the
    parameters and the t variables; P is an identity for A exactly when the
    image is zero.  mu is an algebra map, so P's tree is evaluated in A with
    each leaf sent through the generator images, and P is never expanded;
    each product is bounded by MAX_MU_PAIRS.
    """
    if A.hopf is not P.hopf:
        raise ValueError("object and polynomial live over different Hopf algebras")
    return _evaluate(P, _mu_map(A))


def is_identity(P: FreeComodulePoly, A: ComoduleAlgebra) -> bool:
    return mu(P, A).is_zero()


def taft_identity(n: int) -> FreeComodulePoly:
    """The degree-2n identity of the Taft family objects, with symbolic c.

    (YX - qXY)^n - (1-q)^n X^n Y^n + (1-q)^n c E^n X^n, where E, X, Y are the
    symbols over the basis elements 1, x, y in copy 1.  The same combination
    serves the wider monomial-data generalization of these objects, where it
    looks identical, so no separate constructor exists for that family.
    """
    H = taft(n)
    q = H.q
    alg = H.algebra
    E = x_symbol(1, alg.one())
    X = x_symbol(1, alg.gen("x"))
    Y = x_symbol(1, alg.gen("y"))
    c = CommPoly.variable(n, ParamVar("c"))
    Xn = X**n
    lead = (Y * X - q * (X * Y)) ** n
    w = (CyclotomicNumber.one(n) - q) ** n
    return lead - w * (Xn * Y**n) + (w * c) * (E**n * Xn)


def en_identities(n: int) -> list:
    """The n(n+3)/2 degree-four identities of the E(n) family objects.

    First family, one per i: (XYi + YiX)^2 - 4 X^2 Yi^2 + 4 ci E^2 X^2.
    Second family, one per pair i <= j:
    2 (YiYj + YjYi) X^2 - (XYi + YiX)(XYj + YjX) - 2 dij E^2 X^2, where the
    diagonal slot uses the derived value d_ii = 2 ci.
    """
    H = en(n)
    alg = H.algebra
    E = x_symbol(1, alg.one())
    X = x_symbol(1, alg.gen("x"))
    Y = [x_symbol(1, alg.gen(f"y{i}")) for i in range(1, n + 1)]
    X2 = X**2
    EX = (E**2) * X2
    anti = [X * Yi + Yi * X for Yi in Y]
    out = []
    for i in range(1, n + 1):
        ci = CommPoly.variable(2, ParamVar("c", (i,)))
        out.append(anti[i - 1] ** 2 - 4 * (X2 * (Y[i - 1] ** 2)) + (4 * ci) * EX)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i == j:
                dij = 2 * CommPoly.variable(2, ParamVar("c", (i,)))
            else:
                dij = CommPoly.variable(2, ParamVar("d", (i, j)))
            sym = Y[i - 1] * Y[j - 1] + Y[j - 1] * Y[i - 1]
            out.append(2 * (sym * X2) - anti[i - 1] * anti[j - 1] - (2 * dij) * EX)
    return out


def catalog(H: HopfPresentation):
    """The named identity catalog of a Hopf family, in a stable order."""
    if H.family == "taft":
        return [("taft_pc", taft_identity(H.n))]
    if H.family == "en":
        polys = en_identities(H.n)
        names = [f"en_ci:{i}" for i in range(1, H.n + 1)]
        names += [f"en_dij:{i},{j}" for i in range(1, H.n + 1) for j in range(i, H.n + 1)]
        return list(zip(names, polys))
    return []


def bind_to_object(P: FreeComodulePoly, A: ComoduleAlgebra) -> FreeComodulePoly:
    """Specialize the catalog parameters of P to the object's own values.

    A symbolic, unprimed key names the catalog's own variable, so it is not
    substituted; when no key is left, P itself is returned.
    """
    # a is no catalog parameter: the catalog identities hold for every a
    assignment = {v: p for v, p in A.param_polys.items()
                  if v.tag != "a" and p != CommPoly.variable(p.order, v)}
    if not assignment:
        return P

    def leaf(e):
        terms = {w: c.specialize(assignment) for w, c in e.terms.items()}
        return FreeComodulePoly(P.hopf, AlgElement(e.algebra, terms))

    return _evaluate(P, leaf, lambda c: c.specialize(assignment))


def _coinvariant_core(hs, refusal) -> FreeComodulePoly:
    """X[1,h¹₍₁₎]…X[1,hᵏ₍₁₎] X[1,S(h¹₍₂₎…hᵏ₍₂₎)] for hs = (h¹, …, hᵏ), linear in each."""
    H = getattr(hs[0].algebra, "hopf", None)
    if H is None or any(h.algebra is not hs[0].algebra for h in hs):
        raise ValueError(refusal)
    alg = H.algebra
    halves = [[(sw, c * sc) for w, c in h.terms.items()
               for sw, sc in H.coproduct_word(w).terms.items()] for h in hs]
    out = FreeComodulePoly.zero(H)
    for ((u, v), c), *rest in itertools.product(*halves):
        core = x_symbol(1, alg.element({u: 1}))
        for (u, w), c2 in rest:
            core, v, c = core * x_symbol(1, alg.element({u: 1})), v + w, c * c2
        out = out + core * x_symbol(1, antipode(H, alg.normal_form_word(v))) * c
    return out


def coinvariant_P(h: AlgElement) -> FreeComodulePoly:
    """The coinvariant element P_h = X[1,h1] X[1,S(h2)]."""
    return _coinvariant_core((h,), "coinvariant_P needs an element of a Hopf algebra")


def coinvariant_Q(h: AlgElement, h2: AlgElement) -> FreeComodulePoly:
    """The coinvariant element Q_{h,h'} = X[1,h1] X[1,h'1] X[1,S(h2 h'2)]."""
    return _coinvariant_core((h, h2), "coinvariant_Q needs two elements of one Hopf algebra")


def commutator_identity(core: FreeComodulePoly, z: AlgElement) -> FreeComodulePoly:
    """The commutator of a coinvariant core with the copy-2 symbol X[2,z]."""
    Xz = x_symbol(2, z)
    return core * Xz - Xz * core


def _perm_sign(perm) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return -1 if inversions % 2 else 1


def standard_polynomial(m: int) -> FreeComodulePoly:
    """The standard polynomial: the signed sum over all m! orderings of
    X1..Xm, taken over the trivial Hopf algebra (classical identities)."""
    if m < 1:
        raise ValueError("the standard polynomial needs m >= 1")
    H = trivial_hopf()
    terms = {}
    for perm in itertools.permutations(range(m)):
        terms[tuple(perm)] = CommPoly.scalar(1, _perm_sign(perm))
    return FreeComodulePoly(H, AlgElement(free_algebra(H), terms))


# the most operations, (k^2)^m m!, that a matrix check may cost
MATRIX_BUDGET = 5_000_000


def verify_matrix_identity(m: int, k: int) -> bool:
    """Whether the standard polynomial of degree m vanishes on k x k matrices."""
    return matrix_identity_witness(m, k) is None


def matrix_identity_witness(m: int, k: int):
    """The first matrix-unit assignment on which s_m is nonzero, or None.

    Returns (assignment, value): assignment lists the unit (i, j) put in for
    X1..Xm, and value maps each unit of the nonzero result to its integer
    coefficient.  By multilinearity it is enough to substitute matrix units
    in all ways; s_m is alternating, so repeating a unit gives 0 and
    reordering flips the sign: only sorted sets of m distinct units are
    walked, lexicographically, and the first nonzero assignment of all is
    sorted, so it is the one found.  Each product of units is a unit or
    zero, so terms are evaluated by chaining indices.  Guarded by
    MATRIX_BUDGET on (k^2)^m m!, the cost of all assignments.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    cost = 1  # (k*k)^m * m!, built a factor at a time so a huge m stops early
    for i in range(1, m + 1):
        cost *= k * k * i
        if cost > MATRIX_BUDGET:
            about = "about" if i == m else "more than"
            raise ValueError(
                f"matrix check needs {about} {cost} operations, over the budget {MATRIX_BUDGET}"
            )
    if m > k * k:
        return None
    units = [(i, j) for i in range(k) for j in range(k)]
    perms = [(p, _perm_sign(p)) for p in itertools.permutations(range(m))]
    for assign in itertools.combinations(units, m):
        acc: dict = {}
        for perm, sign in perms:
            seq = [assign[p] for p in perm]
            if all(seq[t][1] == seq[t + 1][0] for t in range(m - 1)):
                key = (seq[0][0], seq[-1][1])
                acc[key] = acc.get(key, 0) + sign
        value = {unit: c for unit, c in sorted(acc.items()) if c}
        if value:
            return assign, value
    return None


def substitute(P: FreeComodulePoly, image_fn) -> FreeComodulePoly:
    """Apply the algebra endomorphism of T determined by generator images.

    image_fn(copy, basis_word) must return a FreeComodulePoly over the same
    Hopf algebra.
    """
    H, T = P.hopf, free_algebra(P.hopf)
    images = {}
    for gid in sorted({gid for w in P.element.terms for gid in w}):
        i, r = _gen_meta(T, gid)
        images[gid] = image_fn(i, H.basis()[r])
    # a letter that only the tree's leaves name cancels from P: it maps to zero
    f = Morphism(T, T, lambda gid: images[gid].element if gid in images else T.zero())
    return _evaluate(P, lambda e: FreeComodulePoly(H, f(e)))


# -- parameter comparison of two objects ---------------------------------------


class Distinguished(namedtuple("Distinguished", "identity direction witness")):
    __slots__ = ()

    def __str__(self):
        return (
            f"distinguished by {self.identity} ({self.direction}); "
            f"witness mu-image: {self.witness}"
        )


class Isomorphic(namedtuple("Isomorphic", "note", defaults=("",))):
    __slots__ = ()

    def __str__(self):
        return f"isomorphic ({self.note})" if self.note else "isomorphic"


def _int_nth_root(x: int, n: int):
    if x < 0:
        return None
    if x in (0, 1):
        return x
    lo, hi = 1, x
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == x else None


def _rational_nth_root(fr: Fraction, n: int):
    sign = 1
    if fr < 0:
        if n % 2 == 0:
            return None
        sign = -1
        fr = -fr
    num = _int_nth_root(fr.numerator, n)
    den = _int_nth_root(fr.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(sign * num, den)


def _a_class_note(A: ComoduleAlgebra, B: ComoduleAlgebra) -> str:
    n = A.hopf.algebra.order
    va, vb = A.spec.value("a"), B.spec.value("a")
    if isinstance(va, Symbolic) or isinstance(vb, Symbolic):
        if va == vb:
            return "a symbolic and shared; a-class not separated"
        return "a-class not compared (symbolic a)"
    if va == vb:
        return "a parameters equal"
    if va.is_rational() and vb.is_rational():
        ratio = va.rational_value() / vb.rational_value()
        if _rational_nth_root(ratio, n) is not None:
            return (
                f"a parameters differ by an exact {n}-th power; "
                "same a-class after rescaling"
            )
    return (
        f"a-class not compared: no exact rational {n}-th root for the ratio "
        f"of {va} and {vb}"
    )


def distinguish(A: ComoduleAlgebra, B: ComoduleAlgebra):
    """Compare two objects by the identity catalog of their family.

    Each catalog identity, with parameters bound to one object's values, is
    evaluated under the universal map of the other object, both ways round.
    The first nonzero image wins and is returned as the witness; if all
    images vanish the parameters match and the objects are reported
    isomorphic, with the a-class comparison noted separately.
    """
    if A.hopf is not B.hopf:
        raise ValueError("objects live over different Hopf algebras")
    ways = ((A, B, "first", "second"), (B, A, "second", "first"))
    for name, template in catalog(A.hopf):
        for source, target, one, other in ways:
            w = mu(bind_to_object(template, source), target)
            if not w.is_zero():
                how = f"identity of the {one} object evaluated in the {other}"
                return Distinguished(name, how, w)
    return Isomorphic(_a_class_note(A, B))
