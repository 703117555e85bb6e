"""Comodule algebras with trivial coinvariants over the shipped Hopf families.

A GaloisObjectSpec records the family, the size n, and the structure
parameters, each either an exact cyclotomic number or symbolic (optionally
primed, so two symbolic objects can coexist in one computation);
object_spec is the one place that knows and reads each family's keys, for
the library and the spec parser alike.  The Taft family object has
relations x^n = a, yx = q xy, y^n = c; the E(n) family object has
u^2 = a, ui^2 = ci, ui u = -u ui, ui uj + uj ui = dij.  Both are
hopf.family_relations at the spec's parameters (param_var names the
parameter of each spec key), and the coaction is the Morphism of
hopf.coaction_images, the coproduct's formulas; H itself is the object at
a = 1, c = d = 0.  The section u maps each Hopf basis word to the same word
of the object, which is normal there too; check_comodule proves u colinear,
and the coaction laws, on generators and left sides alone.

galois_map_bijective proves that the Galois map beta(a tensor b) =
(a tensor 1) delta(b) is bijective from beta(a kappa(g)) = a (1 tensor g) on
the generators g of H alone, kappa the translation map: the h with 1 tensor h
in the image of beta form a subalgebra, and A's rules have H's left sides,
so no basis word is visited and nothing is eliminated.  Multiplied by a,
kappa needs no a^-1, so every parameter may stay symbolic and True is a
proof for every a != 0, c and d at once; a ValueError refuses other left
sides and a coaction that breaks A's relations or is not the family's on
generators.  The proof is kept per coaction map and rule tuple: a second
call on the same object returns True at once, and one whose coaction map or
rules were swapped is proved again.  coinvariants reads A^coH = k off that
proof, and raises its ValueError; it needs every parameter numeric.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .commpoly import CommPoly, ParamVar
from .cyclotomic import CyclotomicNumber
from .hopf import CheckReport, HopfPresentation, check_coaction_laws, coaction_images
from .hopf import family_hopf, family_relations, relation_failures
from .ncalg import AlgElement, Morphism, PresentedAlgebra, tensor_product

__all__ = [
    "Symbolic",
    "GaloisObjectSpec",
    "object_spec",
    "taft_object_spec",
    "en_object_spec",
    "param_var",
    "read_int",
    "read_param_name",
    "ComoduleAlgebra",
    "galois_object",
    "coaction",
    "coinvariants",
    "galois_map_bijective",
    "check_comodule",
]


class Symbolic(namedtuple("Symbolic", "prime", defaults=(0,))):
    """Marks a parameter left as a free variable; prime distinguishes copies."""

    __slots__ = ()


class GaloisObjectSpec(namedtuple("GaloisObjectSpec", "family n values")):
    """A family object's size and parameter values; object_spec builds it.

    values holds (key, CyclotomicNumber | Symbolic) pairs in the family's key
    order.
    """

    __slots__ = ()

    def value(self, key):
        return dict(self.values)[key]

    def keys(self):
        return [k for k, _ in self.values]

    def symbolic_keys(self) -> list:
        return [k for k, v in self.values if isinstance(v, Symbolic)]

    def hopf(self) -> HopfPresentation:
        return family_hopf(self.family, self.n)

    def primed_apart(self, other: GaloisObjectSpec) -> GaloisObjectSpec:
        """This spec with each symbolic value primed past other's for its key.

        Without this, two objects described by the same free parameter letter
        would compare as one object; the primed copy keeps them distinct while
        staying symbolic.
        """
        taken = {(k, other.value(k).prime) for k in other.symbolic_keys()}
        values = []
        for k, v in self.values:
            while isinstance(v, Symbolic) and (k, v.prime) in taken:
                v = Symbolic(v.prime + 1)
            values.append((k, v))
        return self._replace(values=tuple(values))

    def render(self) -> str:
        parts = [f"{self.family}:{self.n}"]
        for k, v in self.values:
            if isinstance(v, Symbolic):
                parts.append(f"{k}=sym" + "'" * v.prime)
            else:
                parts.append(f"{k}={v}")
        return ";".join(parts)

    __str__ = render


def _coerce_value(order, v):
    if isinstance(v, Symbolic):
        return v
    value = CyclotomicNumber.one(order)._coerce(v)
    if value is None:
        raise ValueError(f"cannot use {v!r} as a parameter value")
    return value


def read_int(text):
    """The integer text spells, or None: an optional leading '-' and then the
    ASCII digits 0-9, with whitespace around them stripped.  Leading zeros
    are dropped, and more than 4300 digits, Python's default bound for int()
    on text, are refused before int() runs, so every Python reads alike."""
    body = text.strip()
    sign, digits = (-1, body[1:]) if body.startswith("-") else (1, body)
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0") or "0"
    return sign * int(digits) if len(digits) <= 4300 else None


def read_param_name(name):
    """The (tag, indices) a parameter name spells, or None: a bare a, c or d
    has no indices, c<i> one, and d<i>,<j> and d<ij> two, each index ASCII
    digits read by read_int, so c01 is c1 and d12 is d1,2."""
    tag, body = name[:1], name[1:]
    if tag in ("a", "c", "d") and not body:
        return tag, ()
    if tag == "d" and len(body) == 2:
        body = ",".join(body)
    parts = body.split(",")
    if (tag, len(parts)) not in (("c", 1), ("d", 2)):
        return None
    indices = tuple(read_int(p) if p.isascii() and p.isdigit() else None for p in parts)
    return None if None in indices else (tag, indices)


def object_spec(family, n, values=None) -> GaloisObjectSpec:
    """The spec of the object of family:n whose parameters take values.

    values is a dict or (key, value) pairs; each value is a Symbolic, an
    int, a Fraction or a cyclotomic number of the family's order, and an
    unlisted key stays symbolic.  The keys are a and c for taft, and a,
    c1..cn and d<i>,<j> with i < j for en: the relation ui uj + uj ui = dij
    at i = j reads 2 ui^2 = d_ii, so d_ii = 2 ci is derived and no key.  A
    key is read in its canonical form (read_param_name), so d12 is d1,2.  A
    key given twice, any other key, and a = 0 are refused with a ValueError.
    """
    order = family_hopf(family, n).algebra.order
    if family == "taft":
        keys = ["a", "c"]
    else:
        keys = ["a"] + [f"c{i}" for i in range(1, n + 1)]
        keys += [f"d{i},{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    given = values.items() if isinstance(values, dict) else values or ()
    values = {}
    for key, value in given:
        tag, indices = read_param_name(key) or (key, ())
        key = tag + ",".join(map(str, indices))
        if key in values:
            raise ValueError(f"duplicate parameter {key!r}")
        values[key] = value
    unknown = [k for k in values if k not in keys]
    if unknown and family == "taft":
        raise ValueError(f"unknown Taft parameters: {', '.join(sorted(unknown))}; use a, c")
    if unknown:
        key = unknown[0]
        tag, indices = read_param_name(key) or (key, ())
        if tag == "c" and indices:
            raise ValueError(f"c index out of range in {key!r}")
        if tag == "d" and indices:
            raise ValueError(f"d indices must satisfy 1 <= i < j <= {n}; "
                             f"d[{key[1:]}] is derived or out of range")
        raise ValueError(f"unknown E(n) parameter {key!r}; use a, c1..c{n}, d<i>,<j>")
    pairs = tuple((k, _coerce_value(order, values.get(k, Symbolic()))) for k in keys)
    a = pairs[0][1]
    if isinstance(a, CyclotomicNumber) and a.is_zero():
        raise ValueError("the parameter a must be invertible (nonzero)")
    return GaloisObjectSpec(family, n, pairs)


def taft_object_spec(n, a=Symbolic(), c=Symbolic()) -> GaloisObjectSpec:
    return object_spec("taft", n, {"a": a, "c": c})


def en_object_spec(n, a=Symbolic(), c=None, d=None) -> GaloisObjectSpec:
    """Spec for the E(n) object; c lists c1, c2, .. or maps i to ci, d maps (i, j) to dij."""
    c = c.items() if isinstance(c, dict) else enumerate(c or (), start=1)
    values = {"a": a, **{f"c{i}": v for i, v in c}}
    values.update((f"d{i},{j}", v) for (i, j), v in (d or {}).items())
    return object_spec("en", n, values)


def param_var(key, prime=0) -> ParamVar:
    """The structure parameter a spec key names: a, c, c<i> or d<i>,<j>."""
    tag, indices = read_param_name(key) or (key, ())
    return ParamVar(tag, indices, prime)


class ComoduleAlgebra:
    """A right comodule algebra A with coaction valued in A tensor H."""

    _proved = None  # the (coaction_map, algebra.rules) that galois_map_bijective proved

    def __init__(self, spec: GaloisObjectSpec):
        self.spec = spec
        self.hopf = H = spec.hopf()
        self.name = f"A({spec.render()})"
        # each key's variable to its value, read again by identities.bind_to_object
        self.param_polys = polys = {param_var(k): self.param_poly(k) for k in spec.keys()}
        c = [p for v, p in polys.items() if v.tag == "c"]
        d = {v.indices: p for v, p in polys.items() if v.tag == "d"}
        rules = family_relations(H.algebra.order, polys[ParamVar("a")], c, d)
        names = H.algebra.generators
        if spec.family == "en":
            names = ("u",) + tuple(f"u{i}" for i in range(1, spec.n + 1))
        self.algebra = alg = PresentedAlgebra(self.name, names, H.algebra.order, rules)
        # lets element parsing resolve t[i,h] labels against the Hopf basis
        alg.comodule_hopf = H
        self.tensor = tensor_product(alg, H.algebra)
        images = coaction_images(self.tensor)
        self.coaction_map = Morphism(alg, self.tensor, images.__getitem__)
        # the section sends each Hopf basis word to itself, so it must be normal
        for w in H.basis():
            if not alg.is_normal(w):
                raise ValueError(f"section image {w} is not normal in {self.name}")

    def param_poly(self, key) -> CommPoly:
        """The value of a spec key: its variable if symbolic, else a constant."""
        value = self.spec.value(key)
        if isinstance(value, Symbolic):
            var = param_var(key, value.prime)
            return CommPoly.variable(self.hopf.algebra.order, var)
        if value.is_one():  # the shared one, so products can skip it by identity
            return CommPoly.one(value.order)
        return CommPoly.constant(value)

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


def coinvariants(A: ComoduleAlgebra):
    """A basis of the coinvariant subalgebra A^coH; needs numeric parameters.

    Read from the Galois proof: galois_map_bijective proves beta bijective,
    and an injective beta already forces A^coH = k (Kreimer and Takeuchi,
    Indiana Univ. Math. J. 30, 1981): a coinvariant b has beta(1 tensor b -
    b tensor 1) = delta(b) - b tensor 1 = 0.  So the result is [1], and
    where the proof says nothing its ValueError is raised here too.
    """
    symbolic = ", ".join(A.spec.symbolic_keys())
    if symbolic:
        raise ValueError(f"coinvariant computation needs numeric parameters; symbolic: {symbolic}")
    galois_map_bijective(A)
    return [A.algebra.one()]


def _family_left_sides(A: ComoduleAlgebra) -> bool:
    """Whether A's rules have H's left sides, as family_relations gives every
    object, so that a word is normal in A exactly when it is normal in H: the
    premise of the Galois proof and of the section proof."""
    return [r.lhs for r in A.algebra.rules] == [r.lhs for r in A.hopf.algebra.rules]


def galois_map_bijective(A: ComoduleAlgebra) -> bool:
    """True: beta(a tensor b) = (a tensor 1) delta(b) is bijective, proved on
    the generators of H for every value of the symbolic parameters.

    The translation map kappa(h) = beta^-1(1 tensor h) (Schauenburg, "Hopf
    bi-Galois extensions", Comm. Algebra 24, 1996) is kappa(x) = x^-1 tensor
    x on x, with x^-1 = a^-1 x^(N-1), and kappa(yi) = 1 tensor yi - yi x^-1
    tensor x on yi.  Times a, neither needs a^-1: a kappa(x) = x^(N-1) tensor
    x and a kappa(yi) = a (1 tensor yi) - yi x^(N-1) tensor x.  So
    beta(a kappa(x)) = (x^(N-1) tensor 1) delta(x) and beta(a kappa(yi)) =
    a delta(yi) - (yi x^(N-1) tensor 1) delta(x), each computed in A tensor H
    and compared with a (1 tensor g).  That is enough.  Once delta respects
    A's relations it is an algebra map, so for z = z[1] tensor z[2] (summed)
    with beta(z) = 1 tensor h and z' with beta(z') = 1 tensor g,
    beta(z'[1]z[1] tensor z[2]z'[2]) = 1 tensor hg: the h with 1 tensor h in
    the image of beta form a subalgebra of H.  It holds 1 and the
    generators, so it is H.  beta is left A-linear, so a tensor h =
    beta((a tensor 1)z) is in the image too: beta is onto, and with dim A =
    dim H it is bijective.  Its premise, _family_left_sides, is checked
    first: by confluence (the diamond lemma; selfcheck's "object confluence"
    row) the normal words are a basis of each, so dim A = dim H.  Other left
    sides, a coaction that breaks A's relations, or a g with beta(a kappa(g))
    != a (1 tensor g) prove nothing either way: the result is True or a
    ValueError that says which.

    Every parameter may be symbolic, and True is a proof for every a != 0, c
    and d at once, for the fully generic object too.  The rules' left sides
    hold no parameter, so normal forms and dim A specialize to those at each
    value, and each check, a polynomial identity, holds at every value; there
    multiplying by a is injective, since object_spec refuses a = 0.  The
    parameter ring is a domain, so the check fails exactly where beta(kappa(g))
    = 1 tensor g fails.  No dim^2-column matrix is built and no basis word of
    A or H is visited.

    True is kept on A with the coaction map and rules tuple it proved, and
    returned at once while A has those very objects; a ValueError is not.
    """
    kept = A._proved
    if kept is not None and kept[0] is A.coaction_map and kept[1] is A.algebra.rules:
        return True
    proving = (A.coaction_map, A.algebra.rules)
    H, T = A.hopf, A.tensor
    if not _family_left_sides(A):
        raise ValueError(f"the Galois map test needs the rules' left sides of {H.name}")
    broken = relation_failures("coaction", A.coaction_map)
    if broken:
        raise ValueError(f"the Galois map test needs an algebra map: {'; '.join(broken)}")
    a, one = A.param_poly("a"), CommPoly.one(T.order)

    def pure(left, right, c=one):  # left tensor right, normal words: nothing to reduce
        return AlgElement(T, {(left, right): c})

    beta_a_kappa_x = pure((0,) * (T.order - 1), ()) * A.coaction_word((0,))
    for g, name in enumerate(H.algebra.generators):
        image = beta_a_kappa_x
        if g:
            image = A.coaction_word((g,)) * a - pure((g,), ()) * beta_a_kappa_x
        if image != pure((), (g,), a):
            raise ValueError(f"the Galois map test needs the family coaction: "
                             f"beta(kappa({name})) is not 1⊗{name}")
    A._proved = proving
    return True


def check_comodule(A: ComoduleAlgebra) -> CheckReport:
    """Structural checks, proved on generators: the coaction is a well
    defined coassociative, counital algebra map, and the section u, the
    identity on normal words, intertwines it with the coproduct.

    The coaction is checked against the object's relations, so with
    check_coaction_laws a passing report is a proof.  u is not
    multiplicative, yet delta(u(h)) = (u x id)Delta(h) holds on every normal
    h = g1..gk once
    - on each generator g, delta(g) = (u x id)Delta(g) and every first
      factor is 1 or g; g is deletable if one is 1, as on each yi;
    - A's rules have H's left sides (_family_left_sides);
    - L1 d L2 is reducible for each left side L = L1 L2, halves nonempty,
      and each deletable d.  Then deleting d from a normal u d v leaves u v
      normal: a left side of u v would be some L1 L2 across the junction,
      and L1 d L2 a factor of u d v.
    For then delta(g1)..delta(gk) and Delta(g1)..Delta(gk) expand to the
    same terms, whose first factors, h less some deletable letters, are
    normal in A and in H, so no rule fires in them.  A failed premise is a
    failure, as nothing is proved.  No basis word of H is visited, and every
    parameter may be symbolic.
    """
    H, T, alg = A.hopf, A.tensor, A.hopf.algebra
    failures = relation_failures("coaction", A.coaction_map)
    failures += check_coaction_laws(H, T, A.coaction_word, "coaction coassociativity",
                                    "coaction counit law")
    if not _family_left_sides(A):
        failures.append(f"the section check needs the rules' left sides of {H.name}")
    deletable = []
    for g, name in enumerate(alg.generators):
        delta = H.coproduct_word((g,)).terms  # u(h) is h, so (u x id)Delta(g) has its words
        if A.coaction_word((g,)) != AlgElement(T, delta):
            failures.append(f"section does not intertwine the coactions on {name}")
        firsts = {u for u, _ in delta}
        if not firsts <= {(), (g,)}:
            failures.append(f"the section check needs first factors 1 or {name} in Delta({name})")
        if () in firsts:
            deletable.append(g)
    for rule in alg.rules:
        L = rule.lhs
        for w in (L[:i] + (d,) + L[i:] for i in range(1, len(L)) for d in deletable):
            if alg.find_redex(w) is None:
                failures.append(f"the section check needs {alg.render_word(w)} reducible")
    return CheckReport(A.name, tuple(failures), "comodule algebra checks pass",
                       "comodule failures")
