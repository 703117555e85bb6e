"""mu and the tree walkers against the expanded path.

A FreeComodulePoly is an expression tree, and mu evaluates it in the object
without expanding it in T(X_H).  The oracle here is the path mu took before:
expand the polynomial, then apply mu's generator map word by word.
Normal forms are unique, so the two must agree exactly.
"""

import random
from fractions import Fraction

import pytest

from propsuites import object_specs, random_free, random_scalar
from hopfid.comodule import galois_object, param_var
from hopfid.exprparse import parse_object_spec
from hopfid.hopf import en, taft
from hopfid.identities import (
    FreeComodulePoly,
    _evaluate,
    _mu_map,
    bind_to_object,
    catalog,
    coinvariant_P,
    coinvariant_Q,
    commutator_identity,
    distinguish,
    free_algebra,
    mu,
    substitute,
    taft_identity,
    x_symbol,
)
from hopfid.ncalg import AlgElement


def obj(text):
    return galois_object(parse_object_spec(text))


def expanded_mu(P, A):
    """mu of the expanded polynomial through the generator map."""
    f = _mu_map(A, P.copies)
    return f(AlgElement(f.source, P.element.terms))


def assert_mu_matches(P, A):
    got = mu(P, A)
    assert got == expanded_mu(P, A)
    return got


def numeric_spec(H):
    if H.family == "taft":
        return f"taft:{H.n};a=2;c=1/3"
    cs = ";".join(f"c{i}={i - 2}" for i in range(1, H.n + 1))
    ds = ";".join(
        f"d{i},{j}={i + j - 4}" for i in range(1, H.n + 1) for j in range(i + 1, H.n + 1)
    )
    return ";".join(p for p in (f"en:{H.n};a=3", cs, ds) if p)


FAMILIES = [taft(n) for n in range(2, 9)] + [en(n) for n in range(1, 5)]


@pytest.mark.parametrize("H", FAMILIES, ids=lambda H: H.name)
def test_catalog_mu_matches_expanded(H):
    symbolic = obj(f"{H.name};a=sym" if H.family == "taft" else H.name)
    numeric = obj(numeric_spec(H))
    for _, P in catalog(H):
        for A in (symbolic, numeric):
            assert assert_mu_matches(bind_to_object(P, A), A).is_zero()
        # an identity of one object evaluated in another: a nonzero image
        assert_mu_matches(bind_to_object(P, numeric), symbolic)


DISTINGUISH_PAIRS = [(f"taft:{n};a=1;c=0", f"taft:{n};a=1;c=1") for n in range(2, 7)] + [
    ("en:2;a=1;c1=0;c2=0;d1,2=0", "en:2;a=1;c1=1;c2=0;d1,2=0"),
    ("en:2;a=1;c1=0;c2=0;d1,2=1", "en:2;a=1;c1=0;c2=0;d1,2=0"),
    ("taft:3;a=1;c=1", "taft:3;a=8;c=1"),
]


@pytest.mark.parametrize("first, second", DISTINGUISH_PAIRS)
def test_distinguish_pairs_match_expanded(first, second):
    A, B = obj(first), obj(second)
    images = []
    for _, P in catalog(A.hopf):
        images.append(assert_mu_matches(bind_to_object(P, A), B))
        images.append(assert_mu_matches(bind_to_object(P, B), A))
    verdict = distinguish(A, B)
    nonzero = [w for w in images if not w.is_zero()]
    if nonzero:
        assert verdict.witness == nonzero[0]
    else:
        assert not hasattr(verdict, "witness")


COMMUTATOR_CORES = [
    ("taft:2", "P", ["y"]),
    ("taft:2", "P", ["x"]),
    ("taft:3", "P", ["y"]),
    ("en:1", "P", ["y1"]),
    ("en:2", "P", ["y2"]),
    ("taft:2", "Q", ["y", "y"]),
    ("en:1", "Q", ["y1", "x"]),
    ("taft:3;a=1;c=0", "Q", ["x", "y"]),
]


@pytest.mark.parametrize("spec, kind, names", COMMUTATOR_CORES)
def test_coinvariant_commutators_match_expanded(spec, kind, names):
    A = obj(spec)
    alg = A.hopf.algebra
    hs = [alg.gen(g) for g in names]
    core = coinvariant_P(*hs) if kind == "P" else coinvariant_Q(*hs)
    for z in A.hopf.basis():
        assert_mu_matches(commutator_identity(core, alg.element({z: 1})), A)


def random_tree(rng, H, depth=3):
    """A random polynomial built with every operator, with its expansion in
    T(X_H; 2) computed by AlgElement arithmetic alongside."""
    T = free_algebra(H, 2)
    if depth == 0 or rng.random() < 0.2:
        copy = rng.randrange(1, 3)
        word = rng.choice(H.basis())
        P = x_symbol(copy, H.algebra.element({word: 1}))
        return P, AlgElement(T, P.element.terms)
    P, e = random_tree(rng, H, depth - 1)
    roll = rng.randrange(6)
    if roll == 0:
        Q, f = random_tree(rng, H, depth - 1)
        return P + Q, e + f
    if roll == 1:
        Q, f = random_tree(rng, H, depth - 1)
        return P * Q, e * f
    if roll == 2:
        # the same subtree on both sides
        return P * P - P, e * e - e
    if roll == 3:
        c = random_scalar(rng, H.algebra.order)
        return c * P, e * c
    if roll == 4:
        k = rng.randrange(4)
        return P**k, e**k
    return 2 - P, T.one() * 2 - e


@pytest.mark.parametrize("spec", object_specs())
def test_random_polynomials_match_expanded(spec):
    A = obj(spec)
    rng = random.Random(f"evaluate {spec}")
    for _ in range(15):
        assert_mu_matches(random_free(rng, A.hopf), A)
        P, expanded = random_tree(rng, A.hopf)
        assert P.element.terms == expanded.terms
        assert P.degree() <= P.degree_bound
        assert_mu_matches(P, A)


def ref_bind(P, A):
    """The expanded polynomial with each coefficient specialised."""
    assignment = {param_var(k): A.param_poly(k) for k in A.spec.keys() if k != "a"}
    terms = {w: c.specialize(assignment) for w, c in P.element.terms.items()}
    return {w: c for w, c in terms.items() if not c.is_zero()}


def shape(P):
    """The operators of P's tree, operands first; a leaf has no operands."""
    if P.op == "leaf":
        return ["leaf"]
    operands = [a for a in P.args if isinstance(a, FreeComodulePoly)]
    return [step for a in operands for step in shape(a)] + [P.op]


@pytest.mark.parametrize("spec", ["taft:4;a=2;c=5", "taft:3;a=sym;c=sym", "en:2;a=1;c1=2;c2=0;d1,2=-1"])
def test_bind_to_object_keeps_the_tree(spec):
    A = obj(spec)
    rng = random.Random(f"bind {spec}")
    polys = [P for _, P in catalog(A.hopf)] + [random_tree(rng, A.hopf)[0] for _ in range(10)]
    for P in polys:
        bound = bind_to_object(P, A)
        assert shape(bound) == shape(P)
        assert bound.element.terms == ref_bind(P, A)


@pytest.mark.parametrize("spec", ["taft:3;a=sym;c=sym", "taft:6;a=sym;c=sym", "en:1;a=sym;c1=sym",
                                  "en:2;a=sym;c1=sym;c2=sym;d1,2=sym", "en:3"])
def test_bind_to_object_leaves_a_symbolic_object_alone(spec):
    # every unprimed symbolic key names the catalog's own variable
    A = obj(spec)
    rng = random.Random(f"bind alone {spec}")
    for P in [P for _, P in catalog(A.hopf)] + [random_tree(rng, A.hopf)[0] for _ in range(5)]:
        assert bind_to_object(P, A) is P


def primed(first, second):
    """The second object as distinguish builds it, primed apart from the first."""
    return galois_object(parse_object_spec(second).primed_apart(parse_object_spec(first)))


@pytest.mark.parametrize("A", [
    primed("taft:3;a=sym;c=sym", "taft:3;a=sym;c=sym"),
    primed("en:2", "en:2;a=1;c1=sym;c2=3;d1,2=sym"),
    obj("taft:4;a=2;c=5"),
    obj("en:2;a=1;c1=2;c2=0;d1,2=-1"),
    obj("taft:3;a=sym;c=2"),
], ids=lambda A: A.spec.render())
def test_bind_to_object_specialises_primed_and_numeric_keys(A):
    rng = random.Random(f"bind primed {A.spec.render()}")
    for P in [P for _, P in catalog(A.hopf)] + [random_tree(rng, A.hopf)[0] for _ in range(5)]:
        bound = bind_to_object(P, A)
        expanded = FreeComodulePoly(P.hopf, P.copies, AlgElement(P.element.algebra, ref_bind(P, A)))
        assert bound.element.terms == expanded.element.terms
        assert mu(bound, A) == mu(expanded, A)
        assert bound is not P


def expanded_substitute(P, image_fn):
    """Each word of the expanded polynomial, mapped letter by letter."""
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


@pytest.mark.parametrize("H", [taft(2), taft(3), en(2)], ids=lambda H: H.name)
def test_substitute_matches_expanded(H):
    rng = random.Random(f"substitute {H.name}")
    alg = H.algebra

    def image(i, w):
        hb = alg.element({w: 1})
        return x_symbol(3 - i, hb) * Fraction(1, 2) + x_symbol(3, hb)

    for _ in range(10):
        P, _ = random_tree(rng, H)
        got = substitute(P, image)
        assert shape(got) == shape(P)
        assert got == expanded_substitute(P, image)


@pytest.mark.parametrize("n", [12, 16])
def test_taft_pc_verified_at_large_n(n):
    A = obj(f"taft:{n};a=sym;c=sym")
    assert mu(bind_to_object(taft_identity(n), A), A).is_zero()
    # and a perturbed copy is not an identity
    X = x_symbol(1, A.hopf.algebra.gen("x"))
    assert not mu(bind_to_object(taft_identity(n), A) + X**n, A).is_zero()


def test_shared_subtrees_are_evaluated_once():
    H = taft(3)
    X = x_symbol(1, H.algebra.gen("x"))
    Y = x_symbol(1, H.algebra.gen("y"))
    Xn = X**3
    seen = []
    _evaluate(Xn * Y + Y * Xn + Xn * Xn, lambda e: seen.append(e) or e)
    # X only occurs under the shared X^3
    assert len(seen) == 2


def test_deep_trees_need_no_recursion():
    H = taft(2)
    X = x_symbol(1, H.algebra.gen("x"))
    P = X
    for _ in range(20000):
        P = P + X
    assert P.element == (X * 20001).element
    assert mu(P, obj("taft:2;a=1;c=0")) == mu(X * 20001, obj("taft:2;a=1;c=0"))
