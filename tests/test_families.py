"""Oracle tests for the shared family builders in hopf.py.

The references below write each family out by hand, one branch per family:
the Taft and E(n) relations and their coproduct, counit and antipode on
generators, the two branches that built an object's relations and coaction,
and the per-family mapping of spec keys to parameters.  The shared builders
(family_relations, coaction_images, param_var) must reproduce them exactly:
the same rules in the same order with the same coefficients, and the same
generator images.
"""

import pytest

from hopfid.commpoly import CommPoly, ParamVar
from hopfid.comodule import Symbolic, galois_object, param_var
from hopfid.cyclotomic import CyclotomicNumber, primitive_root
from hopfid.exprparse import parse_object_spec
from hopfid.hopf import en, taft
from hopfid.identities import bind_to_object, catalog
from hopfid.ncalg import PresentedAlgebra, RewriteRule, embed, tensor_product


def ref_taft(n):
    """(names, rules, coproduct, counit, antipode) of taft:n, by hand."""
    q = primitive_root(n)
    one = CommPoly.one(n)
    X, Y = 0, 1
    rules = (
        RewriteRule((X,) * n, [((), one)]),
        RewriteRule((Y, X), [((X, Y), CommPoly.constant(q))]),
        RewriteRule((Y,) * n, []),
    )
    alg = PresentedAlgebra("ref", ("x", "y"), n, rules)
    sq = tensor_product(alg, alg)
    x0, x1 = embed(alg.gen("x"), sq, 0), embed(alg.gen("x"), sq, 1)
    y0, y1 = embed(alg.gen("y"), sq, 0), embed(alg.gen("y"), sq, 1)
    cop = (x0 * x1, y1 + y0 * x1)
    eps = (CyclotomicNumber.one(n), CyclotomicNumber.zero(n))
    xinv = alg.element({("x",) * (n - 1): 1})
    s_y = alg.element({("x",) * (n - 1) + ("y",): -(q.inverse())})
    return alg.generators, rules, cop, eps, (xinv, s_y)


def ref_en(n):
    """(names, rules, coproduct, counit, antipode) of en:n, by hand."""
    one = CommPoly.one(2)
    minus = CommPoly.scalar(2, -1)
    names = ["x"] + [f"y{i}" for i in range(1, n + 1)]
    rules = [RewriteRule((0, 0), [((), one)])]
    for i in range(1, n + 1):
        rules.append(RewriteRule((i, 0), [((0, i), minus)]))
        rules.append(RewriteRule((i, i), []))
        for j in range(1, i):
            rules.append(RewriteRule((i, j), [((j, i), minus)]))
    alg = PresentedAlgebra("ref", names, 2, rules)
    sq = tensor_product(alg, alg)
    x0, x1 = embed(alg.gen("x"), sq, 0), embed(alg.gen("x"), sq, 1)
    cop = [x0 * x1]
    eps = [CyclotomicNumber.one(2)]
    anti = [alg.gen("x")]
    for i in range(1, n + 1):
        yi0 = embed(alg.element({(i,): 1}), sq, 0)
        yi1 = embed(alg.element({(i,): 1}), sq, 1)
        cop.append(yi1 + yi0 * x1)
        eps.append(CyclotomicNumber.zero(2))
        anti.append(alg.element({(i, 0): -1}))
    return alg.generators, tuple(rules), cop, eps, anti


def ref_param_poly(spec, key):
    """A spec key's value, with one branch per key shape."""
    order = spec.n if spec.family == "taft" else 2
    value = spec.value(key)
    if key in ("a", "c"):
        tag, indices = key, ()
    elif key.startswith("c"):
        tag, indices = "c", (int(key[1:]),)
    else:
        i, j = key[1:].split(",")
        tag, indices = "d", (int(i), int(j))
    if isinstance(value, Symbolic):
        return CommPoly.variable(order, ParamVar(tag, indices, value.prime))
    return CommPoly.constant(value)


def ref_object(spec):
    """(names, rules, coaction images) of a family object, one branch each."""
    n = spec.n
    if spec.family == "taft":
        order = n
        a_poly = ref_param_poly(spec, "a")
        c_poly = ref_param_poly(spec, "c")
        qp = CommPoly.constant(primitive_root(n))
        names = ("x", "y")
        rules = (
            RewriteRule((0,) * n, [((), a_poly)]),
            RewriteRule((1, 0), [((0, 1), qp)]),
            RewriteRule((1,) * n, [((), c_poly)] if not c_poly.is_zero() else []),
        )
    else:
        order = 2
        a_poly = ref_param_poly(spec, "a")
        minus = CommPoly.scalar(order, -1)
        names = ["u"] + [f"u{i}" for i in range(1, n + 1)]
        rules = [RewriteRule((0, 0), [((), a_poly)])]
        for i in range(1, n + 1):
            ci = ref_param_poly(spec, f"c{i}")
            rules.append(RewriteRule((i, 0), [((0, i), minus)]))
            rules.append(RewriteRule((i, i), [((), ci)] if not ci.is_zero() else []))
            for j in range(1, i):
                dji = ref_param_poly(spec, f"d{j},{i}")
                rhs = [((j, i), minus)]
                if not dji.is_zero():
                    rhs.append(((), dji))
                rules.append(RewriteRule((i, j), rhs))
    alg = PresentedAlgebra("ref", names, order, rules)
    H = spec.hopf()
    tensor = tensor_product(alg, H.algebra)
    one, join = CommPoly.one(order), tensor.join
    co = [tensor.element({join((0,), (0,)): one})]
    for i in range(1, len(names)):
        co.append(tensor.element({join((), (i,)): one, join((i,), (0,)): one}))
    return alg.generators, rules, co


def ref_bind(P, A):
    """Specialize c and d of P to A's values, one branch per family."""
    spec = A.spec
    assignment = {}
    if spec.family == "taft":
        assignment[ParamVar("c")] = ref_param_poly(spec, "c")
    else:
        for i in range(1, spec.n + 1):
            assignment[ParamVar("c", (i,))] = ref_param_poly(spec, f"c{i}")
            for j in range(i + 1, spec.n + 1):
                assignment[ParamVar("d", (i, j))] = ref_param_poly(spec, f"d{i},{j}")
    terms = {}
    for w, c in P.element.terms.items():
        nc = c.specialize(assignment)
        if not nc.is_zero():
            terms[w] = nc
    return terms


def rule_list(rules):
    return [(r.lhs, r.rhs) for r in rules]


def terms(elements):
    return [e.terms for e in elements]


HOPF = [("taft", n, taft, ref_taft) for n in range(2, 8)]
HOPF += [("en", n, en, ref_en) for n in range(1, 5)]


@pytest.mark.parametrize("family,n,build,ref", HOPF, ids=[f"{f}:{n}" for f, n, *_ in HOPF])
def test_hopf_family_matches_hand_written(family, n, build, ref):
    H = build(n)
    names, rules, cop, eps, anti = ref(n)
    assert H.algebra.generators == names
    assert rule_list(H.algebra.rules) == rule_list(rules)
    ng = len(names)
    assert terms(H.coproduct_map.generator(g) for g in range(ng)) == terms(cop)
    assert H.counit_on_generators == tuple(eps)
    assert terms(H.antipode_map.generator(g) for g in range(ng)) == terms(anti)
    assert H.q == primitive_root(H.algebra.order)


OBJECTS = [
    "taft:3",
    "taft:4;a=2;c=0",
    "en:3;a=1;c1=1;d1,3=2",
    "en:2",
    "taft:2;a=sym';c=sym''",
]


@pytest.mark.parametrize("text", OBJECTS)
def test_object_matches_hand_written_branch(text):
    spec = parse_object_spec(text)
    A = galois_object(spec)
    names, rules, co = ref_object(spec)
    assert A.algebra.generators == names
    assert rule_list(A.algebra.rules) == rule_list(rules)
    ng = len(names)
    assert terms(A.coaction_map.generator(g) for g in range(ng)) == terms(co)


@pytest.mark.parametrize("text", OBJECTS)
def test_spec_keys_and_binding_match_hand_written_branch(text):
    spec = parse_object_spec(text)
    A = galois_object(spec)
    for key in spec.keys():
        assert A.param_poly(key) == ref_param_poly(spec, key)
        var = param_var(key)
        assert var.prime == 0
        assert var.render().replace("[", "").replace("]", "") == key
    # a is left alone: it is not a catalog parameter
    order = A.algebra.order
    a = CommPoly.variable(order, ParamVar("a"))
    for _, template in catalog(A.hopf):
        for P in (template, template * a):
            assert bind_to_object(P, A).element.terms == ref_bind(P, A)


def test_param_var_reads_every_key_shape():
    assert param_var("a") == ParamVar("a")
    assert param_var("c") == ParamVar("c")
    assert param_var("c3") == ParamVar("c", (3,))
    assert param_var("d1,2", 2) == ParamVar("d", (1, 2), 2)
    assert param_var("d2,11") == ParamVar("d", (2, 11))
