"""Tests for the free comodule algebra, the universal map, and the catalogs."""

import itertools
import math
from fractions import Fraction

import pytest

from hopfid import identities
from hopfid.commpoly import CommPoly, ParamVar, TVar
from hopfid.comodule import Symbolic, en_object_spec, galois_object, object_spec, taft_object_spec
from hopfid.cyclotomic import CyclotomicNumber
from hopfid.hopf import en, taft, trivial_hopf
from hopfid.exprparse import parse_expression, parse_object_spec
from hopfid.identities import (
    _gen_id,
    _perm_sign,
    MAX_MU_PAIRS,
    Distinguished,
    FreeComodulePoly,
    Isomorphic,
    bind_to_object,
    catalog,
    coinvariant_P,
    coinvariant_Q,
    commutator_identity,
    distinguish,
    en_identities,
    free_algebra,
    is_identity,
    matrix_identity_witness,
    mu,
    standard_polynomial,
    substitute,
    t_var,
    taft_identity,
    verify_matrix_identity,
    x_symbol,
)
from hopfid.ncalg import AlgElement, embed, tensor_product
from free_coaction import is_coinvariant, t_coaction
from propsuites import copy_indices


def tvar(H, i, word, label):
    return CommPoly.variable(H.algebra.order, TVar(i, H.basis_index(word), label))


def test_copies_share_one_free_algebra():
    # X[i,h] is the letter (i - 1) dim H + rank(h) of the one T(X_H)
    for H in (taft(2), taft(3), en(2)):
        T, dim = free_algebra(H), len(H.basis())
        assert free_algebra(H) is T
        for r, w in enumerate(H.basis()):
            h = H.algebra.element({w: 1})
            first, second = x_symbol(1, h).element, x_symbol(2, h).element
            assert first.algebra is second.algebra is T
            assert list(first.terms) == [(r,)] and list(second.terms) == [(dim + r,)]


def test_free_algebra_has_no_basis():
    with pytest.raises(ValueError, match=r"^T\(X_taft:2\) is free on infinitely many letters"):
        free_algebra(taft(2)).basis()


@pytest.mark.parametrize("H", [taft(n) for n in range(2, 7)] + [en(n) for n in range(1, 5)],
                         ids=lambda H: H.name)
def test_free_letters_are_named_as_the_eager_labels(H):
    # the names T(X_H) gave its letters up front, kept as the oracle
    eager = [f"X[{i},{H.algebra.render_word(w)}]" for i in (1, 2, 3) for w in H.basis()]
    T = free_algebra(H)
    assert [T.render_word((g,)) for g in range(len(eager))] == eager
    assert T.render_word((0, 0, 1)) == f"{eager[0]}^2*{eager[1]}"


def test_mu_renders_no_letter_name():
    H = taft(9)
    T = free_algebra(H)
    T._names.clear()
    A = galois_object(parse_object_spec("taft:9;a=sym;c=sym"))
    P = bind_to_object(taft_identity(9), A)
    assert mu(P, A).is_zero()
    assert T._names == {}
    text = str(P)
    assert T._names and all(name in text for name in T._names.values())


def test_one_mu_map_serves_every_copy(monkeypatch):
    A = galois_object(taft_object_spec(2))
    alg = A.hopf.algebra
    identities._mu_map.cache_clear()
    f = identities._mu_map(A)
    calls = []
    image = f._image
    monkeypatch.setattr(f, "_image", lambda g: calls.append(g) or image(g))
    X1, X2 = x_symbol(1, alg.gen("x")), x_symbol(2, alg.gen("x"))
    assert mu(X1 * X1, A) == mu(X1, A) * mu(X1, A)
    assert mu(X2 * X1, A) == mu(X2, A) * mu(X1, A)
    assert identities._mu_map(A) is f
    assert sorted(calls) == [1, 5]


def test_x_symbol_linearity():
    H = taft(2)
    alg = H.algebra
    E = x_symbol(1, alg.one())
    assert str(E) == "X[1,1]"
    both = x_symbol(1, alg.gen("x") + alg.gen("y"))
    assert both == x_symbol(1, alg.gen("x")) + x_symbol(1, alg.gen("y"))
    assert x_symbol(2, alg.zero()).is_zero()
    scaled = x_symbol(1, alg.gen("x") * 3)
    assert scaled == 3 * x_symbol(1, alg.gen("x"))
    with pytest.raises(ValueError):
        x_symbol(1, CommPoly.one(2))


def test_x_symbol_refuses_copy_indices_below_one():
    alg = taft(2).algebra
    for i, g in ((0, "x"), (-1, "y")):
        with pytest.raises(ValueError, match=f"copy indices start at 1, not {i}$"):
            x_symbol(i, alg.gen(g))


def test_x_symbol_takes_structure_parameters_only():
    H = taft(2)
    c = CommPoly.variable(2, ParamVar("c"))
    assert str(x_symbol(1, H.algebra.gen("x") * c)) == "c*X[1,x]"
    t = t_var(H, 1, H.algebra.gen("x"))
    with pytest.raises(ValueError, match=r"structure parameters, not t\[1,x\]$"):
        x_symbol(1, H.algebra.one() * t)


def test_free_poly_arithmetic_across_copies():
    H = taft(2)
    alg = H.algebra
    X1 = x_symbol(1, alg.gen("x"))
    X2 = x_symbol(2, alg.gen("x"))
    # operands of different copies are elements of one T(X_H)
    s = X1 + X2
    assert copy_indices(s) == {1, 2}
    assert s - X2 == X1
    p = X1 * X2
    assert p.degree() == 2
    assert (X1 + 1) - 1 == X1
    assert (2 * X1) == X1 + X1
    assert X1 * Fraction(1, 2) * 2 == X1
    assert (X1**3).degree() == 3
    assert X1 != X2


def test_free_poly_rejects_tvar_coefficients():
    H = taft(2)
    X = x_symbol(1, H.algebra.gen("x"))
    t = CommPoly.variable(2, TVar(1, 0, "1"))
    with pytest.raises(ValueError):
        X * t
    with pytest.raises(ValueError):
        FreeComodulePoly.scalar(H, t)
    # structure parameters are fine
    c = CommPoly.variable(2, ParamVar("c"))
    assert not (X * c).is_zero()


def homogeneous_components(P):
    """Split P by X-degree; the grading gives every generator degree one."""
    buckets: dict = {}
    for w, c in P.element.terms.items():
        buckets.setdefault(len(w), {})[w] = c
    T = free_algebra(P.hopf)
    return {deg: FreeComodulePoly(P.hopf, AlgElement(T, terms))
            for deg, terms in sorted(buckets.items())}


def test_homogeneous_components():
    H = taft(2)
    alg = H.algebra
    E = x_symbol(1, alg.one())
    X = x_symbol(1, alg.gen("x"))
    p = E * X + X + 3
    comps = homogeneous_components(p)
    assert sorted(comps) == [0, 1, 2]
    assert comps[1] == X
    assert comps[2] == E * X
    total = FreeComodulePoly.zero(H)
    for part in comps.values():
        total = total + part
    assert total == p


def test_t_coaction_on_symbols():
    H = taft(2)
    alg = H.algebra
    T = free_algebra(H)
    TH = tensor_product(T, H.algebra)
    E = x_symbol(1, alg.one())
    X = x_symbol(1, alg.gen("x"))
    Y = x_symbol(1, alg.gen("y"))
    gx, gy, g1 = (_gen_id(T, 1, H.basis_index(w)) for w in ((0,), (1,), ()))
    # delta(X) = X (x) x
    assert t_coaction(X) == TH.element({((gx,), (0,)): 1})
    # delta(E) = E (x) 1
    assert t_coaction(E) == TH.element({((g1,), ()): 1})
    # delta(Y) = E (x) y + Y (x) x
    assert t_coaction(Y) == TH.element({((g1,), (1,)): 1, ((gy,), (0,)): 1})
    # multiplicative on products
    assert t_coaction(X * Y) == t_coaction(X) * t_coaction(Y)


def test_is_coinvariant():
    H = taft(2)
    alg = H.algebra
    E = x_symbol(1, alg.one())
    X = x_symbol(1, alg.gen("x"))
    assert is_coinvariant(E)
    assert is_coinvariant(E * E)
    assert not is_coinvariant(X)
    assert is_coinvariant(FreeComodulePoly.zero(H))
    # identity polynomials live in a right coideal but are not coinvariant
    assert not is_coinvariant(taft_identity(2))


def test_coinvariant_P_and_Q():
    H = taft(2)
    alg = H.algebra
    # P_1 = E^2 since Delta(1) = 1 (x) 1 and S(1) = 1
    P1 = coinvariant_P(alg.one())
    E = x_symbol(1, alg.one())
    assert P1 == E * E
    for w in H.basis():
        hb = alg.element({w: 1})
        assert is_coinvariant(coinvariant_P(hb))
    assert is_coinvariant(coinvariant_Q(alg.gen("x"), alg.gen("y")))
    # linear inputs work too
    assert is_coinvariant(coinvariant_P(alg.gen("x") + 2 * alg.gen("y")))


def test_mu_on_taft_generators():
    H = taft(2)
    alg = H.algebra
    A = galois_object(taft_object_spec(2))
    E = x_symbol(1, alg.one())
    X = x_symbol(1, alg.gen("x"))
    Y = x_symbol(1, alg.gen("y"))
    t1 = tvar(H, 1, (), "1")
    tx = tvar(H, 1, (0,), "x")
    ty = tvar(H, 1, (1,), "y")
    Aalg = A.algebra
    assert mu(E, A) == Aalg.one() * t1
    assert mu(X, A) == Aalg.gen("x") * tx
    assert mu(Y, A) == Aalg.gen("y") * t1 + Aalg.gen("x") * ty
    # mu is an algebra map
    assert mu(X * Y, A) == mu(X, A) * mu(Y, A)
    assert mu(FreeComodulePoly.zero(H), A).is_zero()


def test_mu_core_proof_steps():
    # the key collapse steps behind the Taft catalog identity
    for n in (2, 3, 4, 5):
        H = taft(n)
        alg = H.algebra
        A = galois_object(taft_object_spec(n))
        X = x_symbol(1, alg.gen("x"))
        Y = x_symbol(1, alg.gen("y"))
        E = x_symbol(1, alg.one())
        q = H.q
        one = CyclotomicNumber.one(n)
        t1 = tvar(H, 1, (), "1")
        tx = tvar(H, 1, (0,), "x")
        ty = tvar(H, 1, (1,), "y")
        a = CommPoly.variable(n, ParamVar("a"))
        c = CommPoly.variable(n, ParamVar("c"))
        Aalg = A.algebra
        core = Y * X - q * (X * Y)
        got = mu(core, A)
        assert got == Aalg.element({(0, 0): 1}) * (
            CommPoly.constant(one - q) * tx * ty
        )
        assert len(got.terms) == 1
        # mu(Y^n) = a t_y^n + c t_1^n
        got = mu(Y**n, A)
        assert got == Aalg.one() * (a * ty**n + c * t1**n)
        assert len(got.terms) == 1  # both contributions land on the unit word
        # mu((YX - qXY)^n) = a^2 (1-q)^n t_x^n t_y^n
        got = mu(core**n, A)
        w = CommPoly.constant((one - q) ** n)
        assert got == Aalg.one() * (a * a * w * tx**n * ty**n)
        # mu(X^n) = a t_x^n and mu(E^n) = t_1^n
        assert mu(X**n, A) == Aalg.one() * (a * tx**n)
        assert mu(E**n, A) == Aalg.one() * t1**n


def test_mu_rejects_mismatched_hopf():
    A = galois_object(taft_object_spec(2))
    P = x_symbol(1, taft(3).algebra.gen("x"))
    with pytest.raises(ValueError):
        mu(P, A)


def test_taft_identity_vanishes_symbolically():
    for n in (2, 3, 4, 5):
        A = galois_object(taft_object_spec(n))
        assert is_identity(taft_identity(n), A)


def test_taft_identity_shape():
    P = taft_identity(2)
    assert P.degree() == 4
    # expanded form: 4 words from the squared core, X^2Y^2, and E^2X^2
    assert len(P.element.terms) == 6
    H = taft(2)
    alg = H.algebra
    E = x_symbol(1, alg.one())
    X = x_symbol(1, alg.gen("x"))
    Y = x_symbol(1, alg.gen("y"))
    c = CommPoly.variable(2, ParamVar("c"))
    expected = (X * Y + Y * X) ** 2 - 4 * ((X**2) * (Y**2)) + (4 * c) * (
        (E**2) * (X**2)
    )
    assert P == expected
    assert taft_identity(3).degree() == 6
    assert taft_identity(5).degree() == 10


def test_taft_identity_detects_wrong_c():
    # with the object's c primed, the image is (c - c')(1-q)^n t_1^n t_x^n
    for n in (2, 3, 4):
        H = taft(n)
        A = galois_object(taft_object_spec(n, a=1, c=Symbolic(1)))
        got = mu(taft_identity(n), A)
        assert not got.is_zero()
        one = CyclotomicNumber.one(n)
        c = CommPoly.variable(n, ParamVar("c"))
        cp = CommPoly.variable(n, ParamVar("c", (), 1))
        t1 = tvar(H, 1, (), "1")
        tx = tvar(H, 1, (0,), "x")
        w = CommPoly.constant((one - H.q) ** n)
        assert got == A.algebra.one() * ((c - cp) * w * t1**n * tx**n)
        assert not is_identity(taft_identity(n), A)


def test_en_identity_count_and_degree():
    for n, count in ((1, 2), (2, 5), (3, 9)):
        idents = en_identities(n)
        assert len(idents) == count
        assert all(P.degree() == 4 for P in idents)
        assert n * (n + 3) // 2 == count


def test_en_identities_vanish_symbolically():
    for n in (1, 2, 3):
        A = galois_object(en_object_spec(n))
        for P in en_identities(n):
            assert is_identity(P, A)


def test_en_proof_steps():
    n = 2
    H = en(n)
    alg = H.algebra
    A = galois_object(en_object_spec(n))
    E = x_symbol(1, alg.one())
    X = x_symbol(1, alg.gen("x"))
    Y1 = x_symbol(1, alg.gen("y1"))
    Y2 = x_symbol(1, alg.gen("y2"))
    t0 = tvar(H, 1, (), "1")
    tx = tvar(H, 1, (0,), "x")
    t1 = tvar(H, 1, (1,), "y1")
    t2 = tvar(H, 1, (2,), "y2")
    a = CommPoly.variable(2, ParamVar("a"))
    c1 = CommPoly.variable(2, ParamVar("c", (1,)))
    d12 = CommPoly.variable(2, ParamVar("d", (1, 2)))
    one = A.algebra.one()
    assert mu(E**2, A) == one * (t0 * t0)
    assert mu(X**2, A) == one * (a * tx * tx)
    assert mu(Y1**2, A) == one * (a * t1 * t1 + c1 * t0 * t0)
    assert mu(X * Y1 + Y1 * X, A) == one * (2 * a * tx * t1)
    assert mu(Y1 * Y2 + Y2 * Y1, A) == one * (2 * a * t1 * t2 + d12 * t0 * t0)


def test_catalog_names_and_order():
    cat = catalog(taft(3))
    assert [name for name, _ in cat] == ["taft_pc"]
    cat = catalog(en(2))
    assert [name for name, _ in cat] == [
        "en_ci:1", "en_ci:2", "en_dij:1,1", "en_dij:1,2", "en_dij:2,2",
    ]
    assert catalog(trivial_hopf()) == []


def test_bind_to_object():
    A = galois_object(taft_object_spec(2, a=1, c=5))
    P = taft_identity(2)
    bound = bind_to_object(P, A)
    # the free c is replaced by the object's value
    assert ParamVar("c") not in {
        v for _, coeff in bound.element.terms.items() for v in coeff.variables()
    }
    assert is_identity(bound, A)
    # binding to the fully symbolic object is the original polynomial
    sym = galois_object(taft_object_spec(2))
    assert bind_to_object(P, sym) == P


def test_bound_identity_fails_on_other_object():
    A = galois_object(taft_object_spec(2, a=1, c=0))
    B = galois_object(taft_object_spec(2, a=1, c=1))
    bound = bind_to_object(taft_identity(2), A)
    assert is_identity(bound, A)
    assert not is_identity(bound, B)


def test_commutator_identities_for_taft2():
    H = taft(2)
    alg = H.algebra
    A = galois_object(taft_object_spec(2))
    basis = [alg.element({w: 1}) for w in H.basis()]
    for hb in basis:
        core = coinvariant_P(hb)
        for zb in basis:
            assert is_identity(commutator_identity(core, zb), A)
    # commutators use the second copy index
    com = commutator_identity(coinvariant_P(alg.gen("y")), alg.gen("x"))
    assert copy_indices(com) == {1, 2}


def test_commutator_Q_identities_spot():
    H = taft(2)
    alg = H.algebra
    A = galois_object(taft_object_spec(2))
    x, y = alg.gen("x"), alg.gen("y")
    for hb, hb2 in ((x, y), (y, y), (x * y, x)):
        core = coinvariant_Q(hb, hb2)
        for zb in (x, y, x * y):
            assert is_identity(commutator_identity(core, zb), A)


def test_standard_polynomial():
    S2 = standard_polynomial(2)
    T = free_algebra(trivial_hopf())
    assert S2.element == T.element({(0, 1): 1, (1, 0): -1})
    assert len(standard_polynomial(3).element.terms) == 6
    assert len(standard_polynomial(4).element.terms) == 24
    # the sign of the identity permutation is positive
    assert standard_polynomial(3).element.coefficient((0, 1, 2)) == 1
    assert standard_polynomial(3).element.coefficient((1, 0, 2)) == -1
    with pytest.raises(ValueError):
        standard_polynomial(0)


def test_verify_matrix_identity(monkeypatch):
    assert verify_matrix_identity(4, 2)
    assert not verify_matrix_identity(2, 2)
    assert not verify_matrix_identity(3, 2)
    # 1 x 1 matrices commute, so S_2 already vanishes
    assert verify_matrix_identity(2, 1)
    monkeypatch.setattr(identities, "MATRIX_BUDGET", 1000)
    with pytest.raises(ValueError, match="over the budget 1000$"):
        verify_matrix_identity(10, 4)


def test_matrix_identity_witness(monkeypatch):
    assert matrix_identity_witness(4, 2) is None
    # s_2 is the commutator: e11 e12 - e12 e11 = e12
    assert matrix_identity_witness(2, 2) == (((0, 0), (0, 1)), {(0, 1): 1})
    assign, value = matrix_identity_witness(3, 2)
    assert assign == ((0, 0), (0, 1), (1, 0))
    assert value == {(0, 0): 2, (1, 1): 1}
    monkeypatch.setattr(identities, "MATRIX_BUDGET", 1000)
    with pytest.raises(ValueError, match="over the budget 1000$"):
        matrix_identity_witness(10, 4)


def test_matrix_identity_witness_refuses_a_huge_m_at_once():
    # the cost is built a factor at a time, so (k*k)^m * m! is never formed
    with pytest.raises(ValueError, match="needs more than 82575360 operations, over the budget"):
        matrix_identity_witness(10**20, 2)
    with pytest.raises(ValueError, match="needs about 7085880 operations"):
        matrix_identity_witness(5, 3)


def test_matrix_identity_witness_past_k_squared_units_builds_no_permutation(monkeypatch):
    calls = []

    def counted(perm):
        calls.append(perm)
        return _perm_sign(perm)

    monkeypatch.setattr(identities, "_perm_sign", counted)
    # no set of m distinct units exists, so s_m vanishes without a walk
    for m, k in ((2, 1), (8, 1), (5, 2), (6, 2)):
        assert matrix_identity_witness(m, k) is None
    assert calls == []
    assert matrix_identity_witness(3, 2) is not None
    assert len(calls) == 6


def _witness_over_all_assignments(m, k):
    """The first witness over every assignment, repeated units included: the
    oracle for matrix_identity_witness, which skips the repeats."""
    units = [(i, j) for i in range(k) for j in range(k)]
    perms = [(p, _perm_sign(p)) for p in itertools.permutations(range(m))]
    for assign in itertools.product(units, repeat=m):
        acc = {}
        for perm, sign in perms:
            seq = [assign[p] for p in perm]
            if all(seq[t][1] == seq[t + 1][0] for t in range(m - 1)):
                key = (seq[0][0], seq[-1][1])
                acc[key] = acc.get(key, 0) + sign
        value = {unit: c for unit, c in sorted(acc.items()) if c}
        if value:
            return assign, value
    return None


def test_matrix_identity_witness_agrees_with_the_walk_over_all_assignments():
    # every (m, k) with (k^2)^m m! <= 2e5; at m = 1 (s_1 = X1, nonzero on the
    # first unit) only k <= 20 and the largest k, 447: the other 426 would
    # spend seconds building lists of units and nothing else
    grid = [(1, k) for k in (*range(1, 21), 447)]
    for m in range(2, 9):
        k = 1
        while k ** (2 * m) * math.factorial(m) <= 2 * 10**5:
            grid.append((m, k))
            k += 1
    for m, k in grid:
        found = matrix_identity_witness(m, k)
        assert found == _witness_over_all_assignments(m, k), (m, k)
        # Amitsur-Levitzki: s_m vanishes on k x k matrices exactly from m = 2k on
        assert (found is None) == (m >= 2 * k), (m, k)


def test_free_algebra_caches_no_normal_forms():
    for n in (2, 4):
        T = taft_identity(n).element.algebra
        assert not T.rules and T._nf_cache == {}


def test_substitute_endomorphism():
    H = taft(2)
    alg = H.algebra
    P = taft_identity(2)
    # the identity substitution
    same = substitute(P, lambda i, w: x_symbol(i, alg.element({w: 1})))
    assert same == P
    # scaling every symbol doubles each degree-4 word by 16
    doubled = substitute(P, lambda i, w: 2 * x_symbol(i, alg.element({w: 1})))
    assert doubled == 16 * P


def test_substitution_preserves_identities():
    # images built by the colinearity recipe: X_i^h -> sum lambda_j X_j^h
    H = taft(2)
    alg = H.algebra
    A = galois_object(taft_object_spec(2))

    def image(i, w):
        hb = alg.element({w: 1})
        return x_symbol(1, hb) * Fraction(1, 2) + x_symbol(2, hb) * 3

    P = substitute(taft_identity(2), image)
    assert is_identity(P, A)


def test_kernel_is_an_ideal():
    H = taft(2)
    alg = H.algebra
    A = galois_object(taft_object_spec(2))
    P = taft_identity(2)
    X = x_symbol(1, alg.gen("x"))
    Y = x_symbol(2, alg.gen("y"))
    assert is_identity(X * P, A)
    assert is_identity(P * X, A)
    assert is_identity(X * P * Y + P, A)


def test_kernel_is_graded():
    # a sum of identities of different degrees splits into identity parts
    H = taft(2)
    alg = H.algebra
    A = galois_object(taft_object_spec(2))
    P = taft_identity(2)
    X = x_symbol(1, alg.gen("x"))
    mixed = P + X * P  # degrees 4 and 5
    comps = homogeneous_components(mixed)
    assert sorted(comps) == [4, 5]
    for part in comps.values():
        assert is_identity(part, A)


def test_kernel_is_a_right_coideal():
    # every left tensor component of delta(P) over the H-basis is an identity
    H = taft(2)
    A = galois_object(taft_object_spec(2))
    P = taft_identity(2)
    T = free_algebra(H)
    TH = tensor_product(T, H.algebra)
    components = {}
    for (wt, wh), coeff in t_coaction(P).terms.items():
        acc = components.setdefault(wh, {})
        acc[wt] = acc.get(wt, CommPoly.zero(2)) + coeff
    for wh, terms in components.items():
        part = FreeComodulePoly(H, AlgElement(T, terms))
        assert is_identity(part, A)


def test_mu_is_a_comodule_map_on_generators():
    # (mu (x) id) after the free coaction equals the object coaction after mu
    from hopfid.comodule import coaction

    H = taft(2)
    alg = H.algebra
    A = galois_object(taft_object_spec(2))
    T = free_algebra(H)
    TH = tensor_product(T, H.algebra)
    for w in H.basis():
        xs = x_symbol(1, alg.element({w: 1}))
        lhs = A.tensor.zero()
        for (wt, wh), coeff in t_coaction(xs).terms.items():
            img = mu(FreeComodulePoly(H, T.element({wt: 1})), A)
            shifted = A.tensor.element({((), wh): 1})
            lhs = lhs + embed(img, A.tensor, 0) * shifted * coeff
        rhs = coaction(A, mu(xs, A))
        assert lhs == rhs


def test_distinguish_symbolic_taft():
    A = galois_object(taft_object_spec(2, a=1, c=Symbolic(0)))
    B = galois_object(taft_object_spec(2, a=1, c=Symbolic(1)))
    verdict = distinguish(A, B)
    assert isinstance(verdict, Distinguished)
    assert verdict.identity == "taft_pc"
    assert not verdict.witness.is_zero()
    # same parameters in both objects: nothing separates them
    same = distinguish(A, A)
    assert isinstance(same, Isomorphic)


def test_distinguish_numeric_taft():
    A = galois_object(taft_object_spec(2, a=1, c=0))
    B = galois_object(taft_object_spec(2, a=1, c=1))
    verdict = distinguish(A, B)
    assert isinstance(verdict, Distinguished)
    assert verdict.identity == "taft_pc"
    C = galois_object(taft_object_spec(3, a=1, c=5))
    assert isinstance(distinguish(C, C), Isomorphic)


def test_distinguish_en_by_d():
    A = galois_object(en_object_spec(2, a=1, c=[0, 0], d={(1, 2): 0}))
    B = galois_object(en_object_spec(2, a=1, c=[0, 0], d={(1, 2): 1}))
    verdict = distinguish(A, B)
    assert isinstance(verdict, Distinguished)
    assert verdict.identity == "en_dij:1,2"
    H = en(2)
    t0 = tvar(H, 1, (), "1")
    tx = tvar(H, 1, (0,), "x")
    # the witness reduces to 2 a t_0^2 t_x^2 with a = 1, evaluated in B
    assert verdict.witness == B.algebra.one() * (2 * t0**2 * tx**2)


def test_distinguish_en_by_c():
    A = galois_object(en_object_spec(1, a=1, c=[0]))
    B = galois_object(en_object_spec(1, a=1, c=[1]))
    verdict = distinguish(A, B)
    assert isinstance(verdict, Distinguished)
    assert verdict.identity == "en_ci:1"


def test_distinguish_reports_a_class():
    # a ratio with an exact rational n-th root: same class after rescaling
    A = galois_object(taft_object_spec(2, a=1, c=0))
    B = galois_object(taft_object_spec(2, a=16, c=0))
    verdict = distinguish(A, B)
    assert isinstance(verdict, Isomorphic)
    assert "rescaling" in verdict.note
    # no exact rational root: the a-class is reported as not compared
    C = galois_object(taft_object_spec(2, a=2, c=0))
    verdict = distinguish(A, C)
    assert isinstance(verdict, Isomorphic)
    assert "not compared" in verdict.note
    same = distinguish(A, galois_object(taft_object_spec(2, a=1, c=0)))
    assert "equal" in same.note


def test_distinguish_rejects_family_mismatch():
    A = galois_object(taft_object_spec(2, a=1, c=0))
    B = galois_object(en_object_spec(1, a=1, c=[0]))
    with pytest.raises(ValueError):
        distinguish(A, B)


def test_mu_refuses_a_product_past_the_pair_bound():
    A = galois_object(taft_object_spec(2, a=1, c=0))
    base = parse_expression("E+X+Y+X[2,1]+X[2,x]", A.hopf)
    # base^8 has 655 monomials: 86 * 86 pairs for its last square
    assert not mu(base**8, A).is_zero()
    # base^16 would square base^8, so it is refused before that square is formed
    for P in (base**16, base**40, base**8 * base**8):
        with pytest.raises(ValueError, match=f"655 by 655 monomials .* past {MAX_MU_PAIRS}"):
            mu(P, A)
    # a scalar multiple pairs the coefficient's monomials with the element's
    scalar = parse_expression("(a+1)^255", A.algebra)
    with pytest.raises(ValueError, match=f"655 by 256 monomials .* past {MAX_MU_PAIRS}"):
        mu(base**8 * scalar.coefficient(()), A)


def test_mu_bound_leaves_room_for_the_catalogs():
    # the catalog verdicts stay far from the bound at every size tier-1 reaches
    for H in [taft(n) for n in range(2, 9)] + [en(n) for n in range(1, 5)]:
        A = galois_object(object_spec(H.family, H.n))
        for _, P in catalog(H):
            assert mu(bind_to_object(P, A), A).is_zero()


def test_expansion_is_bounded_like_mu():
    # (YX - qXY)^16 expands to 2^16 words of T(X_H), all that the bound lets a
    # product of two halves form; taft_identity(17) multiplies it by two more
    P = taft_identity(17)
    with pytest.raises(ValueError, match=f"mu image bound: a product of 2 by 65536 "
                                         f"monomials .* past {MAX_MU_PAIRS}"):
        P.element
    # mu evaluates the tree in the object, so it needs no expansion
    A = galois_object(taft_object_spec(17, a=1, c=0))
    assert mu(bind_to_object(P, A), A).is_zero()
