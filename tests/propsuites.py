"""Seeded randomized property suites, shared by the property and acceptance tests.

Each suite runs a fixed number of cases against a spread of shipped
presentations and returns a list of failure descriptions; an empty list means
the property held everywhere.
"""

import math
from fractions import Fraction

from hopfid.commpoly import CommPoly, ParamVar, TVar
from hopfid.comodule import galois_object
from hopfid.cyclotomic import CyclotomicNumber
from hopfid.exprparse import parse_expression, parse_object_spec
from hopfid.hopf import en, taft
from hopfid.identities import FreeComodulePoly, _gen_meta, mu, x_symbol
from hopfid.ncalg import check_confluence


def hopf_presentations():
    return [taft(2), taft(3), en(1), en(2)]


def object_specs():
    return [
        "taft:2",
        "taft:3",
        "en:2",
        "taft:2;a=1;c=0",
        "taft:3;a=1;c=1",
        "en:2;a=1;c1=0;c2=1;d1,2=0",
    ]


def shipped_algebras():
    algs = [H.algebra for H in hopf_presentations()]
    algs += [galois_object(parse_object_spec(s)).algebra for s in object_specs()]
    return algs


def random_cyclotomic(rng, order):
    z = CyclotomicNumber.zeta(order)
    value = CyclotomicNumber.from_rational(
        order, Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 3)))
    )
    if rng.random() < 0.4:
        value = value + z ** rng.randrange(1, max(order, 2))
    return value


def random_scalar(rng, order, allow_tvars=False):
    poly = CommPoly.constant(random_cyclotomic(rng, order))
    for _ in range(rng.randrange(3)):
        roll = rng.random()
        if roll < 0.4:
            var = ParamVar("a", (), rng.randrange(2))
        elif roll < 0.7:
            var = ParamVar("c", (rng.randrange(1, 3),))
        elif not allow_tvars or roll < 0.85:
            var = ParamVar("d", (1, 2))
        else:
            idx = rng.randrange(2)
            var = TVar(1, idx, ("1", "x")[idx])
        poly = poly * CommPoly.variable(order, var)
    return poly


def random_element(rng, alg, allow_tvars=False, max_len=3, max_terms=3):
    total = alg.zero()
    gens = len(alg.generators)
    for _ in range(rng.randrange(max_terms + 1)):
        word = tuple(
            rng.randrange(gens) for _ in range(rng.randrange(max_len + 1))
        )
        coeff = random_scalar(rng, alg.order, allow_tvars)
        if alg.tensor_factors is not None:  # a word over the generators g@k, multiplied out
            total = total + math.prod((alg.gen(alg.generators[g]) for g in word), start=alg.one()) * coeff
            continue
        total = total + alg.element({word: coeff})
    return total


def random_free(rng, H, copies=2, max_len=3, max_terms=2):
    basis = H.basis()
    alg = H.algebra
    total = FreeComodulePoly.zero(H)
    for _ in range(rng.randrange(1, max_terms + 1)):
        term = FreeComodulePoly.scalar(H, random_scalar(rng, alg.order))
        for _ in range(rng.randrange(max_len + 1)):
            word = basis[rng.randrange(len(basis))]
            term = term * x_symbol(
                rng.randrange(1, copies + 1), alg.element({word: 1})
            )
        total = total + term
    return total


def copy_indices(P):
    """The copy indices of the letters of P's expansion, each read off its letter."""
    T = P.element.algebra
    return {_gen_meta(T, g)[0] for w in P.element.terms for g in w}


def suite_ring_axioms(rng, cases):
    failures = []
    algs = shipped_algebras()
    for k in range(cases):
        if k % 2 == 0:
            order = rng.choice((2, 3))
            p = random_scalar(rng, order, allow_tvars=True)
            q = random_scalar(rng, order, allow_tvars=True)
            r = random_scalar(rng, order, allow_tvars=True)
            checks = (
                (p + q) + r == p + (q + r),
                (p * q) * r == p * (q * r),
                p * (q + r) == p * q + p * r,
                p * q == q * p,
                p + CommPoly.zero(order) == p,
                p * CommPoly.one(order) == p,
                p - p == CommPoly.zero(order),
            )
            if not all(checks):
                failures.append(f"scalar ring axiom case {k}")
        else:
            alg = algs[k % len(algs)]
            tvars = hasattr(alg, "comodule_hopf")
            e1 = random_element(rng, alg, tvars)
            e2 = random_element(rng, alg, tvars)
            e3 = random_element(rng, alg, tvars)
            checks = (
                (e1 + e2) + e3 == e1 + (e2 + e3),
                e1 * (e2 + e3) == e1 * e2 + e1 * e3,
                (e1 + e2) * e3 == e1 * e3 + e2 * e3,
                e1 + alg.zero() == e1,
                e1 * alg.one() == e1,
                alg.one() * e1 == e1,
                e1 - e1 == alg.zero(),
            )
            if not all(checks):
                failures.append(f"element ring axiom case {k} in {alg.name}")
    return failures


def suite_confluence_associativity(rng, cases):
    failures = []
    algs = shipped_algebras()
    for alg in algs:
        report = check_confluence(alg)
        if not report.ok:
            failures.append(f"confluence fails in {alg.name}")
    for k in range(cases):
        alg = algs[k % len(algs)]
        e1 = random_element(rng, alg)
        e2 = random_element(rng, alg)
        e3 = random_element(rng, alg)
        if (e1 * e2) * e3 != e1 * (e2 * e3):
            failures.append(f"associativity case {k} in {alg.name}")
    return failures


def suite_mu_multiplicative(rng, cases):
    failures = []
    objects = [galois_object(parse_object_spec(s)) for s in object_specs()]
    for k in range(cases):
        A = objects[k % len(objects)]
        P = random_free(rng, A.hopf)
        Q = random_free(rng, A.hopf)
        if mu(P * Q, A) != mu(P, A) * mu(Q, A):
            failures.append(f"mu multiplicativity case {k} on {A.name}")
    return failures


def suite_parse_roundtrip(rng, cases):
    failures = []
    algs = shipped_algebras()
    hopfs = hopf_presentations()
    for k in range(cases):
        if k % 3 == 2:
            H = hopfs[k % len(hopfs)]
            poly = random_free(rng, H)
            again = parse_expression(str(poly), H)
            if again != poly:
                failures.append(f"free round-trip case {k} over {H.name}")
        else:
            alg = algs[k % len(algs)]
            tvars = hasattr(alg, "comodule_hopf")
            elem = random_element(rng, alg, tvars)
            again = parse_expression(str(elem), alg)
            if again != elem:
                failures.append(f"element round-trip case {k} in {alg.name}")
    return failures
