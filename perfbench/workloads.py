"""The two in-process workloads: identity_ladder and galois_linear.

Each workload function takes the seed, builds the workload's Hopf algebras
and objects (the caller has imported hopfid), draws the seeded inputs, and
returns (ops, checks).  ops is the fixed, ordered operation list that is
timed; checks are the negative controls and property checks, run after the
ops and not timed, so they neither add to the latencies nor warm a cache
before an operation needs it.  Every call goes through the hopfid package
attributes at call time, so the traced run's wrappers are seen.

Each entry is an Op(label, run, check).  run() makes the calls and returns
their output; check(output) returns None when the output is right and a
message otherwise.  The checks come from the theorems the program implements
and from closed forms computed here, never from recorded output.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial
from typing import Callable, NamedTuple

import hopfid as hf


class Op(NamedTuple):
    label: str
    run: Callable
    check: Callable


def _obj(text):
    return hf.galois_object(hf.parse_object_spec(text))


def _expect_zero(label):
    def check(image):
        return None if image.is_zero() else f"{label}: nonzero mu-image {image}"
    return check


def _expect_nonzero(label):
    def check(image):
        return f"{label}: negative control vanished" if image.is_zero() else None
    return check


def _all_zero(images):
    bad = [str(img) for img in images if not img.is_zero()]
    return f"{len(bad)} nonzero images, first {bad[0]}" if bad else None


def _one_minus_q_pow(n):
    """(1 - zeta_n)^n in Q(zeta_n), from the binomial expansion."""
    coeffs = [comb(n, k) * (-1) ** k for k in range(n + 1)]
    return hf.CyclotomicNumber.from_poly(n, coeffs)


def _closed_form_witness(H, c_first, c_second, scale):
    """(c - c') * scale * t[1,1]^n * t[1,x]^n as the coefficient of the word 1.

    With a = 1 the word x^n of mu(E^n X^n) reduces to 1, so the witness of
    distinguish is this one-term element of the second object.
    """
    n = H.n if H.family == "taft" else 2
    order = H.algebra.order
    t1 = hf.CommPoly.variable(order, hf.TVar(1, H.basis_index(()), "1"), n)
    tx = hf.CommPoly.variable(order, hf.TVar(1, H.basis_index((0,)), "x"), n)
    return (c_first - c_second) * scale * t1 * tx


def _random_word_data(rng, ngens, max_len=3, n_terms=3):
    return [
        (tuple(rng.randrange(ngens) for _ in range(rng.randrange(max_len + 1))),
         rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(n_terms)
    ]


def _element(alg, data):
    total = alg.zero()
    for word, coeff in data:
        total = total + alg.element({word: coeff})
    return total


# -- identity_ladder ------------------------------------------------------------


def _taft_pc(n):
    A = _obj(f"taft:{n};a=sym;c=sym")

    def run():
        return hf.mu(hf.bind_to_object(hf.taft_identity(n), A), A)

    return Op(f"taft_pc taft:{n};a=sym;c=sym", run, _expect_zero(f"taft_pc on taft:{n}"))


def _en_catalog(n):
    A = _obj(f"en:{n}")

    def run():
        return [hf.mu(hf.bind_to_object(P, A), A) for _, P in hf.catalog(A.hopf)]

    def check(images):
        if len(images) != n * (n + 3) // 2:
            return f"en:{n} catalog has {len(images)} identities, want {n * (n + 3) // 2}"
        return _all_zero(images)

    return Op(f"catalog en:{n}", run, check)


def _commutator_family(spec, kind, names):
    A = _obj(spec)
    alg = A.hopf.algebra

    def run():
        hs = [alg.gen(g) for g in names]
        core = hf.coinvariant_P(*hs) if kind == "P" else hf.coinvariant_Q(*hs)
        return [
            hf.mu(hf.commutator_identity(core, alg.element({z: 1})), A)
            for z in A.hopf.basis()
        ]

    return Op(f"coinv_{kind}:{','.join(names)} {spec}", run, _all_zero)


def _distinguish_taft(n):
    A, B = _obj(f"taft:{n};a=1;c=0"), _obj(f"taft:{n};a=1;c=1")
    want = _closed_form_witness(A.hopf, 0, 1, _one_minus_q_pow(n))

    def check(verdict):
        if not isinstance(verdict, hf.Distinguished) or verdict.identity != "taft_pc":
            return f"taft:{n}: want a taft_pc witness, got {verdict}"
        if verdict.witness.terms != {(): want}:
            return f"taft:{n}: witness {verdict.witness} is not {want}"
        return None

    return Op(f"distinguish taft:{n} c=0|c=1", lambda: hf.distinguish(A, B), check)


def _distinguish_en2():
    A = _obj("en:2;a=1;c1=0;c2=0;d1,2=0")
    B = _obj("en:2;a=1;c1=1;c2=0;d1,2=0")
    want = _closed_form_witness(A.hopf, 0, 1, 4)

    def check(verdict):
        if not isinstance(verdict, hf.Distinguished) or verdict.identity != "en_ci:1":
            return f"en:2: want an en_ci:1 witness, got {verdict}"
        if verdict.witness.terms != {(): want}:
            return f"en:2: witness {verdict.witness} is not {want}"
        return None

    return Op("distinguish en:2 c1=0|c1=1", lambda: hf.distinguish(A, B), check)


def _isomorphic_pair():
    # a differs by the cube 8, so the objects are isomorphic
    A, B = _obj("taft:3;a=1;c=1"), _obj("taft:3;a=8;c=1")

    def check(verdict):
        return None if isinstance(verdict, hf.Isomorphic) else f"want isomorphic, got {verdict}"

    return Op("distinguish taft:3 a=1|a=8", lambda: hf.distinguish(A, B), check)


def _structural_suite(hspec, rng):
    """One operation: every structural check of one Hopf algebra and its object."""
    H = hf.parse_hopf_spec(hspec)
    A = _obj(hspec)
    ngens = len(A.algebra.generators)
    triples = [[_random_word_data(rng, ngens) for _ in range(3)] for _ in range(20)]

    def run():
        reports = [hf.check_hopf_axioms(H), hf.check_confluence(H.algebra),
                   hf.check_comodule(A), hf.check_confluence(A.algebra)]
        alg = A.algebra
        bad = 0
        for data in triples:
            e1, e2, e3 = (_element(alg, d) for d in data)
            if (e1 * e2) * e3 != e1 * (e2 * e3):
                bad += 1
        return reports, bad

    def check(out):
        reports, bad = out
        failing = [str(r) for r in reports if not r.ok]
        if bad:
            failing.append(f"{bad} of 20 seeded triples not associative")
        return "; ".join(failing) or None

    return Op(f"structural suite {hspec}", run, check)


def _standard(m, k):
    def run():
        P = hf.standard_polynomial(m)
        return len(P.element.terms), hf.verify_matrix_identity(m, k)

    def check(out):
        terms, holds = out
        if terms != factorial(m):
            return f"s_{m} has {terms} terms, want {factorial(m)}"
        # Amitsur-Levitzki: s_m vanishes on k x k matrices exactly when m >= 2k
        if holds != (m >= 2 * k):
            return f"s_{m} on M_{k}: verdict {holds}, want {m >= 2 * k}"
        return None

    return Op(f"standard s_{m} on M_{k}", run, check)


def _random_free_poly(H, rng):
    basis = H.basis()
    alg = H.algebra
    total = hf.FreeComodulePoly.zero(H)
    for _ in range(rng.randrange(2, 4)):
        term = hf.FreeComodulePoly.scalar(H, rng.choice((-2, -1, 1, 2, 3)))
        for _ in range(rng.randrange(1, 3)):
            term = term * hf.x_symbol(1, alg.element({rng.choice(basis): 1}))
        total = total + term
    return total


def _mu_multiplicative(spec, rng):
    A = _obj(spec)
    pairs = [(_random_free_poly(A.hopf, rng), _random_free_poly(A.hopf, rng)) for _ in range(6)]

    def run():
        return [hf.mu(P * Q, A) == hf.mu(P, A) * hf.mu(Q, A) for P, Q in pairs]

    def check(flags):
        return None if all(flags) else f"mu not multiplicative on {flags.count(False)} pairs"

    return Op(f"mu multiplicative {spec}", run, check)


def _perturbed_taft_pc(n):
    A = _obj(f"taft:{n};a=sym;c=sym")

    def run():
        # taft_pc with c replaced by c + 1: adds (1-q)^n E^n X^n
        H = A.hopf
        P = hf.bind_to_object(hf.taft_identity(n), A)
        E = hf.x_symbol(1, H.algebra.one())
        X = hf.x_symbol(1, H.algebra.gen("x"))
        return hf.mu(P + _one_minus_q_pow(n) * ((E**n) * (X**n)), A)

    return Op(f"control perturbed taft_pc taft:{n}", run, _expect_nonzero("perturbed taft_pc"))


def _polynomial_x(spec):
    A = _obj(spec)
    gen = A.hopf.algebra.gen("x")
    return Op(f"control X {spec}", lambda: hf.mu(hf.x_symbol(1, gen), A), _expect_nonzero("X"))


def identity_ladder(seed):
    rng = random.Random(seed)
    ops = [_taft_pc(n) for n in range(2, 8)]
    ops += [_en_catalog(n) for n in range(1, 7)]
    ops += [
        _commutator_family("taft:2", "P", ["y"]),
        _commutator_family("taft:2", "P", ["x"]),
        _commutator_family("taft:3", "P", ["y"]),
        _commutator_family("en:1", "P", ["y1"]),
        _commutator_family("en:2", "P", ["y2"]),
        _commutator_family("taft:2", "Q", ["y", "y"]),
        _commutator_family("en:1", "Q", ["y1", "x"]),
    ]
    ops += [_distinguish_taft(n) for n in range(2, 7)]
    ops += [_distinguish_en2(), _isomorphic_pair()]
    ops += [_structural_suite(hspec, rng)
            for hspec in ("taft:2", "taft:3", "taft:4", "taft:5", "en:1", "en:2", "en:3")]
    ops += [_standard(2, 2), _standard(3, 2), _standard(4, 2), _standard(5, 3), _standard(6, 3)]
    checks = [
        _mu_multiplicative("taft:3", rng),
        _mu_multiplicative("en:2", rng),
        _perturbed_taft_pc(3),
        _perturbed_taft_pc(5),
        _polynomial_x("taft:2;a=1;c=0"),
        _polynomial_x("en:1;a=1;c1=0"),
    ]
    return ops, checks


# -- galois_linear --------------------------------------------------------------


def _galois_object(spec):
    """One operation: the Galois-object verdict on a numeric object.

    The coinvariants must be span{1} and the Galois map bijective.
    """
    A = _obj(spec)

    def run():
        return hf.coinvariants(A), hf.galois_map_bijective(A)

    def check(out):
        vectors, bijective = out
        if len(vectors) != 1:
            return f"coinvariants have dimension {len(vectors)}, want 1"
        if set(vectors[0].terms) != {()}:
            return f"coinvariant {vectors[0]} is not a multiple of 1"
        return None if bijective is True else "Galois map not bijective"

    return Op(f"galois object {spec}", run, check)


def _singular_matrix(order, size, rng):
    """A size x size matrix whose last row combines two others: rank < size."""
    def scalar():
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(hf.cyclotomic.field_degree(order))]
        return hf.CyclotomicNumber(order, coeffs)

    rows = [[scalar() for _ in range(size)] for _ in range(size - 1)]
    alpha, beta = scalar(), scalar()
    rows.append([alpha * a + beta * b for a, b in zip(rows[0], rows[1])])
    return Op(f"control singular {size}x{size} order {order}",
              lambda: hf.linalg.rank(rows),
              lambda r: None if r < size else f"singular matrix got rank {r}")


def galois_linear(seed):
    rng = random.Random(seed)
    specs = [f"taft:{n};a=1;c={c}" for n in (2, 3, 4) for c in (0, 1)]
    # fixed E(n) parameters: the cost of the Galois map depends on them
    specs += [
        "en:1;a=1;c1=1",
        "en:2;a=1;c1=1;c2=-1;d1,2=1",
        "en:3;a=1;c1=1;c2=-1;c3=1;d1,2=1;d1,3=-1;d2,3=1",
    ]
    ops = [_galois_object(spec) for spec in specs]
    checks = [_singular_matrix(order, 16, rng) for order in (2, 3, 4)]
    return ops, checks


WORKLOADS = {"identity_ladder": identity_ladder, "galois_linear": galois_linear}
