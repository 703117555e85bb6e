"""The Galois map by exact elimination, kept as the oracle for the generator proof.

galois_map_by_elimination assembles the matrix of beta(a ⊗ b) = (a ⊗ 1)delta(b)
on all dim^2 product words of basis words and computes its exact rank.
galois_map_bijective proves the same verdict from beta(a kappa(g)) = a (1 ⊗ g)
on the generators g of H alone, kappa the translation map, since the h with
1 ⊗ h in the image of beta form a subalgebra, and with a symbolic it proves
it for every a != 0 at once; on every numeric object below, each a
specialization of that proof, the two must agree.  coinvariants reads
A^coH = k off that proof; coinvariants_by_elimination solves for A^coH by
exact elimination and is the oracle for it on numeric objects.
"""

from fractions import Fraction

import pytest

from hopfid import linalg
from hopfid.commpoly import CommPoly
from hopfid.comodule import (
    coinvariants,
    en_object_spec,
    galois_map_bijective,
    galois_object,
    taft_object_spec,
)
from hopfid.cyclotomic import CyclotomicNumber, primitive_root
from hopfid.exprparse import parse_object_spec
from hopfid.linalg import kernel_basis, rank
from hopfid.ncalg import AlgElement, embed


def galois_map_by_elimination(A) -> bool:
    """Whether beta is bijective: the rank of its dim^2-column matrix; numeric A only."""
    basis = A.algebra.basis()
    dim = len(basis)
    rows = {}  # tensor word -> sparse row over the product-basis columns
    for i, w1 in enumerate(basis):
        left = embed(A.algebra.normal_form_word(w1), A.tensor, 0)
        for j, w2 in enumerate(basis):
            for tw, c in (left * A.coaction_word(w2)).terms.items():
                rows.setdefault(tw, {})[i * dim + j] = c.constant_value()
    assert len(rows) <= dim * dim, "tensor basis larger than expected"
    return rank(list(rows.values())) == dim * dim


def coinvariants_by_elimination(A) -> list:
    """A basis of A^coH: delta(v) = v ⊗ 1 solved over the basis; numeric A only."""
    order = A.algebra.order
    basis = A.algebra.basis()
    zero, one = CyclotomicNumber.zero(order), CyclotomicNumber.one(order)
    rows = {}  # tensor word -> sparse row over the basis columns
    for j, w in enumerate(basis):
        for tw, c in A.coaction_word(w).terms.items():
            rows.setdefault(tw, {})[j] = c.constant_value()
        # less w ⊗ 1, w being normal; kernel_basis drops an entry that cancels
        row = rows.setdefault((w, ()), {})
        row[j] = row.get(j, zero) - one
    return [AlgElement(A.algebra, {basis[j]: CommPoly.constant(v) for j, v in enumerate(vec)})
            for vec in kernel_basis(list(rows.values()), len(basis), order)]


TAFT_SPECS = [taft_object_spec(n, a=a, c=c) for n in range(2, 7) for a in (1, 2) for c in (0, 1)]
TAFT_SPECS += [taft_object_spec(4, a=a, c=c)
               for a in (-4, Fraction(1, 2), 1 + primitive_root(4)) for c in (0, 1)]
EN_SPECS = [
    en_object_spec(1, a=1, c=[1]),
    en_object_spec(1, a=2, c=[0]),
    en_object_spec(2, a=1, c=[1, 0], d={(1, 2): -1}),
    en_object_spec(2, a=2, c=[0, 1], d={(1, 2): 0}),
    en_object_spec(3, a=1, c=[1, -1, 0], d={(1, 2): 1, (1, 3): 0, (2, 3): 2}),
    en_object_spec(3, a=-1, c=[0, 0, 0], d={(1, 2): 0, (1, 3): 0, (2, 3): 0}),
    en_object_spec(4, a=1, c=[1, 0, -1, 2],
                   d={(1, 2): 1, (1, 3): 0, (1, 4): -1, (2, 3): 0, (2, 4): 1, (3, 4): 0}),
]


@pytest.mark.parametrize("spec", TAFT_SPECS + EN_SPECS, ids=str)
def test_certificate_agrees_with_elimination(spec):
    A = galois_object(spec)
    assert galois_map_bijective(A) is galois_map_by_elimination(A) is True


COINVARIANT_SPECS = [taft_object_spec(n, a=a, c=c) for n in range(2, 6)
                     for a in (1, 2, -4, Fraction(1, 2)) for c in (0, 1)]
# galois_linear's E(n) objects, and each with every c and d zero
COINVARIANT_SPECS += [parse_object_spec(s) for s in (
    "en:1;a=1;c1=1",
    "en:2;a=1;c1=1;c2=-1;d1,2=1",
    "en:3;a=1;c1=1;c2=-1;c3=1;d1,2=1;d1,3=-1;d2,3=1",
    "en:1;a=1;c1=0",
    "en:2;a=1;c1=0;c2=0;d1,2=0",
    "en:3;a=1;c1=0;c2=0;c3=0;d1,2=0;d1,3=0;d2,3=0",
)]


@pytest.mark.parametrize("spec", COINVARIANT_SPECS, ids=str)
def test_coinvariants_agree_with_elimination(spec):
    A = galois_object(spec)
    assert coinvariants(A) == coinvariants_by_elimination(A) == [A.algebra.one()]


def test_coinvariants_of_a_galois_object_need_no_elimination(monkeypatch):
    def refuse(rows):
        raise AssertionError("eliminated although beta is proved bijective")

    monkeypatch.setattr(linalg, "row_reduce", refuse)
    for spec in COINVARIANT_SPECS:
        A = galois_object(spec)
        assert coinvariants(A) == [A.algebra.one()]
