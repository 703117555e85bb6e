"""The coaction of the free comodule algebra T(X_H), for the tests.

X[i,h] -> sum X[i,h1] tensor h2, extended multiplicatively.  Nothing in the
package needs it: the tests use it to show that the catalog identities and
the coinvariant cores are coinvariant, and that mu intertwines it.
"""

from functools import lru_cache

from hopfid.commpoly import CommPoly
from hopfid.identities import FreeComodulePoly, _evaluate, _gen_id, _gen_meta, _lift, free_algebra
from hopfid.ncalg import AlgElement, Morphism, PresentedAlgebra, embed, tensor_product


def _t_coaction_image(T: PresentedAlgebra, TH: PresentedAlgebra, gid: int):
    """X[i,h] -> sum X[i,h1] tensor h2."""
    H = T.free_hopf
    i, r = _gen_meta(T, gid)
    acc = {}
    for w, c in H.coproduct_word(H.basis()[r]).terms.items():
        u, v = H.square.split_word(w)
        key = TH.join((_gen_id(T, i, H.basis_index(u)),), v)
        acc[key] = acc.get(key, CommPoly.zero(T.order)) + c
    return AlgElement(TH, acc)


@lru_cache(maxsize=None)
def _t_coaction_map(T: PresentedAlgebra) -> Morphism:
    TH = tensor_product(T, T.free_hopf.algebra)
    return Morphism(T, TH, lambda gid: _t_coaction_image(T, TH, gid))


def t_coaction(P: FreeComodulePoly) -> AlgElement:
    """The coaction of T(X_H), valued in T tensor H."""
    delta = _t_coaction_map(free_algebra(P.hopf, P.copies))
    return _evaluate(P, lambda e: delta(_lift(e, delta.source)))


def is_coinvariant(P: FreeComodulePoly) -> bool:
    """Whether the coaction fixes P, i.e. sends it to P tensor 1."""
    image = t_coaction(P)
    return image == embed(P.element, image.algebra, 0)
