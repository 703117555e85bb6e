"""Sparse commutative polynomials over a cyclotomic field.

These carry everything that commutes in the bigger picture: the structure
parameters of a comodule algebra (a, c, c_i, d_ij, each optionally primed so
two objects can be compared symbolically at once) and the coinvariant
indeterminates t[i,h] indexed by a copy number and a Hopf-basis element.
Monomials are sorted tuples of (variable, exponent) pairs; coefficients are
CyclotomicNumber values of one fixed order per polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .cyclotomic import CyclotomicNumber, join_signed, power

__all__ = ["ParamVar", "TVar", "CommPoly"]

_PARAM_TAGS = "acd"
_PARAM_RANK = {tag: rank for rank, tag in enumerate(_PARAM_TAGS)}


class ParamVar(tuple):
    """A structure parameter: a, c, c[i], or d[i,j] with i <= j.

    prime counts trailing apostrophes, so c and c' are distinct variables.
    The value is the tuple (0, rank of tag, indices, prime), so hashing,
    equality and the order of monomials are the tuple's own and run in C.
    Parameters sort before every TVar.
    """

    __slots__ = ()

    def __new__(cls, tag, indices=(), prime=0):
        if tag not in _PARAM_RANK:
            raise ValueError(f"unknown parameter tag {tag!r}")
        if tag == "a" and indices:
            raise ValueError("parameter a takes no indices")
        if tag == "c" and len(indices) not in (0, 1):
            raise ValueError("parameter c takes zero or one index")
        if tag == "d":
            if len(indices) != 2:
                raise ValueError("parameter d takes exactly two indices")
            i, j = indices
            if not 1 <= i <= j:
                raise ValueError("d indices must satisfy 1 <= i <= j")
        if any(i < 1 for i in indices):
            raise ValueError("parameter indices start at 1")
        if prime < 0:
            raise ValueError("prime count must be >= 0")
        return tuple.__new__(cls, (0, _PARAM_RANK[tag], indices, prime))

    tag = property(lambda self: _PARAM_TAGS[self[1]])
    indices = property(itemgetter(2))
    prime = property(itemgetter(3))

    def __getnewargs__(self):
        return self.tag, self.indices, self.prime

    def __repr__(self):
        return f"ParamVar(tag={self.tag!r}, indices={self.indices!r}, prime={self.prime!r})"

    def render(self) -> str:
        if not self.indices:
            body = self.tag
        else:
            body = f"{self.tag}[{','.join(str(i) for i in self.indices)}]"
        return body + "'" * self.prime


class TVar(tuple):
    """Coinvariant indeterminate t[copy, h] for a Hopf-basis element h.

    basis_index is the position of h in the fixed basis enumeration; label is
    its rendered word, carried for display only and excluded from identity:
    the value is the tuple (1, copy, (basis_index,), 0), ordered after every
    ParamVar.
    """

    def __new__(cls, copy, basis_index, label):
        if copy < 1:
            raise ValueError("copy index starts at 1")
        if basis_index < 0:
            raise ValueError("basis index must be >= 0")
        self = tuple.__new__(cls, (1, copy, (basis_index,), 0))
        self.label = label
        return self

    copy = property(itemgetter(1))
    basis_index = property(lambda self: self[2][0])

    def __getnewargs__(self):
        return self.copy, self.basis_index, self.label

    def __repr__(self):
        return f"TVar(copy={self.copy!r}, basis_index={self.basis_index!r}, label={self.label!r})"

    def render(self) -> str:
        return f"t[{self.copy},{self.label}]"


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == 1 and len(m2) == 1:
        # two one-variable monomials: one comparison, no dict and no sort
        (v1, e1), (v2, e2) = p1, p2 = m1[0], m2[0]
        if v1 == v2:
            return ((v1, e1 + e2),)
        return (p1, p2) if v1 < v2 else (p2, p1)
    merged = {}
    for v, e in m1:
        merged[v] = merged.get(v, 0) + e
    for v, e in m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _mono_render(m):
    parts = []
    for v, e in m:
        parts.append(v.render() if e == 1 else f"{v.render()}^{e}")
    return "*".join(parts)


def _raw(order, terms):
    """The CommPoly on terms as given: the caller ensures no coefficient is zero."""
    p = object.__new__(CommPoly)
    p.order, p.terms = order, terms
    return p


class CommPoly:
    """A polynomial in ParamVar/TVar variables with cyclotomic coefficients.

    terms maps each monomial to its coefficient and never holds a zero
    coefficient, so the zero polynomial has no terms and equal values have
    equal dicts.  The constructor filters zeros out; the arithmetic keeps the
    invariant by construction and builds through _raw without a filter.
    Instances are immutable in use, so constants may be shared.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order, terms):
        self.order = order
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls, order):
        return cls(order, {})

    @classmethod
    def constant(cls, value: CyclotomicNumber):
        return cls(value.order, {(): value})

    @classmethod
    @lru_cache(maxsize=256, typed=True)
    def scalar(cls, order, value):
        # the same few ints recur (element() coefficients, permutation signs),
        # so they are shared constants; bounded, as parsed ints reach it too
        if value == 1:  # the shared one, so products can skip it by identity
            return cls.one(order)
        return cls.constant(CyclotomicNumber.from_rational(order, value))

    @classmethod
    @lru_cache(maxsize=None)
    def one(cls, order):
        # one shared constant per order, so products can skip it by identity
        return cls.constant(CyclotomicNumber.one(order))

    @classmethod
    def variable(cls, order, var, exp: int = 1):
        if exp < 0:
            raise ValueError("variable exponents must be >= 0")
        if exp == 0:
            return cls.one(order)
        return cls(order, {((var, exp),): CyclotomicNumber.one(order)})

    def _coerce(self, other):
        """other as a CommPoly of this order, or None for a type it cannot read."""
        if isinstance(other, (CommPoly, CyclotomicNumber)):
            if other.order != self.order:
                raise ValueError(f"cyclotomic order {other.order}, need {self.order}")
            return other if isinstance(other, CommPoly) else CommPoly.constant(other)
        if isinstance(other, (int, Fraction)):
            return CommPoly.scalar(self.order, other)
        return None

    def __add__(self, other):
        same = type(other) is CommPoly and other.order == self.order
        o = other if same else self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            elif (s := s + c).is_zero():  # only a sum can cancel
                del out[m]
            else:
                out[m] = s
        return _raw(self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.order, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        same = type(other) is CommPoly and other.order == self.order
        o = other if same else self._coerce(other)
        if o is None:
            return NotImplemented
        if len(o.terms) == 1:
            poly, ((mono, k),) = self, o.terms.items()
        elif len(self.terms) == 1:
            poly, ((mono, k),) = o, self.terms.items()
        else:
            # a product of two nonzero coefficients is nonzero; only sums can cancel
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in o.terms.items():
                    c = c1 * c2
                    m = _mono_mul(m1, m2)
                    s = out.get(m)
                    out[m] = c if s is None else s + c
            return CommPoly(self.order, out)
        # one side is the single term k*mono: m -> m*mono is injective and a
        # nonzero k keeps every term nonzero (Q(zeta_n) is a field), so no
        # two terms merge and no zero filter is needed
        if not mono:
            if k.is_one():
                return poly
            return _raw(self.order, {m: c * k for m, c in poly.terms.items()})
        if k.is_one():  # a variable's own coefficient: about a fifth of all products
            return _raw(self.order, {_mono_mul(m, mono): c for m, c in poly.terms.items()})
        return _raw(self.order, {_mono_mul(m, mono): c * k for m, c in poly.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("polynomials only take nonnegative powers")
        return power(self, k, CommPoly.one(self.order))

    def specialize(self, assignment) -> CommPoly:
        """Substitute parameter variables; keys must be ParamVar instances.

        Values may be CyclotomicNumber, CommPoly, int, or Fraction.
        Substitution commutes with the ring operations.
        """
        for var in assignment:
            if not isinstance(var, ParamVar):
                raise ValueError(f"can only specialize parameters, got {var!r}")
        values = {}
        for var, val in assignment.items():
            p = self._coerce(val)
            if p is None:
                raise ValueError(f"cannot interpret substitution value {val!r}")
            values[var] = p
        result = CommPoly.zero(self.order)
        for m, c in self.terms.items():
            term = CommPoly.constant(c)
            kept = []
            for v, e in m:
                if isinstance(v, ParamVar) and v in values:
                    term = term * values[v] ** e
                else:
                    kept.append((v, e))
            if kept:
                term = term * CommPoly(
                    self.order, {tuple(kept): CyclotomicNumber.one(self.order)}
                )
            result = result + term
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> CyclotomicNumber:
        if not self.terms:
            return CyclotomicNumber.zero(self.order)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms[()]

    def variables(self):
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return seen

    def sorted_terms(self):
        # monomials are distinct keys, so no two coefficients are compared
        return sorted(self.terms.items())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            o = self._coerce(other)
            return self.terms == o.terms
        if not isinstance(other, CommPoly):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        if self.is_constant():  # equal to its CyclotomicNumber, so hashed as one
            return hash(self.constant_value())
        return hash((self.order, frozenset(self.terms.items())))

    def __str__(self):
        rendered = []
        for m, c in self.sorted_terms():
            mono = _mono_render(m)
            if not mono:
                body = str(c) if c.is_rational() else f"({c})"
            elif c.is_one():
                body = mono
            elif c == -1:
                body = f"-{mono}"
            elif c.is_rational():
                body = f"{c}*{mono}"
            else:
                body = f"({c})*{mono}"
            rendered.append(body)
        return join_signed(rendered)

    def __repr__(self):
        return f"CommPoly({self})"

