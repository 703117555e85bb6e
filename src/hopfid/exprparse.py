"""Expression and spec parsing for the command line and the tests.

Two expression contexts exist.  An algebra context produces an AlgElement of
a presented algebra (a Hopf algebra or a comodule algebra); generator names
come from the algebra itself.  A free context produces a FreeComodulePoly
over a Hopf algebra; the symbols are X[i,h] with the shorthand aliases E, X,
Y and Yi, plus coefficient variables t[i,h] and the structure parameters.

The parser only reads tokens.  Its values are the algebras' own, a CommPoly
for a scalar and the AlgElement or FreeComodulePoly otherwise, so sums,
products and the lifting of scalars are those of the value types.  The
literal q always means the primitive root of unity of the active context and
z the standard generator zeta of its cyclotomic field.  Division and negative
powers apply to invertible scalars only; an element's power is
AlgElement.power.  Input past the bounds below (nesting depth, copy index,
literal and scalar bits, degree) is refused with a ParseError.
"""

from __future__ import annotations

from collections import namedtuple

from .commpoly import CommPoly, ParamVar
from .comodule import Symbolic, object_spec, read_int, read_param_name
from .cyclotomic import CyclotomicNumber, power, primitive_root
from .hopf import HopfPresentation, family_hopf
from .identities import FreeComodulePoly, t_var, x_symbol
from .ncalg import AlgElement, PresentedAlgebra

__all__ = [
    "ParseError",
    "parse_expression",
    "parse_hopf_spec",
    "parse_object_spec",
    "MatrixSpec",
]


class ParseError(ValueError):
    """A syntax or lookup error, carrying the offending position.

    The message echoes the text with a caret under pos; text longer than
    ECHO_WIDTH characters is cut to that many around pos, and each cut end
    is marked with "...".
    """

    ECHO_WIDTH = 80

    def __init__(self, message, pos=None, text=None):
        self.pos = pos
        self.text = text
        if pos is not None:
            message = f"{message} (at position {pos})"
            if text is not None:
                shown, col, width = text, pos, self.ECHO_WIDTH
                if len(text) > width:
                    start = max(0, min(pos - width // 2, len(text) - width))
                    shown, col = text[start : start + width], pos - start
                    if start:
                        shown, col = "..." + shown, col + 3
                    if start + width < len(text):
                        shown += "..."
                message = f"{message}\n  {shown}\n  {' ' * col}^"
        super().__init__(message)


_OPS = set("+-*/^()[],';")

# parentheses, unary sign chains, parenthesised exponents and bracket
# sub-expressions each open one level; a bracket costs about twice the
# interpreter stack of a parenthesis
MAX_NESTING = 100

# copy indices i of X[i,h] and t[i,h]: T(X_H) holds every copy at no cost, but
# every input dimension has an exit-2 bound, and the copy index is one
MAX_COPIES = 100

# the refusals of the inverse that / and a negative ^ take: not a scalar, not constant, zero
_INVERSE_REFUSALS = {
    "/": ("division is defined for scalars only", "division needs a constant scalar", "division by zero"),
    "^": ("negative powers are defined for scalars only", "negative powers need a constant scalar",
          "negative power of zero"),
}

# the degree bound of products and powers in a free context when the caller
# sets none: free words never reduce, so X^99999999 would be built in full
DEFAULT_FREE_DEGREE = 256

# a power of a scalar or of an algebra-context element is refused once a product
# it forms has a coefficient with a numerator or denominator past
# MAX_SCALAR_BITS bits, or with more than MAX_SCALAR_TERMS monomials
MAX_SCALAR_BITS = 4096
MAX_SCALAR_TERMS = 256


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, text)
    toks.append(("END", "", n))
    return toks


# mode is "elem" or "free"; algebra, hopf and max_degree may be None
_Context = namedtuple("_Context", "mode order algebra hopf max_degree", defaults=(None,) * 3)


class _Parser:
    """Recursive descent over one token list.  A CommPoly operand defers to an
    element's reflected operator, which lifts it into the element's algebra."""

    def __init__(self, text, ctx: _Context):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.depth = 0

    # -- token plumbing

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        if tok[0] != "END":
            self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[1]!r}" if tok[0] != "END"
                else f"expected {kind!r}, found end of input",
                tok[2],
                self.text,
            )
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], self.text)

    def integer(self, tok):
        """The value of an INT token by read_int, refused past MAX_SCALAR_BITS
        bits; read_int refuses one of too many digits before int() runs."""
        value = read_int(tok[1])
        if value is None or value.bit_length() > MAX_SCALAR_BITS:
            self.fail(f"integer literal exceeds {MAX_SCALAR_BITS} bits", tok)
        return value

    def nested(self, parse, tok, levels=1):
        """Run parse() one nesting level deeper, refusing input past the limit."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)
        val = parse()
        self.depth -= levels
        return val

    # -- value helpers

    def _guard(self, operands, k, tok):
        """Refuse the k-th power of the product of operands past the degree limit.
        A free polynomial's static bound is tried first, and the exact degree,
        which expands it under mu's pair bound, only when that bound passes the limit."""
        limit, note = self.ctx.max_degree, ""
        if limit is None and self.ctx.mode == "free":
            limit, note = DEFAULT_FREE_DEGREE, " (the default for free expressions)"
        bounds = [v.degree() if isinstance(v, AlgElement) else v.degree_bound for v in operands]
        if limit is None or k * sum(bounds) <= limit:
            return
        try:
            degree = k * sum(v.degree() for v in operands)
        except ValueError as err:
            self.fail(f"expansion guard: degree up to {k * sum(bounds)} exceeds --max-degree "
                      f"{limit}{note}, and its exact degree is past the {err}", tok)
        if degree > limit:
            self.fail(f"expansion guard: degree {degree} exceeds --max-degree {limit}{note}", tok)

    def promote(self, val):
        """Lift a bare scalar into the ambient algebra of the context."""
        if not isinstance(val, CommPoly):
            return val
        if self.ctx.mode == "elem":
            return self.ctx.algebra.one() * val
        return FreeComodulePoly.scalar(self.ctx.hopf, val)

    # -- grammar

    def parse(self):
        val = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            self.fail(f"unexpected {tok[1]!r} after expression")
        return val

    def expr(self):
        left = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()
            right = self.term()
            left = left + right if op[0] == "+" else left - right
        return left

    def term(self):
        left = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()
            right = self.unary()
            if op[0] == "/":
                left = left * self._inverse(right, op)
                continue
            if not isinstance(left, CommPoly) and not isinstance(right, CommPoly):
                self._guard((left, right), 1, op)
            left = left * right
        return left

    def _inverse(self, val, op):
        """The inverse of val, a nonzero constant scalar, for the / or ^ at op."""
        not_scalar, not_constant, zero = _INVERSE_REFUSALS[op[0]]
        if not isinstance(val, CommPoly):
            self.fail(not_scalar, op)
        if not val.is_constant():
            self.fail(not_constant, op)
        value = val.constant_value()
        if value.is_zero():
            self.fail(zero, op)
        return CommPoly.constant(value.inverse())

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            return -self.nested(self.unary, tok)
        if tok[0] == "+":
            self.next()
            return self.nested(self.unary, tok)
        return self.power()

    def power(self):
        base = self.atom()
        while self.peek()[0] == "^":
            op = self.next()
            k = self.exponent()
            if k < 0:
                base, k = self._inverse(base, op), -k
            scalar = isinstance(base, CommPoly)
            if not scalar:
                self._guard((base,), k, op)
            free = isinstance(base, FreeComodulePoly)
            if free and base.degree_bound == 0:
                # a constant: raise its value, so the scalar bounds apply
                value = self._bounded_power(base.element.coefficient(()), k, op)
                base = FreeComodulePoly.scalar(base.hopf, value)
            else:
                base = base**k if free else self._bounded_power(base, k, op)
        return base

    def _bounded_power(self, base, k, op):
        """base ** k for a scalar or an algebra element, refused as soon as a
        product it forms has a coefficient past MAX_SCALAR_BITS bits or
        MAX_SCALAR_TERMS terms.  An element takes AlgElement.power, so a
        power of two q-commuting terms never forms their cancelling middle terms."""
        scalar = isinstance(base, CommPoly)
        noun = "scalar power" if scalar else "coefficient of a power"

        def bounded(left, right):
            v = left * right
            for poly in [v] if scalar else v.terms.values():
                if len(poly.terms) > MAX_SCALAR_TERMS:
                    self.fail(f"{noun} exceeds {MAX_SCALAR_TERMS} terms", op)
                for c in poly.terms.values():
                    if max(abs(x).bit_length() for x in c.num + (c.den,)) > MAX_SCALAR_BITS:
                        self.fail(f"{noun} exceeds {MAX_SCALAR_BITS} bits", op)
            return v

        if scalar:
            return power(base, k, CommPoly.one(base.order), bounded)
        return base.power(k, bounded)

    def exponent(self):
        tok = self.peek()
        if tok[0] == "(":
            self.next()
            k = self.nested(self.exponent, tok)
            self.expect(")")
            return k
        sign = 1
        if tok[0] == "-":
            self.next()
            sign = -1
        return sign * self.integer(self.expect("INT"))

    def atom(self):
        tok = self.next()
        if tok[0] == "INT":
            return CommPoly.scalar(self.ctx.order, self.integer(tok))
        if tok[0] == "(":
            val = self.nested(self.expr, tok)
            self.expect(")")
            return val
        if tok[0] == "NAME":
            return self.name_atom(tok)
        if tok[0] == "END":
            self.fail("unexpected end of input", tok)
        self.fail(f"unexpected {tok[1]!r}", tok)

    # -- names

    def name_atom(self, tok):
        name = tok[1]
        if name == "q":
            return CommPoly.constant(primitive_root(self.ctx.order))
        if name == "z":
            return CommPoly.constant(CyclotomicNumber.zeta(self.ctx.order))
        if name == "t" and self.peek()[0] == "[":
            if self.ctx.mode == "free":
                self.fail(
                    "t variables are coefficients of mu images; free "
                    "polynomials take structure parameters only",
                    tok,
                )
            if self.ctx.hopf is None:
                self.fail(
                    "t variables need a Hopf context to resolve their labels",
                    tok,
                )
            copy, h = self.bracket_pair(tok)
            try:
                return t_var(self.ctx.hopf, copy, h)
            except ValueError as exc:
                self.fail(str(exc), tok)
        if self.ctx.mode == "free":
            val = self.free_name(tok)
            if val is not None:
                return val
        elif self.ctx.algebra is not None and name in self.ctx.algebra.generators:
            return self.ctx.algebra.gen(name)
        val = self.param_name(tok)
        if val is not None:
            return val
        if self.ctx.mode == "free":
            self.fail(
                f"unknown symbol {name!r}; expected E, X, Y.., X[i,h], t[i,h], "
                "a parameter, or a scalar",
                tok,
            )
        if self.ctx.algebra is None:
            self.fail(f"unknown symbol {name!r} in a scalar value", tok)
        names = ", ".join(self.ctx.algebra.generators)
        self.fail(f"unknown generator {name!r}; this algebra has {names}", tok)

    def free_name(self, tok):
        name = tok[1]
        hopf = self.ctx.hopf
        alg = hopf.algebra
        if name == "X" and self.peek()[0] == "[":
            copy, h = self.bracket_pair(tok)
            try:
                return x_symbol(copy, h)
            except ValueError as exc:
                self.fail(str(exc), tok)
        if name == "E":
            return x_symbol(1, alg.one())
        if name == "X":
            return x_symbol(1, alg.gen("x"))
        if name == "Y":
            try:
                return x_symbol(1, alg.gen("y"))
            except ValueError:
                self.fail(
                    "this family indexes its nilpotent generators; use Y1, Y2, ..",
                    tok,
                )
        if name.startswith("Y") and (i := read_int(name[1:])) is not None:
            try:
                return x_symbol(1, alg.gen(f"y{i}"))
            except ValueError:
                self.fail(f"no generator y{name[1:]} in {hopf.name}", tok)
        return None

    def bracket_pair(self, tok):
        """Parse the [i, h] trailer of a free symbol or coefficient."""
        self.expect("[")
        itok = self.expect("INT")
        copy = self.integer(itok)
        if copy < 1:
            self.fail("copy indices start at 1", itok)
        if copy > MAX_COPIES:
            self.fail(f"copy index {copy} exceeds the bound {MAX_COPIES}", itok)
        self.expect(",")
        h = self.element_subexpr()
        self.expect("]")
        return copy, h

    def element_subexpr(self) -> AlgElement:
        """Parse a Hopf algebra element inside brackets, in the same tokens."""
        outer = self.ctx
        self.ctx = outer._replace(mode="elem", algebra=outer.hopf.algebra)
        try:
            return self.promote(self.nested(self.expr, self.peek(), levels=2))
        finally:
            self.ctx = outer

    def param_name(self, tok):
        read = read_param_name(tok[1])
        if read is None:
            return None
        tag, indices = read
        if not indices and self.peek()[0] == "[":
            self.next()
            indices = (self.integer(self.expect("INT")),)
            if self.peek()[0] == ",":
                self.next()
                indices += (self.integer(self.expect("INT")),)
            self.expect("]")
        prime = 0
        while self.peek()[0] == "'":
            self.next()
            prime += 1
        try:
            var = ParamVar(tag, indices, prime)
        except ValueError as exc:
            self.fail(str(exc), tok)
        return CommPoly.variable(self.ctx.order, var)


def parse_expression(text, context, max_degree=None):
    """Parse text in the given context.

    A HopfPresentation context yields a FreeComodulePoly over it; a
    PresentedAlgebra context yields an AlgElement of that algebra (with q and
    z referring to its cyclotomic order).  max_degree bounds the degree of
    every product and power; in a free context it defaults to
    DEFAULT_FREE_DEGREE, since free words do not reduce.
    """
    if isinstance(context, HopfPresentation):
        ctx = _Context(
            mode="free",
            order=context.algebra.order,
            hopf=context,
            max_degree=max_degree,
        )
    elif isinstance(context, PresentedAlgebra):
        ctx = _Context(
            mode="elem",
            order=context.order,
            algebra=context,
            hopf=getattr(context, "hopf", None)
            or getattr(context, "comodule_hopf", None),
            max_degree=max_degree,
        )
    else:
        raise TypeError(f"cannot parse against context {context!r}")
    parser = _Parser(text, ctx)
    return parser.promote(parser.parse())


# -- algebra and object specs ---------------------------------------------------


class MatrixSpec(namedtuple("MatrixSpec", "k")):
    """A k x k matrix algebra target for classical identity checks."""

    __slots__ = ()

    def render(self) -> str:
        return f"matrix:{self.k}"

    __str__ = render


def _family_head(head, shown, matrix=False):
    """The Hopf algebra the 'family:n' head of a spec names.

    A malformed size is reported with shown quoted, and family_hopf's
    refusals of a size as ParseErrors.  matrix:<k> gives MatrixSpec(k),
    unchecked, when matrix is set.
    """
    family, _, num = head.partition(":")
    family, n = family.strip().lower(), read_int(num)
    if n is None:
        raise ParseError(f"missing or malformed size in {shown!r}")
    if matrix and family == "matrix":
        return MatrixSpec(n)
    if family not in ("taft", "en"):
        use = "taft:<n>, en:<n>, or matrix:<k>" if matrix else "taft:<n> or en:<n>"
        raise ParseError(f"unknown family {family!r}; use {use}")
    try:
        return family_hopf(family, n)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_hopf_spec(text) -> HopfPresentation:
    """Parse 'taft:<n>' or 'en:<n>'."""
    head = text.strip()
    if ";" in head:
        raise ParseError(
            f"expected a plain family spec like taft:3, found parameters in {text!r}"
        )
    return _family_head(head, text)


def _parse_value(text, order, key):
    body = text.strip()
    primes = 0
    while body.endswith("'"):
        primes += 1
        body = body[:-1]
    if body == "sym":
        return Symbolic(primes)
    if primes:
        raise ParseError(f"primes apply to sym values only in {key}={text}")
    ctx = _Context(mode="elem", order=order, algebra=None, hopf=None)
    val = _Parser(body, ctx).parse()
    if not isinstance(val, CommPoly) or not val.is_constant():
        raise ParseError(f"the value of {key} must be a constant scalar")
    return val.constant_value()


def parse_object_spec(text):
    """Parse an object spec such as 'taft:3;a=1;c=sym' or 'matrix:2'.

    Each part after the head is key=value; comodule.object_spec reads and
    judges the keys, in order, and leaves unlisted parameters symbolic.
    """
    parts = [p.strip() for p in text.strip().split(";") if p.strip()]
    if not parts:
        raise ParseError("empty object spec")
    head = _family_head(parts[0], parts[0], matrix=True)
    if isinstance(head, MatrixSpec):
        if parts[1:]:
            raise ParseError("matrix specs take no parameters")
        if head.k < 1:
            raise ParseError("matrix size must be >= 1")
        return head
    values = []
    for part in parts[1:]:
        raw, eq, value = part.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, found {part!r}")
        values.append((raw.strip(), _parse_value(value, head.algebra.order, raw.strip())))
    try:
        return object_spec(head.family, head.n, values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
