"""Expression and spec parsing for the command line and the tests.

Two expression contexts exist.  An algebra context produces an AlgElement of
a presented algebra (a Hopf algebra or a comodule algebra); generator names
come from the algebra itself.  A free context produces a FreeComodulePoly
over a Hopf algebra; the symbols are X[i,h] with the shorthand aliases E, X,
Y and Yi, plus coefficient variables t[i,h] and the structure parameters.

The literal q always means the primitive root of unity of the active context
and z the standard generator zeta of its cyclotomic field.  Division and
negative powers apply to invertible scalars only.  The parser is recursive
descent, so input nested deeper than MAX_NESTING levels is refused with a
ParseError instead of exhausting the interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .commpoly import CommPoly, ParamVar
from .comodule import (
    GaloisObjectSpec,
    Symbolic,
    en_object_spec,
    taft_object_spec,
)
from .cyclotomic import CyclotomicNumber, primitive_root
from .hopf import HopfPresentation, en, taft
from .identities import FreeComodulePoly, free_algebra, t_var, x_symbol
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

# a constant scalar power is refused once a numerator or the denominator of a
# repeated square or partial product passes this many bits
MAX_SCALAR_BITS = 4096


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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


# parse results are tagged values: ("scalar", CommPoly),
# ("elem", AlgElement), or ("free", FreeComodulePoly)


@dataclass
class _Context:
    mode: str  # "elem" or "free"
    order: int
    algebra: PresentedAlgebra | None = None
    hopf: HopfPresentation | None = None
    max_degree: int | None = None


class _Parser:
    def __init__(self, text, ctx: _Context):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.depth = 0

    # -- token plumbing

    def peek(self, ahead=0):
        k = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[k]

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

    def nested(self, parse, tok, levels=1):
        """Run parse() one nesting level deeper, refusing input past the limit."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)
        val = parse()
        self.depth -= levels
        return val

    # -- value helpers

    def _scalar(self, poly):
        return ("scalar", poly)

    def _degree(self, val):
        kind, v = val
        if kind == "scalar":
            return 0
        return v.degree()

    def _guard(self, degree, tok):
        limit = self.ctx.max_degree
        if limit is not None and degree > limit:
            raise ParseError(
                f"expansion guard: degree {degree} exceeds --max-degree {limit}",
                tok[2],
                self.text,
            )

    def _promote(self, val):
        """Lift a scalar into the ambient algebra of the context."""
        kind, v = val
        if kind != "scalar":
            return val
        if self.ctx.mode == "elem":
            return ("elem", self.ctx.algebra.one() * v)
        return ("free", FreeComodulePoly.scalar(self.ctx.hopf, v))

    def _pair(self, a, b):
        if a[0] == "scalar" and b[0] == "scalar":
            return a, b
        return self._promote(a), self._promote(b)

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
            a, b = self._pair(left, right)
            if op[0] == "+":
                left = (a[0], a[1] + b[1])
            else:
                left = (a[0], a[1] - b[1])
        return left

    def term(self):
        left = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()
            right = self.unary()
            if op[0] == "/":
                left = self._divide(left, right, op)
                continue
            if left[0] == "scalar" and right[0] != "scalar":
                left = (right[0], right[1] * left[1])
            elif right[0] == "scalar":
                left = (left[0], left[1] * right[1])
            else:
                a, b = self._pair(left, right)
                self._guard(self._degree(a) + self._degree(b), op)
                left = (a[0], a[1] * b[1])
        return left

    def _divide(self, left, right, op):
        if right[0] != "scalar":
            self.fail("division is defined for scalars only", op)
        poly = right[1]
        if not poly.is_constant():
            self.fail("division needs a constant scalar", op)
        value = poly.constant_value()
        if value.is_zero():
            self.fail("division by zero", op)
        inv = CommPoly.constant(value.inverse())
        return (left[0], left[1] * inv)

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            kind, v = self.nested(self.unary, tok)
            return (kind, -v)
        if tok[0] == "+":
            self.next()
            return self.nested(self.unary, tok)
        return self.power()

    def power(self):
        base = self.atom()
        while self.peek()[0] == "^":
            op = self.next()
            k = self.exponent()
            if base[0] == "scalar" and base[1].is_constant():
                value = base[1].constant_value()
                if k < 0 and value.is_zero():
                    self.fail("negative power of zero", op)
                base = self._scalar(CommPoly.constant(self._scalar_power(value, k, op)))
            elif k < 0:
                if base[0] != "scalar":
                    self.fail("negative powers are defined for scalars only", op)
                self.fail("negative powers need a constant scalar", op)
            else:
                self._guard(self._degree(base) * k, op)
                base = (base[0], base[1] ** k)
        return base

    def _scalar_power(self, value, k, op):
        """value ** k by repeated squaring, refused as soon as a square or a
        partial product has a numerator or denominator past MAX_SCALAR_BITS."""
        if k < 0:
            value, k = value.inverse(), -k
        result = CyclotomicNumber.one(value.order)
        while k:
            if k & 1:
                result = self._bounded(result * value, op)
            k >>= 1
            if k:
                value = self._bounded(value * value, op)
        return result

    def _bounded(self, value, op):
        if max(abs(c).bit_length() for c in value.num + (value.den,)) > MAX_SCALAR_BITS:
            self.fail(f"scalar power exceeds {MAX_SCALAR_BITS} bits", op)
        return value

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
        tok = self.expect("INT")
        return sign * int(tok[1])

    def atom(self):
        tok = self.next()
        if tok[0] == "INT":
            return self._scalar(CommPoly.scalar(self.ctx.order, int(tok[1])))
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
            return self._scalar(
                CommPoly.constant(primitive_root(self.ctx.order))
            )
        if name == "z":
            return self._scalar(
                CommPoly.constant(CyclotomicNumber.zeta(self.ctx.order))
            )
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
            copy, h = self.bracket_pair(tok, want_copy=True)
            if len(h.terms) != 1 or next(iter(h.terms.values())) != 1:
                self.fail("t[i,h] needs a single basis word with coefficient 1", tok)
            return self._scalar(t_var(self.ctx.hopf, copy, h))
        if self.ctx.mode == "free":
            val = self.free_name(tok)
            if val is not None:
                return val
        elif self.ctx.algebra is not None:
            alg = self.ctx.algebra
            try:
                gid = alg.gen_index(name)
            except ValueError:
                gid = None
            if gid is not None:
                return ("elem", alg.gen(name))
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
            copy, h = self.bracket_pair(tok, want_copy=True)
            return ("free", x_symbol(copy, h))
        if name == "E":
            return ("free", x_symbol(1, alg.one()))
        if name == "X":
            return ("free", x_symbol(1, alg.gen("x")))
        if name == "Y":
            try:
                return ("free", x_symbol(1, alg.gen("y")))
            except ValueError:
                self.fail(
                    "this family indexes its nilpotent generators; use Y1, Y2, ..",
                    tok,
                )
        if name.startswith("Y") and name[1:].isdigit():
            try:
                return ("free", x_symbol(1, alg.gen("y" + name[1:])))
            except ValueError:
                self.fail(f"no generator y{name[1:]} in {hopf.name}", tok)
        return None

    def bracket_pair(self, tok, want_copy):
        """Parse the [i, h] trailer of a free symbol or coefficient."""
        self.expect("[")
        itok = self.expect("INT")
        copy = int(itok[1])
        if want_copy and copy < 1:
            self.fail("copy indices start at 1", itok)
        self.expect(",")
        h = self.element_subexpr()
        self.expect("]")
        return copy, h

    def element_subexpr(self) -> AlgElement:
        """Parse a Hopf algebra element inside brackets, in the same tokens."""
        sub = _Parser.__new__(_Parser)
        sub.text = self.text
        sub.toks = self.toks
        sub.i = self.i
        sub.depth = self.depth
        sub.ctx = _Context(
            mode="elem",
            order=self.ctx.order,
            algebra=self.ctx.hopf.algebra,
            hopf=self.ctx.hopf,
            max_degree=self.ctx.max_degree,
        )
        val = sub.nested(sub.expr, self.peek(), levels=2)
        self.i = sub.i
        kind, v = sub._promote(val)
        return v

    def param_name(self, tok):
        name = tok[1]
        tag = name[0]
        if tag not in ("a", "c", "d"):
            return None
        rest = name[1:]
        indices = ()
        if rest:
            if tag == "c" and rest.isdigit():
                indices = (int(rest),)
            elif tag == "d" and rest.isdigit() and len(rest) == 2:
                indices = (int(rest[0]), int(rest[1]))
            else:
                return None
        elif self.peek()[0] == "[":
            self.next()
            first = int(self.expect("INT")[1])
            if self.peek()[0] == ",":
                self.next()
                second = int(self.expect("INT")[1])
                indices = (first, second)
            else:
                indices = (first,)
            self.expect("]")
        prime = 0
        while self.peek()[0] == "'":
            self.next()
            prime += 1
        try:
            var = ParamVar(tag, indices, prime)
        except ValueError as exc:
            self.fail(str(exc), tok)
        return self._scalar(CommPoly.variable(self.ctx.order, var))


def parse_expression(text, context, max_degree=None):
    """Parse text in the given context.

    A HopfPresentation context yields a FreeComodulePoly over it; a
    PresentedAlgebra context yields an AlgElement of that algebra (with q and
    z referring to its cyclotomic order).
    """
    if isinstance(context, HopfPresentation):
        ctx = _Context(
            mode="free",
            order=context.algebra.order,
            hopf=context,
            max_degree=max_degree,
        )
        free_algebra(context, 1)
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
    val = parser.parse()
    return parser._promote(val)[1]


# -- algebra and object specs ---------------------------------------------------


@dataclass(frozen=True)
class MatrixSpec:
    """A k x k matrix algebra target for classical identity checks."""

    k: int

    def render(self) -> str:
        return f"matrix:{self.k}"

    def __str__(self):
        return self.render()


def _family_head(head, shown, matrix=False):
    """Parse and bound-check the 'family:n' head of a spec.

    A malformed size is reported with shown quoted.  matrix:<k> passes
    through unchecked when matrix is set; a taft or en size whose basis
    would blow the normal-word enumeration cap is rejected.
    """
    family, _, num = head.partition(":")
    family = family.strip().lower()
    try:
        n = int(num)
    except ValueError:
        raise ParseError(f"missing or malformed size in {shown!r}") from None
    if matrix and family == "matrix":
        return family, n
    if family not in ("taft", "en"):
        use = "taft:<n>, en:<n>, or matrix:<k>" if matrix else "taft:<n> or en:<n>"
        raise ParseError(f"unknown family {family!r}; use {use}")
    if family == "taft" and n < 2:
        raise ParseError("the Taft family needs n >= 2")
    if family == "en" and n < 1:
        raise ParseError("the E(n) family needs n >= 1")
    dim = n * n if family == "taft" else 2 ** (n + 1)
    if dim > 100000:
        raise ParseError(
            f"{family}:{n} has dimension {dim}, past the 100000-word bound"
        )
    return family, n


def parse_hopf_spec(text) -> HopfPresentation:
    """Parse 'taft:<n>' or 'en:<n>'."""
    head = text.strip()
    if ";" in head:
        raise ParseError(
            f"expected a plain family spec like taft:3, found parameters in {text!r}"
        )
    family, n = _family_head(head, text)
    return taft(n) if family == "taft" else en(n)


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
    parser = _Parser(body, ctx)
    kind, val = parser.parse()
    if kind != "scalar" or not val.is_constant():
        raise ParseError(f"the value of {key} must be a constant scalar")
    return val.constant_value()


def parse_object_spec(text):
    """Parse an object spec such as 'taft:3;a=1;c=sym' or 'matrix:2'.

    Unlisted parameters stay symbolic.  The E(n) family takes keys a,
    c1..cn and d<i>,<j> (also written d<ij>) for i < j; the diagonal d
    values are derived from c and rejected as inputs.
    """
    parts = [p.strip() for p in text.strip().split(";") if p.strip()]
    if not parts:
        raise ParseError("empty object spec")
    family, n = _family_head(parts[0], parts[0], matrix=True)
    if family == "matrix":
        if parts[1:]:
            raise ParseError("matrix specs take no parameters")
        if n < 1:
            raise ParseError("matrix size must be >= 1")
        return MatrixSpec(n)
    order = n if family == "taft" else 2
    seen = {}
    for part in parts[1:]:
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:
            raise ParseError(f"expected key=value, found {part!r}")
        if key in seen:
            raise ParseError(f"duplicate parameter {key!r}")
        seen[key] = _parse_value(value, order, key)
    if family == "taft":
        known = {"a", "c"}
        extra = set(seen) - known
        if extra:
            raise ParseError(
                f"unknown Taft parameters: {', '.join(sorted(extra))}; use a, c"
            )
        return taft_object_spec(
            n, a=seen.get("a", Symbolic()), c=seen.get("c", Symbolic())
        )
    c = {}
    d = {}
    a = Symbolic()
    for key, value in seen.items():
        if key == "a":
            a = value
            continue
        if key.startswith("c") and key[1:].isdigit():
            i = int(key[1:])
            if not 1 <= i <= n:
                raise ParseError(f"c index out of range in {key!r}")
            c[i] = value
            continue
        if key.startswith("d"):
            body = key[1:]
            if "," in body:
                si, sj = body.split(",", 1)
            elif len(body) == 2 and body.isdigit():
                si, sj = body[0], body[1]
            else:
                raise ParseError(f"malformed d parameter {key!r}; use d<i>,<j>")
            try:
                i, j = int(si), int(sj)
            except ValueError:
                raise ParseError(f"malformed d parameter {key!r}") from None
            if not 1 <= i < j <= n:
                raise ParseError(
                    f"d indices must satisfy 1 <= i < j <= {n}; "
                    f"d[{i},{j}] is derived or out of range"
                )
            d[(i, j)] = value
            continue
        raise ParseError(
            f"unknown E(n) parameter {key!r}; use a, c1..c{n}, d<i>,<j>"
        )
    return en_object_spec(n, a=a, c=c, d=d)
