"""Parser tests: expressions in both contexts, family specs, object specs."""

import random
from fractions import Fraction

import pytest

from hopfid.commpoly import CommPoly, ParamVar
from hopfid.comodule import Symbolic, galois_object, object_spec, taft_object_spec
from hopfid.cyclotomic import CyclotomicNumber, primitive_root
from hopfid.exprparse import (
    DEFAULT_FREE_DEGREE,
    MAX_COPIES,
    MAX_NESTING,
    MAX_SCALAR_BITS,
    MAX_SCALAR_TERMS,
    MatrixSpec,
    ParseError,
    parse_expression,
    parse_hopf_spec,
    parse_object_spec,
)
from hopfid.hopf import en, family_hopf, taft
from hopfid.identities import FreeComodulePoly, catalog, mu, taft_identity, x_symbol
from propsuites import copy_indices


def test_scalar_arithmetic_and_precedence():
    alg = taft(3).algebra
    one = alg.one()
    assert parse_expression("2 + 3*4", alg) == one * 14
    assert parse_expression("(2 + 3)*4", alg) == one * 20
    assert parse_expression("-2^2", alg) == one * (-4)
    assert parse_expression("2^-2", alg) == one * CommPoly.scalar(3, 1) * (
        CommPoly.constant(CyclotomicNumber.from_rational(3, 1) / 4)
    )
    assert parse_expression("7/2 - 3/2", alg) == one * 2


def test_q_and_z_track_the_context_order():
    assert parse_expression("q", taft(3).algebra) == taft(3).algebra.one() * (
        CommPoly.constant(primitive_root(3))
    )
    # en lives in the order-2 field where q = -1
    assert parse_expression("q", en(2).algebra) == en(2).algebra.one() * (-1)
    z = CyclotomicNumber.zeta(4)
    assert parse_expression("z^2", taft(4).algebra) == taft(4).algebra.one() * (
        CommPoly.constant(z * z)
    )


def test_element_mode_normalizes():
    H = taft(3)
    alg = H.algebra
    x, y = alg.gen("x"), alg.gen("y")
    assert parse_expression("y*x", alg) == alg.one() * CommPoly.constant(H.q) * x * y
    assert parse_expression("y * x - q*x*y", alg).is_zero()
    assert parse_expression("x^3", alg) == alg.one()
    assert parse_expression("y^3", alg).is_zero()
    assert parse_expression("x^0", alg) == alg.one()
    assert str(parse_expression("(x + y)^2", alg)) == "x^2 + (1 + z)*x*y + y^2"


def test_element_mode_against_object_algebra():
    A = galois_object(taft_object_spec(3))
    got = parse_expression("y^3", A.algebra)
    a = CommPoly.variable(3, ParamVar("a"))
    c = CommPoly.variable(3, ParamVar("c"))
    # in the object, y^3 collapses to the scalar c
    assert got == A.algebra.one() * c
    assert parse_expression("x^3", A.algebra) == A.algebra.one() * a


def test_t_variables_resolve_against_the_hopf_basis():
    A = galois_object(taft_object_spec(3))
    P = taft_identity(3)
    image = mu(P, A)
    again = parse_expression(str(image), A.algebra)
    assert again == image
    assert parse_expression("t[2,x*y]", A.algebra) == A.algebra.one() * (
        parse_expression("t[2,x*y]", A.algebra).coefficient(())
    )
    with pytest.raises(ParseError, match="single basis word"):
        parse_expression("t[1,x + y]", A.algebra)
    with pytest.raises(ParseError, match="single basis word"):
        parse_expression("t[1,2*x]", A.algebra)


def test_t_variables_are_rejected_in_free_mode():
    with pytest.raises(ParseError, match="structure parameters only"):
        parse_expression("t[1,x]*E", taft(2))


def test_free_mode_aliases():
    H = taft(2)
    alg = H.algebra
    assert parse_expression("E", H) == x_symbol(1, alg.one())
    assert parse_expression("X", H) == x_symbol(1, alg.gen("x"))
    assert parse_expression("Y", H) == x_symbol(1, alg.gen("y"))
    assert parse_expression("X[2,x*y]", H) == x_symbol(2, alg.gen("x") * alg.gen("y"))
    # bracket contents are full element expressions
    assert parse_expression("X[1,x + q*y]", H) == x_symbol(
        1, alg.gen("x") + alg.gen("y") * CommPoly.constant(H.q)
    )
    got = parse_expression("(Y*X - q*X*Y)^2 - (1-q)^2*X^2*Y^2", H)
    assert isinstance(got, FreeComodulePoly)
    assert got.degree() == 4


def test_free_mode_en_aliases():
    H = en(2)
    alg = H.algebra
    assert parse_expression("Y1", H) == x_symbol(1, alg.gen("y1"))
    assert parse_expression("Y2*X", H) == x_symbol(1, alg.gen("y2")) * x_symbol(
        1, alg.gen("x")
    )
    with pytest.raises(ParseError, match="Y1, Y2"):
        parse_expression("Y", H)
    with pytest.raises(ParseError, match="no generator y3"):
        parse_expression("Y3", H)
    # the index is read by the integer reader: ASCII digits, leading zeros dropped
    assert parse_expression("Y01", H) == parse_expression("Y1", H)
    with pytest.raises(ParseError, match="unknown symbol 'Y١'"):
        parse_expression("Y١", H)


def test_free_mode_scalar_promotion():
    H = taft(2)
    got = parse_expression("c - c'", H)
    assert isinstance(got, FreeComodulePoly)
    assert got.degree() == 0
    assert parse_expression("a*E - a*E", H).is_zero()


def test_parameters_and_primes():
    alg = taft(2).algebra
    one = alg.one()
    c1 = CommPoly.variable(2, ParamVar("c", (1,)))
    assert parse_expression("c1", alg) == one * c1
    assert parse_expression("c[1]", alg) == one * c1
    d12 = CommPoly.variable(2, ParamVar("d", (1, 2)))
    assert parse_expression("d12", alg) == one * d12
    assert parse_expression("d[1,2]", alg) == one * d12
    assert parse_expression("a''", alg) == one * CommPoly.variable(
        2, ParamVar("a", (), 2)
    )
    # the diagonal d[i,i] is a legal variable in raw expressions
    assert parse_expression("d[1,1]", alg) == one * CommPoly.variable(
        2, ParamVar("d", (1, 1))
    )
    # index digits are read as numbers, in ASCII only
    assert parse_expression("c01", alg) == one * c1
    with pytest.raises(ParseError, match="1 <= i <= j"):
        parse_expression("d21", alg)
    with pytest.raises(ParseError, match="start at 1"):
        parse_expression("c[0]", alg)
    with pytest.raises(ParseError, match="unknown generator 'c٧'"):
        parse_expression("c٧*x", alg)


def assert_refused(text, ctx, message, pos):
    """text is refused with exactly message, at pos, echoed with a caret."""
    with pytest.raises(ParseError) as err:
        parse_expression(text, ctx)
    assert err.value.pos == pos
    assert str(err.value) == f"{message} (at position {pos})\n  {text}\n  {' ' * pos}^"


def test_division_rules():
    alg = taft(2).algebra
    x = alg.gen("x")
    assert parse_expression("x/2", alg) == x * CommPoly.constant(
        CyclotomicNumber.from_rational(2, 1) / 2
    )
    assert_refused("1/x", alg, "division is defined for scalars only", 1)
    assert_refused("2 * 1/c", alg, "division needs a constant scalar", 5)
    assert_refused("x+1/(1-1)", alg, "division by zero", 3)


def test_negative_power_rules():
    alg = taft(3).algebra
    q = primitive_root(3)
    assert parse_expression("q^-1", alg) == alg.one() * CommPoly.constant(
        q.inverse()
    )
    assert parse_expression("(1+z)^(-1)", alg) == alg.one() * CommPoly.constant(
        (CyclotomicNumber.one(3) + CyclotomicNumber.zeta(3)).inverse()
    )
    assert_refused("x^-1", alg, "negative powers are defined for scalars only", 1)
    assert_refused("2*c^(-2)", alg, "negative powers need a constant scalar", 3)
    assert_refused("x + (q-q)^-1", alg, "negative power of zero", 9)
    assert_refused("X^-1", taft(3), "negative powers are defined for scalars only", 1)


def test_expansion_guard():
    alg = taft(5).algebra
    parse_expression("y^2 * y^2", alg, max_degree=4)
    with pytest.raises(ParseError, match="expansion guard"):
        parse_expression("y^2 * y^2", alg, max_degree=3)
    with pytest.raises(ParseError, match="expansion guard"):
        parse_expression("y^4", alg, max_degree=3)
    with pytest.raises(ParseError, match="expansion guard"):
        parse_expression("(X*Y)^5", taft(2), max_degree=4)
    # the guard sees reduced operands, so collapsing products stay cheap
    parse_expression("x^2*x^2", taft(2).algebra, max_degree=2)


def test_expansion_guard_tries_the_static_bound_first():
    H = taft(2)
    # under the limit by the tree's bound: nothing is expanded
    P = parse_expression("(E+X+Y)^12", H, max_degree=12)
    assert P.degree_bound == 12 and P._element is None
    # over it by the bound but not by the exact degree, which then decides
    parse_expression("(X - X)^5 * X^4", H, max_degree=4)
    parse_expression("((X - X)*X^200)*X^100", H)
    with pytest.raises(ParseError, match=r"degree 5 exceeds --max-degree 4"):
        parse_expression("(X - X + Y)^5", H, max_degree=4)
    with pytest.raises(ParseError, match=r"degree 6 exceeds --max-degree 5"):
        parse_expression("(X - X + Y^2) * (X^3 + X - X^3)^4", H, max_degree=5)


def test_powers_of_scalars_and_elements_are_bounded():
    a = "(a + 1)"
    assert len(parse_expression(f"{a}^255", taft(3).algebra).terms[()].terms) == 256
    with pytest.raises(ParseError, match=f"scalar power exceeds {MAX_SCALAR_TERMS} terms"):
        parse_expression(f"{a}^256", taft(3).algebra)
    obj = galois_object(parse_object_spec("taft:3;a=2;c=sym")).algebra
    assert parse_expression("x^3000", obj) == obj.one() * 2**1000
    with pytest.raises(ParseError, match=f"coefficient of a power exceeds {MAX_SCALAR_BITS} bits"):
        parse_expression("x^999999999", obj)
    with pytest.raises(ParseError, match=f"coefficient of a power exceeds {MAX_SCALAR_TERMS} terms"):
        parse_expression("((a + 1)*x)^300", obj)


def test_scalars_mix_with_elements_on_either_side():
    # a CommPoly operand defers to the element's reflected operator
    H = taft(3)
    alg = H.algebra
    x = alg.gen("x")
    c = CommPoly.variable(3, ParamVar("c"))
    for text, want in (
        ("2 + x", x + 2), ("2 - x", -x + 2), ("x - c", x - c),
        ("(c + 1)*x - x*c", x), ("(2*x + 3)/3", x * CommPoly.constant(
            CyclotomicNumber.from_rational(3, 2) / 3) + 1),
    ):
        assert parse_expression(text, alg) == want, text
    X = x_symbol(1, x)
    one = FreeComodulePoly.scalar(H, 1)
    for text, want in (
        ("1 - X", one - X), ("X + c", X + one * c), ("c*X - X*c", one * 0),
        ("2", one * 2), ("X[1,2 - x]", x_symbol(1, alg.one() * 2 - x)),
    ):
        assert parse_expression(text, H) == want, text


def test_free_context_default_degree_bound():
    H = taft(2)
    with pytest.raises(ParseError, match=r"degree 99999999 exceeds --max-degree 256 \(the default"):
        parse_expression("X^99999999", H)
    with pytest.raises(ParseError, match="the default"):
        parse_expression("X^200 * X^57", H)
    assert parse_expression(f"X^{DEFAULT_FREE_DEGREE}", H).degree() == DEFAULT_FREE_DEGREE
    # a bound the caller sets wins, and names no default
    assert parse_expression("X^300", H, max_degree=300).degree() == 300
    with pytest.raises(ParseError) as err:
        parse_expression("X^300", H, max_degree=299)
    assert "default" not in str(err.value)
    # element contexts reduce their words, so they keep no default, and
    # neither do bracket sub-expressions
    assert parse_expression("x^99999999", H.algebra) == H.algebra.gen("x")
    assert parse_expression("X[1,x^99999999]", H) == parse_expression("X", H)


def test_copy_index_bound():
    H = taft(2)
    assert copy_indices(parse_expression(f"X[{MAX_COPIES},1]", H)) == {MAX_COPIES}
    A = galois_object(taft_object_spec(2)).algebra
    parse_expression(f"t[{MAX_COPIES},x]*x", A)
    for text, ctx in (("X[100000000,1]", H), (f"X[{MAX_COPIES + 1},x]", H), ("t[101,x]", A)):
        with pytest.raises(ParseError, match=f"exceeds the bound {MAX_COPIES}"):
            parse_expression(text, ctx)


@pytest.mark.parametrize("hopf", [taft(n) for n in range(2, 9)] + [en(n) for n in range(1, 5)],
                         ids=lambda H: H.name)
def test_catalog_identities_parse_back_under_the_default_bound(hopf):
    for name, poly in catalog(hopf):
        assert poly.degree() <= DEFAULT_FREE_DEGREE
        assert parse_expression(str(poly), hopf) == poly, name


def test_parse_errors_carry_position():
    alg = taft(2).algebra
    with pytest.raises(ParseError) as err:
        parse_expression("x + ", alg)
    assert "position" in str(err.value)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("x @ y", alg)
    # a digit int() cannot read is no INT token
    with pytest.raises(ParseError, match=r"unexpected character '²' \(at position 1\)\n  2²\n   \^$"):
        parse_expression("2²", alg)
    with pytest.raises(ParseError, match=r"unexpected character '٧' \(at position 0\)"):
        parse_expression("٧*x", alg)
    with pytest.raises(ParseError, match="unknown symbol 'c²'"):
        parse_expression("c² * X[1,x]", taft(2))
    with pytest.raises(ParseError, match="after expression"):
        parse_expression("x y", alg)
    with pytest.raises(ParseError, match=r"expected '\)'"):
        parse_expression("(x + y", alg)
    with pytest.raises(ParseError, match="unknown generator 'w'"):
        parse_expression("w", alg)
    with pytest.raises(ParseError, match="unknown symbol 'W'"):
        parse_expression("W", taft(2))
    with pytest.raises(ParseError, match="copy indices start at 1"):
        parse_expression("X[0,x]", taft(2))
    with pytest.raises(ParseError):
        parse_expression("", alg)


def test_parse_error_echo_is_cut_around_the_position():
    # up to 80 characters the whole text is echoed
    text = "x" * 79 + "@"
    with pytest.raises(ParseError) as err:
        parse_expression(text, taft(2).algebra)
    assert str(err.value) == (
        f"unexpected character '@' (at position 79)\n  {text}\n  {' ' * 79}^"
    )
    # longer text: at most 80 characters around pos, "..." at each cut end
    text = "".join(chr(ord("a") + i % 26) for i in range(300))
    for pos in (0, 5, 39, 40, 41, 150, 259, 260, 299, 300):
        lines = str(ParseError("bad", pos, text)).split("\n")
        assert lines[0] == f"bad (at position {pos})"
        shown, caret = lines[1][2:], lines[2][2:]
        body = shown.removeprefix("...").removesuffix("...")
        assert len(body) == 80 and body in text
        assert shown.startswith("...") == (not text.startswith(body))
        assert shown.endswith("...") == (not text.endswith(body))
        assert caret == " " * (len(caret) - 1) + "^"
        col = len(caret) - 1
        assert shown[col : col + 1] == text[pos : pos + 1]
    short = str(ParseError("bad", 3, "x" * 80)).split("\n")
    assert short[1] == "  " + "x" * 80


def test_nesting_limit():
    H = taft(2)
    alg = H.algebra
    deep = MAX_NESTING
    assert parse_expression("(" * deep + "x" + ")" * deep, alg) == alg.gen("x")
    assert parse_expression("-" * deep + "x", alg) == alg.gen("x")
    assert parse_expression("x^" + "(" * deep + "2" + ")" * deep, alg) == alg.one()
    # a bracket sub-expression counts two levels
    inner = "(" * (deep - 2) + "x" + ")" * (deep - 2)
    assert parse_expression(f"X[1,{inner}]", H) == parse_expression("X", H)
    over = deep + 1
    for text, ctx in (
        ("(" * over + "x" + ")" * over, alg),
        ("-" * over + "x", alg),
        ("+" * over + "x", alg),
        ("x^" + "(" * over + "2" + ")" * over, alg),
        (f"X[1,({inner})]", H),
        ("t[1," * 60 + "x" + "]" * 60, galois_object(taft_object_spec(2)).algebra),
    ):
        with pytest.raises(ParseError, match="nesting deeper than 100 levels"):
            parse_expression(text, ctx)


def test_parse_hopf_spec():
    assert parse_hopf_spec("taft:3") is taft(3)
    assert parse_hopf_spec(" en:2 ") is en(2)
    assert parse_hopf_spec("TAFT: 03") is taft(3)
    with pytest.raises(ParseError, match="n >= 2"):
        parse_hopf_spec("taft:1")
    with pytest.raises(ParseError, match="n >= 2"):
        parse_hopf_spec("taft:-400")
    # a size is an optional '-' and ASCII digits, nothing else int() would read
    for text in ("taft:٣", "taft:1_0", "taft:+3"):
        with pytest.raises(ParseError) as err:
            parse_hopf_spec(text)
        assert str(err.value) == f"missing or malformed size in {text!r}"
    with pytest.raises(ParseError, match="n >= 1"):
        parse_hopf_spec("en:0")
    with pytest.raises(ParseError, match="malformed size"):
        parse_hopf_spec("taft")
    with pytest.raises(ParseError, match="unknown family"):
        parse_hopf_spec("sweedler:2")
    with pytest.raises(ParseError, match="plain family spec"):
        parse_hopf_spec("taft:3;a=1")


def test_family_size_past_the_basis_bound():
    # the spec parser and PresentedAlgebra.basis share one bound, 100000 words
    with pytest.raises(ParseError, match="^taft:317 has dimension 100489, past the 100000-word bound$"):
        parse_hopf_spec("taft:317")
    with pytest.raises(ParseError, match="^en:16 has dimension 131072, past the 100000-word bound$"):
        parse_object_spec("en:16;a=1")
    # the library refuses the same sizes with the same text
    with pytest.raises(ValueError, match="^taft:317 has dimension 100489, past the 100000-word bound$"):
        family_hopf("taft", 317)
    with pytest.raises(ValueError, match="^en:16 has dimension 131072, past the 100000-word bound$"):
        family_hopf("en", 16)
    # a large n is judged without forming 2^(n+1)
    with pytest.raises(ValueError, match=r"^en:1000000000 has dimension 2\^1000000001, past the 100000-word bound$"):
        object_spec("en", 10**9)
    # a dimension past 2^64 is written as a power: Python prints no int past 4300 digits
    with pytest.raises(ParseError, match=r"^taft:9{2500} has dimension 9{2500}\^2, past the 100000-word bound$"):
        parse_hopf_spec("taft:" + "9" * 2500)
    with pytest.raises(ValueError, match="^the Taft family needs n >= 2$"):
        family_hopf("taft", -400)


def test_parse_object_spec_taft():
    spec = parse_object_spec("taft:3")
    assert spec.family == "taft"
    assert spec.n == 3
    assert spec.value("a") == Symbolic()
    assert spec.value("c") == Symbolic()
    spec = parse_object_spec("taft:2;a=1;c=sym'")
    assert spec.value("a") == CyclotomicNumber.from_rational(2, 1)
    assert spec.value("c") == Symbolic(1)
    assert parse_object_spec(spec.render()) == spec
    # values may use the field constants
    spec = parse_object_spec("taft:3;c=q")
    assert spec.value("c") == primitive_root(3)
    spec = parse_object_spec("taft:2;a=3/2")
    assert spec.value("a") == CyclotomicNumber.from_rational(2, 3) / 2


def test_parse_object_spec_en():
    spec = parse_object_spec("en:2;a=1;c1=0;c2=1;d1,2=5")
    assert spec.family == "en"
    assert spec.value("c2") == CyclotomicNumber.from_rational(2, 1)
    assert spec.value("d1,2") == CyclotomicNumber.from_rational(2, 5)
    assert parse_object_spec("en:2;d12=5").value("d1,2") == spec.value("d1,2")
    assert parse_object_spec(spec.render()) == spec
    galois_object(spec)  # parsed specs feed straight into object construction


def test_parse_object_spec_rejections():
    with pytest.raises(ParseError, match="derived or out of range"):
        parse_object_spec("en:2;d1,1=0")
    with pytest.raises(ParseError, match="derived or out of range"):
        parse_object_spec("en:2;d2,1=0")
    with pytest.raises(ParseError, match="out of range"):
        parse_object_spec("en:2;c3=0")
    with pytest.raises(ParseError, match="duplicate"):
        parse_object_spec("taft:2;a=1;a=2")
    # a key is compared in its canonical form: d12 is d1,2 and c01 is c1
    for text in ("en:2;d12=1;d1,2=0", "en:2;c1=0;c01=1", "en:2;d1,2=1;d01,2=0"):
        with pytest.raises(ParseError, match="duplicate parameter"):
            parse_object_spec(text)
    with pytest.raises(ParseError, match="unknown Taft parameters"):
        parse_object_spec("taft:2;c1=0")
    with pytest.raises(ParseError, match="unknown E"):
        parse_object_spec("en:2;b=1")
    # a key's index digits are ASCII, and d with one index is no d key
    with pytest.raises(ParseError, match=r"^unknown E\(n\) parameter 'c١'"):
        parse_object_spec("en:2;c١=1")
    with pytest.raises(ParseError, match=r"^unknown E\(n\) parameter 'd012'"):
        parse_object_spec("en:2;d012=1")
    with pytest.raises(ParseError, match="key=value"):
        parse_object_spec("taft:2;a")
    with pytest.raises(ParseError, match="primes apply to sym"):
        parse_object_spec("taft:2;a=1'")
    with pytest.raises(ParseError, match="constant scalar"):
        parse_object_spec("taft:2;a=c")
    with pytest.raises(ParseError, match="scalar value"):
        parse_object_spec("taft:2;a=x")
    with pytest.raises(ParseError, match="empty"):
        parse_object_spec("  ")
    with pytest.raises(ParseError, match="needs n >= 2"):
        parse_object_spec("taft:1;a=1")


_SPEC_FAMILIES = [("taft", n) for n in range(2, 6)] + [("en", n) for n in range(1, 5)]


def _spec_keys(family, n):
    if family == "taft":
        return ["a", "c"]
    pairs = [f"d{i},{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return ["a"] + [f"c{i}" for i in range(1, n + 1)] + pairs


@pytest.mark.parametrize("family, n", _SPEC_FAMILIES)
def test_object_spec_round_trip(family, n):
    rng = random.Random(f"{family}:{n}")
    order = n if family == "taft" else 2
    z = CyclotomicNumber.zeta(order)
    numbers = [0, 1, -2, Fraction(3, 2), z, z + 1]
    keys = _spec_keys(family, n)
    for _ in range(20):
        chosen = rng.sample(keys, rng.randrange(len(keys) + 1))
        values = {}
        for key in chosen:
            values[key] = rng.choice(numbers + [Symbolic(), Symbolic(1)])
            if key == "a" and values[key] == 0:
                values[key] = Symbolic(1)
        spec = object_spec(family, n, values)
        assert parse_object_spec(spec.render()) == spec
        assert set(spec.keys()) == set(keys)
        assert all(spec.value(k) == Symbolic() for k in keys if k not in values)
        parts = [f"{family}:{n}"]
        for key, value in values.items():
            if key.startswith("d") and rng.random() < 0.5:
                key = key.replace(",", "")  # the d<ij> alias
            shown = "sym" + "'" * value.prime if isinstance(value, Symbolic) else str(value)
            parts.append(f"{key}={shown}")
        assert object_spec(family, n, values) == parse_object_spec(";".join(parts))


@pytest.mark.parametrize("family, n", _SPEC_FAMILIES)
def test_object_spec_refuses_non_canonical_keys(family, n):
    for key in ["c0", f"c{n + 1}", "d1,1", f"d{n},{n}", "d2,1", f"d{n + 1},{n}", "b"]:
        with pytest.raises(ValueError) as err:
            object_spec(family, n, {key: 1})
        assert not isinstance(err.value, ParseError)
        with pytest.raises(ParseError):
            parse_object_spec(f"{family}:{n};{key}=1")


def test_parse_matrix_spec():
    spec = parse_object_spec("matrix:2")
    assert spec == MatrixSpec(2)
    assert spec.render() == "matrix:2"
    with pytest.raises(ParseError, match="no parameters"):
        parse_object_spec("matrix:2;a=1")
    with pytest.raises(ParseError, match=">= 1"):
        parse_object_spec("matrix:0")
    with pytest.raises(ParseError, match="^missing or malformed size in 'matrix:２'$"):
        parse_object_spec("matrix:２")


def test_parse_context_type_check():
    with pytest.raises(TypeError):
        parse_expression("x", object())
