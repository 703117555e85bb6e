"""End-to-end command line tests, driving main() in process.

Two cases run the console module in a real process: one to see its stderr,
one to kill it if it runs past a time limit.
"""

import json
import operator
import os
import subprocess
import sys
import time

import pytest

import hopfid
from hopfid import cli, identities
from hopfid.cli import main
from hopfid.comodule import galois_object
from hopfid.cyclotomic import power
from hopfid.exprparse import MAX_SCALAR_BITS, MAX_SCALAR_TERMS, parse_expression, parse_object_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert err == ""
    return code, json.loads(out)


def test_normalform_hopf(capsys):
    code, out, err = run(capsys, "normalform", "--algebra", "taft:3", "y*x")
    assert code == 0
    assert out == "normal form in taft:3: (z)*x*y\n"


@pytest.mark.parametrize("algebra, shown",
                         [("TAFT: 03", "taft:3"), (" taft:2;c=0;a=01 ", "taft:2;a=1;c=0")])
def test_normalform_echoes_the_algebra_it_computed_in(capsys, algebra, shown):
    code, out, _ = run(capsys, "normalform", "--algebra", algebra, "x")
    assert (code, out) == (0, f"normal form in {shown}: x\n")
    code, doc = run_json(capsys, "normalform", "--algebra", algebra, "x")
    assert (code, doc["input"]["algebra"], doc["result"]["algebra"]) == (0, algebra, shown)


def test_normalform_object(capsys):
    code, out, _ = run(
        capsys, "normalform", "--algebra", "taft:2;a=1;c=0", "y*y"
    )
    assert code == 0
    assert "normal form in taft:2;a=1;c=0: 0" in out


def test_coproduct(capsys):
    code, out, _ = run(capsys, "coproduct", "--hopf", "taft:2", "y")
    assert code == 0
    assert out == "coproduct in taft:2: 1⊗y + y⊗x\n"


def test_coproduct_orders_terms_across_factors(capsys):
    # same-length terms in the order of their factors' words laid out block by
    # block: y1*y2⊗1 before 1⊗y1*y2, though () sorts before (1, 2) as a tuple
    want = "y1*y2⊗1 + 1⊗y1*y2 + y1⊗x*y2 - y2⊗x*y1"
    code, out, _ = run(capsys, "coproduct", "--hopf", "en:2", "y1*y2")
    assert code == 0
    assert out == f"coproduct in en:2: {want}\n"
    code, doc = run_json(capsys, "coproduct", "--hopf", "en:2", "y1*y2")
    assert code == 0
    assert doc["result"]["coproduct"] == want


def test_mu_text(capsys):
    code, out, _ = run(
        capsys, "mu", "--object", "taft:2;a=1;c=0", "Y*X - q*X*Y"
    )
    assert code == 0
    assert out == "mu image in A(taft:2;a=1;c=0): 2*t[1,x]*t[1,y]\n"


def test_verify_catalog_symbolic(capsys):
    code, out, _ = run(
        capsys, "verify", "--object", "taft:3;a=sym;c=sym", "taft_pc"
    )
    assert code == 0
    assert out == "taft_pc: identity verified (symbolic a, c)\n"


def test_verify_catalog_numeric(capsys):
    code, out, _ = run(capsys, "verify", "--object", "taft:2;a=1;c=5", "taft_pc")
    assert code == 0
    assert out == "taft_pc: identity verified\n"


def test_verify_expression_fails(capsys):
    code, out, _ = run(capsys, "verify", "--object", "taft:2;a=1;c=0", "X")
    assert code == 1
    assert "X: not an identity for A(taft:2;a=1;c=0)" in out
    assert "witness mu-image: t[1,x]*x" in out


def test_verify_expression_holds(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--object",
        "taft:2;a=sym;c=sym",
        "(Y*X - q*X*Y)^2 - (1-q)^2*X^2*Y^2 + (1-q)^2*c*E^2*X^2",
    )
    assert code == 0
    assert "identity verified (symbolic a, c)" in out


def test_verify_commutator_families(capsys):
    code, out, _ = run(
        capsys, "verify", "--object", "taft:2;a=sym;c=sym", "coinv_P:y"
    )
    assert code == 0
    assert "coinv_P:y: identity verified" in out
    code, out, _ = run(
        capsys, "verify", "--object", "taft:2;a=sym;c=sym", "coinv_Q:x,y"
    )
    assert code == 0
    code, _, err = run(capsys, "verify", "--object", "taft:2;a=1;c=0", "coinv_Q:x")
    assert code == 2
    assert "coinv_Q takes two elements" in err


def _numeric_and_symbolic_specs(family, n):
    if family == "taft":
        return [f"taft:{n};a=2;c=3", f"taft:{n};a=sym;c=sym"]
    cs = [f"c{i}={i % 3}" for i in range(1, n + 1)]
    ds = [f"d{i},{j}={(i + j) % 3}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [";".join([f"en:{n}", "a=2", *cs, *ds]), f"en:{n}"]


@pytest.mark.parametrize("spec", [
    spec
    for family, sizes in (("taft", range(2, 7)), ("en", range(1, 4)))
    for n in sizes
    for spec in _numeric_and_symbolic_specs(family, n)
])
def test_coinvariant_verdicts_match_the_walk_over_the_basis(capsys, monkeypatch, spec):
    # the commutators with X[2,z] for z over all of H's basis are the oracle:
    # the CLI forms them for H's generators only, and must print the walk's
    # verdict and its first nonzero mu-image, for any core in copy 1
    parsed = parse_object_spec(spec)
    A = galois_object(parsed)
    symbolic = parsed.symbolic_keys()
    verified = f" (symbolic {', '.join(symbolic)})" if symbolic else ""
    alg = A.hopf.algebra
    words = [alg.element({w: 1}) for w in A.hopf.basis()]
    X1 = [identities.x_symbol(1, w) for w in words]
    x = identities.x_symbol(1, alg.gen("x"))
    cores = [identities.coinvariant_P(w) for w in words[:4] + words[-1:]]
    cores += [identities.coinvariant_Q(w, words[-1]) for w in words[:3]]
    cores += X1 + [x * Xw for Xw in X1]
    falsified = 0
    for i, core in enumerate(cores):
        images = (
            identities.mu(identities.bind_to_object(identities.commutator_identity(core, z), A), A)
            for z in words
        )
        witness = next((image for image in images if not image.is_zero()), None)
        falsified += witness is not None
        monkeypatch.setattr(cli, "coinvariant_P", lambda h: core)
        monkeypatch.setattr(cli, "coinvariant_Q", lambda h, h2: core)
        name = ("coinv_P:x", "coinv_Q:x,x")[i % 2]
        code, out, err = run(capsys, "verify", "--object", spec, name)
        assert err == ""
        if witness is None:
            assert (code, out) == (0, f"{name}: identity verified{verified}\n")
        else:
            assert (code, out) == (
                1, f"{name}: not an identity for {A.name}\nwitness mu-image: {witness}\n"
            )
    assert 0 < falsified < len(cores)


def test_verify_en_catalog(capsys):
    code, out, _ = run(capsys, "verify", "--object", "en:2", "en_dij:1,2")
    assert code == 0
    assert "identity verified (symbolic a, c1, c2, d1,2)" in out


def test_verify_standard_on_matrices(capsys):
    code, out, _ = run(capsys, "verify", "--object", "matrix:2", "standard:4")
    assert code == 0
    assert out == "standard:4: identity verified on 2x2 matrices\n"
    code, out, _ = run(capsys, "verify", "--object", "matrix:2", "standard:2")
    assert code == 1
    assert out == (
        "standard:2: not an identity on 2x2 matrices\n"
        "witness: s_2(e[1,1], e[1,2]) = e[1,2]\n"
    )


def test_verify_standard_failure_carries_witness(capsys):
    code, out, _ = run(capsys, "verify", "--object", "matrix:2", "standard:3")
    assert code == 1
    assert out == (
        "standard:3: not an identity on 2x2 matrices\n"
        "witness: s_3(e[1,1], e[1,2], e[2,1]) = 2*e[1,1] + e[2,2]\n"
    )
    code, payload = run_json(capsys, "verify", "--object", "matrix:2", "standard:3")
    assert code == 1
    assert payload["result"]["verified"] is False
    assert payload["result"]["witness"] == (
        "s_3(e[1,1], e[1,2], e[2,1]) = 2*e[1,1] + e[2,2]"
    )


def test_verify_usage_errors(capsys):
    # standard polynomials target matrix algebras, not comodule algebras
    code, _, err = run(
        capsys, "verify", "--object", "taft:2;a=1;c=0", "standard:3"
    )
    assert code == 2
    assert "matrix" in err
    # catalog names from the wrong family
    code, _, err = run(capsys, "verify", "--object", "taft:2;a=1;c=0", "en_ci:1")
    assert code == 2
    assert "not in the catalog of taft:2" in err
    # matrix objects take no free expressions
    code, _, err = run(capsys, "verify", "--object", "matrix:2", "X*Y")
    assert code == 2


@pytest.mark.parametrize("m", ["x", "", "2.5", "٤", "1_0", "+3"])
def test_verify_standard_needs_an_integer(capsys, m):
    code, out, err = run(capsys, "verify", "--object", "matrix:2", f"standard:{m}")
    assert code == 2
    assert out == ""
    assert err == f"error: standard:<m> needs an integer m; found {m!r}\n"


def test_verify_standard_of_a_negative_m(capsys):
    code, out, err = run(capsys, "verify", "--object", "matrix:2", "standard:-1")
    assert (code, out, err) == (2, "", "error: need m >= 1 and k >= 1\n")


def test_distinguish_autoprimes_symbolic(capsys):
    code, out, _ = run(
        capsys, "distinguish", "taft:2;a=1;c=sym", "taft:2;a=1;c=sym"
    )
    assert code == 1
    assert "distinguished" in out
    assert "taft_pc" in out


def test_distinguish_isomorphic(capsys):
    code, out, _ = run(capsys, "distinguish", "taft:2;a=1;c=0", "taft:2;a=1;c=0")
    assert code == 0
    assert out == "isomorphic (a parameters equal)\n"


def test_distinguish_family_mismatch(capsys):
    code, _, err = run(capsys, "distinguish", "taft:2;a=1;c=0", "en:1;a=1")
    assert code == 2
    assert "different families" in err


def test_distinguish_json_fields(capsys):
    code, payload = run_json(
        capsys,
        "distinguish",
        "en:2;a=1;c1=0;c2=0;d1,2=0",
        "en:2;a=1;c1=0;c2=0;d1,2=1",
    )
    assert code == 1
    result = payload["result"]
    assert result["verdict"] == "distinguished"
    assert result["identity"] == "en_dij:1,2"
    assert "witness" in result
    assert payload["command"] == "distinguish"
    assert payload["input"]["first"] == "en:2;a=1;c1=0;c2=0;d1,2=0"


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--hopf", "en:2")
    assert code == 0
    assert out.startswith("en:2: 5 catalog identities\n")
    for name in ("en_ci:1", "en_ci:2", "en_dij:1,1", "en_dij:1,2", "en_dij:2,2"):
        assert name in out


def test_catalog_json(capsys):
    code, payload = run_json(capsys, "catalog", "--hopf", "taft:3")
    assert code == 0
    assert payload["result"]["count"] == 1
    entry = payload["result"]["identities"][0]
    assert entry["name"] == "taft_pc"
    assert entry["degree"] == 6


def test_catalog_past_the_expansion_bound_exits_2(capsys):
    # taft_pc of taft:17 would expand (YX - qXY)^17 into 2^17 words
    code, out, err = run(capsys, "catalog", "--hopf", "taft:17")
    assert (code, out) == (2, "")
    assert err.startswith("error: mu image bound: ")
    assert err.count("\n") == 1


def test_free_symbol_with_a_t_coefficient_exits_2(capsys):
    # refused at the X it qualifies, with the caret a t coefficient of E gets
    code, out, err = run(capsys, "mu", "--object", "taft:2;a=1;c=0", "X[1,t[1,x]]")
    assert (code, out) == (2, "")
    assert err == ("error: free comodule polynomial coefficients may only contain "
                   "structure parameters, not t[1,x] (at position 0)\n"
                   "  X[1,t[1,x]]\n"
                   "  ^\n")
    code, out, err = run(capsys, "mu", "--object", "taft:2;a=1;c=0", "E + X[1,t[1,x]]")
    assert (code, out) == (2, "")
    assert err.endswith("not t[1,x] (at position 4)\n  E + X[1,t[1,x]]\n      ^\n")


def test_t_coefficient_refusal_names_the_least_variable(capsys):
    # the polynomial prints t[1,1] first, so the refusal names it, whatever the hash order
    text = "X[1,t[2,y]*t[1,x]*t[1,1]*a + x]"
    code, out, err = run(capsys, "mu", "--object", "taft:2;a=1;c=0", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: free comodule polynomial coefficients may only contain "
                          "structure parameters, not t[1,1] (at position 0)\n")


def test_written_polynomials_bind_the_object_parameters(capsys):
    pc = "(Y*X - q*X*Y)^2 - (1-q)^2*X^2*Y^2 + (1-q)^2*c*E^2*X^2"
    for spec in ("taft:2;a=1;c=0", "taft:2;a=2;c=3", "taft:2;a=sym;c=sym"):
        code, out, _ = run(capsys, "verify", "--object", spec, pc)
        assert code == 0, (spec, out)
    code, out, _ = run(capsys, "mu", "--object", "taft:2;a=2;c=3", "c*E")
    assert (code, out) == (0, "mu image in A(taft:2;a=2;c=3): 3*t[1,1]\n")
    # a is no catalog parameter: it stays a variable
    code, out, _ = run(capsys, "mu", "--object", "taft:2;a=2;c=3", "a*E")
    assert (code, out) == (0, "mu image in A(taft:2;a=2;c=3): a*t[1,1]\n")


def test_selfcheck(capsys):
    code, out, _ = run(capsys, "selfcheck", "--hopf", "taft:2")
    assert code == 0
    assert "taft:2: self check passed" in out
    assert out.count("ok") >= 5


def test_selfcheck_json(capsys):
    code, payload = run_json(capsys, "selfcheck", "--hopf", "en:1")
    assert code == 0
    assert payload["result"]["passed"] is True
    names = [row["name"] for row in payload["result"]["checks"]]
    assert names == ["hopf axioms", "hopf confluence", "coaction suite",
                     "object confluence", "galois map"]


def test_selfcheck_accepts_an_unused_seed(capsys):
    # no check is randomized, so --seed changes nothing, in either position
    plain = run(capsys, "selfcheck", "--hopf", "taft:3")
    assert plain[0] == 0
    assert run(capsys, "selfcheck", "--hopf", "taft:3", "--seed", "7") == plain
    assert run(capsys, "--seed", "7", "selfcheck", "--hopf", "taft:3") == plain


@pytest.mark.parametrize("option", ["--seed", "--max-degree"])
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_integer_options_read_ascii_digits(capsys, option, before):
    # read like every other number in the input: ASCII digits 0-9 only
    def argv(value):
        command = ["normalform", "--algebra", "taft:3", "x*x"]
        return [option, value, *command] if before else [*command, option, value]

    for value in ("3", "007"):
        assert run(capsys, *argv(value)) == (0, "normal form in taft:3: x^2\n", "")
    for value in ("٣", "1_0", "+3"):
        with pytest.raises(SystemExit) as exit_:
            main(argv(value))
        assert exit_.value.code == 2
        assert f"error: argument {option}: invalid int value: {value!r}" in capsys.readouterr().err


def test_selfcheck_galois_refusal_is_a_fail_row(capsys, monkeypatch):
    message = "the Galois map test needs the family coaction: beta(kappa(y)) is not 1⊗y"

    def refused(A):
        raise ValueError(message)

    monkeypatch.setattr(cli, "galois_map_bijective", refused)
    code, out, err = run(capsys, "selfcheck", "--hopf", "taft:2")
    assert (code, err) == (1, "")
    assert out.endswith(f"FAIL galois map\n     {message}\ntaft:2: self check FAILED\n")
    code, payload = run_json(capsys, "selfcheck", "--hopf", "en:1")
    assert code == 1
    assert payload["result"]["passed"] is False
    assert payload["result"]["checks"][-1] == {"name": "galois map", "passed": False}


def test_json_deterministic(capsys):
    args = ("verify", "--object", "taft:2;a=sym;c=sym", "taft_pc")
    _, first = run(capsys, "--format", "json", *args)[:2], None
    code1, out1, _ = run(capsys, "--format", "json", *args)
    code2, out2, _ = run(capsys, "--format", "json", *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert "timings" not in payload


def test_timings_flag(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "--timings", "mu",
        "--object", "taft:2;a=1;c=0", "E",
    )
    assert code == 0
    payload = json.loads(out)
    assert "timings" in payload
    assert "mu" in payload["timings"]
    code, out, _ = run(
        capsys, "mu", "--object", "taft:2;a=1;c=0", "E", "--timings"
    )
    assert code == 0
    assert "time mu:" in out


def test_flag_order_both_ways(capsys):
    code1, out1, _ = run(
        capsys, "--format", "json", "coproduct", "--hopf", "taft:2", "x"
    )
    code2, out2, _ = run(
        capsys, "coproduct", "--hopf", "taft:2", "x", "--format", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "normalform", "--algebra", "taft:2", "x +")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    code, _, err = run(capsys, "mu", "--object", "taft:9000;a=1", "E")
    assert code == 2
    code, _, err = run(capsys, "normalform", "--algebra", "nope:3", "x")
    assert code == 2
    assert "unknown family" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--object", "taft:2;a=1;c=0", "(" * 3000 + "X" + ")" * 3000],
        ["normalform", "--algebra", "taft:2", "(" * 3000 + "x" + ")" * 3000],
        ["verify", "--object", "taft:2;a=1;c=0", "0" + "-" * 3000 + "X"],
    ],
    ids=["verify-parens", "normalform-parens", "verify-minus-chain"],
)
def test_deep_nesting_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: nesting deeper than 100 levels")
    assert "Traceback" not in err


def _child(*argv, timeout):
    """Run the console module in a real process, killed after timeout seconds."""
    src = os.path.dirname(os.path.dirname(hopfid.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "hopfid.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_cold_import_leaves_dataclasses_out():
    # dataclasses pulls in inspect, ast, dis and tokenize: a quarter of a cold import
    src = os.path.dirname(os.path.dirname(hopfid.__file__))
    code = "import sys, hopfid.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_deep_nesting_error_is_short():
    # a real process, so a traceback would show on stderr
    deep = "(" * 3000 + "X" + ")" * 3000
    proc = _child("verify", "--object", "taft:2;a=1;c=0", deep, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr) < 400
    assert "nesting deeper than 100 levels" in proc.stderr


def test_wide_free_power_is_not_expanded():
    # (E+X+Y)^12 expands to 3^12 words in T(X_H); mu evaluates it in the object
    proc = _child("mu", "--object", "taft:2;a=1;c=0", "(E+X+Y)^12", timeout=30)
    assert proc.returncode == 0
    assert proc.stdout.startswith("mu image in A(taft:2;a=1;c=0): (660*t[1,1]^2*t[1,x]*t[1,y]^9 + ")


def test_wide_free_power_past_the_mu_bound_exits_2():
    # (E+X+Y+X[2,1]+X[2,x])^40 has coefficients of degree 40 in five t variables
    start = time.perf_counter()
    proc = _child("mu", "--object", "taft:2;a=1;c=0", "(E+X+Y+X[2,1]+X[2,x])^40", timeout=30)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: mu image bound: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["mu", "--object", "taft:2;a=1;c=0", "((E+X+Y+X[2,1]+X[2,x])^12)^22"],
    ["mu", "--max-degree", "20", "--object", "taft:2;a=1;c=0",
     "((E+X+Y+X[2,1]+X[2,x])^12)^2"],
])
def test_exact_degree_past_the_mu_bound_exits_2(argv):
    # the static degree bound passes the limit, so the guard wants the exact
    # degree; unbounded, that expansion builds the 5^12 words of the inner power
    start = time.perf_counter()
    proc = _child(*argv, timeout=30)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: expansion guard: degree up to ")
    assert "mu image bound" in proc.stderr
    assert proc.stderr.count("error:") == 1
    assert "Traceback" not in proc.stderr


def _mu_by_squaring(spec, expr, m, mul):
    A = hopfid.galois_object(hopfid.parse_object_spec(spec))
    base = identities.mu(parse_expression(expr, A.hopf), A)
    return power(base, m, A.algebra.one(), mul)


def test_two_term_power_past_the_mu_bound_exits_2(capsys):
    # (u+v)^2 = u^2 + v^2 here, and (t[1,x] + t[1,y])^2000 still has 2001 monomials
    start = time.perf_counter()
    code, out, err = run(capsys, "mu", "--max-degree", "2000", "--object", "taft:2;a=1;c=0",
                         "(X+Y)^2000")
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert err.startswith("error: mu image bound: ")
    assert err.count("\n") == 1


def test_two_term_power_is_computed_as_by_squaring(capsys):
    code, out, _ = run(capsys, "mu", "--max-degree", "400", "--object", "taft:2;a=1;c=0",
                       "(X+Y)^400")
    expected = _mu_by_squaring("taft:2;a=1;c=0", "X+Y", 400, identities._bounded_mul)
    assert code == 0
    assert out == f"mu image in A(taft:2;a=1;c=0): {expected}\n"


def test_two_term_power_past_the_bound_of_its_squares_is_computed(capsys):
    # squaring (X+Y)^46 on taft:3 would form a product past MAX_MU_PAIRS, so it
    # was refused; by (u+v)^3 = u^3 + v^3 it is computed, and it is the same
    # value as an unbounded squaring
    spec = "taft:3;a=1;c=1"
    with pytest.raises(ValueError, match="mu image bound"):
        _mu_by_squaring(spec, "X+Y", 46, identities._bounded_mul)
    code, out, _ = run(capsys, "mu", "--object", spec, "(X+Y)^46")
    assert code == 0
    assert out == f"mu image in A({spec}): {_mu_by_squaring(spec, 'X+Y', 46, operator.mul)}\n"


def test_taft_pc_verified_at_n_20(capsys):
    code, out, _ = run(capsys, "verify", "--object", "taft:20;a=sym;c=sym", "taft_pc")
    assert code == 0
    assert out == "taft_pc: identity verified (symbolic a, c)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mu", "--max-degree", "3", "--object", "taft:3;a=1;c=0", "--", "(a+1)^600*X"],
         f"scalar power exceeds {MAX_SCALAR_TERMS} terms"),
        (["normalform", "--algebra", "taft:3;a=2;c=sym", "x^999999999"],
         f"coefficient of a power exceeds {MAX_SCALAR_BITS} bits"),
        # degree 0 passes the degree guard, so the scalar bound must catch it
        (["mu", "--object", "taft:2;a=1;c=0", "(2*X^0)^99999999"],
         f"scalar power exceeds {MAX_SCALAR_BITS} bits"),
    ],
    ids=["parameter-power", "element-power", "free-constant-power"],
)
def test_growing_powers_exit_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("k", [5, 8, 11, 999999999])
def test_powers_that_reduce_stay_unbounded(capsys, k):
    code, out, _ = run(capsys, "normalform", "--algebra", "taft:4;a=1;c=0", f"x^{k}")
    assert code == 0
    word = {0: "1", 1: "x"}.get(k % 4, f"x^{k % 4}")
    assert out == f"normal form in taft:4;a=1;c=0: {word}\n"


def test_leading_minus_expression_after_double_dash(capsys):
    # without "--" argparse reads "-X*Y" as an option
    code, out, _ = run(capsys, "verify", "--object", "taft:2;a=1;c=0", "--", "-X*Y")
    assert code == 1
    assert out.startswith("-X*Y: not an identity for A(taft:2;a=1;c=0)\n")
    assert "witness mu-image: " in out


def test_max_degree_guard_exits_2(capsys):
    code, _, err = run(
        capsys, "--max-degree", "3", "mu",
        "--object", "taft:5;a=1;c=0", "Y^4",
    )
    assert code == 2
    assert "expansion guard" in err


def test_mu_rejects_matrix_spec(capsys):
    code, _, err = run(capsys, "mu", "--object", "matrix:2", "E")
    assert code == 2
    assert "comodule algebra spec" in err


def test_json_input_echo(capsys):
    code, payload = run_json(
        capsys, "mu", "--object", "taft:2;a=1;c=0", "E"
    )
    assert code == 0
    assert payload["input"] == {
        "expression": "E",
        "object": "taft:2;a=1;c=0",
    }
    assert payload["result"]["zero"] is False


@pytest.mark.parametrize(
    "expression",
    ["2^100000000*X", "(1/3)^-100000000*X", "(2^4000)^2*X", "(2+z)^100000*X"],
    ids=["int", "negative-fraction", "nested", "cyclotomic"],
)
def test_scalar_power_bound_exits_2(capsys, expression):
    code, out, err = run(capsys, "mu", "--object", "taft:3;a=1;c=0", "--", expression)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: scalar power exceeds {MAX_SCALAR_BITS} bits")
    assert "Traceback" not in err


@pytest.mark.parametrize("digits", [1300, 5000])
@pytest.mark.parametrize("template", ["{n}*x", "x^{n}"], ids=["atom", "exponent"])
def test_long_integer_literal_exits_2(capsys, digits, template):
    # 1300 digits are about 4318 bits; past 4300 digits, int() itself refuses
    # the text on Python 3.11 and reads it on 3.10, so the digits are counted first
    expression = template.format(n="7" * digits)
    code, out, err = run(capsys, "normalform", "--algebra", "taft:3;a=1;c=0", "--", expression)
    assert (code, out) == (2, "")
    position = expression.index("7")
    assert err.startswith(f"error: integer literal exceeds {MAX_SCALAR_BITS} bits "
                          f"(at position {position})\n")
    assert "Traceback" not in err


def test_literal_of_the_bound_is_read(capsys):
    # 2^4096 - 1 has 1234 digits and 4096 bits; leading zeros are no bits
    code, out, _ = run(capsys, "normalform", "--algebra", "taft:3;a=1;c=0",
                       f"({'0' * 2000}{(1 << MAX_SCALAR_BITS) - 1} - {1 << MAX_SCALAR_BITS - 1})*x")
    assert code == 0
    assert out == f"normal form in taft:3;a=1;c=0: {(1 << MAX_SCALAR_BITS - 1) - 1}*x\n"


@pytest.mark.parametrize("expression", ["٧*x", "٠" * 2000 + "7*x"], ids=["digit", "zeros"])
def test_unicode_digits_are_no_literal(capsys, expression):
    # literals are ASCII 0-9, the digits int() reads after the zeros are stripped
    code, out, err = run(capsys, "normalform", "--algebra", "taft:3", expression)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unexpected character {expression[0]!r} (at position 0)\n")
    code, out, _ = run(capsys, "normalform", "--algebra", "taft:3", "007*x")
    assert (code, out) == (0, "normal form in taft:3: 7*x\n")


@pytest.mark.parametrize("algebra", ["en:1000000000", "en:1000000000;a=1"])
def test_family_size_past_the_bound_exits_2_at_once(capsys, algebra):
    # 2^(n+1) is not formed: forming and printing it took seconds and hundreds of MB
    start = time.perf_counter()
    code, out, err = run(capsys, "normalform", "--algebra", algebra, "x")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: en:1000000000 has dimension 2^1000000001, past the 100000-word bound\n"


def test_power_of_two_q_commuting_generators(capsys):
    # (x+y)^200 = x^200 + y^200 = 1 in taft:200; repeated squaring took about 20 s
    start = time.perf_counter()
    code, out, _ = run(capsys, "normalform", "--algebra", "taft:200", "(x+y)^200")
    assert time.perf_counter() - start < 10
    assert (code, out) == (0, "normal form in taft:200: 1\n")


def test_root_of_unity_powers_are_not_bounded(capsys):
    code, out, _ = run(capsys, "mu", "--object", "taft:3;a=1;c=0", "q^1000000000*X")
    assert code == 0
    assert out == "mu image in A(taft:3;a=1;c=0): (z)*t[1,x]*x\n"
    code, out, _ = run(capsys, "mu", "--object", "taft:3;a=1;c=0", "q^-1000000000*X")
    assert code == 0
    assert out == "mu image in A(taft:3;a=1;c=0): (-1 - z)*t[1,x]*x\n"
    code, out, _ = run(capsys, "mu", "--object", "taft:3;a=1;c=0", "(q*E^0)^1000000000*X")
    assert code == 0
    assert out == "mu image in A(taft:3;a=1;c=0): (z)*t[1,x]*x\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--object", "taft:2;a=1;c=0", "X^99999999"], "(the default for free expressions)"),
        (["mu", "--object", "taft:2;a=1;c=0", "X[100000000,1]"], "exceeds the bound 100"),
    ],
    ids=["free-degree", "copy-index"],
)
def test_unbounded_free_inputs_exit_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 3  # message, echo, caret
    assert message in err


@pytest.mark.parametrize(
    "exc",
    [RuntimeError("boom"), ZeroDivisionError("division by zero"),
     RecursionError("maximum recursion depth exceeded")],
    ids=lambda e: type(e).__name__,
)
def test_internal_error_exits_2_without_traceback(capsys, monkeypatch, exc):
    def broken(args, timings):
        raise exc

    monkeypatch.setattr(cli, "_cmd_catalog", broken)
    code, out, err = run(capsys, "catalog", "--hopf", "taft:2")
    assert code == 2
    assert out == ""
    assert err == f"error: internal error: {type(exc).__name__}: {exc}\n"
    assert "Traceback" not in err
