"""Command line interface.

Subcommands:
  normalform   reduce an expression to its canonical form in an algebra
  coproduct    apply the coproduct of a Hopf algebra to an element
  mu           evaluate the universal map of an object on a free polynomial
  verify       test whether a named or written polynomial is an identity
  distinguish  compare two objects of one family through their identities
  catalog      list the named identities of a family
  selfcheck    run the structural axiom suites for a family

Exit status: 0 for computed or verified results, 1 for falsified verdicts
(an identity that fails, objects that are distinguished, a failing check
suite), 2 for usage, parse, or spec errors.  Output is text by default;
--format json emits one deterministic JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .comodule import check_comodule, galois_map_bijective, galois_object, read_int
from .cyclotomic import join_signed
from .exprparse import (
    MatrixSpec,
    parse_expression,
    parse_hopf_spec,
    parse_object_spec,
)
from .hopf import check_hopf_axioms, coproduct
from .identities import (
    Distinguished,
    bind_to_object,
    catalog,
    coinvariant_P,
    coinvariant_Q,
    commutator_identity,
    distinguish,
    matrix_identity_witness,
    mu,
)
from .ncalg import check_confluence

__all__ = ["main"]


class _Usage(ValueError):
    pass


def _galois_spec(text):
    spec = parse_object_spec(text)
    if isinstance(spec, MatrixSpec):
        raise _Usage(
            "this command needs a comodule algebra spec like taft:2;a=1;c=0"
        )
    return spec


# -- subcommand handlers --------------------------------------------------------
# each returns (result dict, list of text lines, exit code)


def _cmd_normalform(args, timings):
    if ";" in args.algebra:
        spec = _galois_spec(args.algebra)
        alg, shown = galois_object(spec).algebra, spec.render()
    else:
        hopf = parse_hopf_spec(args.algebra)
        alg, shown = hopf.algebra, hopf.name
    start = time.perf_counter()
    elem = parse_expression(args.expression, alg, args.max_degree)
    timings["normalform"] = time.perf_counter() - start
    result = {
        "algebra": shown,
        "normal_form": str(elem),
        "terms": len(elem.terms),
    }
    return result, [f"normal form in {shown}: {elem}"], 0


def _cmd_coproduct(args, timings):
    hopf = parse_hopf_spec(args.hopf)
    elem = parse_expression(args.expression, hopf.algebra, args.max_degree)
    start = time.perf_counter()
    image = coproduct(hopf, elem)
    timings["coproduct"] = time.perf_counter() - start
    result = {"hopf": hopf.name, "coproduct": str(image)}
    return result, [f"coproduct in {hopf.name}: {image}"], 0


def _cmd_mu(args, timings):
    spec = _galois_spec(args.object)
    A = galois_object(spec)
    poly = bind_to_object(parse_expression(args.expression, A.hopf, args.max_degree), A)
    start = time.perf_counter()
    image = mu(poly, A)
    timings["mu"] = time.perf_counter() - start
    result = {
        "object": spec.render(),
        "image": str(image),
        "zero": image.is_zero(),
    }
    return result, [f"mu image in {A.name}: {image}"], 0


def _named_identity(args, A):
    """The polynomials whose mu images decide args.identity on A, before
    their parameters are bound to A's values.

    A name of a catalog name's form gives its template or is refused; any
    other text that is not coinv_P:<h> or coinv_Q:<h>,<h'> is one polynomial.

    A coinv name gives the core's commutators with X[2,z], one per generator
    z of H in generator order, and these decide the commutator for every
    basis word z of H with the same first witness.  The core is in copy 1,
    so M = mu(core) holds no t[2,.].  Since mu(X[2,x]) = t[2,x] x and
    mu(X[2,yi]) = t[2,1] yi + t[2,yi] x (hopf.coaction_images), the x member
    is t[2,x] [M,x] and the yi member is t[2,1] [M,yi] + t[2,yi] [M,x]: all
    vanish exactly when M commutes with A's generators, that is, when M is
    central.  Then every mu([core, X[2,z]]) = sum t[2,z1] [M, z2], z2 read
    as a word of A, is 0.
    The member at z = 1 is always 0, and deglex puts every length-1 word
    before the longer ones, so the first nonzero image of the walk over
    H's basis is always a generator member, the first one here.
    """
    name, H = args.identity.strip(), A.hopf
    if name.startswith("coinv_P:"):
        core = coinvariant_P(parse_expression(name[len("coinv_P:"):], H.algebra))
    elif name.startswith("coinv_Q:"):
        body = name[len("coinv_Q:"):]
        if "," not in body:
            raise _Usage("coinv_Q takes two elements: coinv_Q:<h>,<h'>")
        left, right = body.split(",", 1)
        core = coinvariant_Q(*(parse_expression(e, H.algebra) for e in (left, right)))
    elif name.split(":", 1)[0] in ("taft_pc", "en_ci", "en_dij"):  # every catalog name's form
        for cat_name, template in catalog(H):
            if name == cat_name:
                return [template]
        raise _Usage(f"identity {name!r} is not in the catalog of {H.name}")
    else:
        return [parse_expression(name, H, args.max_degree)]
    return [commutator_identity(core, H.algebra.gen(g)) for g in H.algebra.generators]


def _matrix_witness(m, assignment, value) -> str:
    """Render s_m at matrix units, e[i,j] counting from 1, and its value."""

    def unit(ij):
        return f"e[{ij[0] + 1},{ij[1] + 1}]"

    rhs = join_signed([
        ("-" if c < 0 else "") + (unit(ij) if abs(c) == 1 else f"{abs(c)}*{unit(ij)}")
        for ij, c in value.items()
    ])
    args = ", ".join(unit(ij) for ij in assignment)
    return f"s_{m}({args}) = {rhs}"


def _cmd_verify(args, timings):
    name = args.identity.strip()
    if name.startswith("standard:"):
        spec = parse_object_spec(args.object)
        if not isinstance(spec, MatrixSpec):
            raise _Usage(
                "standard:<m> verifies against a matrix target; "
                "use --object matrix:<k>"
            )
        text = name[len("standard:"):]
        if (m := read_int(text)) is None:
            raise _Usage(f"standard:<m> needs an integer m; found {text!r}")
        start = time.perf_counter()
        found = matrix_identity_witness(m, spec.k)
        witness = found and _matrix_witness(m, *found)
        where, label = f"on {spec.k}x{spec.k} matrices", "witness"
        note = f" {where}"
    else:
        spec = _galois_spec(args.object)
        A = galois_object(spec)
        polys = _named_identity(args, A)
        start = time.perf_counter()
        images = (mu(bind_to_object(poly, A), A) for poly in polys)
        witness = next((image for image in images if not image.is_zero()), None)
        where, label = f"for {A.name}", "witness mu-image"
        symbolic = spec.symbolic_keys()
        note = f" (symbolic {', '.join(symbolic)})" if symbolic else ""
    timings["verify"] = time.perf_counter() - start
    result = {"object": spec.render(), "identity": name, "verified": witness is None}
    if witness is None:
        return result, [f"{name}: identity verified{note}"], 0
    result["witness"] = str(witness)
    return result, [f"{name}: not an identity {where}", f"{label}: {witness}"], 1


def _cmd_distinguish(args, timings):
    first = _galois_spec(args.first)
    second = _galois_spec(args.second)
    if first.family != second.family or first.n != second.n:
        raise _Usage(
            f"cannot compare {first.render()} with {second.render()}: "
            "different families"
        )
    second = second.primed_apart(first)
    A = galois_object(first)
    B = galois_object(second)
    start = time.perf_counter()
    verdict = distinguish(A, B)
    timings["distinguish"] = time.perf_counter() - start
    result = {"first": first.render(), "second": second.render()}
    if isinstance(verdict, Distinguished):
        result["verdict"] = "distinguished"
        result["identity"] = verdict.identity
        result["direction"] = verdict.direction
        result["witness"] = str(verdict.witness)
        lines = [str(verdict)]
        return result, lines, 1
    result["verdict"] = "isomorphic"
    result["note"] = verdict.note
    return result, [str(verdict)], 0


def _cmd_catalog(args, timings):
    hopf = parse_hopf_spec(args.hopf)
    start = time.perf_counter()
    entries = catalog(hopf)
    timings["catalog"] = time.perf_counter() - start
    listed = [
        {"name": name, "degree": poly.degree(), "polynomial": str(poly)}
        for name, poly in entries
    ]
    result = {"hopf": hopf.name, "count": len(listed), "identities": listed}
    lines = [f"{hopf.name}: {len(listed)} catalog identities"]
    for row in listed:
        lines.append(f"  {row['name']}  (degree {row['degree']})")
        lines.append(f"    {row['polynomial']}")
    return result, lines, 0


def _cmd_selfcheck(args, timings):
    hopf = parse_hopf_spec(args.hopf)
    checks = []

    start = time.perf_counter()
    axioms = check_hopf_axioms(hopf)
    checks.append(("hopf axioms", axioms.ok, str(axioms)))
    timings["hopf_axioms"] = time.perf_counter() - start

    start = time.perf_counter()
    conf = check_confluence(hopf.algebra)
    checks.append(("hopf confluence", conf.ok, str(conf)))
    timings["confluence"] = time.perf_counter() - start

    A = galois_object(parse_object_spec(hopf.name))
    start = time.perf_counter()
    comod = check_comodule(A)
    checks.append(("coaction suite", comod.ok, str(comod)))
    conf_a = check_confluence(A.algebra)
    checks.append(("object confluence", conf_a.ok, str(conf_a)))
    timings["coaction"] = time.perf_counter() - start

    # proved for every parameter value, so it also proves each numeric object
    start = time.perf_counter()
    try:
        checks.append(("galois map", galois_map_bijective(A), ""))
    except ValueError as exc:
        checks.append(("galois map", False, str(exc)))
    timings["galois_map"] = time.perf_counter() - start

    ok = all(passed for _, passed, _ in checks)
    result = {
        "hopf": hopf.name,
        "passed": ok,
        "checks": [
            {"name": name, "passed": passed} for name, passed, _ in checks
        ],
    }
    lines = []
    for name, passed, detail in checks:
        mark = "ok" if passed else "FAIL"
        lines.append(f"{mark:4} {name}")
        if not passed:
            lines.append(f"     {detail}")
    lines.append(
        f"{hopf.name}: self check {'passed' if ok else 'FAILED'}"
    )
    return result, lines, 0 if ok else 1


# -- dispatch -------------------------------------------------------------------


def _int_option(text):
    """The value of --seed or --max-degree, read by comodule.read_int."""
    if (value := read_int(text)) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _add_common(parser, default):
    # the shared flags sit on the root parser and on every subcommand, so
    # both "hopfid --format json verify .." and "hopfid verify .. --format
    # json" work; the subcommand copies default to SUPPRESS so an unset
    # flag never clobbers a value the root parser already recorded
    parser.add_argument(
        "--format", choices=("text", "json"), default=default,
        help="output format (default text)",
    )
    parser.add_argument(
        "--seed", type=_int_option, default=default,
        help="accepted and unused: no check is randomized",
    )
    parser.add_argument(
        "--max-degree", type=_int_option, default=default,
        help="refuse expression expansions past this degree",
    )
    parser.add_argument(
        "--timings", action="store_const", const=True, default=default,
        help="include wall-clock timings in the output",
    )


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="hopfid",
        description=(
            "Exact symbolic computations with Taft and E(n) Hopf algebras, "
            "their comodule algebras, and polynomial identities."
        ),
    )
    _add_common(parser, None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalform", parents=[common],
                       help="canonical form of an expression")
    p.add_argument("--algebra", required=True,
                   help="hopf spec (taft:3) or object spec (taft:3;a=1;c=0)")
    p.add_argument("expression")
    p.set_defaults(handler=_cmd_normalform)

    p = sub.add_parser("coproduct", parents=[common],
                       help="apply a Hopf coproduct")
    p.add_argument("--hopf", required=True, help="hopf spec, e.g. taft:2")
    p.add_argument("expression")
    p.set_defaults(handler=_cmd_coproduct)

    p = sub.add_parser("mu", parents=[common],
                       help="evaluate the universal map on an object")
    p.add_argument("--object", required=True,
                   help="object spec, e.g. taft:2;a=1;c=sym")
    p.add_argument("expression", help="free polynomial, e.g. 'Y*X - q*X*Y'")
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("verify", parents=[common],
                       help="check a polynomial identity")
    p.add_argument("--object", required=True,
                   help="object spec, or matrix:<k> for standard:<m>")
    p.add_argument("identity",
                   help="catalog name (taft_pc, en_ci:1, coinv_P:y, "
                        "standard:4) or a free expression")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("distinguish", parents=[common],
                       help="compare two objects by their identities")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_distinguish)

    p = sub.add_parser("catalog", parents=[common],
                       help="list the identity catalog of a family")
    p.add_argument("--hopf", required=True, help="hopf spec, e.g. en:2")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("selfcheck", parents=[common],
                       help="run the structural check suites")
    p.add_argument("--hopf", required=True, help="hopf spec, e.g. en:2")
    p.set_defaults(handler=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.format = args.format or "text"
    args.timings = bool(args.timings)
    timings = {}
    try:
        result, lines, code = args.handler(args, timings)
    except ValueError as exc:  # ParseError and _Usage included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not of the input; exit 1 would read as a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "command": args.command,
            "input": _echo_input(args),
            "result": result,
        }
        if args.timings:
            payload["timings"] = {
                k: round(v, 6) for k, v in sorted(timings.items())
            }
        print(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)
        if args.timings:
            for k, v in sorted(timings.items()):
                print(f"time {k}: {v:.6f}s")
    return code


def _echo_input(args):
    skip = {
        "command", "format", "seed", "max_degree", "timings", "handler",
    }
    return {
        k: v for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


if __name__ == "__main__":
    sys.exit(main())
