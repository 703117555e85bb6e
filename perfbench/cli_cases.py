"""The cli_cold workload: hopfid command lines, each run in a fresh interpreter.

cases(seed) returns the fixed list of invocations, with seeded parameter
values and exponents, covering all seven subcommands in text and JSON and the
verdict exits 0, 1 and 2.  check_run() applies the exit-code contract to
every invocation and then the case's own check of the verdict.

The exit-code contract: 0 computed or verified; 1 falsified, and only with a
witness; 2 a usage, spec, parse or budget error, with an "error:" line on
stderr; never a Python traceback.
"""

from __future__ import annotations

import json
import random
from typing import Callable, NamedTuple, Optional

TOP_CASE = "verify taft_pc taft:6;a=sym;c=sym"


class Case(NamedTuple):
    label: str
    argv: list
    code: int
    check: Optional[Callable] = None  # check(stdout) -> None or a message
    fault: str = ""  # a known fault this case exposes, if any


def _text(expected):
    def check(out):
        return None if expected in out else f"missing {expected!r}"
    return check


def _json(**fields):
    """Parse the document and compare the named result fields."""
    def check(out):
        doc = json.loads(out)
        if set(doc) < {"command", "input", "result"}:
            return f"JSON lacks command/input/result: {sorted(doc)}"
        result = doc["result"]
        for key, want in fields.items():
            got = result.get(key)
            if callable(want):
                if not want(got):
                    return f"result[{key!r}] = {got!r} fails its check"
            elif got != want:
                return f"result[{key!r}] = {got!r}, want {want!r}"
        return None
    return check


def _power_word(r):
    return "1" if r == 0 else "x" if r == 1 else f"x^{r}"


def cases(seed):
    rng = random.Random(seed)
    k = rng.randint(5, 11)
    j = rng.randint(1, 4)
    cv = rng.randint(1, 3)
    selfcheck_seed = str(rng.randrange(1000))
    deep = "(" * 3000 + "X" + ")" * 3000
    sym6 = "taft:6;a=sym;c=sym"
    out = [
        Case("normalform taft:3 y*x", ["normalform", "--algebra", "taft:3", "y*x"], 0,
             _text("normal form in taft:3: (z)*x*y")),
        Case("normalform taft:2 c=0 y*y json",
             ["--format", "json", "normalform", "--algebra", "taft:2;a=1;c=0", "y*y"], 0,
             _json(normal_form="0", terms=0)),
        Case("normalform taft:4 x^k", ["normalform", "--algebra", "taft:4;a=1;c=0", f"x^{k}"], 0,
             _text(f": {_power_word(k % 4)}\n")),
        Case("normalform en:2 y2*y1 json",
             ["normalform", "--algebra", "en:2", "y2*y1", "--format", "json"], 0,
             _json(normal_form="-y1*y2")),
        Case("coproduct taft:2 y", ["coproduct", "--hopf", "taft:2", "y"], 0,
             _text("coproduct in taft:2: 1⊗y + y⊗x")),
        Case("coproduct en:2 x json", ["--format", "json", "coproduct", "--hopf", "en:2", "x"], 0,
             _json(coproduct="x⊗x")),
        Case("coproduct taft:5 x^j", ["coproduct", "--hopf", "taft:5", f"x^{j}"], 0,
             _text(f"{_power_word(j)}⊗{_power_word(j)}")),
        Case("mu taft:2 sweedler", ["mu", "--object", "taft:2;a=1;c=0", "Y*X - q*X*Y"], 0,
             _text("2*t[1,x]*t[1,y]")),
        Case("mu taft:3 central E json",
             ["--format", "json", "mu", "--object", "taft:3;a=1;c=0", "X*E - E*X"], 0,
             _json(zero=True)),
        Case("mu en:1 X^2 json", ["--format", "json", "mu", "--object", f"en:1;a={cv};c1=0", "X^2"], 0,
             _json(zero=False)),
    ]
    for n in (2, 3, 4, 5):
        spec = f"taft:{n};a=sym;c=sym"
        if n % 2:
            out.append(Case(f"verify taft_pc taft:{n} json",
                            ["--format", "json", "verify", "--object", spec, "taft_pc"], 0,
                            _json(verified=True)))
        else:
            out.append(Case(f"verify taft_pc taft:{n}", ["verify", "--object", spec, "taft_pc"], 0,
                            _text("taft_pc: identity verified (symbolic a, c)")))
    out += [Case(TOP_CASE, ["verify", "--object", sym6, "taft_pc"], 0,
                 _text("taft_pc: identity verified (symbolic a, c)")) for _ in range(3)]
    out += [
        Case("verify en_ci:1 en:2", ["verify", "--object", "en:2", "en_ci:1"], 0,
             _text("en_ci:1: identity verified")),
        Case("verify en_dij:1,2 en:3 json",
             ["--format", "json", "verify", "--object", "en:3", "en_dij:1,2"], 0,
             _json(verified=True)),
        Case("verify coinv_P:y taft:2", ["verify", "--object", "taft:2", "coinv_P:y"], 0,
             _text("coinv_P:y: identity verified")),
        Case("verify coinv_Q:y,y taft:2 json",
             ["--format", "json", "verify", "--object", "taft:2", "coinv_Q:y,y"], 0,
             _json(verified=True)),
        Case("verify standard:4 matrix:2", ["verify", "--object", "matrix:2", "standard:4"], 0,
             _text("standard:4: identity verified on 2x2 matrices")),
        Case("verify standard:2 matrix:1 json",
             ["--format", "json", "verify", "--object", "matrix:1", "standard:2"], 0,
             _json(verified=True)),
        Case("verify X taft:2", ["verify", "--object", "taft:2;a=1;c=0", "X"], 1,
             _text("witness mu-image: t[1,x]*x")),
        Case("verify Y*Y taft:2 c seeded", ["verify", "--object", f"taft:2;a=1;c={cv}", "Y*Y"], 1,
             _text("t[1,y]^2")),
        Case("verify X en:1 json", ["--format", "json", "verify", "--object", "en:1;a=1;c1=0", "X"], 1,
             _json(verified=False, witness=lambda w: bool(w) and w != "0")),
        Case("verify deep nesting", ["verify", "--object", "taft:2;a=1;c=0", deep], 1,
             fault="a RecursionError escapes main() on 3000 nested parentheses, "
                   "so the command exits 1 with a traceback"),
        Case("distinguish taft:2 c=0|c=1",
             ["distinguish", "taft:2;a=1;c=0", "taft:2;a=1;c=1"], 1,
             _text("witness mu-image: -4*t[1,1]^2*t[1,x]^2")),
        Case("distinguish taft:3 c=0|c=1 json",
             ["--format", "json", "distinguish", "taft:3;a=1;c=0", "taft:3;a=1;c=1"], 1,
             _json(verdict="distinguished", identity="taft_pc",
                   witness="(3 + 6*z)*t[1,1]^3*t[1,x]^3")),
        Case("distinguish taft:3 a=1|a=8", ["distinguish", "taft:3;a=1;c=1", "taft:3;a=8;c=1"], 0,
             _text("isomorphic")),
        Case("distinguish en:2 json",
             ["--format", "json", "distinguish", "en:2;a=1;c1=0;c2=0;d1,2=0",
              "en:2;a=1;c1=1;c2=0;d1,2=0"], 1,
             _json(verdict="distinguished", identity="en_ci:1")),
        Case("catalog en:2", ["catalog", "--hopf", "en:2"], 0, _text("en:2: 5 catalog identities")),
        Case("catalog taft:3 json", ["--format", "json", "catalog", "--hopf", "taft:3"], 0,
             _json(count=1)),
        Case("catalog en:3 json", ["catalog", "--hopf", "en:3", "--format", "json"], 0,
             _json(count=9)),
        Case("selfcheck taft:2", ["selfcheck", "--hopf", "taft:2", "--seed", selfcheck_seed], 0,
             _text("taft:2: self check passed")),
        Case("selfcheck en:1 json",
             ["--format", "json", "selfcheck", "--hopf", "en:1", "--seed", selfcheck_seed], 0,
             _json(passed=True)),
        Case("selfcheck taft:3", ["selfcheck", "--hopf", "taft:3", "--seed", selfcheck_seed], 0,
             _text("taft:3: self check passed")),
        Case("error taft:1 spec", ["normalform", "--algebra", "taft:1", "x"], 2),
        Case("error parse Y*", ["mu", "--object", "taft:2;a=1;c=0", "Y*"], 2),
        Case("error a=0", ["verify", "--object", "taft:2;a=0;c=0", "taft_pc"], 2),
        Case("error unknown catalog name json",
             ["--format", "json", "verify", "--object", "en:2", "en_ci:9"], 2),
        Case("error mixed families", ["distinguish", "taft:2", "en:1"], 2),
        Case("error degree guard", ["mu", "--max-degree", "3", "--object", "taft:2;a=1;c=0", "X^5"], 2),
        Case("error no subcommand", ["--format", "json"], 2),
    ]
    return out


def contract_fault(code, out, err):
    """Why an invocation broke the exit-code contract, or None."""
    if "Traceback" in err:
        return f"exit {code} with a traceback: {err.strip().splitlines()[-1]}"
    if code == 0:
        return None
    if code == 1:
        if "witness" in out:
            return None
        return "exit 1 without a witness"
    if code == 2:
        return None if "error:" in err else "exit 2 without an error: line"
    return f"exit code {code} outside 0, 1, 2"


def check_run(case, code, out, err):
    """(failed, wrong): the contract breach, and a wrong verdict, each or None."""
    breach = contract_fault(code, out, err)
    if breach is not None:
        return breach, None
    if case.fault:
        # the fault is mended once the case exits 2 with a message or 1 with a witness
        return None, None if code in (1, 2) else f"exit {code}, want 1 or 2"
    if code != case.code:
        return None, f"exit {code}, want {case.code}"
    if case.check is not None:
        try:
            return None, case.check(out)
        except ValueError as exc:
            return None, f"unparsable output: {exc}"
    return None, None
