"""Span tracer for the traced benchmark run.

The tracer wraps hopfid's public functions and methods from outside the
package: nothing under src/ changes.  Each wrapped call records one span
(id, parent id, name, start, end) in compact in-memory arrays, and the
tracer keeps per-name call counts and self time.  Self time is a span's
duration minus the durations of its direct child spans, accumulated on the
span stack as calls return.

Names are patched where their callers look them up: a module-level function
is replaced in every hopfid module (and the package) that holds a binding to
the original object, because modules import each other's functions by name;
a method is replaced on its class, because operators dispatch through class
attributes.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# span arrays as written to disk, in this order
SPAN_FIELDS = (("id", "q"), ("parent", "q"), ("name", "H"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.max_values = {}
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        self._stack = []
        self._next_id = 0

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def record_max(self, key, value):
        if value > self.max_values.get(key, 0):
            self.max_values[key] = value

    def span(self, name, fn, after=None):
        """A wrapper of fn that records one span per call under name.

        after(args, result), if given, runs once the span has closed, so its
        cost lands in the caller's self time and in the trace overhead.
        """
        if name not in self.calls:
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        name_id = self.names.index(name)
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        ids, parents, names = self.spans["id"], self.spans["parent"], self.spans["name"]
        starts, ends = self.spans["start"], self.spans["end"]
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                ids.append(span_id)
                parents.append(parent)
                names.append(name_id)
                starts.append(start)
                ends.append(end)
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write(self, prefix):
        """Write the spans to <prefix>.spans and a JSON index to <prefix>.json."""
        n = len(self.spans["id"])
        with open(f"{prefix}.spans", "wb") as fh:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(fh)
        index = {
            "span_count": n,
            "fields": [[f, c] for f, c in SPAN_FIELDS],
            "names": self.names,
            "byteorder": sys.byteorder,
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(index, fh)

    def stats(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "max": dict(self.max_values),
        }


def _hopfid_modules():
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "hopfid" or key.startswith("hopfid."))
    ]


def _patch_function(tracer, owner, attr, name, after=None):
    original = getattr(owner, attr)
    wrapped = tracer.span(name, original, after)
    for mod in _hopfid_modules():
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _patch_method(tracer, cls, attrs, name, after=None):
    for attr in attrs:
        setattr(cls, attr, tracer.span(name, cls.__dict__[attr], after))


def install(tracer):
    """Wrap the public layer boundaries of every hopfid module.

    Imports hopfid.cli first, so that every module that binds a function by
    name is loaded before the bindings are replaced.
    """
    import hopfid.cli  # noqa: F401  (loads every module the CLI binds)
    from hopfid import cli, commpoly, comodule, cyclotomic, exprparse, hopf, identities, linalg, ncalg

    CN = cyclotomic.CyclotomicNumber
    _patch_method(tracer, CN, ("__mul__", "__rmul__"), "cyclotomic.mul")
    _patch_method(tracer, CN, ("__add__", "__radd__", "__sub__", "__rsub__"), "cyclotomic.addsub")
    _patch_method(tracer, CN, ("inverse",), "cyclotomic.inverse")

    CP = commpoly.CommPoly

    def poly_pairs(args, _result):
        self, other = args
        tracer.count("commpoly.mul.term_pairs",
                     len(self.terms) * (len(other.terms) if isinstance(other, CP) else 1))

    _patch_method(tracer, CP, ("__mul__", "__rmul__"), "commpoly.mul", poly_pairs)
    _patch_method(tracer, CP, ("__add__", "__radd__"), "commpoly.add")

    PA, AE = ncalg.PresentedAlgebra, ncalg.AlgElement
    find_redex = PA.__dict__["find_redex"]

    def counted_find_redex(self, word):
        tracer.count("ncalg.find_redex.calls")
        found = find_redex(self, word)
        if found is not None:
            tracer.count("ncalg.rewrite_steps")
        return found

    PA.find_redex = counted_find_redex
    nf_span = tracer.span("ncalg.normal_form_word", PA.__dict__["normal_form_word"])

    def normal_form_word(self, word):
        before = tracer.counts.get("ncalg.find_redex.calls", 0)
        result = nf_span(self, word)
        if tracer.counts.get("ncalg.find_redex.calls", 0) == before:
            tracer.count("ncalg.nf_cache_hits")
        return result

    PA.normal_form_word = normal_form_word

    def alg_pairs(args, _result):
        self, other = args
        tracer.count("ncalg.alg_mul.term_pairs",
                     len(self.terms) * (len(other.terms) if isinstance(other, AE) else 1))

    _patch_method(tracer, AE, ("__mul__",), "ncalg.alg_mul", alg_pairs)
    _patch_function(tracer, ncalg, "check_confluence", "ncalg.check_confluence")

    def matrix_shape(args, _result):
        rows = args[0]
        cols = len(rows[0]) if rows else 0
        tracer.count("linalg.row_reduce.cells", len(rows) * cols)
        tracer.record_max("linalg.row_reduce.max_n", max(len(rows), cols))

    _patch_function(tracer, linalg, "row_reduce", "linalg.row_reduce", matrix_shape)

    for attr in ("taft", "en"):
        _patch_function(tracer, hopf, attr, "hopf.build")
    HP = hopf.HopfPresentation
    _patch_method(tracer, HP, ("coproduct_word",), "hopf.coproduct_word")
    _patch_method(tracer, HP, ("antipode_word",), "hopf.antipode_word")
    _patch_function(tracer, hopf, "check_hopf_axioms", "hopf.check_hopf_axioms")

    _patch_function(tracer, comodule, "galois_object", "comodule.build")
    _patch_method(tracer, comodule.ComoduleAlgebra, ("coaction_word",), "comodule.coaction_word")
    for attr in ("galois_map_bijective", "coinvariants", "check_comodule"):
        _patch_function(tracer, comodule, attr, f"comodule.{attr}")

    def mu_sizes(args, result):
        tracer.count("identities.mu.input_terms", len(args[0].element.terms))
        tracer.count("identities.mu.image_terms", len(result.terms))

    _patch_function(tracer, identities, "mu", "identities.mu", mu_sizes)
    for attr in ("catalog", "taft_identity", "en_identities", "coinvariant_P",
                 "coinvariant_Q", "commutator_identity", "bind_to_object"):
        _patch_function(tracer, identities, attr, "identities.construct")
    _patch_function(tracer, identities, "distinguish", "identities.distinguish")
    for attr in ("verify_matrix_identity", "standard_polynomial"):
        _patch_function(tracer, identities, attr, "identities.matrix")

    for attr in ("parse_expression", "parse_hopf_spec", "parse_object_spec"):
        _patch_function(tracer, exprparse, attr, "exprparse.parse")

    _patch_function(tracer, cli, "main", "cli.main")
