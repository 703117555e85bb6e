"""hopfid benchmark: exact verdicts, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from src/.
Workloads: identity_ladder, galois_linear, cli_cold (see README.md).

--trace 0 runs whole passes, each in a fresh interpreter and one operation
at a time, until --seconds have passed, and times set-up in a fresh
interpreter before each pass (at least SETUP_SAMPLES times); it prints the
end-to-end metrics.
--trace 1 runs untraced passes for --seconds, one traced pass and the scalar
kernels, and prints the per-layer metrics.  Raw per-pass latencies and the
spans go to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("identity_ladder", "galois_linear", "cli_cold")
SETUP_SAMPLES = 5
TOP_OPS = {
    "identity_ladder": "taft_pc taft:7;a=sym;c=sym",
    "galois_linear": "galois object taft:4;a=1;c=1",
    "cli_cold": "verify taft_pc taft:6;a=sym;c=sym",
}

# spans whose call counts and self times are reported
SPAN_CALLS = (
    "cyclotomic.mul", "cyclotomic.addsub", "cyclotomic.inverse", "commpoly.mul",
    "commpoly.add", "ncalg.normal_form_word", "ncalg.alg_mul", "linalg.row_reduce",
    "hopf.coproduct_word", "hopf.antipode_word", "comodule.coaction_word",
    "identities.mu", "exprparse.parse",
)
SPAN_SELF_ONLY = (
    "ncalg.check_confluence", "hopf.build", "hopf.check_hopf_axioms", "comodule.build",
    "comodule.galois_map_bijective", "comodule.coinvariants", "comodule.check_comodule",
    "identities.construct", "identities.distinguish", "identities.matrix", "cli.main",
)
COUNTS = (
    "commpoly.mul.term_pairs", "ncalg.rewrite_steps", "ncalg.nf_cache_hits",
    "ncalg.alg_mul.term_pairs", "linalg.row_reduce.cells", "identities.mu.input_terms",
    "identities.mu.image_terms",
)


class BenchError(RuntimeError):
    pass


def _worker(env, mode, workload, seed, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, encoding="utf-8",
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(env, workload, seed, seconds, setup=None):
    """Whole passes, each in a fresh interpreter, until seconds have passed.

    If setup is a list, SETUP_SAMPLES set-up timings are appended to it,
    spread over the run, so that they see the same machine as the passes.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if setup is not None:
            setup.append(_worker(env, "setup", workload, seed)["setup_s"])
        passes.append(_worker(env, "pass", workload, seed))
    while setup is not None and len(setup) < SETUP_SAMPLES:
        setup.append(_worker(env, "setup", workload, seed)["setup_s"])
    return passes


def _tally(runs):
    failed = [msg for r in runs for msg in r["failed"]]
    wrong = [msg for r in runs for msg in r["wrong"]]
    for msg in sorted(set(failed)):
        print(f"failed: {msg}", file=sys.stderr)
    for msg in sorted(set(wrong)):
        print(f"WRONG: {msg}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": len(failed),
    }


def end_to_end(env, workload, seed, seconds):
    setup = []
    passes = _passes(env, workload, seed, seconds, setup)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"passes-{workload}.json", "w") as fh:
        json.dump({"seed": seed, "setup_s": setup, "passes": passes}, fh)
    latencies = [s for p in passes for _, s in p["latencies"]]
    top = [s for p in passes for label, s in p["latencies"] if label == TOP_OPS[workload]]
    if not top:
        raise BenchError(f"the top operation {TOP_OPS[workload]!r} never completed")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p75_s": (statistics.quantiles(latencies, n=4)[2], "s"),
        "top_op_s": (statistics.median(top), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    print(f"{workload}: {len(passes)} passes, {len(latencies)} timed operations",
          file=sys.stderr)
    return _tally(passes), metrics


def _merge(child_stats):
    """Sum the traced CLI children's calls, self times and counts."""
    merged = {"calls": {}, "self_s": {}, "counts": {}, "max": {}}
    for stats in child_stats:
        for key in ("calls", "self_s", "counts"):
            for name, value in stats[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in stats["max"].items():
            merged["max"][name] = max(merged["max"].get(name, 0), value)
    merged["import_s"] = statistics.median(s["import_s"] for s in child_stats)
    return merged


def per_layer(env, workload, seed, seconds):
    untraced = _passes(env, workload, seed, seconds)
    OUT.mkdir(exist_ok=True)
    traced = _worker(env, "traced", workload, seed, str(OUT / f"trace-{workload}"))
    kernels = _worker(env, "kernels", workload, seed)
    stats = traced.get("stats") or _merge(traced["child_stats"])
    calls, self_s, counts = stats["calls"], stats["self_s"], stats["counts"]
    metrics = {}
    for span in SPAN_CALLS:
        metrics[f"{span}.calls"] = (calls.get(span, 0), "count")
    for span in SPAN_CALLS + SPAN_SELF_ONLY:
        metrics[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    for key in COUNTS:
        metrics[key] = (counts.get(key, 0), "count")
    nf_calls = calls.get("ncalg.normal_form_word", 0)
    hits = counts.get("ncalg.nf_cache_hits", 0)
    metrics["ncalg.nf_cache_hit_ratio"] = (hits / nf_calls if nf_calls else 0.0, "ratio")
    metrics["linalg.row_reduce.max_n"] = (stats["max"].get("linalg.row_reduce.max_n", 0), "count")
    for name, value in kernels["metrics"].items():
        metrics[name] = (value, "us")
    metrics["cli.import_s"] = (stats["import_s"], "s")
    overhead = traced["wall_s"] - statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    traced["wrong"] = traced["wrong"] + kernels["wrong"]
    return _tally(untraced + [traced]), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hopfid" / "__init__.py").is_file():
        print(f"error: no hopfid sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8")
    try:
        # untimed warm-up: compiles the bytecode that every later interpreter reuses
        _worker(env, "setup", args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        summary, metrics = measure(env, args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
