"""One benchmark step in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py <mode> <workload> <seed> [<trace-prefix>]

Modes:
  setup    import hopfid and build the workload's algebras and objects
           (cli_cold: import hopfid.cli only) and report the time taken;
  pass     set up, then run the workload's operation list once, untraced,
           and then its checks;
  traced   the same pass with the tracer's wrappers installed before set-up;
  kernels  the seeded scalar kernels.

Prints one JSON object as its last line.  Nothing but the standard library
and the benchmark's own modules is imported before the timed set-up.
"""

import sys
import time

_START = time.perf_counter()


def _run(entries, timed, clock=time.perf_counter):
    """Run each entry once and check its output; time it if timed."""
    latencies, failed, wrong = [], [], []
    wall = 0.0
    for op in entries:
        start = clock()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            wall += clock() - start
            failed.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - start
        wall += elapsed
        latencies.append([op.label, elapsed])
        message = op.check(out)
        if message:
            wrong.append(f"{op.label}: {message}")
    if not timed:
        wall, latencies = 0.0, []
    return {"wall_s": wall, "latencies": latencies, "attempted": len(entries),
            "failed": failed, "wrong": wrong}


def _run_cli(seed, trace_prefix=None, clock=time.perf_counter):
    import json
    import os
    import subprocess

    from cli_cases import cases, check_run

    here = os.path.dirname(os.path.abspath(__file__))
    entry = "import sys; from hopfid.cli import main; sys.exit(main())"
    latencies, failed, wrong, stats = [], [], [], []
    wall = 0.0
    all_cases = cases(seed)
    for i, case in enumerate(all_cases):
        if trace_prefix is None:
            argv = [sys.executable, "-c", entry, *case.argv]
        else:
            prefix = f"{trace_prefix}-{i:02d}"
            argv = [sys.executable, os.path.join(here, "cli_child.py"), prefix, *case.argv]
        start = clock()
        try:
            proc = subprocess.run(argv, capture_output=True, encoding="utf-8", timeout=120)
        except subprocess.TimeoutExpired:
            wall += clock() - start
            failed.append(f"{case.label}: timed out")
            continue
        elapsed = clock() - start
        wall += elapsed
        breach, bad = check_run(case, proc.returncode, proc.stdout, proc.stderr)
        if breach:
            failed.append(f"{case.label}: {breach}" + (f" ({case.fault})" if case.fault else ""))
        else:
            latencies.append([case.label, elapsed])
        if bad:
            wrong.append(f"{case.label}: {bad}")
        if trace_prefix is not None:
            with open(f"{prefix}.stats.json") as fh:
                stats.append(json.load(fh))
    out = {"wall_s": wall, "latencies": latencies, "attempted": len(all_cases),
           "failed": failed, "wrong": wrong}
    if trace_prefix is not None:
        out["child_stats"] = stats
    return out


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        if workload == "cli_cold":
            import hopfid.cli  # noqa: F401
        else:
            from workloads import WORKLOADS

            WORKLOADS[workload](seed)
        return {"setup_s": time.perf_counter() - _START}

    import resource

    if mode == "kernels":
        import hopfid

        import kernels

        metrics, wrong = kernels.run(hopfid, seed)
        return {"metrics": metrics, "wrong": wrong}

    if workload == "cli_cold":
        out = _run_cli(seed, argv[3] if mode == "traced" else None)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return out

    if mode == "traced":
        start = time.perf_counter()
        import hopfid.cli  # noqa: F401

        import_s = time.perf_counter() - start
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    from workloads import WORKLOADS

    ops, checks = WORKLOADS[workload](seed)
    out = _run(ops, timed=True)
    if mode == "traced":
        # the per-layer figures describe the operations, not the checks
        out["stats"] = {"import_s": import_s, **tracer.stats()}
        tracer.write(argv[3])
    checked = _run(checks, timed=False)
    out["attempted"] += checked["attempted"]
    out["failed"] += checked["failed"]
    out["wrong"] += checked["wrong"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    result = main(sys.argv[1:])
    import json

    print(json.dumps(result))
