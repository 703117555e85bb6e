"""Traced stand-in for the hopfid console script.

    python3 perfbench/cli_child.py <trace-prefix> <hopfid arguments...>

Times the import of hopfid.cli, installs the tracer's wrappers, then calls
hopfid.cli.main with the arguments, exactly as the console script does.
Writes <trace-prefix>.stats.json (import time, calls, self times, counts)
and the spans, even when main raises, and exits with main's code.
"""

import sys
import time

start = time.perf_counter()
import hopfid.cli  # noqa: E402

import_s = time.perf_counter() - start

import json  # noqa: E402

from tracer import Tracer, install  # noqa: E402

prefix = sys.argv[1]
tracer = Tracer()
install(tracer)
try:
    sys.exit(hopfid.cli.main(sys.argv[2:]))
finally:
    tracer.write(prefix)
    with open(f"{prefix}.stats.json", "w") as fh:
        json.dump({"import_s": import_s, **tracer.stats()}, fh)
