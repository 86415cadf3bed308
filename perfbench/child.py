"""One benchmark invocation, run in a fresh Python process.

Usage: ``python3 child.py <spec.json>``.  The spec names the CLI argument
lists to pass to ``gofusion.cli.main`` one after another, whether to trace
them, and where to write the result.  The result records when
``gofusion.cli`` finished importing (CLOCK_MONOTONIC, comparable with the
parent's spawn time), the wall time and exit code of each call, the
process's peak resident set size and, when traced, the span snapshot.
"""

import json
import resource
import sys
import time
from pathlib import Path

import gofusion.cli

READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    if Path(gofusion.cli.__file__).resolve().parent != Path(spec["package_dir"]).resolve():
        print(f"imported {gofusion.cli.__file__}, expected {spec['package_dir']}", file=sys.stderr)
        return 2
    entry = gofusion.cli.main
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        entry = tracer.wrap(spans.MAIN, entry)
    walls, cpus, codes = [], [], []
    for argv in spec["calls"]:
        c0, t0 = time.process_time(), time.perf_counter()
        code = entry(argv)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        codes.append(code)
        if code != 0:
            break
    result = {
        "ready_ns": READY_NS,
        "walls": walls,
        "cpus": cpus,
        "codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
