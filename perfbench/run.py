"""gofusion benchmark: end-to-end and per-layer metrics of the CLI workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tune_small --seed 1 --seconds 40 --trace 0

The benchmark makes the workload's input files from ``--seed``, then runs
the workload's ``gofusion`` commands again and again for ``--seconds``,
each invocation in a fresh Python process started one after another (a
closed loop with one client).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
invocations, reports the per-layer metrics of the traced ones, checks the
span counts and prints the tracing overhead.  Every invocation's outputs
are checked: against the stored reference digests for the default seed,
otherwise for being identical across the run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "gofusion"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUP_PROBES = 5  # import-only spawns before the first invocation
PROBES_PER_INVOCATION = 2  # and after each invocation, on top of its own spawn
MIN_RUNS = 3  # invocations per --trace 0 run, even past --seconds; --trace 1 runs one pair
TIME_LIMIT_S = 150.0  # start no invocation that could end after this

# Everything the report prints per run: name -> (unit, which way is better).
# BENCHMARK.json's end_to_end lists those whose spread across seeds fits a
# bound; recall and bhi depend on the seed's data, and failed_frac is 0 when
# all is well, so those three are printed and checked but not compared.
REPORTED = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("fraction", "lower"),
    "recall": ("fraction", "higher"),
    "bhi": ("fraction", "higher"),
}


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def machine_info() -> dict:
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            info[f"l{level}"] = (index / "size").read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = {line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    """Spawns child invocations and checks each one's outputs."""

    def __init__(self, workload, inputs: dict[str, Path], work: Path, start: float):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.start = start
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.count = 0
        self.probes = 0
        self.longest = 0.0
        self.a_genes = _first_column(inputs["expression_a"])
        self.b_genes = _first_column(inputs["expression_b"])

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, calls: list[list[str]], trace: bool, run_dir: Path) -> dict | None:
        """Start one child, wait for it, return its result (None if it failed)."""
        run_dir.mkdir(parents=True)
        spec = {"calls": calls, "trace": trace, "package_dir": str(PACKAGE),
                "result": str(run_dir / "result.json")}
        (run_dir / "spec.json").write_text(json.dumps(spec))
        t0 = time.monotonic()
        with open(run_dir / "log.txt", "wb") as log:
            spawn_ns = now_ns()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(run_dir / "spec.json")],
                    cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(self.remaining(), 1.0),
                )
            except subprocess.TimeoutExpired:
                return None
        self.longest = max(self.longest, time.monotonic() - t0)
        result_path = run_dir / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            return None
        result = json.loads(result_path.read_text())
        result["setup_s"] = (result["ready_ns"] - spawn_ns) / 1e9
        return result

    def invoke(self, trace: bool) -> dict:
        """One workload invocation; ``problems`` lists what went wrong."""
        self.count += 1
        run_dir = self.work / f"run{self.count:03d}"
        out = run_dir / "out"
        result = self.spawn(self.workload.plan(self.inputs, out), trace, run_dir)
        if result is None or any(c != 0 for c in result["codes"]):
            tail = (run_dir / "log.txt").read_text(errors="replace")[-2000:]
            return {"problems": [f"invocation {self.count} failed:\n{tail}"]}
        result["problems"] = self.check_outputs(out)
        if not result["problems"]:
            result["digests"] = {name: sha256(out / name) for name in self.workload.outputs}
            result["quality"] = json.loads((out / self.workload.metrics).read_text())
            result["clusters_with_b"] = len(
                {row[1] for row in _rows(out / self.workload.partition) if row[2] == "B"}
            )
            shutil.rmtree(run_dir)
        return result

    def check_outputs(self, out: Path) -> list[str]:
        """Structural checks that hold for every seed."""
        wl = self.workload
        missing = [name for name in wl.outputs if not (out / name).is_file()]
        if missing:
            return [f"missing outputs: {missing}"]
        problems = []
        rows = _rows(out / wl.partition)
        genes = [r[0] for r in rows]
        if sorted(genes) != sorted(self.a_genes + self.b_genes):
            problems.append("partition does not list every A and B gene exactly once")
        if {r[1] for r in rows} != {str(i) for i in range(wl.k)}:
            problems.append(f"partition does not have {wl.k} clusters")
        if sum(r[3] == "1" for r in rows) != wl.k or any(r[2] != "A" for r in rows if r[3] == "1"):
            problems.append("partition needs one A medoid per cluster")
        inferred = {r[0] for r in _rows(out / wl.inferred)}
        if not inferred <= set(self.b_genes):
            problems.append("inferred.tsv names genes outside B")
        quality = json.loads((out / wl.metrics).read_text())
        for key in ("recall", "bhi"):
            v = quality.get(key)
            if not isinstance(v, float) or not 0.0 <= v <= 1.0:
                problems.append(f"metrics.json {key} = {v!r}, expected a number in [0, 1]")
        return problems


def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split("\t") for line in lines[1:] if line]


def _first_column(path: Path) -> list[str]:
    return [r[0] for r in _rows(path)]


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _check_trace(workload, results: list[dict], counts: dict | None) -> list[str]:
    """Every expected span fired as often as expected, and the exact counts
    repeat: across the traced runs, and against ``counts`` when given."""
    import spans

    problems = []
    for r in results:
        calls = r["trace"]["calls"]
        for name, n in workload.expected_calls.items():
            if calls.get(name, 0) != n:
                problems.append(f"span {name} fired {calls.get(name, 0)} times, expected {n}")
        enrich_expected = 2 * r["clusters_with_b"]
        if calls.get("enrichment.enrich_cluster", 0) != enrich_expected:
            problems.append(
                f"enrich_cluster fired {calls.get('enrichment.enrich_cluster', 0)} times, "
                f"expected {enrich_expected} (two per cluster with B genes)"
            )
        these = {k: r["layers"][k] for k in spans.EXACT_COUNTS}
        if counts is not None and these != counts:
            problems.append(f"counts {these} differ from {counts}")
        counts = these
    return sorted(set(problems))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # subprocess.run kills and reaps its child when SystemExit unwinds through it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no gofusion source at {PACKAGE}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports the generator, which needs numpy

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = workload.make_inputs(args.seed, work / "inputs")
    runner = Runner(workload, inputs, work, start)

    # The first spawn compiles bytecode and fills the file cache; it is not timed.
    runner.spawn([], False, work / "warmup")
    setup_samples: list[float] = []

    def probe_setup(n: int) -> None:
        for _ in range(n):
            runner.probes += 1
            probe = runner.spawn([], False, work / f"probe{runner.probes:03d}")
            if probe is not None:
                setup_samples.append(probe["setup_s"])

    # Set-up probes are spread over the run so they see the same machine
    # conditions as the invocations they sit between.  A traced run does not
    # report set-up, so it skips them.
    probes_after = 0 if args.trace else PROBES_PER_INVOCATION
    probe_setup(0 if args.trace else SETUP_PROBES)
    minimum = 2 if args.trace else MIN_RUNS
    measure_start = time.monotonic()
    results: list[dict] = []
    while True:
        trace = bool(args.trace) and len(results) % 2 == 1
        r = runner.invoke(trace)
        r["traced"] = trace
        results.append(r)
        probe_setup(probes_after)
        # Stop when the next invocation (traced: the next pair) would end
        # after --seconds, once the minimum is done.
        elapsed = time.monotonic() - measure_start
        step = elapsed / len(results) * (2 if args.trace else 1)
        complete = len(results) >= minimum and not (args.trace and len(results) % 2)
        if complete and elapsed + step > args.seconds:
            break
        if runner.remaining() < 1.5 * runner.longest:
            break

    # Outputs must match the stored reference (default seed) or the first run.
    ok = [r for r in results if not r["problems"]]
    expected = reference.get(workload.name, {}).get("sha256") if args.seed == DEFAULT_SEED else None
    if expected is None and ok:
        expected = ok[0]["digests"]
    reference_counts = (
        reference.get(workload.name, {}).get("counts") if args.seed == DEFAULT_SEED else None
    )
    for r in ok:
        if r["digests"] != expected:
            r["problems"].append(f"output digests {r['digests']} differ from {expected}")
    if args.seed == DEFAULT_SEED and workload.name not in reference:
        print(f"note: no reference digests stored for {workload.name}")

    untraced = [r for r in results if not r["traced"] and not r["problems"]]
    traced = [r for r in results if r["traced"] and not r["problems"]]
    failed = sum(bool(r["problems"]) for r in results)
    problems = [p for r in results for p in r["problems"]]
    setup_samples += [r["setup_s"] for r in results if "setup_s" in r]
    walls = [sum(r["walls"]) for r in untraced]

    print(f"# gofusion benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"# machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"# {len(results)} invocations in {time.monotonic() - measure_start:.1f} s "
          f"({len(untraced)} untraced and {len(traced)} traced passed)")
    quality = ok[0]["quality"] if ok else {}
    end_to_end = {
        "wall_s": (_median(walls), len(walls)),
        "setup_s": (_median(setup_samples), len(setup_samples)),
        "peak_rss_mb": (_median([r["maxrss_kb"] / 1024.0 for r in untraced]), len(untraced)),
        "failed_frac": (failed / len(results), len(results)),
        "recall": (quality.get("recall"), len(ok)),
        "bhi": (quality.get("bhi"), len(ok)),
    }
    for name, (value, n) in end_to_end.items():
        unit, better = REPORTED[name]
        print(f"{name:<14} {_fmt(value):>14} {unit:<9} {better} is better  n={n}")
    print(f"# wall_s samples: {' '.join(f'{w:.4f}' for w in walls)}")
    cpus = [sum(r["cpus"]) for r in untraced]
    print(f"# cpu_s samples:  {' '.join(f'{c:.4f}' for c in cpus)}")
    for name in workload.outputs:
        digest = expected.get(name) if expected else None
        print(f"# {name} sha256 {digest}")

    metrics: dict = {}
    if args.trace:
        import spans

        for r in traced:
            r["layers"] = spans.layer_metrics(r["trace"])
        if traced:
            problems += _check_trace(workload, traced, reference_counts)
            layers = spans.median_metrics([r["layers"] for r in traced])
            for name, unit in spans.LAYER_UNITS.items():
                print(f"{name:<34} {_fmt(layers[name]):>14} {unit:<6} n={len(traced)}")
            traced_wall = _median([sum(r["walls"]) for r in traced])
            untraced_wall = end_to_end["wall_s"][0]
            if untraced_wall is not None:
                overhead = traced_wall - untraced_wall
                print(f"# tracing overhead: traced wall_s {traced_wall:.4f} - untraced "
                      f"{untraced_wall:.4f} = {overhead:+.4f} s "
                      f"({100.0 * overhead / untraced_wall:+.1f}%)")
            print(f"# trace self-check: {'failed' if problems else 'ok'}")
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            problems.append("no traced invocation passed")
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for p in problems:
        print(f"# problem: {p}")
    correct = not problems and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
