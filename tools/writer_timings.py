"""Time ``write_distance_tsv`` alone on the three matrices that a percentile
pipeline writes (``d_e``, ``d_go``, ``d_gamma``), at several sizes.

Run from the root of a checkout, with the ``gofusion`` to measure on the
path:

    PYTHONPATH=src python3 tools/writer_timings.py --subgroups 25 28 50 400

Each size is ``synth`` data (``--seed``, 1 by default) with that many
subgroups per family: 25 gives 180 A genes, 50 gives 360 and 400 gives
2,880, the ROADMAP's sweep point with ``--seed 5``.  The matrices are
built as ``pipeline --balancing percentile`` builds them, with the default
similarity and bins.  Each write goes to a sink that keeps nothing, the
best of ``--repeats`` calls, and then once to a file under a temporary
directory.  The script prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from gofusion.annotations import load_annotations
from gofusion.expression import expression_distance_matrix, load_expression, write_distance_tsv
from gofusion.fusion import combine_gamma, percentile_equalize
from gofusion.ontology import parse_obo
from gofusion.semantic import semantic_distance_matrix
from gofusion.synth import make_dataset, write_dataset


class _Discard:
    def write(self, text: str) -> None:
        pass


def _matrices(seed: int, subgroups: int, work: Path) -> dict:
    paths = write_dataset(make_dataset(seed=seed, subgroups_per_family=subgroups), work)
    o = parse_obo(paths["obo"].read_bytes())
    corpus = load_annotations(paths["annotations"].read_bytes(), o, "biological_process")
    expr = load_expression(paths["expression_a"].read_bytes())
    d_e = expression_distance_matrix(expr, "euclidean")
    d_go = semantic_distance_matrix(o, corpus, expr.genes, "relevance")
    d_gamma = combine_gamma(percentile_equalize(d_e, 20), percentile_equalize(d_go, 20), 0.5)
    return {"d_e": d_e, "d_go": d_go, "d_gamma": d_gamma}


def _time(dm, repeats: int, path: Path) -> dict:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        write_distance_tsv(dm, _Discard())
        best = min(best, time.perf_counter() - t0)
    t0 = time.perf_counter()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_distance_tsv(dm, f)
    to_file = time.perf_counter() - t0
    return {"discard_best_ms": round(best * 1e3, 2), "file_ms": round(to_file * 1e3, 2)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--subgroups", type=int, nargs="+", default=[25, 28, 50])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for subgroups in args.subgroups:
            work = Path(tmp) / str(subgroups)
            mats = _matrices(args.seed, subgroups, work / "data")
            genes = len(mats["d_e"].genes)
            out[f"{genes} genes"] = {
                name: _time(dm, args.repeats if genes < 1000 else 2, work / f"{name}.tsv")
                for name, dm in mats.items()
            }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
