"""The benchmark's workloads: how each makes its inputs from the seed, which
``gofusion`` commands it runs, which outputs it checks, and which span
counts its traced run must show.

All paths are relative to the checkout root, where the child processes run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import godag

PROGRAM_SEED = "7"  # the pipeline's own --seed; the data seed is the benchmark's


def _synth(**params):
    def make(seed: int, out_dir: Path) -> dict[str, Path]:
        from gofusion.synth import make_dataset, write_dataset

        return write_dataset(make_dataset(seed=seed, **params), out_dir)

    return make


def _input_flags(inputs: dict[str, Path], *keys: str) -> list[str]:
    flags = []
    for key in keys:
        flags += [f"--{key.replace('_', '-')}", str(inputs[key])]
    return flags


ALL_INPUTS = ("obo", "annotations", "expression_a", "expression_b", "truth")


def _tune_small(inputs, out: Path) -> list[list[str]]:
    return [
        ["pipeline", *_input_flags(inputs, *ALL_INPUTS), "--out-dir", str(out),
         "--seed", PROGRAM_SEED, "--k", "50", "--balancing", "gamma_tuning",
         "--metric", "euclidean", "--workers", "1", "--popular-threshold", "30"],
    ]


def _percentile_wide(inputs, out: Path) -> list[list[str]]:
    # --workers 1: with 2 the GIL-bound gene fill runs two threads that hand
    # the lock back and forth across the cores, and its wall time spreads by
    # 20-35% from one invocation to the next on a shared 2-core host.
    return [
        ["pipeline", *_input_flags(inputs, *ALL_INPUTS), "--out-dir", str(out),
         "--seed", PROGRAM_SEED, "--k", "50", "--balancing", "percentile",
         "--workers", "1"],
    ]


def _godag_staged(inputs, out: Path) -> list[list[str]]:
    ann = _input_flags(inputs, "obo", "annotations")
    expr = _input_flags(inputs, "expression_a", "expression_b")
    dist, final = out / "distances", out / "final"
    calls = [["distances", *ann, *_input_flags(inputs, "expression_a"),
              "--metric", "pearson", "--out-dir", str(dist)]]
    for tag, gamma in (("g05", "0.5"), ("g00", "0")):
        calls.append(["cluster", "--d-e", str(dist / "d_e.tsv"), "--d-go", str(dist / "d_go.tsv"),
                      "--balancing", "fixed_gamma", "--gamma", gamma, "--k", "24",
                      "--out-dir", str(out / f"cluster_{tag}")])
    for tag in ("g05", "g00"):
        calls.append(["assign", "--partition", str(out / f"cluster_{tag}" / "partition.tsv"),
                      *expr, "--metric", "pearson", "--out-dir", str(out / f"assign_{tag}")])
    part = ["--partition", str(out / "assign_g05" / "partition.tsv")]
    bh = ["--correction", "benjamini_hochberg"]
    calls += [
        ["enrich", *part, *ann, *bh, "--out-dir", str(final)],
        ["infer", *part, *ann, *bh, *_input_flags(inputs, "truth"), "--out-dir", str(final)],
        ["eval", *part, *ann, *_input_flags(inputs, "truth"),
         "--against", str(out / "assign_g00" / "partition.tsv"),
         "--inferred", str(final / "inferred.tsv"), "--popular-threshold", "30",
         "--out-dir", str(final)],
    ]
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], dict[str, Path]]
    plan: Callable[[dict[str, Path], Path], list[list[str]]]
    outputs: tuple[str, ...]  # digested, relative to the run's output directory
    partition: str  # the final partition among ``outputs``
    inferred: str  # the inferred.tsv among ``outputs``
    metrics: str  # the metrics.json among ``outputs``
    k: int
    # span name -> exact call count in one invocation of the traced run
    expected_calls: dict[str, int]


PIPELINE_OUTPUTS = ("partition.tsv", "inferred.tsv", "metrics.json")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tune_small",
            make_inputs=_synth(),
            plan=_tune_small,
            outputs=PIPELINE_OUTPUTS,
            partition="partition.tsv",
            inferred="inferred.tsv",
            metrics="metrics.json",
            k=50,
            expected_calls={
                "cli.main": 1,
                "ontology.parse_obo": 1,
                "semantic.semantic_distance_matrix": 2,
                "fusion.tune_gamma": 1,
                "fusion.combine_gamma": 22,
                "clustering.cluster_a": 211,
                "clustering.assign_b": 1,
                "metrics.semantic_compactness": 211,
            },
        ),
        Workload(
            name="percentile_wide",
            make_inputs=_synth(subgroups_per_family=50),
            plan=_percentile_wide,
            outputs=PIPELINE_OUTPUTS,
            partition="partition.tsv",
            inferred="inferred.tsv",
            metrics="metrics.json",
            k=50,
            expected_calls={
                "cli.main": 1,
                "ontology.parse_obo": 1,
                "semantic.semantic_distance_matrix": 2,
                "fusion.percentile_equalize": 3,
                "fusion.combine_gamma": 1,
                "clustering.cluster_a": 1,
                "clustering.assign_b": 1,
                "metrics.semantic_compactness": 1,
            },
        ),
        Workload(
            name="godag_staged",
            make_inputs=godag.write_godag,
            plan=_godag_staged,
            outputs=(
                "assign_g05/partition.tsv",
                "final/enrichment.tsv",
                "final/inferred.tsv",
                "final/metrics.json",
            ),
            partition="assign_g05/partition.tsv",
            inferred="final/inferred.tsv",
            metrics="final/metrics.json",
            k=24,
            expected_calls={
                "cli.main": 8,
                "ontology.parse_obo": 4,
                "expression.read_distance_tsv": 4,
                "clustering.read_partition_tsv": 6,
                "semantic.semantic_distance_matrix": 2,
                "fusion.combine_gamma": 2,
                "clustering.cluster_a": 2,
                "clustering.assign_b": 2,
                "metrics.semantic_compactness": 1,
                "metrics.fowlkes_mallows": 1,
            },
        ),
    )
}
