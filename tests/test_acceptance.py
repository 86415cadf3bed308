"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The directional checks (7, 8) share one batch of twenty seeded
synthetic runs; everything else is self-contained.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from gofusion.annotations import term_probability
from gofusion.clustering import (
    assign_b,
    assigned_subpartition,
    build_medoids,
    cluster_a,
    partition_cost,
    swap_refine,
)
from gofusion.enrichment import hypergeom_tail, infer_functions
from gofusion.expression import ExpressionMatrix, expression_distance_matrix
from gofusion.fusion import combine_gamma, percentile_equalize, tune_gamma
from gofusion.metrics import bc, bhi, fowlkes_mallows, recall_inferred
from gofusion.semantic import semantic_distance_matrix, term_similarity
from gofusion.synth import make_dataset, write_dataset

from conftest import random_dag_corpus, random_distance_matrix


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def test_criterion_1_equation_identities():
    t0 = time.monotonic()
    onto, corpus = random_dag_corpus(seed=1234, n_terms=50, n_genes=80)
    worst_sim = 0.0
    worst_ic = 0.0
    for t in onto.topo_order:
        p = term_probability(corpus, t)
        sim = term_similarity(onto, corpus, t, t, "relevance")
        worst_sim = max(worst_sim, abs(sim - (1.0 - p)))
        worst_ic = max(worst_ic, abs(math.exp(-corpus.ic[t]) - p))
    elapsed = time.monotonic() - t0
    ok = worst_sim <= 1e-12 and worst_ic <= 1e-12 and elapsed < 1.0
    verdict(
        1,
        ok,
        f"self-similarity and exp(-IC) identities on a 50-term DAG: "
        f"max errors {worst_sim:.2e}/{worst_ic:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_hypergeometric_oracle():
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    for N in range(1, 21):
        for n in range(1, N + 1):
            masks = np.fromiter(
                (sum(1 << e for e in c) for c in itertools.combinations(range(N), n)),
                dtype=np.int64,
                count=math.comb(N, n),
            )
            total = masks.size
            for K in range(0, N + 1):
                successes = np.bitwise_count(masks & ((1 << K) - 1))
                hist = np.bincount(successes, minlength=n + 1)
                tail = np.cumsum(hist[::-1])[::-1]
                for k in range(0, min(n, K) + 1):
                    oracle = tail[k] / total
                    worst = max(worst, abs(hypergeom_tail(N, K, n, k) - oracle))
                    checked += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    verdict(
        2,
        ok,
        f"hypergeometric tail vs full enumeration, N<=20: {checked} cases, "
        f"max error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_gamma_distance_algebra():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 12))
        d_e = random_distance_matrix(rng, n)
        d_go = random_distance_matrix(rng, n, genes=d_e.genes)
        worst = max(worst, np.abs(combine_gamma(d_e, d_go, 0.0).d - d_e.d).max())
        worst = max(worst, np.abs(combine_gamma(d_e, d_go, 1.0).d - d_go.d).max())
        mid = combine_gamma(d_e, d_go, 0.5).d
        worst = max(worst, np.abs(mid - (d_e.d + d_go.d) / 2.0).max())
    verdict(
        3,
        worst <= 1e-12,
        f"gamma blend endpoints and midpoint on 100 random pairs, max error {worst:.2e}",
    )


def test_criterion_4_percentile_equalization():
    rng = np.random.default_rng(424)
    m = 20
    balanced = True
    invariant = True
    for _ in range(100):
        dm = random_distance_matrix(rng, 30)
        n_pairs = 30 * 29 // 2
        assert len(set(dm.d[np.triu_indices(30, 1)].tolist())) == n_pairs
        eq = percentile_equalize(dm, m)
        _, counts = np.unique(eq.d[np.triu_indices(30, 1)], return_counts=True)
        if not set(counts.tolist()) <= {n_pairs // m, n_pairs // m + 1}:
            balanced = False
        transformed = type(dm)(dm.genes, (dm.d**3 + dm.d) / 2.0)
        if not (percentile_equalize(transformed, m).d == eq.d).all():
            invariant = False
    verdict(
        4,
        balanced and invariant,
        f"m=20 equalization on 100 random 30-gene matrices: interval balance "
        f"{'ok' if balanced else 'broken'}, transform invariance "
        f"{'ok' if invariant else 'broken'}",
    )


def test_criterion_5_clustering_soundness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    ok_cost = ok_local = ok_nearest = True
    for _ in range(200):
        dm = random_distance_matrix(rng, 8)
        built = build_medoids(dm.d, 2)
        refined = swap_refine(dm.d, built)
        if partition_cost(dm.d, refined) > partition_cost(dm.d, built) + 1e-15:
            ok_cost = False
        base = partition_cost(dm.d, refined)
        for m in refined:
            for g in range(8):
                if g in refined:
                    continue
                alt = [x for x in refined if x != m] + [g]
                if partition_cost(dm.d, alt) < base - 1e-15:
                    ok_local = False
        part = cluster_a(dm, 2)
        meds = [dm.index_of(cl.medoid) for cl in part.clusters]
        for ci, cl in enumerate(part.clusters):
            for gene in cl.members_a:
                gi = dm.index_of(gene)
                if dm.d[gi, meds[ci]] > min(dm.d[gi, mj] for mj in meds):
                    ok_nearest = False
    elapsed = time.monotonic() - t0
    ok = ok_cost and ok_local and ok_nearest and elapsed < 10.0
    verdict(
        5,
        ok,
        f"200 random 8-gene/k=2 instances: swap cost {'ok' if ok_cost else 'broken'}, "
        f"single-swap optimality {'ok' if ok_local else 'broken'}, nearest-medoid "
        f"membership {'ok' if ok_nearest else 'broken'}, {elapsed:.1f}s",
    )


def _set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | {head}] + sub[i + 1 :]
        yield sub + [{head}]


def test_criterion_6_fowlkes_mallows_oracle():
    items = list("abcdef")
    partitions = [
        {g: i for i, block in enumerate(blocks) for g in block}
        for blocks in _set_partitions(items)
    ]
    assert len(partitions) == 203  # Bell(6)
    worst = 0.0
    identical_ok = True
    for cp in partitions:
        if fowlkes_mallows(cp, dict(cp)).value != (
            0.0 if len(set(cp.values())) == len(items) else 1.0
        ):
            identical_ok = False
    for cp, cq in itertools.combinations(partitions, 2):
        t = p = q = 0
        for a, b in itertools.combinations(items, 2):
            sp = cp[a] == cp[b]
            sq = cq[a] == cq[b]
            p += sp
            q += sq
            t += sp and sq
        oracle = 0.0 if (p == 0 or q == 0) else t / math.sqrt(p * q)
        worst = max(worst, abs(fowlkes_mallows(cp, cq).value - oracle))
    verdict(
        6,
        worst <= 1e-12 and identical_ok,
        f"pair-counting oracle over all {len(partitions)} partitions of 6: "
        f"max error {worst:.2e}, identical partitions give exactly 1",
    )


# -- directional synthetic checks (criteria 7 and 8) ---------------------------


@dataclass
class DirectionalRun:
    best_gamma: float
    misplaced: float
    bhi_gam: float
    bhi_cls: float
    bc_gam: float
    bc_cls: float
    recall_gam: float
    recall_cls: float


def _misplacement(part, subgroup) -> float:
    bad = tot = 0
    for cl in part.clusters:
        subs = [subgroup[g] for g in cl.members_a]
        vals, counts = np.unique(subs, return_counts=True)
        bad += sum(1 for s in subs if s != vals[counts.argmax()])
        tot += len(subs)
    return bad / tot


@pytest.fixture(scope="module")
def directional_runs():
    k, tuning_runs = 50, 5
    t0 = time.monotonic()
    runs: list[DirectionalRun] = []
    for seed in range(20):
        ds = make_dataset(seed=seed)
        corpus_a = ds.corpus_a()
        corpus_full = ds.corpus_full()
        expr_a = ds.expression_a()
        d_e = expression_distance_matrix(expr_a, "euclidean")
        d_go = semantic_distance_matrix(ds.ontology, corpus_a, expr_a.genes)
        report = tune_gamma(
            expr_a, d_e, d_go, k=k, grid_step=0.05,
            runs=tuning_runs, split=0.5, seed=seed,
        )
        p_gam = cluster_a(combine_gamma(d_e, d_go, report.best_gamma), k)
        p_cls = cluster_a(combine_gamma(d_e, d_go, 0.0), k)
        misplaced = _misplacement(p_cls, ds.subgroup)
        combined = ExpressionMatrix(
            expr_a.genes + ds.b_genes,
            expr_a.conditions,
            np.vstack([expr_a.values, ds.expression_b().values]),
        )
        d_ab = expression_distance_matrix(combined, "euclidean")
        sub_gam = assigned_subpartition(assign_b(p_gam, d_ab))
        sub_cls = assigned_subpartition(assign_b(p_cls, d_ab))
        d_go_full = semantic_distance_matrix(
            ds.ontology, corpus_full, list(ds.expression.genes)
        )
        background = set(expr_a.genes)
        truth = ds.truth_b()
        runs.append(
            DirectionalRun(
                best_gamma=report.best_gamma,
                misplaced=misplaced,
                bhi_gam=bhi(sub_gam, corpus_full),
                bhi_cls=bhi(sub_cls, corpus_full),
                bc_gam=bc(sub_gam, d_go_full),
                bc_cls=bc(sub_cls, d_go_full),
                recall_gam=recall_inferred(
                    infer_functions(sub_gam, background, corpus_a, alpha=0.05), truth
                ),
                recall_cls=recall_inferred(
                    infer_functions(sub_cls, background, corpus_a, alpha=0.05), truth
                ),
            )
        )
    return runs, time.monotonic() - t0


def test_criterion_7_directional_quality(directional_runs):
    runs, elapsed = directional_runs
    noisy_enough = all(r.misplaced >= 0.20 for r in runs)
    med_bhi_gam = float(np.median([r.bhi_gam for r in runs]))
    med_bhi_cls = float(np.median([r.bhi_cls for r in runs]))
    med_bc_gam = float(np.median([r.bc_gam for r in runs]))
    med_bc_cls = float(np.median([r.bc_cls for r in runs]))
    bhi_strict = sum(1 for r in runs if r.bhi_gam > r.bhi_cls)
    bc_strict = sum(1 for r in runs if r.bc_gam < r.bc_cls)
    ok = (
        noisy_enough
        and med_bhi_gam >= med_bhi_cls
        and med_bc_gam <= med_bc_cls
        and bhi_strict >= 15
        and bc_strict >= 15
        and elapsed < 60.0
    )
    verdict(
        7,
        ok,
        f"tuned fusion vs expression-only over 20 seeded runs: "
        f"median BHI {med_bhi_gam:.3f} vs {med_bhi_cls:.3f} (strict {bhi_strict}/20), "
        f"median BC {med_bc_gam:.3f} vs {med_bc_cls:.3f} (strict {bc_strict}/20), "
        f"baseline misplaces >=20% in all runs: {noisy_enough}, {elapsed:.1f}s",
    )


def test_criterion_8_directional_recall(directional_runs):
    runs, _elapsed = directional_runs
    med_gam = float(np.median([r.recall_gam for r in runs]))
    med_cls = float(np.median([r.recall_cls for r in runs]))
    strict = sum(1 for r in runs if r.recall_gam > r.recall_cls)
    ok = med_gam > med_cls and strict >= 15
    verdict(
        8,
        ok,
        f"held-out label recall over 20 seeded runs: median {med_gam:.3f} vs "
        f"{med_cls:.3f} for the expression-only baseline, strict in {strict}/20",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    ds = make_dataset(seed=5, subgroups_per_family=6, genes_per_subgroup=5)
    write_dataset(ds, data)

    def run(out, workers):
        cmd = [
            sys.executable, "-m", "gofusion", "pipeline",
            "--obo", str(data / "go.obo"),
            "--annotations", str(data / "annotations.tsv"),
            "--expression-a", str(data / "expression_a.tsv"),
            "--expression-b", str(data / "expression_b.tsv"),
            "--truth", str(data / "truth.tsv"),
            "--out-dir", str(tmp_path / out),
            "--seed", "7", "--k", "12",
            "--balancing", "gamma_tuning", "--runs", "2", "--grid-step", "0.25",
            "--workers", str(workers),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return tmp_path / out

    outs = [run("w1a", 1), run("w1b", 1), run("w4", 4)]
    files = ("partition.tsv", "inferred.tsv", "metrics.json")
    identical = all(
        (outs[0] / f).read_bytes() == (o / f).read_bytes()
        for f in files
        for o in outs[1:]
    )
    verdict(
        9,
        identical,
        "three fresh pipeline processes (workers 1, 1, 4) produced byte-identical "
        "partition.tsv, inferred.tsv and metrics.json",
    )


def test_criterion_10_tuning_contract():
    ds = make_dataset(seed=6, subgroups_per_family=6, genes_per_subgroup=5)
    expr_a = ds.expression_a()
    d_e = expression_distance_matrix(expr_a, "euclidean")
    d_go = semantic_distance_matrix(ds.ontology, ds.corpus_a(), expr_a.genes)
    report = tune_gamma(expr_a, d_e, d_go, k=6, seed=3)
    grid_ok = len(report.grid) == 21
    runs_ok = all(len(r) == 10 for r in report.sc_runs)
    split_ok = report.split == 0.5
    argmin_ok = report.best_gamma == report.grid[int(np.argmin(report.sc_curve))]
    ok = grid_ok and runs_ok and split_ok and argmin_ok
    verdict(
        10,
        ok,
        f"defaults give {len(report.grid)} grid points, {len(report.sc_runs[0])} runs "
        f"per gamma, split {report.split}; best gamma {report.best_gamma:.2f} attains "
        f"the curve minimum",
    )
