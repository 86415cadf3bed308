import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gofusion.annotations import build_corpus
from gofusion.clustering import Cluster, Partition, initial_medoid
from gofusion.expression import DistanceMatrix, write_distance_tsv
from gofusion.ontology import parse_obo
from gofusion.semantic import _ancestor_columns

FIXTURE_OBO = """\
[Term]
id: GO:0008150
name: biological_process
namespace: biological_process

[Term]
id: GO:0000001
name: branch
namespace: biological_process
is_a: GO:0008150

[Term]
id: GO:0000002
name: other branch
namespace: biological_process
is_a: GO:0008150

[Term]
id: GO:0000003
name: leaf
namespace: biological_process
is_a: GO:0000001
"""

ROOT = "GO:0008150"
BP = "biological_process"


@pytest.fixture(scope="session")
def fixture_ontology():
    return parse_obo(FIXTURE_OBO)


@pytest.fixture(scope="session")
def fixture_corpus(fixture_ontology):
    direct = {
        "gA": {"GO:0000003"},
        "gB": {"GO:0000003"},
        "gC": {"GO:0000002"},
    }
    return build_corpus(direct, fixture_ontology, BP)


def random_distance_matrix(rng: np.random.Generator, n: int, genes=None) -> DistanceMatrix:
    """Symmetric zero-diagonal matrix with entries drawn uniformly in (0, 1)."""
    d = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    d[iu] = rng.uniform(0.001, 0.999, size=len(iu[0]))
    d = d + d.T
    if genes is None:
        genes = tuple(f"g{i:03d}" for i in range(n))
    return DistanceMatrix(tuple(genes), d)


def mirrored(d) -> DistanceMatrix:
    """``d`` with its upper triangle copied below the diagonal, bit for bit
    (``d + d.T`` would turn -0.0 into 0.0)."""
    d = np.array(d, dtype=float)
    lower = np.tril_indices(len(d), -1)
    d[lower] = d.T[lower]
    return DistanceMatrix(tuple(f"g{i}" for i in range(len(d))), d)


def tsv_text(dm: DistanceMatrix) -> str:
    """What ``write_distance_tsv`` writes for ``dm``, as one string."""
    buf = io.StringIO()
    write_distance_tsv(dm, buf)
    return buf.getvalue()


def random_dag_corpus(seed: int, n_terms: int = 50, n_genes: int = 60):
    """Random single-namespace DAG plus a corpus covering every term.

    Each non-root term gets 1 or 2 parents among earlier terms; each term
    receives at least one directly annotated gene so every term probability
    is defined.
    """
    rng = np.random.default_rng(seed)
    ids = [ROOT] + [f"GO:{1000000 + i:07d}" for i in range(1, n_terms)]
    lines = [f"[Term]\nid: {ROOT}\nname: root\nnamespace: {BP}\n"]
    for i in range(1, n_terms):
        n_par = 1 if i == 1 else int(rng.integers(1, 3))
        parents = rng.choice(i, size=min(n_par, i), replace=False)
        rel = "\n".join(f"is_a: {ids[int(p)]}" for p in parents)
        lines.append(f"[Term]\nid: {ids[i]}\nname: t{i}\nnamespace: {BP}\n{rel}\n")
    onto = parse_obo("\n".join(lines))
    direct: dict[str, set[str]] = {}
    for i in range(n_genes):
        t = ids[i % n_terms]
        extra = ids[int(rng.integers(0, n_terms))]
        direct[f"gene{i:03d}"] = {t, extra}
    corpus = build_corpus(direct, onto, BP)
    return onto, corpus


def perfbench_godag():
    """The benchmark's GO-shaped DAG generator, ``perfbench/godag.py``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import godag
    finally:
        sys.path.pop(0)
    return godag


def reference_build(d, k):
    """Greedy PAM build that recomputes every table from scratch each round."""
    n = d.shape[0]
    medoids = [initial_medoid(d)]
    while len(medoids) < k:
        nearest = d[:, medoids].min(axis=1)
        in_gamma = np.zeros(n, dtype=bool)
        in_gamma[medoids] = True
        gains = np.maximum(nearest[:, None] - d, 0.0)
        gains[in_gamma, :] = 0.0
        scores = gains.sum(axis=0) - np.maximum(nearest, 0.0)
        scores[in_gamma] = -np.inf
        medoids.append(int(scores.argmax()))
    return medoids


def reference_swap(d, medoids):
    """First-improvement swap passes, every table rebuilt after each swap."""
    n = d.shape[0]
    med_set = set(medoids)

    def tables():
        meds = sorted(med_set)
        sub = d[:, meds]
        nearest = sub.min(axis=1)
        second = np.partition(sub, 1, axis=1)[:, 1] if len(meds) > 1 else np.full(n, np.inf)
        mask = np.zeros(n, dtype=bool)
        mask[meds] = True
        return nearest, second, np.nonzero(~mask)[0]

    changed = True
    while changed:
        changed = False
        nearest, second, cand = tables()
        current = float(nearest.sum())
        for m in sorted(med_set):
            rest_min = np.where(d[:, m] == nearest, second, nearest)
            costs = np.minimum(rest_min[:, None], d[:, cand]).sum(axis=0)
            better = np.nonzero(costs < current)[0]
            if better.size:
                med_set.remove(m)
                med_set.add(int(cand[better[0]]))
                changed = True
                nearest, second, cand = tables()
                current = float(nearest.sum())
    return sorted(med_set)


def reference_raw_distances(x: np.ndarray, rows: np.ndarray, metric: str) -> np.ndarray:
    """Raw distances from the expression row ``x`` to each of ``rows``, one
    row at a time: Euclidean, or Pearson's (1 - r) / 2 with r = 0 where
    either row is flat."""
    if metric == "euclidean":
        diff = rows - x
        return np.sqrt((diff * diff).sum(axis=1))
    rows = rows - rows.mean(axis=1, keepdims=True)
    x = x - x.mean()
    denom = np.sqrt((rows * rows).sum(axis=1)) * np.sqrt((x * x).sum())
    r = np.divide(rows @ x, denom, out=np.zeros(len(rows)), where=denom > 0.0)
    np.clip(r, -1.0, 1.0, out=r)
    return (1.0 - r) / 2.0


def reference_centroid_assign(expr, part: Partition, held_out, metric: str) -> Partition:
    """Gamma tuning's nearest-centroid step, one cluster mean and one
    held-out gene at a time: each centroid is ``mean(axis=0)`` over its
    members' rows in ascending row order, ties go to the lowest cluster."""
    idx = {g: i for i, g in enumerate(expr.genes)}
    means = np.vstack([
        expr.values[sorted(idx[g] for g in cl.members_a)].mean(axis=0) for cl in part.clusters
    ])
    assigned: list[set[str]] = [set() for _ in part.clusters]
    for g in held_out:
        dist = reference_raw_distances(expr.values[idx[g]], means, metric)
        assigned[int(dist.argmin())].add(g)
    clusters = tuple(
        Cluster(cl.medoid, cl.members_a, frozenset(assigned[i]))
        for i, cl in enumerate(part.clusters)
    )
    return Partition(clusters)


def reference_term_table(o, c, terms, kind):
    """The term table painted by shared ancestor: every column held by two
    or more terms writes its index over those terms' block, from the lowest
    IC to the highest, so a pair's last write is the smallest column it
    shares; the diagonal takes each term's first column.  Then the column
    indices become similarities, a block of 16 rows at a time."""
    ics = np.array([c.ic[t] for t in terms])
    peak = max(c.ic.values()) if c.ic else 0.0
    cols, flat, starts = _ancestor_columns(o, c, terms)
    no_mica = len(cols)
    col_ic = np.array([c.ic[t] for t in cols] + [-1.0])
    col_rel = np.array([1.0 - math.exp(-ic) for ic in col_ic])
    u = len(terms)
    sim = np.empty((u, u))
    mica = sim.view(np.int64)
    mica.fill(no_mica)
    by_col = np.argsort(flat, kind="stable")
    holders = np.repeat(np.arange(u), np.diff(np.append(starts, len(flat))))[by_col]
    bounds = np.searchsorted(flat[by_col], np.arange(no_mica + 1)).tolist()
    for k in range(no_mica - 1, -1, -1):
        if bounds[k + 1] - bounds[k] > 1:
            ts = holders[bounds[k] : bounds[k + 1]]
            mica[ts[:, None], ts] = k
    np.fill_diagonal(mica, flat[starts])
    for lo in range(0, u, 16):
        m = mica[lo : lo + 16]
        ms_ic = col_ic[m]
        if kind == "resnik_normalized":
            block = np.minimum(ms_ic / peak, 1.0) if peak != 0.0 else np.zeros(m.shape)
        else:
            denom = ics[lo : lo + 16, None] + ics
            with np.errstate(divide="ignore", invalid="ignore"):
                block = 2.0 * ms_ic / denom
            if kind == "relevance":
                block *= col_rel[m]
            block = np.where(denom == 0.0, 0.0, np.minimum(block, 1.0))
        sim[lo : lo + 16] = block
    return sim
