"""Medoid clustering of annotated genes and expression-based assignment.

Clustering runs on a precomputed distance matrix: seed with the gene
minimizing total distance to everything, grow to k medoids with a greedy
build step, then refine with strict-improvement swaps until no single
(medoid, non-medoid) exchange lowers the total cost.  Unannotated genes
are then attached to the cluster whose medoid is nearest in expression
distance.

The build is the classical PAM BUILD (``pam_build``, recorded in cluster
metadata): a candidate scores the total cost reduction it brings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .expression import DistanceMatrix, GeneId, tsv_rows

PAM_BUILD = "pam_build"

# gain rows the build recomputes at once, which bounds its temporary
_GAIN_ROWS = 64


@dataclass(frozen=True)
class Cluster:
    """One cluster: its medoid, annotated members and attached B genes."""

    medoid: GeneId
    members_a: frozenset[GeneId]
    members_b: frozenset[GeneId] = frozenset()

    def __post_init__(self):
        if self.medoid not in self.members_a:
            raise ValidationError(f"medoid {self.medoid!r} not among its A members")
        if self.members_a & self.members_b:
            raise ValidationError("members_a and members_b overlap")


@dataclass(frozen=True)
class Partition:
    """Ordered clusters partitioning the A genes."""

    clusters: tuple[Cluster, ...]

    def __post_init__(self):
        seen: set[GeneId] = set()
        for cl in self.clusters:
            if cl.members_a & seen:
                raise ValidationError("a gene appears in two clusters")
            seen |= cl.members_a

    def genes_a(self) -> set[GeneId]:
        return {g for cl in self.clusters for g in cl.members_a}

    def genes_b(self) -> set[GeneId]:
        return {g for cl in self.clusters for g in cl.members_b}

    def labels(self, origin: str = "ab") -> dict[GeneId, int]:
        """gene -> cluster index, over A members, B members or both."""
        out: dict[GeneId, int] = {}
        for i, cl in enumerate(self.clusters):
            if "a" in origin:
                out.update({g: i for g in cl.members_a})
            if "b" in origin:
                out.update({g: i for g in cl.members_b})
        return out


# -- medoid selection -------------------------------------------------------


def initial_medoid(d: np.ndarray) -> int:
    """Index minimizing total distance to all other genes; ties take the
    smallest index."""
    return int(d.sum(axis=1).argmin())


def build_medoids(d: np.ndarray, k: int) -> list[int]:
    """Greedy growth from the initial medoid to k medoids.

    Each gene's distance to its nearest medoid is lowered in place as
    medoids are added.  The gains of all rows are kept in one n x n buffer:
    a medoid row's gains are zeros, and a zero added to a column sum whose
    terms are all >= 0 leaves the sum as it was, so the medoid rows need not
    be left out.  A row's gains depend only on its own nearest distance, so
    after each added medoid only the rows whose nearest distance fell, found
    by one ``col < nearest`` before the in-place minimum, are recomputed.  A
    nearest distance that only turns from 0.0 to -0.0 keeps its row, whose
    gains ``max(nearest - d, 0.0)`` are 0.0 for either zero.
    """
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} out of range for {n} genes")
    medoids = [initial_medoid(d)]
    nearest = d[:, medoids[0]].copy()
    in_gamma = np.zeros(n, dtype=bool)
    in_gamma[medoids[0]] = True
    gains = np.empty_like(d, order="C")  # one buffer for every round
    changed = np.arange(n)
    while len(medoids) < k:
        for lo in range(0, changed.size, _GAIN_ROWS):
            rows = changed[lo : lo + _GAIN_ROWS]
            block = d[rows]
            np.subtract(nearest[rows, None], block, out=block)
            gains[rows] = np.maximum(block, 0.0, out=block)
        scores = np.add.reduce(gains, axis=0) - np.maximum(nearest, 0.0)
        scores[in_gamma] = -np.inf
        x = int(scores.argmax())
        medoids.append(x)
        in_gamma[x] = True
        col = d[:, x]
        changed = (col < nearest).nonzero()[0]
        np.minimum(nearest, col, out=nearest)
    return medoids


def partition_cost(d: np.ndarray, medoids: list[int]) -> float:
    """Sum over genes of the distance to the nearest medoid (medoids add 0)."""
    return float(d[:, sorted(medoids)].min(axis=1).sum())


def swap_refine(d: np.ndarray, medoids: list[int]) -> list[int]:
    """Strict-improvement swap passes until single-swap locally optimal.

    Pairs are scanned in (medoid index, candidate index) order; the first
    candidate that strictly lowers the cost replaces the medoid, and the
    scan moves on to the next medoid.  Passes repeat until one completes
    with no accepted swap, so the result cannot be improved by any single
    exchange.  ``d`` is not modified.

    The medoid and candidate columns of ``d`` are copied once, each gene
    to a slot; an accepted swap m -> x overwrites m's slot with x's column
    and x's slot with m's.  A candidate's cost is summed down its own
    column, row by row, so it does not depend on the slot order, and the
    first improving candidate is the smallest gene index among the
    improving slots.  A medoid that found no improving candidate is
    skipped until the next accepted swap: its scan depends only on the
    medoid set, so a repeat would find none again.  The accepted swaps
    are identical to evaluating every pair from scratch.

    A scan reduces the candidates' costs into one preallocated array and
    looks for the improving slots only when the smallest cost is below the
    current one; in gamma tuning most scans find none.  With k = n there is
    no candidate, and the medoids come back sorted.  Here and in the build,
    reductions call the ufuncs and ``nonzero`` directly: the Python wrappers
    of ``sum``, ``min`` and ``flatnonzero`` cost as much as the work at
    tuning's size.
    """
    n = d.shape[0]
    meds = sorted(medoids)
    slot_of = {m: s for s, m in enumerate(meds)}
    med_cols = d[:, meds]
    in_gamma = np.zeros(n, dtype=bool)
    in_gamma[meds] = True
    cand = np.flatnonzero(~in_gamma)
    if not cand.size:  # k = n: nothing to swap in
        return meds
    cand_cols = d[:, cand]
    buf = np.empty_like(cand_cols)
    sums = np.empty(cand.size)
    rows = np.arange(n)

    def tables():
        near_slot = med_cols.argmin(axis=1)
        nearest = med_cols[rows, near_slot]
        med_cols[rows, near_slot] = np.inf
        second = np.minimum.reduce(med_cols, axis=1)  # inf when k = 1
        med_cols[rows, near_slot] = nearest
        return nearest, second, float(np.add.reduce(nearest))

    nearest, second, current = tables()
    settled: set[int] = set()  # medoids with no improving candidate
    changed = True
    while changed:
        changed = False
        for m in sorted(slot_of):
            if m in settled:
                continue
            slot = slot_of[m]
            rest_min = np.where(med_cols[:, slot] == nearest, second, nearest)
            np.minimum(rest_min[:, None], cand_cols, out=buf)
            np.add.reduce(buf, axis=0, out=sums)
            if np.minimum.reduce(sums) >= current:
                settled.add(m)
                continue
            better = (sums < current).nonzero()[0]
            s = better[cand[better].argmin()]
            x = int(cand[s])
            del slot_of[m]
            slot_of[x] = slot
            med_cols[:, slot] = d[:, x]
            cand_cols[:, s] = d[:, m]
            cand[s] = m
            settled.clear()
            changed = True
            nearest, second, current = tables()
    return sorted(slot_of)


def cluster_a(d_gamma: DistanceMatrix, k: int) -> Partition:
    """Cluster the annotated genes around k medoids on the fused distance.

    k=1 is allowed (it exercises the seed step alone); every argmin/argmax
    tie resolves to the smallest gene index, so the result is a pure
    function of the input matrix.
    """
    d = d_gamma.d
    medoids = build_medoids(d, k)
    medoids = swap_refine(d, medoids)
    return _partition_from_medoids(d_gamma, medoids)


def _partition_from_medoids(dm: DistanceMatrix, medoids: list[int]) -> Partition:
    meds = sorted(medoids)
    assign = dm.d[:, meds].argmin(axis=1)  # ties take the lowest cluster index
    assign[meds] = np.arange(len(meds))  # a medoid stays in its own cluster
    members: list[set[GeneId]] = [set() for _ in meds]
    for g, ci in zip(dm.genes, assign.tolist()):
        members[ci].add(g)
    clusters = tuple(
        Cluster(medoid=dm.genes[m], members_a=frozenset(members[ci]))
        for ci, m in enumerate(meds)
    )
    return Partition(clusters)


def assign_b(p: Partition, d_expr: DistanceMatrix) -> Partition:
    """Attach each B gene to the cluster with the nearest medoid.

    ``d_expr`` must cover every medoid and every B gene (an expression
    distance matrix over A union B is fine); B genes are all genes of
    ``d_expr`` that are not in the partition.  Distance ties resolve to the
    lowest cluster index.
    """
    a_genes = p.genes_a()
    medoid_idx = [d_expr.index_of(cl.medoid) for cl in p.clusters]
    b_idx = [i for i, g in enumerate(d_expr.genes) if g not in a_genes]
    nearest = d_expr.d[np.ix_(b_idx, medoid_idx)].argmin(axis=1)
    return with_members_b(p, [d_expr.genes[i] for i in b_idx], nearest.tolist())


def with_members_b(p: Partition, genes: list[GeneId], labels: list[int]) -> Partition:
    """``p`` with new B members: ``genes[i]`` joins cluster ``labels[i]``,
    and a cluster no gene joins has none."""
    new_b: list[set[GeneId]] = [set() for _ in p.clusters]
    for g, ci in zip(genes, labels):
        new_b[ci].add(g)
    clusters = tuple(
        Cluster(cl.medoid, cl.members_a, frozenset(new_b[i]))
        for i, cl in enumerate(p.clusters)
    )
    return Partition(clusters)


def assigned_subpartition(p: Partition) -> Partition:
    """Only the clusters that received at least one B gene."""
    kept = tuple(cl for cl in p.clusters if cl.members_b)
    return Partition(kept)


# -- serialization ------------------------------------------------------------


def write_partition_tsv(p: Partition) -> str:
    """Rows: gene_id, cluster_index, origin (A|B), is_medoid (0|1)."""
    lines = ["gene_id\tcluster_index\torigin\tis_medoid"]
    for i, cl in enumerate(p.clusters):
        lines.append(f"{cl.medoid}\t{i}\tA\t1")
        for g in sorted(cl.members_a - {cl.medoid}):
            lines.append(f"{g}\t{i}\tA\t0")
        for g in sorted(cl.members_b):
            lines.append(f"{g}\t{i}\tB\t0")
    return "\n".join(lines) + "\n"


def read_partition_tsv(data: bytes | str) -> Partition:
    """Read what ``write_partition_tsv`` writes.  Each cluster index must be
    below the number of rows, since each cluster needs its medoid row."""
    rows: list[tuple[int, str, int, str, bool]] = []
    seen: set[str] = set()
    for lineno, (gene, ci, origin, is_med) in tsv_rows(data, 4, "gene_id\tcluster_index\t"):
        if origin not in ("A", "B") or is_med not in ("0", "1"):
            raise ParseError(f"bad origin {origin!r} or is_medoid {is_med!r}", lineno)
        try:
            idx = int(ci)
        except ValueError:
            raise ParseError(f"bad cluster index {ci!r}", lineno) from None
        if idx < 0:
            raise ParseError(f"negative cluster index {idx}", lineno)
        if gene in seen:
            raise ParseError(f"gene {gene!r} is listed on more than one row", lineno)
        seen.add(gene)
        rows.append((lineno, gene, idx, origin, is_med == "1"))
    if not rows:
        raise ParseError("empty partition file", 1)
    lineno, _gene, top, _origin, _is_med = max(rows, key=lambda r: r[2])
    if top >= len(rows):
        raise ParseError(f"cluster index {top} with only {len(rows)} rows to hold medoids", lineno)
    n_clusters = top + 1
    medoids: dict[int, str] = {}
    mem_a: list[set[str]] = [set() for _ in range(n_clusters)]
    mem_b: list[set[str]] = [set() for _ in range(n_clusters)]
    for _lineno, gene, idx, origin, is_med in rows:
        if origin == "A":
            mem_a[idx].add(gene)
            if is_med:
                if idx in medoids:
                    raise ValidationError(f"cluster {idx} has two medoids")
                medoids[idx] = gene
        else:
            mem_b[idx].add(gene)
    clusters = []
    for idx in range(n_clusters):
        if idx not in medoids:
            raise ValidationError(f"cluster {idx} has no medoid row")
        clusters.append(
            Cluster(medoids[idx], frozenset(mem_a[idx]), frozenset(mem_b[idx]))
        )
    return Partition(tuple(clusters))


def partition_metadata(p: Partition, gamma: float | None, total_cost: float, extra: dict) -> str:
    meta = {
        "k": len(p.clusters),
        "seeding": PAM_BUILD,
        "total_cost": total_cost,
        "gamma": gamma,
        "cluster_sizes_a": [len(cl.members_a) for cl in p.clusters],
        "cluster_sizes_b": [len(cl.members_b) for cl in p.clusters],
    }
    meta.update(extra)
    return json.dumps(meta, sort_keys=True, indent=2) + "\n"
