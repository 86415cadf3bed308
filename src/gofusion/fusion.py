"""Fusing expression and semantic distances: gamma blend, percentile
equalization, and the tuning loop that picks gamma automatically.

The two balancing routes address the same problem, that the two distance
distributions differ badly in shape: percentile equalization forces both
onto an approximately uniform grid of interval midpoints so an equal-weight
blend is meaningful, while gamma tuning searches the blend weight directly
by repeatedly splitting the annotated set, clustering one half, assigning
the other half back by expression, and scoring semantic compactness.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .clustering import Partition, cluster_a, with_members_b
from .errors import ConfigError
from .expression import (
    EUCLIDEAN,
    METRICS,
    DistanceMatrix,
    ExpressionMatrix,
    PreparedRows,
    upper_triangle,
)
from .metrics import semantic_compactness

# rows of d_e weighted and added per numpy pass of the blend
_BLEND_ROWS = 128
# held-out genes scored against all centroids per ``raw_distances`` call
_HELD_ROWS = 16


def combine_gamma(d_e: DistanceMatrix, d_go: DistanceMatrix, gamma: float) -> DistanceMatrix:
    """Entrywise gamma * d_go + (1 - gamma) * d_e over an identical gene list.

    ``(1 - gamma) * d_e`` is added a block of rows at a time, so the blend
    makes no n x n temporary besides its result.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must lie in [0, 1], got {gamma}")
    d_e.require_same_genes(d_go)
    blended = np.multiply(gamma, d_go.d)
    for lo in range(0, len(blended), _BLEND_ROWS):
        rows = slice(lo, lo + _BLEND_ROWS)
        blended[rows] += (1.0 - gamma) * d_e.d[rows]
    np.clip(blended, 0.0, 1.0, out=blended)
    np.fill_diagonal(blended, 0.0)
    return DistanceMatrix(d_e.genes, blended)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged (returned doubled to stay integral).

    One argsort; a tie group is a run of equal values in sorted order (so
    ``-0.0`` ties with ``0.0``), and a value's doubled rank is its group's
    first plus last 1-based position, each spread over the run by a scan.
    """
    n = v.size
    order = np.argsort(v)
    s = v[order]
    tie = s[1:] == s[:-1]  # sorted positions p and p + 1 hold equal values
    del s
    first = np.arange(n)  # 0-based start of each sorted position's tie group
    first[1:][tie] = 0
    np.maximum.accumulate(first, out=first)
    doubled = np.arange(1, n + 1)  # 1-based end of the group
    doubled[:-1][tie] = n
    np.minimum.accumulate(doubled[::-1], out=doubled[::-1])
    doubled += first
    doubled += 1
    first[order] = doubled  # back to the order of ``v``
    return first


def equalize_values(vals: np.ndarray, m: int) -> np.ndarray:
    """Map each value to the midpoint (j - 0.5) / m of its percentile bin
    j = ceil(percentile * m), with average ranks for ties.

    Depends only on the rank order of ``vals``: any strictly increasing
    transform of the input yields the identical output.
    """
    if m < 2:
        raise ConfigError(f"need at least 2 intervals, got m={m}")
    vals = np.asarray(vals, dtype=float)
    if vals.size == 0:
        return vals.copy()
    double_ranks = _average_ranks(vals)
    double_ranks *= m  # all-integer numerator keeps the ceil exact
    j = np.true_divide(double_ranks, 2.0 * vals.size)
    np.ceil(j, out=j)
    np.clip(j, 1, m, out=j)
    j -= 0.5
    j /= m
    return j


def percentile_equalize(d: DistanceMatrix, m: int) -> DistanceMatrix:
    """Equalize a distance matrix over its strict upper triangle.

    Each off-diagonal value is replaced by its percentile-bin midpoint and
    mirrored back; the diagonal stays 0.  Applying this to both distance
    sources gives them near-uniform, directly comparable distributions.
    The triangle is read and written through one boolean mask, and the
    mirror is written through the transposed view, so besides the result
    only O(n^2 / 2) values and their ranks are held.
    """
    n = len(d.genes)
    if n < 2:
        raise ConfigError("matrix needs at least one off-diagonal pair")
    upper = upper_triangle(n)
    vals = equalize_values(d.d[upper], m)
    out = np.zeros_like(d.d)
    out[upper] = vals
    out.T[upper] = vals
    return DistanceMatrix(d.genes, out)


@dataclass(frozen=True)
class TuningReport:
    """Grid search trace: per-gamma compactness runs and the winner."""

    grid: tuple[float, ...]
    sc_runs: tuple[tuple[float, ...], ...]
    seed: int
    split: float

    @property
    def sc_curve(self) -> tuple[float, ...]:  # each gamma's mean over its runs
        return tuple(float(np.mean(rs)) for rs in self.sc_runs)

    @property
    def best_gamma(self) -> float:  # ties go to the smallest gamma
        return self.grid[int(np.argmin(self.sc_curve))]

    def to_json(self) -> str:
        record = {**asdict(self), "sc_curve": self.sc_curve, "best_gamma": self.best_gamma}
        return json.dumps(record, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        # %.10g never writes a comma, quote or newline, so nothing is quoted
        rows = [f"{g:.10g},{sc:.10g}\n" for g, sc in zip(self.grid, self.sc_curve)]
        return "gamma,mean_sc\n" + "".join(rows)


def _centroid_assign(
    expr: ExpressionMatrix,
    part: Partition,
    held_out: list[str],
    metric: str,
) -> Partition:
    """Attach held-out genes to the cluster with the nearest expression
    centroid (arithmetic mean of member vectors), ties to the lowest index.

    All centroids come from one ``np.add.at`` over the members' rows in
    ascending row order, divided by the member counts: the bits of each
    cluster's ``values[rows].mean(axis=0)``, which also starts from 0.0 and
    adds its rows one after another.  The held-out genes' raw distances to
    all centroids come from ``PreparedRows.raw_distances``, the formula the
    expression matrix uses, ``_HELD_ROWS`` genes per call; Euclidean
    distances are not normalized here.  A flat Pearson centroid sits at 0.5
    from every gene.

    This is deliberately centroid-based, unlike the medoid-based B
    assignment used for the final partition; both paths exist on purpose.
    """
    idx = {g: i for i, g in enumerate(expr.genes)}
    cluster_of = np.full(len(expr.genes), -1)
    for ci, cl in enumerate(part.clusters):
        cluster_of[[idx[g] for g in cl.members_a]] = ci
    kept = np.flatnonzero(cluster_of >= 0)  # ascending row order
    labels = cluster_of[kept]
    means = np.zeros((len(part.clusters), expr.values.shape[1]))
    np.add.at(means, labels, expr.values[kept])
    means /= np.bincount(labels, minlength=len(part.clusters))[:, None]
    centroids = PreparedRows(means, metric)
    held = PreparedRows(expr.values[[idx[g] for g in held_out]], metric)
    nearest = np.concatenate([
        held.raw_distances(slice(lo, lo + _HELD_ROWS), centroids).argmin(axis=1)
        for lo in range(0, len(held_out), _HELD_ROWS)
    ])
    return with_members_b(part, held_out, nearest.tolist())


def tune_gamma(
    expr: ExpressionMatrix,
    d_e: DistanceMatrix,
    d_go: DistanceMatrix,
    k: int,
    grid_step: float = 0.05,
    runs: int = 10,
    split: float = 0.5,
    seed: int = 0,
    metric: str = EUCLIDEAN,
) -> TuningReport:
    """Grid search over gamma, scoring each value by semantic compactness.

    Per (gamma, run) cell: split the annotated genes into a kept fraction
    and a held-out rest, cluster the kept half on the blended distance
    restricted to it, attach the held-out genes by expression-centroid
    distance, and score the held-out genes' semantic compactness.  Cells
    are independent and seeded from (seed, gamma index, run index), so the
    report is reproducible.  The best gamma is the curve's argmin, ties
    resolved toward the smallest gamma.

    ``d_e`` and ``d_go`` are the expression and semantic distance matrices
    over exactly ``expr.genes``, in order; ``metric`` is the expression
    metric ``d_e`` was built with, which the held-out genes' centroid
    distances also use.
    """
    if k < 2:
        raise ConfigError(f"k must be at least 2, got {k}")
    if not 0.0 < split < 1.0:
        raise ConfigError(f"split must lie strictly between 0 and 1, got {split}")
    if runs < 1:
        raise ConfigError(f"runs must be positive, got {runs}")
    if not 0.0 < grid_step <= 1.0:
        raise ConfigError(f"grid_step must lie in (0, 1], got {grid_step}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if metric not in METRICS:
        raise ConfigError(f"unknown expression metric {metric!r}")
    steps = round(1.0 / grid_step)
    if abs(steps * grid_step - 1.0) > 1e-9:
        raise ConfigError(f"grid_step {grid_step} does not divide 1 evenly")

    genes = list(expr.genes)
    n = len(genes)
    n1 = int(round(split * n))
    if not 0 < n1 < n:
        raise ConfigError(f"split {split} leaves an empty subset for {n} genes")
    if k > n1:
        raise ConfigError(f"k={k} exceeds the kept subset size {n1}")

    if d_e.genes != expr.genes or d_go.genes != expr.genes:
        raise ConfigError("d_e and d_go must cover expr.genes in order")

    grid = tuple(i / steps for i in range(steps + 1))

    def cell(blended: DistanceMatrix, g_idx: int, run: int) -> float:
        rng = np.random.default_rng(np.random.SeedSequence((seed, g_idx, run)))
        perm = rng.permutation(n)
        kept = sorted(int(i) for i in perm[:n1])
        held = sorted(int(i) for i in perm[n1:])
        kept_genes = [genes[i] for i in kept]
        held_genes = [genes[i] for i in held]
        part = cluster_a(blended.restrict(kept_genes), k)
        part = _centroid_assign(expr, part, held_genes, metric)
        return semantic_compactness(part, d_go)

    # built lazily: one blended matrix is alive at a time, not one per gamma
    blends = (combine_gamma(d_e, d_go, g) for g in grid)
    sc_runs = tuple(
        tuple(cell(blended, g_idx, r) for r in range(runs))
        for g_idx, blended in enumerate(blends)
    )
    return TuningReport(grid=grid, sc_runs=sc_runs, seed=seed, split=split)
