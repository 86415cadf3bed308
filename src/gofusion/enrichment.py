"""Cluster characterization by hypergeometric over-representation.

Each cluster of the assigned partition is tested against a background gene
set: for every term directly annotating at least one of the cluster's
annotated genes (specific terms only, no parent propagation), the one-sided
hypergeometric tail gives the probability of drawing at least the observed
number of annotated genes by chance.  Terms passing the threshold are
transferred to the cluster's unannotated genes as their inferred functions.
``enrich_partition`` and ``infer_functions`` both test each cluster that
received B genes, through one loop and against one count of the background.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .annotations import AnnotationCorpus, GeneId
from .clustering import Cluster, Partition
from .errors import ConfigError, ParseError
from .expression import tsv_rows
from .ontology import Ontology, TermId

CORRECTION_NONE = "none"
CORRECTION_BH = "benjamini_hochberg"
CORRECTIONS = (CORRECTION_NONE, CORRECTION_BH)


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_tail(N: int, K: int, n: int, k: int) -> float:
    """P[X >= k] for X hypergeometric with N items, K successes, n draws.

    Evaluated in log space with log-gamma and summed smallest-term first,
    so it stays accurate for large N and tiny tails.
    """
    if not (0 <= K <= N and 0 <= n <= N):
        raise ConfigError(f"invalid hypergeometric counts N={N}, K={K}, n={n}")
    lo = max(0, n - (N - K))
    hi = min(n, K)
    if k <= lo:
        return 1.0
    if k > hi:
        return 0.0
    log_total = _log_choose(N, n)
    log_terms = [
        _log_choose(K, x) + _log_choose(N - K, n - x) - log_total
        for x in range(k, hi + 1)
    ]
    acc = 0.0
    for lt in sorted(log_terms):
        acc += math.exp(lt)
    return min(acc, 1.0)


def benjamini_hochberg(pvalues: list[float]) -> list[float]:
    """BH-adjusted p-values, preserving input order."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: (pvalues[i], i))
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, pvalues[i] * m / rank)
        adjusted[i] = running
    return adjusted


@dataclass(frozen=True)
class EnrichmentRecord:
    """One over-represented term in one cluster, with the tested counts."""

    term: TermId
    p_value: float
    in_cluster: int
    in_background: int
    cluster_size: int
    background_size: int


def background_counts(background: set[GeneId], c: AnnotationCorpus) -> dict[TermId, int]:
    """How many genes of ``background`` each term annotates directly."""
    counts: dict[TermId, int] = {}
    for g in background:
        for t in c.direct.get(g, ()):  # background genes may lack annotations
            counts[t] = counts.get(t, 0) + 1
    return counts


def enrich_cluster(
    cluster: Cluster,
    background: set[GeneId],
    c: AnnotationCorpus,
    alpha: float = 0.05,
    correction: str = CORRECTION_NONE,
    bg_counts: dict[TermId, int] | None = None,
) -> list[EnrichmentRecord]:
    """Terms over-represented among the cluster's annotated genes.

    Only terms with at least one direct annotation inside the cluster are
    tested (absent terms cannot be over-represented).  Records with
    (corrected) p <= alpha come back ascending by (p, term id).
    ``bg_counts`` is ``background_counts(background, c)``, counted here
    when not given.
    """
    if correction not in CORRECTIONS:
        raise ConfigError(f"unknown correction {correction!r}")
    members = sorted(cluster.members_a)
    if not members:
        raise ConfigError("cluster has no annotated members to enrich")
    if not set(members) <= background:
        raise ConfigError("cluster members must be contained in the background")
    if bg_counts is None:
        bg_counts = background_counts(background, c)
    n = len(members)
    N = len(background)
    cluster_counts: dict[TermId, int] = {}
    for g in members:
        for t in c.direct_terms(g):
            cluster_counts[t] = cluster_counts.get(t, 0) + 1
    terms = sorted(cluster_counts)
    raw = [hypergeom_tail(N, bg_counts[t], n, cluster_counts[t]) for t in terms]
    final = benjamini_hochberg(raw) if correction == CORRECTION_BH else raw
    records = [
        EnrichmentRecord(
            term=t,
            p_value=p,
            in_cluster=cluster_counts[t],
            in_background=bg_counts[t],
            cluster_size=n,
            background_size=N,
        )
        for t, p in zip(terms, final)
        if p <= alpha
    ]
    records.sort(key=lambda r: (r.p_value, r.term))
    return records


@dataclass(frozen=True)
class InferredAnnotation:
    """Terms transferred to one unannotated gene from its cluster."""

    gene: GeneId
    terms: tuple[tuple[TermId, float], ...]
    cluster_index: int  # empty ``terms``: the cluster passed no term


def _enrich_assigned(
    p: Partition, background: set[GeneId], c: AnnotationCorpus, alpha: float, correction: str
) -> Iterator[tuple[int, Cluster, list[EnrichmentRecord]]]:
    """Index, cluster and ``enrich_cluster`` records of each cluster with B
    genes, all tested against one count of the background."""
    counts = background_counts(background, c)
    for i, cl in enumerate(p.clusters):
        if cl.members_b:
            yield i, cl, enrich_cluster(cl, background, c, alpha, correction, counts)


def infer_functions(
    p: Partition,
    background: set[GeneId],
    c: AnnotationCorpus,
    alpha: float = 0.05,
    correction: str = CORRECTION_NONE,
) -> list[InferredAnnotation]:
    """Transfer each cluster's passing terms to its B genes.

    Inference is cluster-level: all B genes of a cluster receive the same
    ordered term list.  Clusters without B genes are skipped; clusters with
    no passing term yield records with no terms.
    """
    out: list[InferredAnnotation] = []
    for i, cl, records in _enrich_assigned(p, background, c, alpha, correction):
        terms = tuple((r.term, r.p_value) for r in records)
        out.extend(InferredAnnotation(g, terms, i) for g in sorted(cl.members_b))
    return out


def enrich_partition(
    p: Partition,
    background: set[GeneId],
    c: AnnotationCorpus,
    alpha: float = 0.05,
    correction: str = CORRECTION_NONE,
) -> list[tuple[int, EnrichmentRecord]]:
    """(cluster index, record) pairs for every cluster that has B genes."""
    return [
        (i, r)
        for i, _cl, records in _enrich_assigned(p, background, c, alpha, correction)
        for r in records
    ]


# -- serialization ------------------------------------------------------------


def write_enrichment_tsv(rows: list[tuple[int, EnrichmentRecord]]) -> str:
    lines = [
        "cluster_index\tterm_id\tp_value\tin_cluster\tin_background"
        "\tcluster_size\tbackground_size"
    ]
    for ci, r in rows:
        lines.append(
            f"{ci}\t{r.term}\t{r.p_value:.10g}\t{r.in_cluster}\t{r.in_background}"
            f"\t{r.cluster_size}\t{r.background_size}"
        )
    return "\n".join(lines) + "\n"


def write_inferred_tsv(inferred: list[InferredAnnotation]) -> str:
    lines = ["gene_id\tterm_id\tp_value\tcluster_index"]
    for rec in inferred:
        for term, p in rec.terms:
            lines.append(f"{rec.gene}\t{term}\t{p:.10g}\t{rec.cluster_index}")
    return "\n".join(lines) + "\n"


def read_inferred_tsv(
    data: bytes | str, b_clusters: dict[GeneId, int]
) -> list[InferredAnnotation]:
    """The records of ``inferred.tsv``, one per gene, sorted by gene.

    ``b_clusters`` maps the partition's B genes to their clusters; a B gene
    without rows (its cluster passed no term) gets a record with no terms,
    as ``infer_functions`` gives it, so recall scores it 0.
    """
    per_gene: dict[GeneId, list[tuple[TermId, float]]] = {}
    cluster_of: dict[GeneId, int] = {}
    for lineno, (gene, term, p, ci) in tsv_rows(data, 4, "gene_id\tterm_id\t"):
        try:
            p_value, cluster_index = float(p), int(ci)
        except ValueError:
            raise ParseError(f"bad p-value {p!r} or cluster index {ci!r}", lineno) from None
        per_gene.setdefault(gene, []).append((term, p_value))
        cluster_of[gene] = cluster_index
    for gene, cluster_index in b_clusters.items():
        per_gene.setdefault(gene, [])
        cluster_of.setdefault(gene, cluster_index)
    return [
        InferredAnnotation(
            gene=g,
            terms=tuple(sorted(per_gene[g], key=lambda tp: (tp[1], tp[0]))),
            cluster_index=cluster_of[g],
        )
        for g in sorted(per_gene)
    ]


def export_term_graph(
    inferred: list[InferredAnnotation],
    truth: dict[GeneId, frozenset[TermId]] | None,
    o: Ontology,
) -> str:
    """DOT digraph of inferred terms, optional truth terms, and their
    ancestor closure.

    Styling: inferred-only terms are dashed, terms both inferred and in the
    truth are bold ellipses, truth-only terms carry a thick border; plain
    ancestors provide context.  The closure is the OR of the terms'
    ``Ontology.closure`` bitsets, decoded once by ``Ontology.terms_of``.  Nodes and edges are emitted in sorted
    order so output is reproducible.
    """
    inferred_terms = {t for rec in inferred for t, _ in rec.terms}
    truth_terms: set[TermId] = set()
    if truth:
        for ts in truth.values():
            truth_terms |= set(ts)
    mask = 0
    for t in sorted(inferred_terms | truth_terms):
        mask |= o.closure(t)  # unknown or obsolete: UnknownIdError
    closure = set(o.terms_of(mask))
    matching = inferred_terms & truth_terms
    lines = ["digraph term_graph {", "  rankdir=BT;", '  node [shape=box];']
    for t in sorted(closure):
        name = o.terms[t].name
        label = f"{t}\\n{name}" if name else t
        if t in matching:
            attrs = f'label="{label}", shape=ellipse, style=bold'
        elif t in inferred_terms:
            attrs = f'label="{label}", style=dashed'
        elif t in truth_terms:
            attrs = f'label="{label}", penwidth=3'
        else:
            attrs = f'label="{label}"'
        lines.append(f'  "{t}" [{attrs}];')
    for t in sorted(closure):
        for parent, _kind in sorted(o.terms[t].parents):
            if parent in closure:
                lines.append(f'  "{t}" -> "{parent}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
