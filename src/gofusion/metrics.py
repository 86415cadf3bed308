"""Partition and inference quality measures.

Semantic compactness scores how close assigned genes sit to annotated
co-cluster members (lower is better); BHI is the average fraction of
within-cluster gene pairs sharing a direct term (higher is better); BC is
the average within-cluster pairwise semantic distance (lower is better);
the Fowlkes-Mallows index compares two partitions by pair counting; recall
scores inferred term lists against held-out truth.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .annotations import AnnotationCorpus, GeneId
from .clustering import Partition
from .enrichment import InferredAnnotation
from .errors import AlignmentError, UnknownIdError
from .expression import DistanceMatrix
from .ontology import Ontology, TermId

logger = logging.getLogger(__name__)


def semantic_compactness(p: Partition, d_go: DistanceMatrix) -> float:
    """Mean over B-origin genes of the minimum semantic distance to an
    A-origin co-cluster member.

    Every cluster has an A-origin member (its medoid), so every B-origin
    gene is scored: one gather of the B x A distances, masked to pairs in
    the same cluster, then a row minimum; the mean runs over B genes in
    cluster order, sorted within each cluster.  Raises if the partition has
    no B-origin gene.
    """
    index, clusters = d_go.index_of, list(enumerate(p.clusters))
    a = [(ci, index(g)) for ci, cl in clusters for g in sorted(cl.members_a)]
    b = [(ci, index(g)) for ci, cl in clusters for g in sorted(cl.members_b)]
    if not b:
        raise AlignmentError("no assigned gene had an annotated co-cluster member")
    (a_cluster, a_idx), (b_cluster, b_idx) = np.array(a).T, np.array(b).T
    same = b_cluster[:, None] == a_cluster
    return float(np.where(same, d_go.d[np.ix_(b_idx, a_idx)], np.inf).min(axis=1).mean())


def bhi(p: Partition, c: AnnotationCorpus) -> float:
    """Average per-cluster fraction of gene pairs sharing a direct term.

    Uses direct (specific) term sets only.  Genes absent from the corpus
    count as unannotated and never match.  Size-0/1 clusters contribute 0
    but still divide the average.
    """
    if not p.clusters:
        raise AlignmentError("empty partition")
    total = 0.0
    for cl in p.clusters:
        genes = sorted(cl.members_a | cl.members_b)
        s = len(genes)
        if s < 2:
            continue
        term_sets = [c.direct.get(g, frozenset()) for g in genes]
        matches = 0
        for i in range(s):
            if not term_sets[i]:
                continue
            for j in range(i + 1, s):
                if term_sets[i] & term_sets[j]:
                    matches += 1
        total += 2.0 * matches / (s * (s - 1))
    return total / len(p.clusters)


def bc(p: Partition, d_go: DistanceMatrix) -> float:
    """Average within-cluster mean pairwise semantic distance.

    Each cluster's pair sum is divided by its number of ordered pairs,
    which keeps the value in [0, 1].
    """
    if not p.clusters:
        raise AlignmentError("empty partition")
    total = 0.0
    for cl in p.clusters:
        genes = sorted(cl.members_a | cl.members_b)
        s = len(genes)
        if s < 2:
            continue
        idx = [d_go.index_of(g) for g in genes]
        sub = d_go.d[np.ix_(idx, idx)]
        total += float(sub.sum()) / (s * (s - 1))  # diagonal is zero
    return total / len(p.clusters)


class FowlkesMallows(NamedTuple):
    value: float
    degenerate: bool


def fowlkes_mallows(
    cp: Mapping[GeneId, int], cq: Mapping[GeneId, int]
) -> FowlkesMallows:
    """Pair-counting agreement T / sqrt(P * Q) between two labelings.

    Returns (0, degenerate=True) when either labeling is all singletons,
    since no co-clustered pair exists to compare.
    """
    if set(cp) != set(cq):
        raise AlignmentError("labelings cover different gene sets")
    genes = sorted(cp)
    n = len(genes)
    if n < 2:
        raise AlignmentError("need at least 2 genes")
    cont = Counter((cp[g], cq[g]) for g in genes)
    t = sum(v * v for v in cont.values()) - n
    pk = sum(v * v for v in Counter(cp[g] for g in genes).values()) - n
    qk = sum(v * v for v in Counter(cq[g] for g in genes).values()) - n
    if pk == 0 or qk == 0:
        return FowlkesMallows(0.0, True)
    return FowlkesMallows(t / math.sqrt(pk * qk), False)


def recall_inferred(
    inferred: list[InferredAnnotation],
    truth: Mapping[GeneId, frozenset[TermId]],
    exclude: frozenset[TermId] = frozenset(),
) -> float:
    """Mean per-gene fraction of (non-excluded) truth terms recovered.

    Genes whose truth set is empty after exclusion are skipped and logged;
    returns NaN if no gene remains scorable.
    """
    scores: list[float] = []
    skipped = 0
    for rec in inferred:
        if rec.gene not in truth:
            raise UnknownIdError(f"no truth annotation for gene {rec.gene!r}")
        target = set(truth[rec.gene]) - exclude
        if not target:
            skipped += 1
            continue
        hit = {t for t, _ in rec.terms} & target
        scores.append(len(hit) / len(target))
    if skipped:
        logger.debug("recall skipped %d genes with empty filtered truth", skipped)
    if not scores:
        return float("nan")
    return float(np.mean(scores))


def label_counts(
    c: AnnotationCorpus,
    genes: set[GeneId],
    o: Ontology | None = None,
) -> list[tuple[TermId, str, int]]:
    """Direct annotation counts over ``genes``, descending, ties by term id.

    Term names come from the ontology when one is supplied.  The head of
    this list above a count threshold is the usual exclusion set for
    bias-corrected recall.
    """
    counts = Counter(t for g in sorted(genes) for t in c.direct_terms(g))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        (t, o.terms[t].name if o and t in o.terms else "", n) for t, n in ordered
    ]


def popular_terms(
    counts: list[tuple[TermId, str, int]], threshold: int
) -> frozenset[TermId]:
    """Terms whose count strictly exceeds the threshold."""
    return frozenset(t for t, _name, n in counts if n > threshold)


@dataclass
class MetricReport:
    """Bag of evaluation numbers serialized with one JSON key per field."""

    sc: float | None = None
    bhi: float | None = None
    bc: float | None = None
    fm: float | None = None
    recall: float | None = None
    recall_no_popular: float | None = None
    popular_labels: list[tuple[TermId, int]] = field(default_factory=list)

    def to_json(self) -> str:
        def clean(v: float | None) -> float | None:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return None
            return v

        payload = {k: clean(v) for k, v in asdict(self).items()}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
