"""Gene annotation corpus: loading, DAG propagation, term probability and IC.

The corpus keeps only the direct (specific) annotations per gene; counts
are propagated up the ontology so that ``prop_count[t]`` is the number of
retained genes annotated to ``t`` or any of its descendants.  Information
content is the natural-log surprisal of the propagated term probability.
The log base is not configurable: downstream term similarity relies on
``exp(-ic(t)) == p(t)``.

Propagation reads the ontology's ancestor bitsets (``Ontology.closure``),
which the ontology computes on request, so only the directly annotated terms
and their ancestors get one: a gene's mask is the OR of its direct terms'
bitsets, and the column sums of the masks unpacked into a genes × terms 0/1
matrix (``Ontology.bit_rows``: ``int.to_bytes`` little-endian, then
``np.unpackbits``) are ``prop_count`` by ``topo_order`` position.  The masks
are unpacked a block of genes at a time, about ``_COUNT_BYTES`` bytes
whatever the ontology's width.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCorpusError, ParseError, UnknownIdError
from .expression import tsv_rows
from .ontology import Ontology, TermId

logger = logging.getLogger(__name__)

GeneId = str

DEFAULT_EXCLUDED_EVIDENCE = frozenset({"ND"})

# bytes of the 0/1 matrix build_corpus unpacks at once: one byte per gene
# and live term, so a block holds _COUNT_BYTES // (live terms) genes
_COUNT_BYTES = 1 << 22


@dataclass(frozen=True)
class LoadDiagnostics:
    """Row-level accounting for an annotation load."""

    rows_total: int = 0
    rows_kept: int = 0
    rows_wrong_namespace: int = 0
    rows_excluded_evidence: int = 0
    rows_unknown_term: int = 0
    rows_duplicate: int = 0
    genes_dropped_empty: int = 0
    genes_root_only: int = 0
    terms_other_namespace: int = 0  # propagated terms outside the namespace


@dataclass(frozen=True)
class AnnotationCorpus:
    """Direct annotations plus propagated counts and information content.

    ``gene_universe_size`` is the number of annotated genes retained after
    filtering; it is the denominator of every term probability and is
    recorded in pipeline outputs so runs can be reproduced against a
    different annotation universe.
    """

    direct: dict[GeneId, frozenset[TermId]]
    namespace: str
    prop_count: dict[TermId, int]
    ic: dict[TermId, float]
    diagnostics: LoadDiagnostics = field(default=LoadDiagnostics())

    @property
    def gene_universe_size(self) -> int:
        return len(self.direct)

    def genes(self) -> list[GeneId]:
        return sorted(self.direct)

    def direct_terms(self, gene: GeneId) -> frozenset[TermId]:
        try:
            return self.direct[gene]
        except KeyError:
            raise UnknownIdError(f"gene {gene!r} not in corpus") from None


def build_corpus(
    direct: dict[GeneId, set[TermId]],
    o: Ontology,
    namespace: str,
    diagnostics: LoadDiagnostics | None = None,
) -> AnnotationCorpus:
    """Assemble a corpus from per-gene direct term sets (already filtered)."""
    if not direct:
        raise EmptyCorpusError("no annotated genes retained")
    root = o.namespace_root(namespace)
    masks: list[int] = []
    root_only = 0
    for gene in sorted(direct):
        terms = direct[gene]
        if not terms:
            raise EmptyCorpusError(f"gene {gene!r} has an empty term set")
        mask = 0
        for t in terms:
            mask |= o.closure(t)  # unknown or obsolete: UnknownIdError
        masks.append(mask)
        if terms == {root}:
            root_only += 1
    n, width = len(direct), len(o.topo_order)
    block = max(1, _COUNT_BYTES // width)
    counts = np.zeros(width, dtype=np.int64)
    for lo in range(0, n, block):
        counts += o.bit_rows(masks[lo:lo + block]).sum(axis=0, dtype=np.int64)
    hit = np.flatnonzero(counts)
    prop = dict(zip([o.topo_order[j] for j in hit.tolist()], counts[hit].tolist()))
    ic = {t: -math.log(c / n) for t, c in prop.items()}
    ic[root] = 0.0
    if root_only:
        logger.info("%d genes are annotated only to the namespace root", root_only)
    other = [t for t in prop if o.terms[t].namespace != namespace]
    if other:
        logger.warning("propagated terms outside %s: %d, first %s (%s)",
                       namespace, len(other), other[0], o.terms[other[0]].namespace)
    diags = dataclasses.replace(
        diagnostics or LoadDiagnostics(),
        genes_root_only=root_only,
        terms_other_namespace=len(other),
    )
    return AnnotationCorpus(
        direct={g: frozenset(ts) for g, ts in direct.items()},
        namespace=namespace,
        prop_count=prop,
        ic=ic,
        diagnostics=diags,
    )


def load_annotations(
    data: bytes | str,
    o: Ontology,
    namespace: str,
    excluded_evidence: frozenset[str] = DEFAULT_EXCLUDED_EVIDENCE,
) -> AnnotationCorpus:
    """Load a ``gene_id TAB term_id TAB evidence_code TAB namespace`` TSV.

    Rows are read by ``expression.tsv_rows``: blank lines are skipped, and
    the first non-blank line is a header if it starts with ``gene_id TAB
    term_id TAB``.  Rows in other namespaces or with excluded evidence
    codes (default ``{"ND"}``) are dropped; rows referencing unknown or
    obsolete terms are dropped with a counted warning; genes left without
    any term are dropped.  Raises :class:`EmptyCorpusError` if nothing
    survives.
    """
    direct: dict[GeneId, set[TermId]] = {}
    seen_genes: set[GeneId] = set()
    total = kept = wrong_ns = excluded = unknown = dup = 0
    terms = o.terms
    for lineno, fields in tsv_rows(data, 4, "gene_id\tterm_id\t"):
        gene, term, evidence, ns = map(str.strip, fields)
        if not gene:
            raise ParseError("empty gene_id", lineno)
        total += 1
        seen_genes.add(gene)
        if ns != namespace:
            wrong_ns += 1
            continue
        if evidence in excluded_evidence:
            excluded += 1
            continue
        t = terms.get(term)
        if t is None or t.obsolete or t.namespace != namespace:
            unknown += 1
            continue
        bucket = direct.setdefault(gene, set())
        if term in bucket:
            dup += 1
            continue
        bucket.add(term)
        kept += 1
    if unknown:
        logger.warning("dropped %d rows referencing unknown/obsolete/foreign terms", unknown)
    if not direct:
        raise EmptyCorpusError(
            f"no genes retained ({total} rows: {wrong_ns} wrong namespace, "
            f"{excluded} excluded evidence, {unknown} unresolvable terms)"
        )
    diags = LoadDiagnostics(
        rows_total=total,
        rows_kept=kept,
        rows_wrong_namespace=wrong_ns,
        rows_excluded_evidence=excluded,
        rows_unknown_term=unknown,
        rows_duplicate=dup,
        genes_dropped_empty=len(seen_genes) - len(direct),
    )
    return build_corpus(direct, o, namespace, diagnostics=diags)


def term_probability(c: AnnotationCorpus, t: TermId) -> float:
    """Fraction of corpus genes annotated to ``t`` or any descendant."""
    count = c.prop_count.get(t)
    if not count:
        raise UnknownIdError(f"term {t} has no annotated genes beneath it; p undefined")
    return count / c.gene_universe_size


def information_content(c: AnnotationCorpus, t: TermId) -> float:
    """Natural-log information content, -ln p(t); 0 at the root."""
    ic = c.ic.get(t)
    if ic is None:
        raise UnknownIdError(f"term {t} has no annotated genes beneath it; IC undefined")
    return ic
