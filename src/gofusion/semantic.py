"""Term-level semantic similarity and gene-level semantic distance.

Term similarity follows the information-content family: the default
"relevance" kind scales the Lin ratio by (1 - p(ms)), where ms is the
minimum subsumer, so that pairs whose only shared ancestor sits near the
root score low.  Gene distance is one minus the symmetric best-match
average of term similarities between the two genes' direct annotation
sets.

``term_similarity``, ``min_subsumer`` and ``gene_semantic_distance`` are the
scalar definitions and serve as the test oracles.  ``_term_sim_table`` and
``semantic_distance_matrix`` compute the same numbers, bit for bit, with
numpy passes over blocks and no Python code per pair: the table takes each
pair's minimum subsumer as a minimum over one term's ancestor columns, for
blocks of terms at a time, then converts the indices to similarities block
by block of rows; the gene fill works on blocks of genes.  Both run
single-threaded.
"""

from __future__ import annotations

import math

import numpy as np

from .annotations import AnnotationCorpus, GeneId, information_content
from .errors import ValidationError
from .expression import DistanceMatrix
from .ontology import Ontology, TermId

RELEVANCE = "relevance"
LIN = "lin"
RESNIK_NORMALIZED = "resnik_normalized"
SIMILARITY_KINDS = (RELEVANCE, LIN, RESNIK_NORMALIZED)

# terms decoded, rows of the term table converted and genes filled per numpy pass
_DECODE = 64
_ROWS = 16
_GENES = 32
# bytes of each integer block the term table's minimum holds, and of each
# gather from it: at a few hundred union terms, about the gene fill's own
# ``half`` and ``cover`` arrays
_MIN_BYTES = 1 << 18


def _check_namespace(o: Ontology, c: AnnotationCorpus, t: TermId) -> None:
    term = o.terms.get(t)
    if term is None or term.obsolete:
        raise ValidationError(f"term {t} unknown or obsolete")
    if term.namespace != c.namespace:
        raise ValidationError(
            f"term {t} is in namespace {term.namespace}, corpus covers {c.namespace}"
        )


def _max_ic_common_ancestor(
    c: AnnotationCorpus, anc_i: frozenset[TermId], anc_j: frozenset[TermId]
) -> tuple[TermId, float]:
    best_t = ""
    best_ic = -1.0
    for t in sorted(anc_i & anc_j):
        ic = c.ic.get(t)
        if ic is not None and ic > best_ic:
            best_t, best_ic = t, ic
    return best_t, best_ic


def min_subsumer(
    o: Ontology, c: AnnotationCorpus, t_i: TermId, t_j: TermId
) -> tuple[TermId, float]:
    """Common ancestor with maximal information content; ties take the
    smallest term id.  Never empty: the namespace root is always shared."""
    _check_namespace(o, c, t_i)
    _check_namespace(o, c, t_j)
    best_t, best_ic = _max_ic_common_ancestor(c, o.ancestors(t_i), o.ancestors(t_j))
    if not best_t:
        raise ValidationError(f"no common ancestor with defined IC for {t_i}, {t_j}")
    return best_t, best_ic


def _sim_from_ic(ms_ic: float, ic_i: float, ic_j: float, kind: str, peak_ic: float) -> float:
    if kind == RESNIK_NORMALIZED:
        if peak_ic == 0.0:
            return 0.0
        return min(ms_ic / peak_ic, 1.0)
    denom = ic_i + ic_j
    if denom == 0.0:
        return 0.0
    ratio = 2.0 * ms_ic / denom
    if kind == LIN:
        return min(ratio, 1.0)
    return min(ratio * (1.0 - math.exp(-ms_ic)), 1.0)


def term_similarity(
    o: Ontology,
    c: AnnotationCorpus,
    t_i: TermId,
    t_j: TermId,
    kind: str = RELEVANCE,
) -> float:
    """Similarity in [0, 1] between two terms of the corpus namespace.

    kinds: ``relevance`` (default), ``lin``, ``resnik_normalized``.  Pairs
    whose ICs are both zero (probability-1 terms) score 0 by convention.
    """
    if kind not in SIMILARITY_KINDS:
        raise ValidationError(f"unknown similarity kind {kind!r}")
    _ms, ms_ic = min_subsumer(o, c, t_i, t_j)
    ic_i = information_content(c, t_i)
    ic_j = information_content(c, t_j)
    return _sim_from_ic(ms_ic, ic_i, ic_j, kind, max(c.ic.values()))


def _ancestor_columns(
    o: Ontology, c: AnnotationCorpus, terms: list[TermId]
) -> tuple[list[TermId], np.ndarray, np.ndarray]:
    """The ancestors with an IC of ``terms``, decoded from their closure bitsets.

    Returns the union of those ancestors as columns ordered by IC, highest
    first, ties by smallest id; then, term after term, each term's column
    indices in increasing order (``flat``) and where each term's run starts.
    The bitsets are decoded ``_DECODE`` terms at a time, so the decode holds
    one byte per live ontology term for those terms only, not for all of them.
    """
    bits = [o.closure(t) for t in terms]
    union = 0
    for b in bits:
        union |= b
    cols = sorted(t for t in o.terms_of(union) if t in c.ic)
    cols.sort(key=c.ic.__getitem__, reverse=True)  # a stable sort: equal ICs stay in id order
    where = np.array([o.index[t] for t in cols], dtype=np.intp)
    flat, owner = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(terms), _DECODE):
        member = np.take(o.bit_rows(bits[lo : lo + _DECODE]).view(bool), where, axis=1)
        row, col = np.divmod(np.flatnonzero(member), len(cols))
        flat.append(col)
        owner.append(row + lo)
    run = np.bincount(np.concatenate(owner), minlength=len(terms))
    return cols, np.concatenate(flat), np.cumsum(run) - run


def _row_groups(
    flat: np.ndarray, starts: np.ndarray, runs: np.ndarray, pad: int, cap: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The terms in groups of similar ancestor count, each with its columns.

    Terms are taken in order of their run length in ``flat``; a group is the
    longest stretch whose runs, padded with ``pad`` to the group's longest,
    hold at most ``cap`` entries (one term at least).  Each group gives its
    terms and a (longest run, terms) array of their columns.
    """
    order = np.argsort(runs, kind="stable")
    sizes = runs[order]
    padded = np.append(flat, pad)
    groups = []
    lo = 0
    while lo < len(order):
        fits = sizes[lo:] * np.arange(1, len(order) - lo + 1) <= cap
        hi = lo + max(1, int(np.count_nonzero(fits)))  # ``fits`` is a run of Trues
        rows = order[lo:hi]
        p = np.arange(sizes[hi - 1])[:, None]
        groups.append((rows, padded[np.where(p < runs[rows], starts[rows] + p, len(flat))]))
        lo = hi
    return groups


def _term_sim_table(
    o: Ontology, c: AnnotationCorpus, terms: list[TermId], kind: str
) -> np.ndarray:
    """Dense similarity table over ``terms``, bit-identical to ``term_similarity``.

    Ancestors with an IC become columns ordered by IC, highest first, ties
    by smallest id, so the minimum subsumer of a pair is the smallest column
    the two terms share: the scalar's max-IC, smallest-id rule.  The table
    first holds column indices, in an int64 view of its own buffer, and the
    sentinel ``len(cols)`` means "no common ancestor with an IC": its IC of
    -1 gives the scalar's fallback value.

    Row ``i`` is the elementwise minimum, over term ``i``'s own columns
    ``k``, of an integer row that holds ``k`` at each term that has column
    ``k`` and the sentinel elsewhere.  Those rows are built for a block of
    table columns at a time, with one more row of sentinels that pads the
    shorter runs of a group of terms, and each group of terms takes its
    minimum over the block with one gather.  A block and a gather hold at
    most ``_MIN_BYTES`` bytes each.  Blocks of rows then turn the indices
    into similarities in place, with the scalar's formula per element.
    """
    if kind not in SIMILARITY_KINDS:
        raise ValidationError(f"unknown similarity kind {kind!r}")
    for t in terms:
        _check_namespace(o, c, t)
    ics = np.array([information_content(c, t) for t in terms])
    peak = max(c.ic.values()) if c.ic else 0.0
    cols, flat, starts = _ancestor_columns(o, c, terms)
    no_mica = len(cols)
    col_ic = np.array([c.ic[t] for t in cols] + [-1.0])
    # math.exp, not np.exp: the two may differ in the last bit.
    col_rel = np.array([1.0 - math.exp(-ic) for ic in col_ic])

    u = len(terms)
    sim = np.empty((u, u))
    mica = sim.view(np.int64)
    runs = np.diff(starts, append=len(flat))
    small = np.min_scalar_type(no_mica)
    width = max(1, min(u, _MIN_BYTES // (small.itemsize * (no_mica + 1))))
    groups = _row_groups(flat, starts, runs, no_mica, _MIN_BYTES // (small.itemsize * width))
    holders = np.empty((no_mica + 1, width), dtype=small)
    for lo in range(0, u, width):
        hi = min(lo + width, u)
        block = holders[:, : hi - lo]
        block.fill(no_mica)
        held = flat[starts[lo] : starts[hi - 1] + runs[hi - 1]]
        block[held, np.repeat(np.arange(hi - lo), runs[lo:hi])] = held
        for rows, ix in groups:
            mica[rows, lo:hi] = np.minimum.reduce(block[ix], axis=0)

    for lo in range(0, u, _ROWS):
        m = mica[lo : lo + _ROWS]
        ms_ic = col_ic[m]
        if kind == RESNIK_NORMALIZED:
            block = np.minimum(ms_ic / peak, 1.0) if peak != 0.0 else np.zeros(m.shape)
        else:
            denom = ics[lo : lo + _ROWS, None] + ics
            with np.errstate(divide="ignore", invalid="ignore"):
                block = 2.0 * ms_ic / denom
            if kind == RELEVANCE:
                block *= col_rel[m]
            block = np.where(denom == 0.0, 0.0, np.minimum(block, 1.0))
        sim[lo : lo + _ROWS] = block  # ``m`` is read in full before this write
    return sim


def _best_match_distance(sim: np.ndarray, idx_i: np.ndarray, idx_j: np.ndarray) -> float:
    sub = sim[np.ix_(idx_i, idx_j)]
    best = 0.5 * (sub.max(axis=1).mean() + sub.max(axis=0).mean())
    return min(max(1.0 - best, 0.0), 1.0)


def gene_semantic_distance(
    o: Ontology,
    c: AnnotationCorpus,
    g_i: GeneId,
    g_j: GeneId,
    kind: str = RELEVANCE,
) -> float:
    """Best-match-average semantic distance between two genes' direct terms.

    Note the self-distance is not 0 in general: d(g, g) is the mean of
    p(t) over the gene's terms.  The matrix builder forces the diagonal to
    0 to satisfy the DistanceMatrix contract, since no consumer reads it.
    """
    terms_i = sorted(c.direct_terms(g_i))
    terms_j = sorted(c.direct_terms(g_j))
    union = sorted(set(terms_i) | set(terms_j))
    pos = {t: k for k, t in enumerate(union)}
    sim = _term_sim_table(o, c, union, kind)
    idx_i = np.array([pos[t] for t in terms_i])
    idx_j = np.array([pos[t] for t in terms_j])
    return _best_match_distance(sim, idx_i, idx_j)


def semantic_distance_matrix(
    o: Ontology,
    c: AnnotationCorpus,
    genes: list[GeneId] | tuple[GeneId, ...],
    kind: str = RELEVANCE,
) -> DistanceMatrix:
    """Semantic DistanceMatrix over ``genes``, bit-identical to
    ``gene_semantic_distance`` on every off-diagonal pair.

    ``half[i, j]`` is the mean, over gene ``j``'s terms, of each
    term's best match among gene ``i``'s terms; the table is symmetric, so
    ``half[j, i]`` is the other side of the pair's best-match average.  The
    fill takes ``_GENES`` rows ``i`` at a time.  Genes with equal term
    counts are gathered together, one (rows x genes, count) 2-D gather per
    count, so each mean is a row mean with numpy's 1-D summation order, as
    in the scalar path.
    Each pair is summed as ``half[i, j] + half[j, i]`` into ``half``
    itself, row by row, so no second n x n array is made.
    """
    gene_terms = [sorted(c.direct_terms(g)) for g in genes]
    union = sorted({t for ts in gene_terms for t in ts})
    pos = {t: k for k, t in enumerate(union)}
    sim = _term_sim_table(o, c, union, kind)
    idx = [np.array([pos[t] for t in ts], dtype=np.intp) for ts in gene_terms]

    by_size: dict[int, list[int]] = {}
    for j, ix in enumerate(idx):
        by_size.setdefault(len(ix), []).append(j)
    groups = [(np.array(js), np.stack([idx[j] for j in js])) for js in by_size.values()]

    n = len(genes)
    half = np.empty((n, n))
    cover = np.empty((_GENES, len(union)))
    for lo in range(0, n, _GENES):
        block = idx[lo : lo + _GENES]
        b = len(block)
        for r, ix in enumerate(block):
            sim[ix].max(axis=0, out=cover[r])  # each term's best match in gene lo + r
        for js, ix in groups:
            gathered = np.take(cover[:b], ix, axis=1)  # (b, genes of the size, size)
            means = gathered.reshape(-1, ix.shape[1]).mean(axis=1)
            half[lo : lo + b, js] = means.reshape(b, len(js))
    # symmetrize in place: row i's upper part and column i's lower part
    # are untouched by the rows before it
    for i in range(n - 1):
        half[i, i + 1 :] += half[i + 1 :, i]
        half[i + 1 :, i] = half[i, i + 1 :]
    half *= 0.5
    np.subtract(1.0, half, out=half)
    np.clip(half, 0.0, 1.0, out=half)
    np.fill_diagonal(half, 0.0)
    return DistanceMatrix(tuple(genes), half)
