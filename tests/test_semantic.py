import dataclasses
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gofusion.annotations import build_corpus, load_annotations, term_probability
from gofusion.errors import UnknownIdError, ValidationError
from gofusion.expression import load_expression
from gofusion.ontology import parse_obo
from gofusion.semantic import (
    SIMILARITY_KINDS,
    _ancestor_columns,
    _sim_from_ic,
    _term_sim_table,
    gene_semantic_distance,
    min_subsumer,
    semantic_distance_matrix,
    term_similarity,
)
from gofusion.synth import make_dataset, write_dataset

from conftest import BP, FIXTURE_OBO, ROOT, perfbench_godag, random_dag_corpus

TERMS = [ROOT, "GO:0000001", "GO:0000002", "GO:0000003"]


def part_of_dag_corpus(seed: int, n_terms: int = 60, n_genes: int = 28):
    """Multi-parent DAG with is_a and part_of edges, and a corpus whose genes
    carry 1 to 14 direct terms.

    Every term below the root descends from the first term, so that term has
    probability 1 and ties the root's IC; genes may also be annotated to the
    root itself, so zero-IC pairs occur.
    """
    rng = np.random.default_rng(seed)
    ids = [ROOT] + [f"GO:{2000000 + i:07d}" for i in range(1, n_terms)]
    stanzas = [f"[Term]\nid: {ROOT}\nname: root\nnamespace: {BP}\n"]
    for i in range(1, n_terms):
        parents = [0] if i == 1 else 1 + rng.choice(i - 1, size=min(3, i - 1), replace=False)
        edges = [f"is_a: {ids[parents[0]]}"]
        if len(parents) > 1:
            edges.append(f"relationship: part_of {ids[parents[1]]}")
        if len(parents) > 2 and rng.random() < 0.5:
            edges.append(f"is_a: {ids[parents[2]]}")
        stanzas.append(f"[Term]\nid: {ids[i]}\nname: t{i}\nnamespace: {BP}\n" + "\n".join(edges))
    onto = parse_obo("\n\n".join(stanzas))
    direct = {
        f"gene{g:03d}": {ids[int(k)] for k in rng.choice(n_terms, size=1 + g % 14, replace=False)}
        for g in range(n_genes)
    }
    return onto, build_corpus(direct, onto, BP)


class TestMinSubsumer:
    def test_only_common_ancestor_is_root(self, fixture_ontology, fixture_corpus):
        assert min_subsumer(fixture_ontology, fixture_corpus, "GO:0000003", "GO:0000002") == (ROOT, 0.0)

    def test_reflexive(self, fixture_ontology, fixture_corpus):
        # GO:0000002 has a strictly higher IC than its only ancestor, so the
        # reflexive case returns the term itself.
        t, ic = min_subsumer(fixture_ontology, fixture_corpus, "GO:0000002", "GO:0000002")
        assert t == "GO:0000002"
        assert ic == fixture_corpus.ic["GO:0000002"]

    def test_reflexive_ic_under_tie(self, fixture_ontology, fixture_corpus):
        # GO:0000003 and its parent cover the same two genes, so their ICs
        # tie; the smallest-id rule picks the parent, but the IC (the only
        # quantity used downstream) equals ic(t) regardless.
        t, ic = min_subsumer(fixture_ontology, fixture_corpus, "GO:0000003", "GO:0000003")
        assert t == "GO:0000001"
        assert ic == fixture_corpus.ic["GO:0000003"]

    def test_parent_subsumes_child(self, fixture_ontology, fixture_corpus):
        t, ic = min_subsumer(fixture_ontology, fixture_corpus, "GO:0000003", "GO:0000001")
        assert t == "GO:0000001"
        assert ic == pytest.approx(math.log(1.5))

    def test_namespace_mismatch(self, fixture_ontology, fixture_corpus):
        other = FIXTURE_OBO + "\n[Term]\nid: GO:0003674\nname: mf root\nnamespace: molecular_function\n"
        o = parse_obo(other)
        c = build_corpus({"gA": {"GO:0000003"}}, o, BP)
        with pytest.raises(ValidationError):
            min_subsumer(o, c, "GO:0000003", "GO:0003674")


class TestTermSimilarity:
    def test_self_similarity_is_one_minus_p(self, fixture_ontology, fixture_corpus):
        for t in TERMS:
            sim = term_similarity(fixture_ontology, fixture_corpus, t, t)
            p = term_probability(fixture_corpus, t)
            if t == ROOT:
                assert sim == 0.0
            else:
                assert abs(sim - (1.0 - p)) < 1e-12

    def test_root_subsumed_pair_is_zero(self, fixture_ontology, fixture_corpus):
        assert term_similarity(fixture_ontology, fixture_corpus, "GO:0000003", "GO:0000002") == 0.0

    def test_symmetry_and_range(self, fixture_ontology, fixture_corpus):
        for ti, tj in itertools.product(TERMS, TERMS):
            s1 = term_similarity(fixture_ontology, fixture_corpus, ti, tj)
            s2 = term_similarity(fixture_ontology, fixture_corpus, tj, ti)
            assert s1 == s2
            assert 0.0 <= s1 <= 1.0

    def test_relevance_below_lin(self):
        onto, corpus = random_dag_corpus(seed=5, n_terms=30, n_genes=40)
        terms = sorted(corpus.prop_count)[:12]
        for ti, tj in itertools.combinations(terms, 2):
            rel = term_similarity(onto, corpus, ti, tj, "relevance")
            lin = term_similarity(onto, corpus, ti, tj, "lin")
            assert rel <= lin + 1e-15

    def test_resnik_normalized_range(self):
        onto, corpus = random_dag_corpus(seed=6, n_terms=20, n_genes=30)
        terms = sorted(corpus.prop_count)[:8]
        for ti, tj in itertools.combinations(terms, 2):
            s = term_similarity(onto, corpus, ti, tj, "resnik_normalized")
            assert 0.0 <= s <= 1.0

    def test_unknown_kind(self, fixture_ontology, fixture_corpus):
        with pytest.raises(ValidationError):
            term_similarity(fixture_ontology, fixture_corpus, ROOT, ROOT, "wang")


class TestGeneDistance:
    def test_shared_singleton_sets(self, fixture_ontology, fixture_corpus):
        d = gene_semantic_distance(fixture_ontology, fixture_corpus, "gA", "gB")
        assert d == pytest.approx(2 / 3)

    def test_unrelated_genes(self, fixture_ontology, fixture_corpus):
        assert gene_semantic_distance(fixture_ontology, fixture_corpus, "gA", "gC") == 1.0

    def test_self_distance_is_mean_p(self, fixture_ontology, fixture_corpus):
        for g in ("gA", "gC"):
            d = gene_semantic_distance(fixture_ontology, fixture_corpus, g, g)
            terms = sorted(fixture_corpus.direct[g])
            mean_p = np.mean([term_probability(fixture_corpus, t) for t in terms])
            assert d == pytest.approx(mean_p)

    def test_missing_gene(self, fixture_ontology, fixture_corpus):
        with pytest.raises(UnknownIdError):
            gene_semantic_distance(fixture_ontology, fixture_corpus, "gA", "nope")

    def test_adding_shared_term_weakly_decreases_distance(
        self, fixture_ontology, fixture_corpus
    ):
        # Brute force over term subsets of the fixture at fixed corpus ICs,
        # restricted to initially-disjoint annotation sets: a weak shared
        # term can dilute an existing strong match between overlapping
        # sets, so the unrestricted claim does not hold.
        from gofusion.semantic import _best_match_distance, _term_sim_table

        candidates = ["GO:0000001", "GO:0000002", "GO:0000003"]
        pos = {t: i for i, t in enumerate(candidates)}
        sim = _term_sim_table(fixture_ontology, fixture_corpus, candidates, "relevance")

        def dist(s1, s2):
            i1 = np.array([pos[t] for t in sorted(s1)])
            i2 = np.array([pos[t] for t in sorted(s2)])
            return _best_match_distance(sim, i1, i2)

        subsets = [
            set(s) for r in (1, 2) for s in itertools.combinations(candidates, r)
        ]
        checked = 0
        for s1, s2 in itertools.product(subsets, subsets):
            if s1 & s2:
                continue
            base = dist(s1, s2)
            for shared in candidates:
                assert dist(s1 | {shared}, s2 | {shared}) <= base + 1e-12
                checked += 1
        assert checked > 0


class TestSemanticMatrix:
    def test_fixture_matrix(self, fixture_ontology, fixture_corpus):
        dm = semantic_distance_matrix(fixture_ontology, fixture_corpus, ["gA", "gB", "gC"])
        expected = np.array([[0, 2 / 3, 1], [2 / 3, 0, 1], [1, 1, 0]])
        assert np.allclose(dm.d, expected, atol=1e-12)

    def test_single_gene(self, fixture_ontology, fixture_corpus):
        dm = semantic_distance_matrix(fixture_ontology, fixture_corpus, ["gA"])
        assert dm.d.shape == (1, 1)
        assert dm.d[0, 0] == 0.0

    def test_permutation(self, fixture_ontology, fixture_corpus):
        d1 = semantic_distance_matrix(fixture_ontology, fixture_corpus, ["gA", "gB", "gC"])
        d2 = semantic_distance_matrix(fixture_ontology, fixture_corpus, ["gC", "gA", "gB"])
        for gi in ("gA", "gB", "gC"):
            for gj in ("gA", "gB", "gC"):
                assert d1.value(gi, gj) == d2.value(gi, gj)

    def test_matrix_equals_scalar_path(self):
        onto, corpus = random_dag_corpus(seed=17, n_terms=25, n_genes=20)
        genes = corpus.genes()[:10]
        dm = semantic_distance_matrix(onto, corpus, genes)
        for i, gi in enumerate(genes):
            for j, gj in enumerate(genes):
                if i != j:
                    assert dm.d[i, j] == gene_semantic_distance(onto, corpus, gi, gj)


def sum_with_transpose(onto, corpus, genes, kind):
    """The semantic matrix from one best-match mean per gene pair, then
    ``half + half.T``."""
    terms = sorted({t for g in genes for t in corpus.direct_terms(g)})
    pos = {t: k for k, t in enumerate(terms)}
    sim = _term_sim_table(onto, corpus, terms, kind)
    idx = [[pos[t] for t in sorted(corpus.direct_terms(g))] for g in genes]
    half = np.array([[sim[np.ix_(ti, tj)].max(axis=0).mean() for tj in idx] for ti in idx])
    d = half + half.T
    d *= 0.5
    d = np.clip(1.0 - d, 0.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return d


class TestVectorizedEqualsScalar:
    """The table and the matrix are vectorized; the scalar functions are the
    oracles, and every entry must equal them exactly."""

    @pytest.fixture(scope="class")
    def dag(self):
        onto, corpus = part_of_dag_corpus(seed=11)
        sizes = {len(ts) for ts in corpus.direct.values()}
        assert min(sizes) < 8 <= max(sizes)
        assert any(
            kind == "part_of" for t in onto.terms.values() for _p, kind in t.parents
        )
        return onto, corpus

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_term_table_entries(self, dag, kind):
        onto, corpus = dag
        terms = sorted(corpus.ic)
        sim = _term_sim_table(onto, corpus, terms, kind)
        for a, ta in enumerate(terms):
            for b, tb in enumerate(terms):
                assert sim[a, b] == term_similarity(onto, corpus, ta, tb, kind)

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_matrix_entries(self, dag, kind):
        onto, corpus = dag
        genes = corpus.genes()
        dm = semantic_distance_matrix(onto, corpus, genes, kind)
        for i, gi in enumerate(genes):
            assert dm.d[i, i] == 0.0
            for j, gj in enumerate(genes):
                if i != j:
                    assert dm.d[i, j] == gene_semantic_distance(onto, corpus, gi, gj, kind)

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_matrix_same_as_sum_with_transpose(self, dag, kind):
        """Symmetrizing in place gives the bits of ``half + half.T``."""
        onto, corpus = dag
        genes = corpus.genes()
        dm = semantic_distance_matrix(onto, corpus, genes, kind)
        assert dm.d.tobytes() == sum_with_transpose(onto, corpus, genes, kind).tobytes()

    def test_table_rejects_unknown_kind(self, fixture_ontology, fixture_corpus):
        with pytest.raises(ValidationError):
            _term_sim_table(fixture_ontology, fixture_corpus, [ROOT], "wang")
        with pytest.raises(ValidationError):
            semantic_distance_matrix(fixture_ontology, fixture_corpus, ["gA"], "wang")

    @pytest.mark.parametrize("bad", ["GO:0003674", "GO:0000009"])
    def test_table_rejects_foreign_and_obsolete_terms(self, bad):
        text = (
            FIXTURE_OBO
            + "\n[Term]\nid: GO:0003674\nname: mf root\nnamespace: molecular_function\n"
            + "\n[Term]\nid: GO:0000009\nname: old\nnamespace: biological_process\n"
            + "is_obsolete: true\n"
        )
        o = parse_obo(text)
        c = build_corpus({"gA": {"GO:0000003"}}, o, BP)
        with pytest.raises(ValidationError):
            _term_sim_table(o, c, ["GO:0000003", bad], "relevance")


def reference_table(onto, corpus, terms, kind):
    """The term table as computed before painting: row ``a`` finds the
    minimum subsumer of every ``b >= a`` with one ragged min over the
    ancestor columns of those terms."""
    ics = np.array([corpus.ic[t] for t in terms])
    peak = max(corpus.ic.values())
    cols, flat, starts = _ancestor_columns(onto, corpus, terms)
    no_mica = len(cols)
    col_ic = np.array([corpus.ic[t] for t in cols] + [-1.0])
    col_rel = np.array([1.0 - math.exp(-ic) for ic in col_ic])
    ends = np.append(starts[1:], len(flat))
    u = len(terms)
    sim = np.zeros((u, u))
    shared = np.zeros(no_mica + 1, dtype=bool)
    for a in range(u):
        shared[:] = False
        shared[flat[starts[a]:ends[a]]] = True
        tail = flat[starts[a]:]
        cand = np.where(shared[tail], tail, no_mica)
        mica = np.minimum.reduceat(cand, starts[a:] - starts[a])
        ms_ic = col_ic[mica]
        if kind == "resnik_normalized":
            row = np.minimum(ms_ic / peak, 1.0) if peak != 0.0 else np.zeros(u - a)
        else:
            denom = ics[a] + ics[a:]
            with np.errstate(divide="ignore", invalid="ignore"):
                row = 2.0 * ms_ic / denom
            if kind == "relevance":
                row = row * col_rel[mica]
            row = np.where(denom == 0.0, 0.0, np.minimum(row, 1.0))
        sim[a, a:] = row
        sim[a:, a] = row
    return sim


def godag_corpus(seed: int):
    """The GO-shaped DAG of the benchmark generator, its corpus and A genes."""
    with tempfile.TemporaryDirectory() as tmp:
        files = perfbench_godag().write_godag(seed, Path(tmp))
        onto = parse_obo(files["obo"].read_bytes())
        corpus = load_annotations(files["annotations"].read_bytes(), onto, BP)
        genes = load_expression(files["expression_a"].read_text()).genes
    return onto, corpus, genes


def synth_corpus(seed: int):
    ds = make_dataset(seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        files = write_dataset(ds, Path(tmp))
        onto = parse_obo(files["obo"].read_bytes())
        corpus = load_annotations(files["annotations"].read_bytes(), onto, BP)
    return onto, corpus, corpus.genes()


class TestPaintedTable:
    """The painted term table against the row loop it replaced, bit for bit."""

    @pytest.fixture(scope="class", params=["synth", "godag", "part_of", "ties"])
    def case(self, request):
        if request.param == "synth":
            onto, corpus, genes = synth_corpus(5)
        elif request.param == "godag":
            onto, corpus, genes = godag_corpus(2)
        elif request.param == "part_of":
            onto, corpus = part_of_dag_corpus(seed=11)
            genes = corpus.genes()
        else:  # a term of probability 1 ties the root's IC
            onto, corpus = random_dag_corpus(seed=4)
            genes = corpus.genes()
        terms = sorted({t for g in genes for t in corpus.direct_terms(g)})
        return onto, corpus, terms

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_equals_row_loop(self, case, kind):
        onto, corpus, terms = case
        sim = _term_sim_table(onto, corpus, terms, kind)
        assert sim.tobytes() == reference_table(onto, corpus, terms, kind).tobytes()

    def test_ic_ties_present(self, case):
        """Columns of equal IC, whose order falls to the term id."""
        onto, corpus, terms = case
        cols, _flat, _starts = _ancestor_columns(onto, corpus, terms)
        ics = [corpus.ic[t] for t in cols]
        assert len(set(ics)) < len(ics)

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    @pytest.mark.parametrize("u", [1, 2])
    def test_one_and_two_terms(self, kind, u):
        onto, corpus = part_of_dag_corpus(seed=11)
        for start in range(0, len(corpus.ic) - u, 7):
            terms = sorted(corpus.ic)[start:start + u]
            sim = _term_sim_table(onto, corpus, terms, kind)
            assert sim.shape == (u, u)
            assert sim.tobytes() == reference_table(onto, corpus, terms, kind).tobytes()

    def test_no_terms(self, fixture_ontology, fixture_corpus):
        assert _term_sim_table(fixture_ontology, fixture_corpus, [], "relevance").shape == (0, 0)

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_pairs_sharing_only_ancestors_without_ic(self, kind):
        """Without the root's IC, terms of different branches share no
        ancestor with an IC and take the sentinel's value."""
        onto, corpus = random_dag_corpus(seed=4)
        ic = {t: v for t, v in corpus.ic.items() if t != ROOT}
        corpus = dataclasses.replace(corpus, ic=ic)
        terms = sorted(ic)
        sim = _term_sim_table(onto, corpus, terms, kind)
        assert sim.tobytes() == reference_table(onto, corpus, terms, kind).tobytes()
        disjoint = [
            (a, b)
            for a, ta in enumerate(terms)
            for b, tb in enumerate(terms)
            if not (onto.ancestors(ta) & onto.ancestors(tb)) & ic.keys()
        ]
        assert disjoint
        peak = max(ic.values())
        for a, b in disjoint:
            fallback = _sim_from_ic(-1.0, ic[terms[a]], ic[terms[b]], kind, peak)
            assert sim[a, b] == fallback


@pytest.mark.parametrize("kind", SIMILARITY_KINDS)
@pytest.mark.parametrize("source", ["synth", "godag"])
def test_gene_fill_across_blocks_same_as_sum_with_transpose(source, kind):
    """The gene fill's blocks of genes, 180 genes here, change no bit."""
    onto, corpus, genes = synth_corpus(2) if source == "synth" else godag_corpus(3)
    dm = semantic_distance_matrix(onto, corpus, genes, kind)
    assert dm.d.tobytes() == sum_with_transpose(onto, corpus, genes, kind).tobytes()
