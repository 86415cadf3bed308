import itertools
from unittest import mock

import numpy as np
import pytest

from gofusion import enrichment
from gofusion.annotations import build_corpus
from gofusion.clustering import Cluster, Partition
from gofusion.enrichment import (
    EnrichmentRecord,
    benjamini_hochberg,
    enrich_cluster,
    enrich_partition,
    export_term_graph,
    hypergeom_tail,
    infer_functions,
    read_inferred_tsv,
    write_enrichment_tsv,
    write_inferred_tsv,
    InferredAnnotation,
)
from gofusion.errors import ConfigError, UnknownIdError
from gofusion.synth import make_dataset

from conftest import BP


def brute_force_tail(N, K, n, k):
    """Enumerate all C(N, n) draws; first K items are the successes."""
    total = 0
    hits = 0
    successes = set(range(K))
    for draw in itertools.combinations(range(N), n):
        total += 1
        if len(successes.intersection(draw)) >= k:
            hits += 1
    return hits / total


class TestHypergeomTail:
    def test_closed_form_example(self):
        assert abs(hypergeom_tail(10, 4, 3, 3) - 1 / 30) < 1e-15

    def test_k_zero_is_one(self):
        assert hypergeom_tail(10, 4, 3, 0) == 1.0

    def test_cluster_equals_background(self):
        assert hypergeom_tail(10, 4, 10, 4) == 1.0

    def test_brute_force_small(self):
        for N in (5, 8):
            for K in range(N + 1):
                for n in range(1, N + 1):
                    for k in range(0, min(n, K) + 1):
                        got = hypergeom_tail(N, K, n, k)
                        want = brute_force_tail(N, K, n, k)
                        assert abs(got - want) < 1e-12

    def test_monotone_in_k(self):
        for N, K, n in ((20, 7, 9), (15, 10, 5)):
            prev = 1.0 + 1e-15
            for k in range(0, min(n, K) + 1):
                p = hypergeom_tail(N, K, n, k)
                assert p <= prev
                prev = p

    def test_invalid_counts(self):
        with pytest.raises(ConfigError):
            hypergeom_tail(5, 7, 2, 1)


class TestBenjaminiHochberg:
    def test_adjusted_at_least_raw(self):
        ps = [0.01, 0.04, 0.03, 0.9, 0.2]
        adj = benjamini_hochberg(ps)
        assert all(a >= p for a, p in zip(adj, ps))
        assert all(a <= 1.0 for a in adj)

    def test_passing_subset(self):
        ps = [0.001, 0.02, 0.04, 0.06, 0.5]
        adj = benjamini_hochberg(ps)
        alpha = 0.05
        assert {i for i, a in enumerate(adj) if a <= alpha} <= {
            i for i, p in enumerate(ps) if p <= alpha
        }

    def test_monotone_in_rank(self):
        ps = [0.5, 0.01, 0.3, 0.02]
        adj = benjamini_hochberg(ps)
        order = sorted(range(4), key=lambda i: ps[i])
        assert all(
            adj[order[i]] <= adj[order[i + 1]] for i in range(3)
        )


@pytest.fixture(scope="module")
def enrich_setup(fixture_ontology):
    # ten genes; four annotated to the rare branch term, the rest elsewhere
    direct = {}
    for i in range(4):
        direct[f"g{i}"] = {"GO:0000003"}
    for i in range(4, 10):
        direct[f"g{i}"] = {"GO:0000002"}
    corpus = build_corpus(direct, fixture_ontology, BP)
    background = set(direct)
    return corpus, background


class TestEnrichCluster:
    def test_known_p_value(self, enrich_setup):
        corpus, background = enrich_setup
        cl = Cluster("g0", frozenset({"g0", "g1", "g2"}), frozenset({"b0"}))
        records = enrich_cluster(cl, background, corpus, alpha=1.0)
        by_term = {r.term: r for r in records}
        rec = by_term["GO:0000003"]
        assert rec.p_value == pytest.approx(1 / 30)
        assert (rec.in_cluster, rec.in_background) == (3, 4)
        assert (rec.cluster_size, rec.background_size) == (3, 10)

    def test_alpha_filters(self, enrich_setup):
        corpus, background = enrich_setup
        cl = Cluster("g0", frozenset({"g0", "g1", "g2"}))
        records = enrich_cluster(cl, background, corpus, alpha=0.05)
        assert [r.term for r in records] == ["GO:0000003"]

    def test_ordering_strict(self, enrich_setup):
        corpus, background = enrich_setup
        cl = Cluster("g0", frozenset({"g0", "g1", "g4"}))
        records = enrich_cluster(cl, background, corpus, alpha=1.0)
        keys = [(r.p_value, r.term) for r in records]
        assert keys == sorted(keys)

    def test_bh_never_passes_more(self, enrich_setup):
        corpus, background = enrich_setup
        cl = Cluster("g0", frozenset({"g0", "g1", "g2", "g4"}))
        plain = enrich_cluster(cl, background, corpus, alpha=0.2, correction="none")
        bh = enrich_cluster(cl, background, corpus, alpha=0.2, correction="benjamini_hochberg")
        assert {r.term for r in bh} <= {r.term for r in plain}

    def test_empty_cluster_unconstructable(self):
        from gofusion.errors import ValidationError

        with pytest.raises(ValidationError):
            Cluster("g0", frozenset())

    def test_background_must_contain_cluster(self, enrich_setup):
        corpus, _ = enrich_setup
        cl = Cluster("g0", frozenset({"g0", "g1"}))
        with pytest.raises(ConfigError):
            enrich_cluster(cl, {"g0"}, corpus)


class TestInferFunctions:
    def partition(self):
        return Partition(
            clusters=(
                Cluster("g0", frozenset({"g0", "g1", "g2"}), frozenset({"b0", "b1"})),
                Cluster("g4", frozenset({"g4", "g5"}), frozenset({"b2"})),
            ),
        )

    def test_same_cluster_same_terms(self, enrich_setup):
        corpus, background = enrich_setup
        inferred = infer_functions(self.partition(), background, corpus, alpha=0.05)
        by_gene = {r.gene: r for r in inferred}
        assert by_gene["b0"].terms == by_gene["b1"].terms
        assert by_gene["b0"].terms[0][0] == "GO:0000003"

    def test_no_enrichment_flagged(self, enrich_setup):
        corpus, background = enrich_setup
        inferred = infer_functions(self.partition(), background, corpus, alpha=1e-9)
        assert all(r.terms == () for r in inferred)

    @pytest.mark.parametrize("alpha", [1.0, 1e-9], ids=["enriched", "nothing-passes"])
    def test_inferred_tsv_round_trip(self, enrich_setup, alpha):
        corpus, background = enrich_setup
        part = self.partition()
        inferred = infer_functions(part, background, corpus, alpha=alpha)
        text = write_inferred_tsv(inferred)
        back = read_inferred_tsv(text, part.labels("b"))
        assert write_inferred_tsv(back) == text
        assert [(r.gene, r.cluster_index, bool(r.terms)) for r in back] == [
            (r.gene, r.cluster_index, bool(r.terms))
            for r in sorted(inferred, key=lambda r: r.gene)
        ]

    def test_tsv_shapes(self, enrich_setup):
        corpus, background = enrich_setup
        part = self.partition()
        rows = enrich_partition(part, background, corpus, alpha=1.0)
        text = write_enrichment_tsv(rows)
        assert text.splitlines()[0].startswith("cluster_index\tterm_id")
        inferred = infer_functions(part, background, corpus, alpha=1.0)
        itext = write_inferred_tsv(inferred)
        assert itext.splitlines()[0] == "gene_id\tterm_id\tp_value\tcluster_index"


class TestTermGraph:
    def test_empty_graph_valid(self, fixture_ontology):
        dot = export_term_graph([], None, fixture_ontology)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"GO:' not in dot

    def test_matching_term_styles(self, fixture_ontology):
        inferred = [
            InferredAnnotation("b0", (("GO:0000003", 0.01),), 0)
        ]
        truth = {"b0": frozenset({"GO:0000003"})}
        dot = export_term_graph(inferred, truth, fixture_ontology)
        assert "shape=ellipse, style=bold" in dot
        node_line = [l for l in dot.splitlines() if l.startswith('  "GO:0000003"')][0]
        assert "ellipse" in node_line
        # ancestors pulled in as context
        assert '"GO:0000001"' in dot and '"GO:0008150"' in dot

    def test_truth_only_thick(self, fixture_ontology):
        inferred = [InferredAnnotation("b0", (("GO:0000002", 0.01),), 0)]
        truth = {"b0": frozenset({"GO:0000003"})}
        dot = export_term_graph(inferred, truth, fixture_ontology)
        truth_line = [l for l in dot.splitlines() if l.startswith('  "GO:0000003"')][0]
        assert "penwidth=3" in truth_line
        inf_line = [l for l in dot.splitlines() if l.startswith('  "GO:0000002"')][0]
        assert "dashed" in inf_line

    def test_edges_match_dag_restriction(self, fixture_ontology):
        inferred = [InferredAnnotation("b0", (("GO:0000003", 0.01),), 0)]
        dot = export_term_graph(inferred, None, fixture_ontology)
        edges = {l.strip() for l in dot.splitlines() if "->" in l}
        assert edges == {
            '"GO:0000001" -> "GO:0008150";',
            '"GO:0000003" -> "GO:0000001";',
        }

    def test_unknown_term_rejected(self, fixture_ontology):
        inferred = [InferredAnnotation("b0", (("GO:7654321", 0.01),), 0)]
        with pytest.raises(UnknownIdError):
            export_term_graph(inferred, None, fixture_ontology)


def reference_enrich_cluster(cluster, background, c, alpha, correction):
    """``enrich_cluster`` as written before the background counts were
    hoisted: the whole background is recounted on every call."""
    members = sorted(cluster.members_a)
    bg = sorted(background)
    n, N = len(members), len(bg)
    cluster_counts, bg_counts = {}, {}
    for g in members:
        for t in c.direct_terms(g):
            cluster_counts[t] = cluster_counts.get(t, 0) + 1
    for g in bg:
        for t in c.direct.get(g, ()):
            bg_counts[t] = bg_counts.get(t, 0) + 1
    terms = sorted(cluster_counts)
    raw = [hypergeom_tail(N, bg_counts[t], n, cluster_counts[t]) for t in terms]
    final = benjamini_hochberg(raw) if correction == "benjamini_hochberg" else raw
    records = [
        EnrichmentRecord(t, p, cluster_counts[t], bg_counts[t], n, N)
        for t, p in zip(terms, final)
        if p <= alpha
    ]
    records.sort(key=lambda r: (r.p_value, r.term))
    return records


class TestBackgroundCounts:
    @pytest.fixture(scope="class")
    def synth_case(self):
        corpus = make_dataset(seed=2).corpus_a()
        genes = corpus.genes()
        # runs of sorted ids share a subgroup, so most clusters have passing terms
        labels = np.arange(len(genes)) * 12 // len(genes)
        clusters = []
        for k in range(12):
            members = frozenset(g for g, lab in zip(genes, labels) if lab == k)
            if members:
                b = frozenset(f"b{k}_{i}" for i in range(k % 3))  # some clusters get none
                clusters.append(Cluster(min(members), members, b))
        # background genes without annotations are counted as such
        background = set(genes) | {"unannotated0", "unannotated1"}
        return Partition(tuple(clusters)), background, corpus

    @pytest.mark.parametrize("correction", ["none", "benjamini_hochberg"])
    def test_records_equal_recounting_reference(self, synth_case, correction):
        part, background, corpus = synth_case
        expected = [
            (i, r)
            for i, cl in enumerate(part.clusters)
            if cl.members_b
            for r in reference_enrich_cluster(cl, background, corpus, 0.2, correction)
        ]
        assert len({i for i, _ in expected}) > 1
        assert enrich_partition(part, background, corpus, 0.2, correction) == expected
        inferred = infer_functions(part, background, corpus, 0.2, correction)
        terms = {i: tuple((r.term, r.p_value) for _, r in group)
                 for i, group in itertools.groupby(expected, key=lambda ir: ir[0])}
        assert inferred and all(rec.terms == terms.get(rec.cluster_index, ()) for rec in inferred)

    @pytest.mark.parametrize("run", [enrich_partition, infer_functions])
    def test_one_count_per_pass(self, synth_case, run):
        part, background, corpus = synth_case
        with mock.patch.object(
            enrichment, "background_counts", wraps=enrichment.background_counts
        ) as counts, mock.patch.object(
            enrichment, "enrich_cluster", wraps=enrichment.enrich_cluster
        ) as per_cluster:
            run(part, background, corpus, 0.2)
        assert counts.call_count == 1
        assert per_cluster.call_count == sum(1 for cl in part.clusters if cl.members_b)
