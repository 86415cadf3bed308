import itertools
import json
import math

import numpy as np
import pytest

from gofusion.annotations import build_corpus
from gofusion.clustering import Cluster, Partition
from gofusion.enrichment import InferredAnnotation
from gofusion.errors import AlignmentError, UnknownIdError
from gofusion.expression import DistanceMatrix
from gofusion.metrics import (
    MetricReport,
    bc,
    bhi,
    fowlkes_mallows,
    label_counts,
    popular_terms,
    recall_inferred,
    semantic_compactness,
)
from gofusion.semantic import semantic_distance_matrix

from conftest import BP


def part(*clusters):
    return Partition(tuple(clusters))


def toy_distance(values: dict[tuple[str, str], float], genes: tuple[str, ...]):
    n = len(genes)
    d = np.zeros((n, n))
    for (a, b), v in values.items():
        i, j = genes.index(a), genes.index(b)
        d[i, j] = d[j, i] = v
    return DistanceMatrix(genes, d)


class TestSemanticCompactness:
    def test_identical_annotation_neighbor(self, fixture_ontology):
        # assigned gene and an annotated co-member share the identical set
        # {GO:0000002}; with p(GO:0000002) = 1/3 the self-similarity identity
        # gives SC = d_GO = 1 - (1 - 1/3) = 1/3
        direct = {"a1": {"GO:0000002"}, "b1": {"GO:0000002"}}
        direct |= {f"x{i}": {"GO:0000003"} for i in range(4)}
        corpus = build_corpus(direct, fixture_ontology, BP)
        assert corpus.prop_count["GO:0000002"] == 2 and corpus.gene_universe_size == 6
        genes = sorted(direct)
        d_go = semantic_distance_matrix(fixture_ontology, corpus, genes)
        p = part(Cluster("a1", frozenset({"a1"}), frozenset({"b1"})))
        assert semantic_compactness(p, d_go) == pytest.approx(1 / 3)

    def test_mean_over_assigned(self):
        genes = ("a1", "a2", "b1", "b2")
        d = toy_distance({("a1", "b1"): 0.2, ("a2", "b2"): 0.4, ("a1", "b2"): 0.9, ("a2", "b1"): 0.9}, genes)
        p = part(
            Cluster("a1", frozenset({"a1"}), frozenset({"b1"})),
            Cluster("a2", frozenset({"a2"}), frozenset({"b2"})),
        )
        assert semantic_compactness(p, d) == pytest.approx(0.3)

    def test_minimum_within_cluster(self):
        genes = ("a1", "a2", "b1")
        d = toy_distance({("a1", "b1"): 0.7, ("a2", "b1"): 0.3, ("a1", "a2"): 0.5}, genes)
        p = part(Cluster("a1", frozenset({"a1", "a2"}), frozenset({"b1"})))
        assert semantic_compactness(p, d) == pytest.approx(0.3)

    def test_unscorable_raises(self):
        genes = ("a1", "b1")
        d = toy_distance({("a1", "b1"): 0.7}, genes)
        p = part(
            Cluster("a1", frozenset({"a1"})),
        )
        with pytest.raises(AlignmentError):
            semantic_compactness(p, d)


class TestBHI:
    def corpus(self, fixture_ontology, sets):
        return build_corpus(sets, fixture_ontology, BP)

    def test_all_share(self, fixture_ontology):
        c = self.corpus(fixture_ontology, {g: {"GO:0000003"} for g in "xyz"})
        p = part(Cluster("x", frozenset("xyz")))
        assert bhi(p, c) == 1.0

    def test_disjoint(self, fixture_ontology):
        c = self.corpus(
            fixture_ontology,
            {"x": {"GO:0000003"}, "y": {"GO:0000002"}, "z": {"GO:0000001"}},
        )
        p = part(Cluster("x", frozenset("xyz")))
        assert bhi(p, c) == 0.0

    def test_mean_over_clusters(self, fixture_ontology):
        c = self.corpus(
            fixture_ontology,
            {"x": {"GO:0000003"}, "y": {"GO:0000003"}, "u": {"GO:0000002"}, "v": {"GO:0000001"}},
        )
        p = part(
            Cluster("x", frozenset({"x", "y"})),
            Cluster("u", frozenset({"u", "v"})),
        )
        assert bhi(p, c) == pytest.approx(0.5)

    def test_singleton_contributes_zero(self, fixture_ontology):
        c = self.corpus(fixture_ontology, {"x": {"GO:0000003"}, "y": {"GO:0000003"}})
        p = part(
            Cluster("x", frozenset({"x", "y"})),
            Cluster("y2", frozenset({"y2"})) if False else Cluster("x2", frozenset({"x2"})),
        )
        # second cluster is a singleton with an unannotated gene
        assert bhi(p, c) == pytest.approx(0.5)

    def test_relabeling_invariance(self, fixture_ontology):
        c = self.corpus(
            fixture_ontology,
            {"x": {"GO:0000003"}, "y": {"GO:0000003"}, "u": {"GO:0000002"}, "v": {"GO:0000001"}},
        )
        p1 = part(Cluster("x", frozenset({"x", "y"})), Cluster("u", frozenset({"u", "v"})))
        p2 = part(Cluster("u", frozenset({"u", "v"})), Cluster("x", frozenset({"x", "y"})))
        assert bhi(p1, c) == bhi(p2, c)


class TestBC:
    def test_fixture_pair(self, fixture_ontology, fixture_corpus):
        d_go = semantic_distance_matrix(fixture_ontology, fixture_corpus, ["gA", "gB", "gC"])
        p = part(Cluster("gA", frozenset({"gA", "gB"})))
        assert bc(p, d_go) == pytest.approx(2 / 3)

    def test_maximally_distant(self):
        genes = ("x", "y", "z")
        d = toy_distance({("x", "y"): 1.0, ("x", "z"): 1.0, ("y", "z"): 1.0}, genes)
        p = part(Cluster("x", frozenset(genes)))
        assert bc(p, d) == 1.0

    def test_mean_over_clusters(self):
        genes = ("x", "y", "u", "v")
        d = toy_distance({("x", "y"): 0.2, ("u", "v"): 0.6}, genes)
        p = part(Cluster("x", frozenset({"x", "y"})), Cluster("u", frozenset({"u", "v"})))
        assert bc(p, d) == pytest.approx(0.4)

    def test_merging_distant_clusters_never_decreases(self):
        genes = ("x", "y", "u", "v")
        d = toy_distance(
            {("x", "y"): 0.1, ("u", "v"): 0.1, ("x", "u"): 1.0, ("x", "v"): 1.0,
             ("y", "u"): 1.0, ("y", "v"): 1.0},
            genes,
        )
        split = part(Cluster("x", frozenset({"x", "y"})), Cluster("u", frozenset({"u", "v"})))
        merged = part(Cluster("x", frozenset(genes)))
        assert bc(merged, d) >= bc(split, d)


def all_set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in all_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | {head}] + sub[i + 1 :]
        yield sub + [{head}]


def labels_from(blocks):
    return {g: i for i, block in enumerate(blocks) for g in block}


def fm_pair_counting(cp, cq):
    genes = sorted(cp)
    t = p = q = 0
    for a, b in itertools.combinations(genes, 2):
        same_p = cp[a] == cp[b]
        same_q = cq[a] == cq[b]
        p += same_p
        q += same_q
        t += same_p and same_q
    if p == 0 or q == 0:
        return 0.0
    return t / math.sqrt(p * q)


class TestFowlkesMallows:
    def test_identical_is_exactly_one(self):
        cp = {"a": 0, "b": 0, "c": 1, "d": 1}
        assert fowlkes_mallows(cp, dict(cp)) == (1.0, False)

    def test_hand_contingency_zero(self):
        cp = labels_from([{"1", "2"}, {"3", "4"}])
        cq = labels_from([{"1", "3"}, {"2", "4"}])
        assert fowlkes_mallows(cp, cq) == (0.0, False)

    def test_singletons_degenerate(self):
        cp = {"a": 0, "b": 1, "c": 2}
        cq = {"a": 0, "b": 0, "c": 1}
        assert fowlkes_mallows(cp, cq) == (0.0, True)

    def test_symmetry(self):
        cp = labels_from([{"a", "b"}, {"c", "d", "e"}])
        cq = labels_from([{"a", "c"}, {"b", "d"}, {"e"}])
        assert fowlkes_mallows(cp, cq).value == fowlkes_mallows(cq, cp).value

    def test_gene_mismatch(self):
        with pytest.raises(AlignmentError):
            fowlkes_mallows({"a": 0, "b": 0}, {"a": 0, "c": 0})

    def test_matches_pair_counting_on_partitions_of_five(self):
        items = ["a", "b", "c", "d", "e"]
        partitions = [labels_from(bs) for bs in all_set_partitions(items)]
        for cp, cq in itertools.product(partitions[:12], partitions[:12]):
            got = fowlkes_mallows(cp, cq)
            want = fm_pair_counting(cp, cq)
            assert got.value == pytest.approx(want, abs=1e-12)


class TestRecall:
    def rec(self, gene, terms):
        return InferredAnnotation(gene, tuple((t, 0.01) for t in terms), 0)

    def test_half_recovered(self):
        r = self.rec("g", ["GO:0000001", "GO:0000002"])
        truth = {"g": frozenset({"GO:0000002", "GO:0000003"})}
        assert recall_inferred([r], truth) == pytest.approx(0.5)

    def test_superset_is_one(self):
        r = self.rec("g", ["GO:0000001", "GO:0000002", "GO:0000003"])
        truth = {"g": frozenset({"GO:0000002"})}
        assert recall_inferred([r], truth) == 1.0

    def test_exclusion_drops_matched_term(self):
        r = self.rec("g", ["GO:0000002"])
        truth = {"g": frozenset({"GO:0000002", "GO:0000003"})}
        full = recall_inferred([r], truth)
        excl = recall_inferred([r], truth, exclude=frozenset({"GO:0000002"}))
        assert full == pytest.approx(0.5)
        assert excl == 0.0

    def test_brute_force_toy(self):
        recs = [
            self.rec("g1", ["GO:0000001"]),
            self.rec("g2", ["GO:0000002", "GO:0000003"]),
            self.rec("g3", []),
            self.rec("g4", ["GO:0000001", "GO:0000003"]),
            self.rec("g5", ["GO:0000002"]),
        ]
        truth = {
            "g1": frozenset({"GO:0000001", "GO:0000002"}),
            "g2": frozenset({"GO:0000003"}),
            "g3": frozenset({"GO:0000001"}),
            "g4": frozenset({"GO:0000003"}),
            "g5": frozenset({"GO:0000001"}),
        }
        expected = np.mean([1 / 2, 1.0, 0.0, 1.0, 0.0])
        assert recall_inferred(recs, truth) == pytest.approx(expected)

    def test_monotone_as_terms_added(self):
        truth = {"g": frozenset({"GO:0000001", "GO:0000002", "GO:0000003"})}
        prev = 0.0
        terms = []
        for t in ["GO:0000009", "GO:0000001", "GO:0000002"]:
            terms.append(t)
            cur = recall_inferred([self.rec("g", terms)], truth)
            assert cur >= prev
            prev = cur

    def test_missing_truth(self):
        with pytest.raises(UnknownIdError):
            recall_inferred([self.rec("g", ["GO:0000001"])], {})

    def test_all_skipped_is_nan(self):
        r = self.rec("g", ["GO:0000001"])
        truth = {"g": frozenset({"GO:0000002"})}
        out = recall_inferred([r], truth, exclude=frozenset({"GO:0000002"}))
        assert math.isnan(out)


class TestLabelCounts:
    def test_fixture_counts(self, fixture_ontology, fixture_corpus):
        counts = label_counts(fixture_corpus, {"gA", "gB", "gC"}, fixture_ontology)
        assert [(t, n) for t, _nm, n in counts] == [("GO:0000003", 2), ("GO:0000002", 1)]
        assert counts[0][1] == "leaf"

    def test_empty_genes(self, fixture_corpus):
        assert label_counts(fixture_corpus, set()) == []

    def test_threshold_above_max(self, fixture_corpus):
        counts = label_counts(fixture_corpus, {"gA", "gB", "gC"})
        assert popular_terms(counts, threshold=5) == frozenset()
        assert popular_terms(counts, threshold=1) == frozenset({"GO:0000003"})


class TestMetricReport:
    def test_json_keys_and_nan(self):
        rep = MetricReport(sc=float("nan"), bhi=0.5, popular_labels=[("GO:0000001", 7)])
        payload = json.loads(rep.to_json())
        assert set(payload) == {
            "sc", "bhi", "bc", "fm", "recall", "recall_no_popular", "popular_labels",
        }
        assert payload["sc"] is None
        assert payload["bhi"] == 0.5
        assert payload["popular_labels"] == [["GO:0000001", 7]]
