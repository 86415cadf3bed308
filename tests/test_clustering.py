import tracemalloc

import numpy as np
import pytest

from gofusion.clustering import (
    Cluster,
    Partition,
    assign_b,
    assigned_subpartition,
    build_medoids,
    cluster_a,
    initial_medoid,
    partition_cost,
    read_partition_tsv,
    swap_refine,
    write_partition_tsv,
)
from gofusion.errors import ConfigError, ParseError, ValidationError
from gofusion.expression import DistanceMatrix

from conftest import mirrored, random_distance_matrix, reference_build, reference_swap


def dm_from(points):
    pts = np.asarray(points, dtype=float)
    d = np.abs(pts[:, None] - pts[None, :])
    peak = d.max()
    if peak > 0:
        d = d / peak
    genes = tuple(f"g{i}" for i in range(len(pts)))
    return DistanceMatrix(genes, d)


class TestSeedAndBuild:
    def test_seed_is_middle_point(self):
        p = cluster_a(dm_from([0.0, 1.0, 2.0]), k=1)
        assert p.clusters[0].medoid == "g1"

    def test_k_equals_n(self):
        dm = dm_from([0.0, 1.0, 2.0, 5.0])
        p = cluster_a(dm, k=4)
        assert partition_cost(dm.d, [dm.index_of(cl.medoid) for cl in p.clusters]) == 0.0
        assert sorted(cl.medoid for cl in p.clusters) == list(dm.genes)

    def test_pam_build_prefers_cost_reduction(self):
        # two tight groups; pam_build's second medoid lands in the far group
        dm = dm_from([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])
        meds = build_medoids(dm.d, 2)
        assert {m // 3 for m in meds} == {0, 1}

    def test_tie_goes_to_smallest_index(self):
        d = np.array(
            [
                [0.0, 0.5, 0.5],
                [0.5, 0.0, 0.5],
                [0.5, 0.5, 0.0],
            ]
        )
        dm = DistanceMatrix(("a", "b", "c"), d)
        p = cluster_a(dm, k=1)
        assert p.clusters[0].medoid == "a"


class TestSwap:
    def test_swap_never_increases_cost_random(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            dm = random_distance_matrix(rng, 8)
            built = build_medoids(dm.d, 2)
            refined = swap_refine(dm.d, built)
            assert partition_cost(dm.d, refined) <= partition_cost(dm.d, built) + 1e-15

    def test_single_swap_local_optimality(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            dm = random_distance_matrix(rng, 7)
            meds = swap_refine(dm.d, build_medoids(dm.d, 3))
            base = partition_cost(dm.d, meds)
            for m in meds:
                for g in range(7):
                    if g in meds:
                        continue
                    alt = [x for x in meds if x != m] + [g]
                    assert partition_cost(dm.d, alt) >= base - 1e-15

    def test_members_sit_with_nearest_medoid(self):
        rng = np.random.default_rng(79)
        dm = random_distance_matrix(rng, 10)
        p = cluster_a(dm, k=3)
        med_idx = {cl.medoid: dm.index_of(cl.medoid) for cl in p.clusters}
        for ci, cl in enumerate(p.clusters):
            for g in cl.members_a:
                gi = dm.index_of(g)
                own = dm.d[gi, med_idx[cl.medoid]]
                best = min(dm.d[gi, mi] for mi in med_idx.values())
                assert own == best

    def test_determinism(self):
        rng = np.random.default_rng(80)
        dm = random_distance_matrix(rng, 12)
        p1 = cluster_a(dm, k=4)
        p2 = cluster_a(dm, k=4)
        assert p1 == p2


def oracle_matrix(rng, n, kind):
    """Symmetric zero-diagonal [0, 1] matrix: uniform, quantized to a few
    levels (many ties), or from points with duplicates (zero off-diagonal)."""
    if kind == "points":
        pts = rng.integers(0, 4, size=(n, 2)).astype(float)
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        return d / d.max() if d.max() > 0 else d
    iu = np.triu_indices(n, k=1)
    vals = rng.uniform(0.0, 1.0, size=len(iu[0]))
    if kind == "quantized":
        vals = np.round(vals * 3) / 3
    d = np.zeros((n, n))
    d[iu] = vals
    return d + d.T


class TestOracle:
    """The incremental build and swap return exactly what the from-scratch
    versions in conftest return."""

    def test_same_medoids_as_reference(self):
        """The swap starts from the built medoids and from two random sets;
        the second set comes from its own generator, so the matrices and
        the first set are drawn as before."""
        rng = np.random.default_rng(2019)
        starts = np.random.default_rng(2119)
        for kind in ("uniform", "quantized", "points"):  # 600 matrices in all
            for _ in range(200):
                n = int(rng.integers(2, 16))
                d = oracle_matrix(rng, n, kind)
                for k in sorted({1, n - 1, n, int(rng.integers(1, n + 1))}):
                    built = build_medoids(d, k)
                    assert built == reference_build(d, k)
                    randoms = [rng.choice(n, size=k, replace=False),
                               starts.choice(n, size=k, replace=False)]
                    for start in (built, *(sorted(r.tolist()) for r in randoms)):
                        d_before = d.copy()
                        assert swap_refine(d, start) == reference_swap(d, start)
                        assert np.array_equal(d, d_before)


    def test_build_sums_over_all_rows_keep_the_bits(self):
        """``pam_build`` sums its gains over every row, the medoids' rows
        included: those add zeros, and every round's scores equal the sums
        over the other rows alone, bit for bit."""
        rng = np.random.default_rng(2020)
        cases = [oracle_matrix(rng, int(rng.integers(2, 16)), kind)
                 for kind in ("uniform", "quantized", "points") for _ in range(100)]
        cases.append(oracle_matrix(rng, 200, "quantized"))
        for d in cases:
            n, k = len(d), min(len(d), 60)
            medoids = [initial_medoid(d)]
            nearest = d[:, medoids[0]].copy()
            while len(medoids) < k:
                rest = np.ones(n, dtype=bool)
                rest[medoids] = False
                every = np.maximum(nearest[:, None] - d, 0.0).sum(axis=0)
                others = np.maximum(nearest[rest, None] - d[rest], 0.0).sum(axis=0)
                assert every.tobytes() == others.tobytes()
                scores = every - np.maximum(nearest, 0.0)
                scores[medoids] = -np.inf
                medoids.append(int(scores.argmax()))
                np.minimum(nearest, d[:, medoids[-1]], out=nearest)
            assert build_medoids(d, k) == medoids

    def test_same_medoids_with_signed_zeros(self):
        """-0.0 entries, the diagonal's included: a nearest distance can turn
        from 0.0 to -0.0, a change of bits but not of value, and the build
        does not recompute that row's gains.  The swap also starts from a
        random set, drawn from its own generator."""
        rng = np.random.default_rng(2021)
        starts = np.random.default_rng(2121)
        for kind in ("quantized", "points"):
            for _ in range(150):
                n = int(rng.integers(2, 16))
                d = oracle_matrix(rng, n, kind)
                upper = np.triu(rng.random((n, n)) < 0.5) & (d == 0.0)
                d = mirrored(np.where(upper, -0.0, d)).d
                assert np.signbit(d).any() or not upper.any()
                for k in sorted({1, n - 1, n, int(rng.integers(1, n + 1))}):
                    built = build_medoids(d, k)
                    assert built == reference_build(d, k)
                    start = sorted(starts.choice(n, size=k, replace=False).tolist())
                    for meds in (built, start):
                        assert swap_refine(d, meds) == reference_swap(d, meds)

    def test_build_holds_one_gains_buffer(self):
        """``pam_build`` reuses one n x n buffer for its gains in every round."""
        d = random_distance_matrix(np.random.default_rng(12), 400).d
        tracemalloc.start()
        try:
            build_medoids(d, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d.nbytes

class TestValidation:
    def test_k_out_of_range(self):
        dm = dm_from([0.0, 1.0, 2.0])
        with pytest.raises(ConfigError):
            cluster_a(dm, k=0)
        with pytest.raises(ConfigError):
            cluster_a(dm, k=4)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            DistanceMatrix(("a", "b"), np.array([[0.0, np.nan], [np.nan, 0.0]]))

    @pytest.mark.parametrize("k", [0, 4])
    def test_build_k_out_of_range(self, k):
        with pytest.raises(ConfigError, match="out of range"):
            build_medoids(dm_from([0.0, 1.0, 2.0]).d, k)

    def test_medoid_must_be_member(self):
        with pytest.raises(ValidationError):
            Cluster(medoid="x", members_a=frozenset({"y"}))


class TestAssignB:
    @staticmethod
    def two_cluster_partition():
        return Partition(
            clusters=(
                Cluster("a0", frozenset({"a0", "a1"})),
                Cluster("a2", frozenset({"a2", "a3"})),
            ),
        )

    @staticmethod
    def expr_distance(b_rows):
        genes = ("a0", "a1", "a2", "a3") + tuple(b_rows)
        pts = {"a0": 0.0, "a1": 1.0, "a2": 10.0, "a3": 11.0} | b_rows
        vals = np.array([pts[g] for g in genes])
        d = np.abs(vals[:, None] - vals[None, :])
        return DistanceMatrix(genes, d / d.max())

    def test_equidistant_tie_lowest_cluster(self):
        d = self.expr_distance({"b0": 5.0})
        p = assign_b(self.two_cluster_partition(), d)
        assert "b0" in p.clusters[0].members_b

    def test_identical_to_medoid(self):
        d = self.expr_distance({"b0": 10.0})
        p = assign_b(self.two_cluster_partition(), d)
        assert "b0" in p.clusters[1].members_b

    def test_planted_blobs_all_land_in_their_blob(self):
        rng = np.random.default_rng(4)
        a_pts = np.concatenate([rng.normal(0, 0.2, 10), rng.normal(50, 0.2, 10)])
        b_pts = rng.normal(0, 0.2, 6)
        genes = tuple(f"a{i}" for i in range(20)) + tuple(f"b{i}" for i in range(6))
        vals = np.concatenate([a_pts, b_pts])
        d = np.abs(vals[:, None] - vals[None, :])
        dm = DistanceMatrix(genes, d / d.max())
        part = cluster_a(dm.restrict([f"a{i}" for i in range(20)]), k=2)
        part = assign_b(part, dm)
        blob0 = [cl for cl in part.clusters if "a0" in cl.members_a][0]
        assert all(f"b{i}" in blob0.members_b for i in range(6))

    def test_subpartition_keeps_only_b_clusters(self):
        d = self.expr_distance({"b0": 0.5})
        p = assign_b(self.two_cluster_partition(), d)
        sub = assigned_subpartition(p)
        assert len(sub.clusters) == 1
        assert sub.clusters[0].medoid == "a0"


class TestSerialization:
    def test_roundtrip(self):
        p = Partition(
            clusters=(
                Cluster("a0", frozenset({"a0", "a1"}), frozenset({"b0"})),
                Cluster("a2", frozenset({"a2"})),
            ),
        )
        text = write_partition_tsv(p)
        back = read_partition_tsv(text)
        assert len(back.clusters) == 2
        assert back.clusters[0].medoid == "a0"
        assert back.clusters[0].members_b == frozenset({"b0"})
        assert write_partition_tsv(back) == text

    def test_negative_cluster_index_rejected(self):
        text = "gene_id\tcluster_index\torigin\tis_medoid\na0\t0\tA\t1\nb0\t-1\tB\t0\n"
        with pytest.raises(ParseError, match="line 3: negative cluster index"):
            read_partition_tsv(text)

    @pytest.mark.parametrize(
        "second_row", ["b0\t1\tB\t0", "a0\t1\tB\t0"], ids=["b-in-two-clusters", "a-and-b"]
    )
    def test_gene_on_two_rows_rejected(self, second_row):
        text = (
            "gene_id\tcluster_index\torigin\tis_medoid\n"
            f"a0\t0\tA\t1\na1\t1\tA\t1\nb0\t0\tB\t0\n{second_row}\n"
        )
        with pytest.raises(ParseError, match="line 5: gene .* more than one row"):
            read_partition_tsv(text)
