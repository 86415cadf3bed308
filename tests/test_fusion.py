import csv
import io
import tracemalloc

import numpy as np
import pytest

from gofusion import clustering, fusion
from gofusion.clustering import Cluster, Partition
from gofusion.errors import AlignmentError, ConfigError
from gofusion.expression import DistanceMatrix, ExpressionMatrix, expression_distance_matrix
from gofusion.fusion import (
    TuningReport,
    _average_ranks,
    _centroid_assign,
    combine_gamma,
    equalize_values,
    percentile_equalize,
    tune_gamma,
)
from gofusion.semantic import semantic_distance_matrix
from gofusion.synth import make_dataset

from conftest import (
    mirrored,
    random_distance_matrix,
    reference_build,
    reference_centroid_assign,
    reference_swap,
)


def _unique_ranks(v):
    """Doubled average ranks from ``np.unique``, the reference form."""
    _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - counts + 1 + ends)[inv.ravel()]


def _triu_equalize(dm, m):
    """``percentile_equalize`` over ``np.triu_indices``, ``np.unique`` ranks
    and ``out + out.T``, the reference form."""
    iu = np.triu_indices(len(dm.genes), k=1)
    vals = dm.d[iu]
    j = np.clip(np.ceil(_unique_ranks(vals) * m / (2.0 * vals.size)), 1, m)
    out = np.zeros_like(dm.d)
    out[iu] = (j - 0.5) / m
    return out + out.T


_rng = np.random.default_rng(13)
_zeros = _rng.integers(0, 3, 500) / 2.0
_zeros[_rng.random(500) < 0.4] *= -1.0  # -0.0 among the 0.0 cells
RANK_INPUTS = [
    ("one", np.array([0.3])),
    ("two", np.array([0.7, 0.2])),
    ("two-tied", np.array([0.5, 0.5])),
    ("signed-zero-pair", np.array([0.0, -0.0])),
    ("distinct", _rng.random(300)),
    ("ties", _rng.integers(0, 7, 300) / 6.0),
    ("signed-zeros", _zeros),
    ("all-equal", np.full(40, 0.25)),
]
EQUALIZE_INPUTS = [
    mirrored([[0, 0.4], [0, 0]]),
    random_distance_matrix(np.random.default_rng(14), 23),
    mirrored(np.triu(np.random.default_rng(15).integers(0, 4, (19, 19)) / 3.0, 1)),
    mirrored(np.triu(np.where(np.random.default_rng(16).random((17, 17)) < 0.5, -0.0, 0.0), 1)),
]
EQUALIZE_IDS = ["n2", "distinct", "ties", "signed-zeros"]


class TestCombineGamma:
    def test_endpoints_and_midpoint(self):
        rng = np.random.default_rng(1)
        d_e = random_distance_matrix(rng, 6)
        d_go = random_distance_matrix(rng, 6, genes=d_e.genes)
        assert (combine_gamma(d_e, d_go, 0.0).d == d_e.d).all()
        assert (combine_gamma(d_e, d_go, 1.0).d == d_go.d).all()
        mid = combine_gamma(d_e, d_go, 0.5).d
        assert np.abs(mid - (d_e.d + d_go.d) / 2).max() < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.35, 0.5, 1.0])
    def test_same_bits_as_whole_matrix_blend(self, gamma):
        """Adding ``d_e`` a block of rows at a time gives the bits of one
        whole-matrix blend."""
        rng = np.random.default_rng(4)
        d_e = random_distance_matrix(rng, 2 * fusion._BLEND_ROWS + 3)
        d_go = random_distance_matrix(rng, len(d_e.genes), genes=d_e.genes)
        whole = gamma * d_go.d + (1.0 - gamma) * d_e.d
        np.clip(whole, 0.0, 1.0, out=whole)
        np.fill_diagonal(whole, 0.0)
        assert combine_gamma(d_e, d_go, gamma).d.tobytes() == whole.tobytes()

    def test_no_n_by_n_temporary(self):
        """Besides its result the blend holds one block of rows and the
        validation's boolean masks, not a second n x n float array."""
        rng = np.random.default_rng(5)
        d_e = random_distance_matrix(rng, 600)
        d_go = random_distance_matrix(rng, 600, genes=d_e.genes)
        tracemalloc.start()
        try:
            combine_gamma(d_e, d_go, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d_e.d.nbytes

    def test_arithmetic_example(self):
        d_e = DistanceMatrix(("a", "b"), np.array([[0.0, 0.2], [0.2, 0.0]]))
        d_go = DistanceMatrix(("a", "b"), np.array([[0.0, 0.6], [0.6, 0.0]]))
        assert combine_gamma(d_e, d_go, 0.5).d[0, 1] == pytest.approx(0.4)

    def test_gene_mismatch(self):
        rng = np.random.default_rng(2)
        d_e = random_distance_matrix(rng, 4)
        d_go = random_distance_matrix(rng, 4, genes=("x1", "x2", "x3", "x4"))
        with pytest.raises(AlignmentError):
            combine_gamma(d_e, d_go, 0.5)

    def test_gamma_out_of_range(self):
        rng = np.random.default_rng(3)
        d = random_distance_matrix(rng, 3)
        with pytest.raises(ConfigError):
            combine_gamma(d, d, 1.5)


class TestPercentileEqualize:
    def test_four_value_example(self):
        out = equalize_values(np.array([0.1, 0.2, 0.3, 0.4]), m=2)
        assert out.tolist() == [0.25, 0.25, 0.75, 0.75]

    def test_all_identical_single_midpoint(self):
        for m in (2, 5, 20):
            out = equalize_values(np.full(10, 0.37), m)
            assert len(set(out.tolist())) == 1

    def test_ties_share_a_bin(self):
        out = equalize_values(np.array([0.5, 0.5, 0.5, 0.9]), m=4)
        assert len(set(out[:3].tolist())) == 1

    def test_interval_balance(self):
        rng = np.random.default_rng(7)
        for _ in range(20, 25):
            n, m = 435, 20
            vals = rng.permutation(n) / n
            out = equalize_values(vals, m)
            _, counts = np.unique(out, return_counts=True)
            assert set(counts.tolist()) <= {n // m, n // m + 1}

    def test_rank_order_invariance(self):
        rng = np.random.default_rng(8)
        dm = random_distance_matrix(rng, 12)
        eq1 = percentile_equalize(dm, 20)
        transformed = DistanceMatrix(dm.genes, np.sqrt(dm.d) * 0.9)
        eq2 = percentile_equalize(transformed, 20)
        assert (eq1.d == eq2.d).all()

    def test_outputs_are_midpoints(self):
        rng = np.random.default_rng(9)
        dm = random_distance_matrix(rng, 10)
        m = 7
        eq = percentile_equalize(dm, m)
        allowed = {(j - 0.5) / m for j in range(1, m + 1)}
        off = eq.d[np.triu_indices(10, 1)]
        assert set(off.tolist()) <= allowed
        assert (eq.d == eq.d.T).all()
        assert (np.diagonal(eq.d) == 0).all()

    def test_m_too_small(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ConfigError):
            percentile_equalize(random_distance_matrix(rng, 4), 1)

    @pytest.mark.parametrize("name, v", RANK_INPUTS, ids=[name for name, _ in RANK_INPUTS])
    def test_ranks_same_as_unique(self, name, v):
        got = _average_ranks(v)
        assert got.dtype == np.int64
        assert got.tolist() == _unique_ranks(v).tolist()

    @pytest.mark.parametrize("m", [2, 20])
    @pytest.mark.parametrize("dm", EQUALIZE_INPUTS, ids=EQUALIZE_IDS)
    def test_equalize_same_as_triu_indices(self, dm, m):
        assert percentile_equalize(dm, m).d.tobytes() == _triu_equalize(dm, m).tobytes()

    def test_equalize_memory(self):
        """The ranks and the mirror hold no n x n temporaries beyond the
        result: the peak stays under three times the matrix's bytes."""
        dm = random_distance_matrix(np.random.default_rng(11), 600)
        tracemalloc.start()
        try:
            percentile_equalize(dm, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * dm.d.nbytes


def tuning_inputs(ds, corpus):
    """The A expression matrix and the two distance matrices ``tune_gamma`` takes."""
    expr = ds.expression_a()
    d_e = expression_distance_matrix(expr, "euclidean")
    return expr, d_e, semantic_distance_matrix(ds.ontology, corpus, expr.genes)


class TestTuneGamma:
    @pytest.fixture(scope="class")
    @staticmethod
    def small_dataset():
        return make_dataset(seed=42, subgroups_per_family=4, genes_per_subgroup=6)

    def test_deterministic_and_argmin(self, small_dataset):
        inputs = tuning_inputs(small_dataset, small_dataset.corpus_a())
        kwargs = dict(k=4, grid_step=0.25, runs=3, split=0.5, seed=11)
        r1 = tune_gamma(*inputs, **kwargs)
        r2 = tune_gamma(*inputs, **kwargs)
        assert r1 == r2
        assert r1.best_gamma == r1.grid[int(np.argmin(r1.sc_curve))]
        assert len(r1.grid) == 5
        assert all(len(runs) == 3 for runs in r1.sc_runs)

    def test_flat_curve_on_noise_annotations(self):
        # Annotations drawn independently of everything give a curve whose
        # spread stays within run-to-run noise, and the argmin tie rule
        # favors small gamma on flat ground.
        ds = make_dataset(seed=3, subgroups_per_family=4, genes_per_subgroup=6)
        rng = np.random.default_rng(99)
        terms = sorted({t for ts in ds.annotations.values() for t in ts})
        scrambled = {
            g: {terms[int(i)] for i in rng.choice(len(terms), size=2, replace=False)}
            for g in ds.a_genes
        }
        from gofusion.annotations import build_corpus

        corpus = build_corpus(scrambled, ds.ontology, "biological_process")
        report = tune_gamma(*tuning_inputs(ds, corpus), k=3, grid_step=0.25, runs=6, seed=2)
        spread = max(report.sc_curve) - min(report.sc_curve)
        sem = [np.std(runs) / np.sqrt(len(runs)) for runs in report.sc_runs]
        assert spread <= 4.0 * max(max(sem), 1e-3)

    def test_parameter_validation(self, small_dataset):
        inputs = tuning_inputs(small_dataset, small_dataset.corpus_a())
        with pytest.raises(ConfigError):
            tune_gamma(*inputs, k=1, seed=1)
        with pytest.raises(ConfigError):
            tune_gamma(*inputs, k=3, split=1.0, seed=1)
        with pytest.raises(ConfigError):
            tune_gamma(*inputs, k=3, grid_step=0.3, seed=1)
        with pytest.raises(ConfigError, match="grid_step must lie in"):
            tune_gamma(*inputs, k=3, grid_step=float("nan"), seed=1)
        with pytest.raises(ConfigError):
            tune_gamma(*inputs, k=200, seed=1)
        expr, d_e, d_go = inputs
        with pytest.raises(ConfigError, match="in order"):
            tune_gamma(expr, d_e.restrict(list(reversed(d_e.genes))), d_go, k=3, seed=1)

    def test_report_serialization(self, small_dataset):
        report = tune_gamma(
            *tuning_inputs(small_dataset, small_dataset.corpus_a()), k=3,
            grid_step=0.5, runs=2, seed=7,
        )
        blob = report.to_json()
        assert '"best_gamma"' in blob
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "gamma,mean_sc"
        assert len(csv_text.splitlines()) == len(report.grid) + 1


def test_report_csv_same_bytes_as_csv_writer():
    """``to_csv`` writes what ``csv.writer`` writes for the same cells, on
    values whose ``%.10g`` text is odd: nan, a signed zero, exponent form,
    and a value just under a rounding tie."""
    values = (0.0, float("nan"), -0.0, 1e-05, 0.99999999995, 0.25, 1.0)
    report = TuningReport(
        grid=values, sc_runs=tuple((v,) for v in values[::-1]), seed=1, split=0.5
    )
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["gamma", "mean_sc"])
    for g, sc in zip(report.grid, report.sc_curve):
        w.writerow([f"{g:.10g}", f"{sc:.10g}"])
    assert report.to_csv() == buf.getvalue()
    cells = set(buf.getvalue().replace("\n", ",").split(","))
    assert {"nan", "-0", "1e-05", "0.9999999999"} <= cells


def test_best_gamma_tie_breaks_to_smallest(monkeypatch):
    """On a flat compactness curve, ``tune_gamma`` picks the smallest gamma."""
    monkeypatch.setattr(fusion, "semantic_compactness", lambda part, d_go: 0.25)
    ds = make_dataset(seed=42, subgroups_per_family=4, genes_per_subgroup=6)
    report = tune_gamma(*tuning_inputs(ds, ds.corpus_a()), k=3, grid_step=0.25, runs=2, seed=1)
    assert report.sc_curve == (0.25,) * 5
    assert report.best_gamma == 0.0


@pytest.fixture(scope="module", params=[1, 2, 5], ids=lambda seed: f"synth{seed}")
def synth_tuning(request):
    """A default-sized synth dataset's A expression and semantic distances."""
    ds = make_dataset(seed=request.param)
    expr = ds.expression_a()
    return expr, semantic_distance_matrix(ds.ontology, ds.corpus_a(), expr.genes)


@pytest.mark.parametrize("metric", ["euclidean", "pearson"])
def test_sc_runs_same_bits_as_reference(synth_tuning, metric, monkeypatch):
    """Tuning cells at the benchmark's size (90 kept genes, k = 50) score the
    bits they score with the per-gene centroid step and the from-scratch
    build and swap; no benchmark workload tunes on Pearson distances."""
    expr, d_go = synth_tuning
    args = (expr, expression_distance_matrix(expr, metric), d_go)
    kwargs = dict(k=50, grid_step=0.25, runs=4, seed=7, metric=metric)
    got = tune_gamma(*args, **kwargs)
    monkeypatch.setattr(fusion, "_centroid_assign", reference_centroid_assign)
    monkeypatch.setattr(clustering, "build_medoids", reference_build)
    monkeypatch.setattr(clustering, "swap_refine", reference_swap)
    want = tune_gamma(*args, **kwargs)
    assert np.array(got.sc_runs).tobytes() == np.array(want.sc_runs).tobytes()
    assert got == want


class TestCentroidAssign:
    """``_centroid_assign`` against distances computed from scratch."""

    @staticmethod
    def reference(expr, part, held_out, metric):
        rows = dict(zip(expr.genes, expr.values))
        centroids = [
            np.mean([rows[g] for g in sorted(cl.members_a)], axis=0) for cl in part.clusters
        ]

        def dist(x, c):
            if metric == "euclidean":
                return np.linalg.norm(x - c)
            if np.ptp(x) == 0.0 or np.ptp(c) == 0.0:
                return 0.5  # r is taken as 0 when either side is flat
            return (1.0 - np.corrcoef(x, c)[0, 1]) / 2.0

        # np.argmin returns the first minimum: ties go to the lowest cluster index
        return {g: int(np.argmin([dist(rows[g], c) for c in centroids])) for g in held_out}

    @staticmethod
    def partition(clusters):
        return Partition(
            tuple(Cluster(members[0], frozenset(members)) for members in clusters)
        )

    @pytest.mark.parametrize("metric", ["euclidean", "pearson"])
    def test_matches_reference(self, metric):
        rng = np.random.default_rng(3)
        genes = tuple(f"g{i:02d}" for i in range(40))
        expr = ExpressionMatrix(genes, tuple(f"c{j}" for j in range(6)), rng.normal(size=(40, 6)))
        part = self.partition([genes[i : i + 6] for i in range(0, 30, 6)])
        held = list(genes[30:])
        got = _centroid_assign(expr, part, held, metric)
        assert got.labels("b") == self.reference(expr, part, held, metric)
        assert got.labels("a") == part.labels("a")

    @pytest.mark.parametrize(
        "metric, centroids, gene, expected",
        [
            # exact tie at distance 1: the lower index wins
            ("euclidean", [(5, 5, 5, 5), (0, 0, 0, 0), (2, 0, 0, 0)], (1, 0, 0, 0), 1),
            # exact tie at r = 0 between two centroids and a flat one
            ("pearson", [(-1, 1, -1, 1), (1, 1, -1, -1), (3, 3, 3, 3), (1, -1, -1, 1)],
             (1, -1, 1, -1), 1),
            # the flat centroid sits at 0.5, nearer than a weakly anti-correlated one
            ("pearson", [(4, 3, 2, 1), (1, 2, 0, 1), (5, 5, 5, 5)], (1, 2, 3, 4), 2),
        ],
        ids=["euclidean-tie", "pearson-tie-with-flat", "pearson-flat-at-half"],
    )
    def test_ties_and_flat_centroids(self, metric, centroids, gene, expected):
        genes = tuple(f"a{i}" for i in range(len(centroids))) + ("h",)
        values = np.array([*centroids, gene], dtype=float)
        expr = ExpressionMatrix(genes, ("c1", "c2", "c3", "c4"), values)
        part = self.partition([(g,) for g in genes[:-1]])
        got = _centroid_assign(expr, part, ["h"], metric)
        assert got.labels("b") == {"h": expected}
        assert self.reference(expr, part, ["h"], metric) == {"h": expected}
