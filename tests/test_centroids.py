"""Gamma tuning's nearest-centroid step against the one-gene-at-a-time
reference in conftest, bit for bit: the centroids' sums, the blocks of
held-out rows and the tie rule."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gofusion.clustering import Cluster, Partition  # noqa: E402
from gofusion.expression import ExpressionMatrix, PreparedRows  # noqa: E402
from gofusion.fusion import _HELD_ROWS, _centroid_assign  # noqa: E402

from conftest import reference_centroid_assign, reference_raw_distances  # noqa: E402

METRICS = ("euclidean", "pearson")
# few distinct values, so that distances tie; signed zeros; sums whose last
# bits depend on the order their terms are added in
VALUES = (-0.0, 0.0, 0.1, 0.2, 0.3, 1 / 3, -1.5, 2.0, 7.25)


@st.composite
def tuning_cells(draw):
    """An expression matrix, a partition of some of its genes (clusters of
    one member among them) and the held-out rest, in any row order."""
    n_cond = draw(st.integers(2, 5))
    n_kept = draw(st.integers(1, 20))
    k = draw(st.integers(1, n_kept))
    labels = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=n_kept - k,
                                            max_size=n_kept - k))
    n_held = draw(st.integers(1, 3 * _HELD_ROWS + 3))  # blocks of uneven size
    n = n_kept + n_held
    values = draw(st.lists(st.sampled_from(VALUES), min_size=n * n_cond, max_size=n * n_cond))
    genes = tuple(f"g{i:02d}" for i in range(n))
    order = draw(st.permutations(genes))
    members = [sorted(g for g, c in zip(order, labels) if c == ci) for ci in range(k)]
    part = Partition(tuple(Cluster(m[0], frozenset(m)) for m in members))
    expr = ExpressionMatrix(genes, tuple(f"c{j}" for j in range(n_cond)),
                            np.reshape(values, (n, n_cond)))
    return expr, part, list(order[n_kept:])


@pytest.mark.parametrize("metric", METRICS)
@settings(max_examples=150, deadline=None)
@given(cell=tuning_cells())
def test_same_clusters_as_per_gene_reference(cell, metric):
    expr, part, held = cell
    got = _centroid_assign(expr, part, held, metric)
    want = reference_centroid_assign(expr, part, held, metric)
    assert got.labels() == want.labels()


@pytest.mark.parametrize("metric", METRICS)
@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 12), st.integers(2, 6)),
    data=st.data(),
)
def test_sliced_rows_same_bits_as_one_row_at_a_time(shape, data, metric):
    """A slice of rows gets, per row, the bits of the one-row formula."""
    n_rows, n_block, n_cond = shape

    def draw(n):
        cells = st.lists(st.sampled_from(VALUES), min_size=n * n_cond, max_size=n * n_cond)
        return np.reshape(data.draw(cells), (n, n_cond))

    x, block = draw(n_rows), draw(n_block)
    lo = data.draw(st.integers(0, n_rows - 1))
    hi = data.draw(st.integers(lo + 1, n_rows + _HELD_ROWS))
    got = PreparedRows(x, metric).raw_distances(slice(lo, hi), PreparedRows(block, metric))
    want = np.array([reference_raw_distances(v, block, metric) for v in x[lo:hi]])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_mean_adds_members_in_ascending_row_order():
    """Cluster 1's members 0.1, 0.2, 0.3 sum to 0.6000000000000001 in row
    order and to 0.6 in the reverse one; only the first puts its centroid
    nearer the held-out 0.3 than cluster 0's 0.2."""
    genes = ("a", "b1", "b2", "b3", "h")
    values = np.array([[0.2, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.3, 0.0]])
    expr = ExpressionMatrix(genes, ("c1", "c2"), values)
    part = Partition(
        (Cluster("a", frozenset({"a"})), Cluster("b1", frozenset({"b1", "b2", "b3"}))),
    )
    assert _centroid_assign(expr, part, ["h"], "euclidean").labels("b") == {"h": 1}
    assert reference_centroid_assign(expr, part, ["h"], "euclidean").labels("b") == {"h": 1}
