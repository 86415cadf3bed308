import tracemalloc
from unittest import mock

import numpy as np
import pytest

import gofusion.cli as cli
import gofusion.expression as expression
from gofusion.errors import DegenerateError, ParseError, ValidationError
from gofusion.expression import (
    EUCLIDEAN,
    METRICS,
    TSV_BLOCK_ROWS,
    DistanceMatrix,
    ExpressionMatrix,
    PreparedRows,
    expression_distance_matrix,
    load_expression,
    read_distance_tsv,
    write_distance_tsv,
)
from gofusion.synth import make_dataset, write_dataset

from conftest import mirrored, random_distance_matrix, tsv_text


def em(rows, genes=None, conds=None):
    rows = np.asarray(rows, dtype=float)
    genes = genes or tuple(f"g{i}" for i in range(rows.shape[0]))
    conds = conds or tuple(f"c{i}" for i in range(rows.shape[1]))
    return ExpressionMatrix(tuple(genes), tuple(conds), rows)


class TestLoadExpression:
    def test_well_formed(self):
        m = load_expression("gene_id\tc1\tc2\tc3\ng1\t1\t2\t3\ng2\t4\t5\t6\n")
        assert m.values.shape == (2, 3)
        assert m.genes == ("g1", "g2")
        assert m.conditions == ("c1", "c2", "c3")

    def test_missing_cell(self):
        with pytest.raises(ParseError, match="line 3"):
            load_expression("gene_id\tc1\tc2\ng1\t1\t2\ng2\t4\t\n")

    def test_duplicate_gene(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_expression("gene_id\tc1\tc2\ng1\t1\t2\ng1\t4\t5\n")

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="line 2"):
            load_expression("gene_id\tc1\tc2\ng1\t1\t2\t3\n")

    def test_non_numeric(self):
        with pytest.raises(ParseError, match="non-numeric"):
            load_expression("gene_id\tc1\tc2\ng1\t1\tx\n")

    def test_single_condition_rejected(self):
        with pytest.raises((ParseError, ValidationError)):
            load_expression("gene_id\tc1\ng1\t1\ng2\t2\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("gene_id\tc1\tc2\n\n\ng1\t1\t2\ng2\t1\tx\n", 5),
            ("\ngene_id\tc1\tc2\n \ng1\t1\t2\t3\n", 4),
            ("\n\ngene_id\n", 3),
            ("\n\ngene_id\tc1\tc2\n\n", 4),
            ("gene_id\tc1\tc2\r\n\r\ng1\t1\t2\r\n\t\r\ng1\t4\t5\r\n", 5),
        ],
    )
    def test_error_names_the_line_of_the_file(self, text, line):
        """Blank lines count: the line is the file's, not the n-th non-blank one."""
        with pytest.raises(ParseError) as err:
            load_expression(text)
        assert err.value.line == line

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_byte_order_mark_dropped(self, mark):
        m = load_expression(mark + b"gene_id\tc1\tc2\ng1\t1\t2\ng2\t4\t5\n")
        assert m.genes == ("g1", "g2")
        assert m.conditions == ("c1", "c2")

    def test_same_bits_as_float(self):
        """``TestReadDistanceTsv.test_same_bits_as_float``'s text, read as
        expression values: numpy's reader gives ``float()``'s bits."""
        rng = np.random.default_rng(5)
        head, body = tsv_text(random_distance_matrix(rng, 40)).split("\n", 1)
        text = head + "\n" + body.replace("\t0.", "\t+0.0", 7).replace("\t", "\t ", 9)
        ref = np.array([[float(x) for x in line.split("\t")[1:]] for line in text.splitlines()[1:]])
        assert load_expression(text).values.tobytes() == ref.tobytes()


class TestExpressionDistance:
    def test_euclidean_two_genes(self):
        d = expression_distance_matrix(em([[0.0, 0.0], [3.0, 4.0]]), "euclidean")
        assert d.d.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_euclidean_max_is_one(self):
        rng = np.random.default_rng(5)
        d = expression_distance_matrix(em(rng.normal(size=(12, 7))), "euclidean")
        off = d.d[np.triu_indices(12, 1)]
        assert off.max() == 1.0

    def test_euclidean_identical_rows_degenerate(self):
        with pytest.raises(DegenerateError):
            expression_distance_matrix(em([[1.0, 2.0], [1.0, 2.0]]), "euclidean")

    def test_pearson_perfect_correlation(self):
        d = expression_distance_matrix(em([[1, 2, 3], [2, 4, 6]]), "pearson")
        assert d.d[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_pearson_anticorrelation(self):
        d = expression_distance_matrix(em([[1, 2, 3], [3, 2, 1]]), "pearson")
        assert d.d[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_pearson_zero_variance_named(self):
        with pytest.raises(DegenerateError, match="flat"):
            expression_distance_matrix(
                em([[1, 2, 3], [5, 5, 5]], genes=("ok", "flat")), "pearson"
            )

    def test_pearson_affine_invariance(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(6, 8))
        d1 = expression_distance_matrix(em(base), "pearson")
        scaled = base * rng.uniform(0.5, 3.0, size=(6, 1)) + rng.normal(size=(6, 1))
        d2 = expression_distance_matrix(em(scaled), "pearson")
        assert np.allclose(d1.d, d2.d, atol=1e-12)

    @pytest.mark.parametrize("metric", ["euclidean", "pearson"])
    def test_invariants(self, metric):
        rng = np.random.default_rng(13)
        d = expression_distance_matrix(em(rng.normal(size=(10, 6))), metric)
        assert (d.d == d.d.T).all()
        assert (np.diagonal(d.d) == 0.0).all()
        assert d.d.min() >= 0.0 and d.d.max() <= 1.0

    def test_unknown_metric(self):
        with pytest.raises(ValidationError):
            expression_distance_matrix(em([[1, 2], [3, 4]]), "cosine")


class TestDistanceMatrixType:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DistanceMatrix(("a", "b"), np.array([[0.0, 0.5], [0.4, 0.0]]))
        with pytest.raises(ValidationError):
            DistanceMatrix(("a", "b"), np.array([[0.1, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValidationError):
            DistanceMatrix(("a", "b"), np.array([[0.0, 1.5], [1.5, 0.0]]))

    def test_restrict_and_lookup(self):
        rng = np.random.default_rng(2)
        dm = random_distance_matrix(rng, 5)
        sub = dm.restrict(["g003", "g001"])
        assert sub.genes == ("g003", "g001")
        assert sub.value("g003", "g001") == dm.value("g001", "g003")

    def test_tsv_roundtrip(self):
        rng = np.random.default_rng(21)
        dm = random_distance_matrix(rng, 7)
        back = read_distance_tsv(tsv_text(dm))
        assert back.genes == dm.genes
        assert np.allclose(back.d, dm.d, atol=1e-9)
        assert tsv_text(back) == tsv_text(dm)


class TestReadDistanceTsv:
    TEXT = "gene_id\ta\tb\n\na\t0\t0.25\nb\t0.25\t0\n"

    @pytest.mark.parametrize(
        "text, line, what",
        [
            ("gene_id\ta\tb\n\na\t0\t0.25\nb\t0.25\tx\n", 4, "non-numeric"),
            ("gene_id\ta\tb\n\n\na\t0\t0.25\n\nb\t0.25\n", 6, "columns"),
            ("gene_id\ta\tb\na\t0\t0.25\n\nc\t0.25\t0\n", 4, "row gene"),
            ("gene_id\ta\tb\n\na\t0\t0.25\n\n", 3, "data rows"),
            ("\n\n\ngene_id\ta\n\na\t\n", 6, "non-numeric"),
            ("gene_id\ta\tb\r\n\r\na\t0\t\r\nb\t0\t0\r\n", 3, "non-numeric"),
        ],
    )
    def test_error_names_the_line_of_the_file(self, text, line, what):
        with pytest.raises(ParseError, match=what) as err:
            read_distance_tsv(text)
        assert err.value.line == line

    def test_blank_lines_skipped(self):
        dm = read_distance_tsv(self.TEXT)
        assert dm.genes == ("a", "b")
        assert dm.value("a", "b") == 0.25

    @pytest.mark.parametrize("cell", ["0.2_5", " 0.25", "0.25\xa0", "+.25", "٠.٢٥"])
    def test_cells_that_float_reads(self, cell):
        """numpy's reader rejects some cells that ``float()`` reads; those
        rows go through ``float()``."""
        dm = read_distance_tsv(self.TEXT.replace("b\t0.25", "b\t" + cell))
        assert dm.value("a", "b") == 0.25

    def test_same_bits_as_float(self):
        rng = np.random.default_rng(5)
        dm = random_distance_matrix(rng, 40)
        head, body = tsv_text(dm).split("\n", 1)
        text = head + "\n" + body.replace("\t0.", "\t+0.0", 7).replace("\t", "\t ", 9)
        d = np.array([[float(x) for x in line.split("\t")[1:]] for line in text.splitlines()[1:]])
        ref = np.minimum(d, d.T)
        np.fill_diagonal(ref, 0.0)
        assert read_distance_tsv(text).d.tobytes() == ref.tobytes()


def _reference_write(dm):
    """The writer that formatted every cell on its own, kept as the oracle."""
    lines = ["gene_id\t" + "\t".join(dm.genes)]
    for i, g in enumerate(dm.genes):
        lines.append(g + "\t" + "\t".join(f"{v:.10g}" for v in dm.d[i]))
    return "\n".join(lines) + "\n"


WIDE = mirrored(np.triu(np.random.default_rng(8).random((9, 9)), 1))
BLOCK = TSV_BLOCK_ROWS
# the most genes for which a block still holds BLOCK rows within the budget
WIDEST = expression._TSV_BLOCK_BYTES // (expression._CELL_BYTES * BLOCK)
# around the block edges: one row, a block and a bit, two blocks and a row,
# and the widest matrix with full blocks and one gene more
EDGE_SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, WIDEST, WIDEST + 1)


def _signed_zeros_at_block_edge(distinct):
    """2 blocks + 1 rows; the last row of the first block and the first
    row of the second hold ``-0.0`` and ``0.0`` cells.  With ``distinct``
    the other cells are mostly distinct, otherwise three values."""
    n = 2 * BLOCK + 1
    rng = np.random.default_rng(12)
    u = rng.random((n, n)) if distinct else rng.integers(0, 3, (n, n)) / 2
    for row in (BLOCK - 1, BLOCK):
        u[row, row + 1 :: 2] = -0.0
        u[row, row + 2 :: 2] = 0.0
    return mirrored(np.triu(u, 1))


def _mixed_blocks(n):
    """Rows with three values, then rows of distinct values, then three
    values again: the blocks after the first distinct one are formatted
    cell by cell, ties and all."""
    rng = np.random.default_rng(n)
    u = rng.integers(0, 3, (n, n)) / 2
    u[n // 3 : 2 * n // 3] = rng.random((2 * n // 3 - n // 3, n))
    return mirrored(np.triu(u, 1))


def _pipeline_matrices(tmp_path, monkeypatch, extra):
    """The DistanceMatrix objects a synth seed-1 pipeline hands its writer."""
    written = []
    monkeypatch.setattr(cli, "write_distance_tsv", lambda dm, f: written.append(dm))
    data = tmp_path / "data"
    write_dataset(make_dataset(seed=1), data)
    argv = [
        "pipeline",
        "--obo", str(data / "go.obo"),
        "--annotations", str(data / "annotations.tsv"),
        "--expression-a", str(data / "expression_a.tsv"),
        "--expression-b", str(data / "expression_b.tsv"),
        "--out-dir", str(tmp_path / "out"),
        "--seed", "7",
        "--k", "50",
        *extra,
    ]
    assert cli.main(argv) == 0
    return written


class TestWriteDistanceTsv:
    @pytest.mark.parametrize(
        "dm",
        [
            mirrored([[0.0, -0.0, 0.5], [0, -0.0, 0.0], [0, 0, 0.0]]),
            mirrored(np.triu(np.random.default_rng(3).integers(0, 4, (12, 12)) / 3, 1)),
            mirrored([[0, 0.1, np.nextafter(0.1, 1)], [0, 0, np.nextafter(0.1, 0)], [0, 0, 0]]),
            mirrored([[0, 5e-324, 1e-310], [0, 0, 1.0], [0, 0, 0]]),
            DistanceMatrix(("only",), np.zeros((1, 1))),
            DistanceMatrix(WIDE.genes[::2], WIDE.d[::2, ::2]),
            DistanceMatrix(WIDE.genes, np.asfortranarray(WIDE.d)),
            *(mirrored(np.triu(np.random.default_rng(n).random((n, n)), 1))
              for n in EDGE_SIZES),
            *(mirrored(np.triu(np.random.default_rng(n).integers(0, 4, (n, n)) / 3, 1))
              for n in EDGE_SIZES),
            _signed_zeros_at_block_edge(distinct=True),
            _signed_zeros_at_block_edge(distinct=False),
        ],
        ids=["signed-zeros", "ties", "same-ten-digits", "subnormal-and-one", "one-gene",
             "strided", "fortran-order",
             *(f"distinct-n{n}" for n in EDGE_SIZES), *(f"ties-n{n}" for n in EDGE_SIZES),
             "signed-zeros-at-block-edge-distinct", "signed-zeros-at-block-edge-ties"],
    )
    def test_same_bytes_as_reference(self, dm):
        assert tsv_text(dm) == _reference_write(dm)

    @pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "ties"])
    def test_memory_is_per_block(self, distinct):
        """Streaming to a file that keeps nothing holds no n x n copy: the
        peak stays under a quarter of the matrix's own bytes."""
        n = 600
        rng = np.random.default_rng(4)
        u = rng.random((n, n)) if distinct else rng.integers(0, 5, (n, n)) / 4
        dm = mirrored(np.triu(u, 1))

        class Discard:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            write_distance_tsv(dm, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dm.d.nbytes / 4

    @pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "ties"])
    def test_memory_is_per_block_when_one_row_fills_it(self, distinct):
        """At 2,000 genes one row of buffers takes most of the byte budget:
        the peak is a few blocks' buffers, not a share of the matrix."""
        n = 2000
        rng = np.random.default_rng(4)
        u = rng.random((n, n)) if distinct else rng.integers(0, 5, (n, n)) / 4
        dm = mirrored(np.triu(u, 1))

        class Discard:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            write_distance_tsv(dm, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dm.d.nbytes / 4
        assert peak < 3 * max(expression._TSV_BLOCK_BYTES, expression._CELL_BYTES * n)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("slack", [-1, 0], ids=["budget-less-one", "budget"])
    @pytest.mark.parametrize(
        "dm",
        [
            mirrored(np.triu(np.random.default_rng(14).random((11, 11)), 1)),
            mirrored(np.triu(np.random.default_rng(15).integers(0, 3, (11, 11)) / 2, 1)),
            _mixed_blocks(11),
            _signed_zeros_at_block_edge(distinct=True),
            _signed_zeros_at_block_edge(distinct=False),
        ],
        ids=["distinct", "ties", "ties-then-distinct", "signed-zeros-distinct",
             "signed-zeros-ties"],
    )
    def test_same_bytes_at_any_block_budget(self, dm, rows, slack, monkeypatch):
        """Budgets of one, two and three rows and one byte less: every block
        edge falls somewhere else, one row a block when the budget is under a
        row."""
        n = len(dm.genes)
        monkeypatch.setattr(expression, "_TSV_BLOCK_BYTES", rows * n * expression._CELL_BYTES + slack)
        assert tsv_text(dm) == _reference_write(dm)

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--metric", "pearson"],
            ["--balancing", "percentile"],
        ],
        ids=["euclidean-tuning", "pearson-tuning", "percentile"],
    )
    def test_pipeline_matrices_same_bytes_as_reference(self, tmp_path, monkeypatch, extra):
        written = _pipeline_matrices(tmp_path, monkeypatch, extra)
        assert len(written) == 3  # d_e, d_go, d_gamma
        for dm in written:
            assert tsv_text(dm) == _reference_write(dm)


def _ten_digits(values):
    """What ``_TenDigitFormatter`` writes for ``values``, one text per value."""
    x = np.array(values, dtype=float)
    return expression._TenDigitFormatter(x.size).rows(x[None])[0].split("\t")


def _with_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)])


def _midpoints(p):
    """The decimal midpoints (N + 0.5) / 10**p of 2,000 ten-digit N: ties at
    the tenth digit in the decade 10**(9 - p), below 1e-4 for p = 14."""
    n = np.random.default_rng(p).integers(10**9, 10**10, 2000)
    return (n + 0.5) / 10.0**p


def _near_midpoint(n, p, toward):
    """(n + 0.5) / 10**p, or the float next to it toward ``toward``."""
    v = (n + 0.5) / 10.0**p
    return v if toward is None else float(np.nextafter(v, toward))


TEN_DIGIT_CASES = {
    **{f"midpoints-p{p}": _with_neighbours(_midpoints(p)) for p in range(10, 15)},
    "powers-of-ten": _with_neighbours(10.0 ** -np.arange(0, 301)),
    "decade-carries": _with_neighbours([0.99999999995, 0.0099999999995, 9.9999999995e-05]),
    "tiny": [1e-100, 5e-324, 1e-310, 1e-5, 9.99999999e-05],
    "zeros-and-one": [0.0, -0.0, 1.0, -0.0, 0.5],
    "uniform": np.random.default_rng(16).random(5000),
    "small-decades": np.random.default_rng(17).random(5000) ** 6,
}


class TestTenDigitFormatter:
    @pytest.mark.parametrize("values", TEN_DIGIT_CASES.values(), ids=TEN_DIGIT_CASES.keys())
    def test_same_text_as_python(self, values):
        values = np.asarray(values, dtype=float)
        assert _ten_digits(values) == ["%.10g" % v for v in values.tolist()]

    def test_property_same_text_as_python(self):
        """Any float of [0, 1], subnormals and -0.0 too, and the values on
        and next to a decimal midpoint, where the rounding is decided."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        midpoint = st.builds(
            _near_midpoint,
            st.integers(10**9, 10**10 - 1),
            st.integers(10, 14),
            st.sampled_from([None, 0.0, 1.0]),
        )
        value = st.one_of(st.floats(0.0, 1.0, allow_subnormal=True), st.just(-0.0), midpoint)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(value, min_size=1, max_size=40))
        def same_text(values):
            assert _ten_digits(values) == ["%.10g" % v for v in values]

        same_text()

    def test_cells_python_formats_are_spliced_in_place(self):
        """Values Python formats, at the first and last cells of rows and
        next to each other, land where their cells are."""
        values = np.random.default_rng(18).random((3, 6))
        values[0, 0] = 1e-5
        values[1, 4:] = [5e-324, 1.5e-7]
        values[2, 0] = 0.12345678905
        rows = expression._TenDigitFormatter(values.size).rows(values)
        assert rows == ["\t".join("%.10g" % v for v in row) for row in values.tolist()]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n", [2, 3, 17])
def test_distance_matrix_same_as_sum_with_transpose(metric, n):
    """Mirroring each row as it is computed gives the bits of ``d + d.T``."""
    rng = np.random.default_rng(n)
    m = em(rng.normal(size=(n, 5)))
    prep = PreparedRows(m.values, metric)
    d = np.zeros((n, n))
    for i in range(n - 1):
        d[i, i + 1 :] = prep.raw_distances(i, prep, i + 1)
    d = d + d.T
    if metric == EUCLIDEAN:
        d /= d.max()
    np.fill_diagonal(d, 0.0)
    assert expression_distance_matrix(m, metric).d.tobytes() == d.tobytes()


def _histogram_reference(dm, bins=50):
    """``cli._histogram_csv`` over the ``np.triu_indices`` cells."""
    counts, edges = np.histogram(
        dm.d[np.triu_indices(len(dm.genes), k=1)], bins=bins, range=(0.0, 1.0)
    )
    mids = (edges[:-1] + edges[1:]) / 2.0
    return "value,count\n" + "".join(f"{v:.10g},{int(c)}\n" for v, c in zip(mids, counts))


@pytest.mark.parametrize(
    "dm",
    [
        random_distance_matrix(np.random.default_rng(6), 2),
        random_distance_matrix(np.random.default_rng(7), 31),
        mirrored(np.triu(np.random.default_rng(9).integers(0, 5, (12, 12)) / 4, 1)),
        _signed_zeros_at_block_edge(distinct=False),
        random_distance_matrix(np.random.default_rng(8), 2 * cli._HISTOGRAM_ROWS + 3),
    ],
    ids=["n2", "n31", "ties", "signed-zeros", "three-row-blocks"],
)
def test_histogram_same_as_triu_indices(dm):
    assert cli._histogram_csv(dm) == _histogram_reference(dm)


def test_histogram_copies_no_triangle():
    """The counts are taken a block of rows at a time: with small blocks the
    peak stays near the triangle mask, far below the triangle's own bytes."""
    dm = random_distance_matrix(np.random.default_rng(10), 600)
    tracemalloc.start()
    try:
        with mock.patch.object(cli, "_HISTOGRAM_ROWS", 8):
            cli._histogram_csv(dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * dm.d.nbytes
