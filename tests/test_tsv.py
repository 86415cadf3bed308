"""The one row reader and the one numeric reader behind the five gene-table
readers: the header rule, blank lines, the line in errors, bytes in."""

import pytest

from gofusion.annotations import load_annotations
from gofusion.clustering import read_partition_tsv
from gofusion.enrichment import read_inferred_tsv
from gofusion.errors import ParseError
from gofusion.expression import load_expression, read_distance_tsv, tsv_rows
from gofusion.ontology import parse_obo
from gofusion.synth import make_dataset, write_dataset

from conftest import BP

ANNOTATION_HEADER = "gene_id\tterm_id\tevidence_code\tnamespace\n"
PARTITION_HEADER = "gene_id\tcluster_index\torigin\tis_medoid\n"
INFERRED_HEADER = "gene_id\tterm_id\tp_value\tcluster_index\n"


class TestTsvRows:
    def test_only_the_first_non_blank_line_can_be_the_header(self):
        text = "\n \ngene_id\tx\ngene_id\ty\n\ng\tz\n"
        assert list(tsv_rows(text, 2, "gene_id\t")) == [(4, ["gene_id", "y"]), (6, ["g", "z"])]

    def test_header_found_by_its_prefix(self):
        assert list(tsv_rows("gene_id\tx\n", 2, "gene_id\tterm_id\t")) == [(1, ["gene_id", "x"])]

    def test_bytes_and_byte_order_mark(self):
        text = "gene_id\tx\r\ng\t1\r\n"
        want = [(2, ["g", "1"])]
        assert list(tsv_rows(text.encode(), 2, "gene_id\t")) == want
        assert list(tsv_rows(b"\xef\xbb\xbf" + text.encode(), 2, "gene_id\t")) == want

    def test_column_count_names_the_line(self):
        with pytest.raises(ParseError, match="expected 2 columns, got 3") as err:
            list(tsv_rows("\n\ng\t1\n\ng\t1\t2\n", 2, "gene_id\t"))
        assert err.value.line == 5


def _read(reader, text, fixture_ontology):
    if reader == "load_annotations":
        return load_annotations(text, fixture_ontology, BP)
    if reader == "read_inferred_tsv":
        return read_inferred_tsv(text, {})
    return {
        "load_expression": load_expression,
        "read_distance_tsv": read_distance_tsv,
        "read_partition_tsv": read_partition_tsv,
    }[reader](text)


# one bad row per reader, after its header
BAD_ROW = {
    "load_expression": "gene_id\tc1\tc2\ng1\t1\tx\n",
    "read_distance_tsv": "gene_id\ta\na\t0\t0\n",
    "load_annotations": ANNOTATION_HEADER + "gA\tGO:0000003\tIDA\n",
    "read_partition_tsv": PARTITION_HEADER + "a0\t0\tA\t2\n",
    "read_inferred_tsv": INFERRED_HEADER + "g1\tGO:0000003\tx\t0\n",
}


@pytest.mark.parametrize("reader", BAD_ROW)
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_error_line_after_leading_blank_lines(fixture_ontology, reader, as_bytes):
    """Three blank lines before the header: the bad row is line 5 of the file."""
    text = "\n \n\t\n" + BAD_ROW[reader]
    with pytest.raises(ParseError) as err:
        _read(reader, text.encode() if as_bytes else text, fixture_ontology)
    assert err.value.line == 5


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("gene_id\n", 1, "header must name at least one column"),
        ("\ngene_id\ta\tb\n\n", 3, "no gene rows in distance matrix file"),
    ],
    ids=["no-column", "no-row"],
)
def test_header_only_distance_matrix(text, line, message):
    with pytest.raises(ParseError, match=message) as err:
        read_distance_tsv(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "reader, text, column",
    [
        (load_expression, "gene_id\tc1\tc2\ng1\t1\t\n", 3),
        (read_distance_tsv, "gene_id\ta\tb\na\t\t0.5\nb\t0.5\t0\n", 2),
    ],
    ids=["expression", "distances"],
)
def test_empty_numeric_cell_named(reader, text, column):
    with pytest.raises(ParseError, match=f"missing or non-numeric cell '' in column {column}"):
        reader(text)


def test_blank_line_before_annotation_header(tmp_path):
    """The header is found after a blank line too, so it is not counted as
    a data row in the wrong namespace."""
    files = write_dataset(make_dataset(seed=5), tmp_path)
    o = parse_obo(files["obo"].read_bytes())
    text = files["annotations"].read_text()
    plain = load_annotations(text, o, BP).diagnostics
    assert load_annotations("\n" + text, o, BP).diagnostics == plain
    assert (plain.rows_total, plain.rows_wrong_namespace, plain.genes_dropped_empty) == (467, 0, 0)


class TestInferred:
    def test_gene_named_gene_id(self):
        text = INFERRED_HEADER + "gene_id\tGO:0000003\t0.01\t0\n"
        (rec,) = read_inferred_tsv(text, {"gene_id": 0})
        assert rec.terms == (("GO:0000003", 0.01),)

    def test_bad_field_is_parse_error_with_line(self):
        with pytest.raises(ParseError, match="bad p-value 'x'") as err:
            read_inferred_tsv("\ng1\tGO:0000003\tx\t0\n", {})
        assert err.value.line == 2


class TestPartition:
    def test_header_line_inside_the_file_is_a_row(self):
        text = PARTITION_HEADER + "a0\t0\tA\t1\n" + PARTITION_HEADER
        with pytest.raises(ParseError, match="bad origin 'origin'") as err:
            read_partition_tsv(text)
        assert err.value.line == 3

    def test_cluster_index_past_the_rows_rejected_before_allocating(self):
        """Each cluster needs its medoid row, so an index at or past the row
        count is an error at its line, not a list of that many clusters."""
        text = PARTITION_HEADER + "a0\t0\tA\t1\nb0\t1000000000000\tB\t0\n"
        with pytest.raises(ParseError, match="cluster index 1000000000000") as err:
            read_partition_tsv(text)
        assert err.value.line == 3
