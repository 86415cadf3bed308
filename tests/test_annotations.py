import math

import pytest

from gofusion.annotations import (
    build_corpus,
    information_content,
    load_annotations,
    term_probability,
)
from gofusion.errors import EmptyCorpusError, ParseError, UnknownIdError

from conftest import BP, ROOT, random_dag_corpus

FIXTURE_TSV = """\
gene_id\tterm_id\tevidence_code\tnamespace
gA\tGO:0000003\tIDA\tbiological_process
gB\tGO:0000003\tIMP\tbiological_process
gC\tGO:0000002\tIDA\tbiological_process
"""


def test_fixture_propagation(fixture_ontology):
    c = load_annotations(FIXTURE_TSV, fixture_ontology, BP)
    assert c.gene_universe_size == 3
    assert c.prop_count[ROOT] == 3
    assert c.prop_count["GO:0000001"] == 2
    assert c.prop_count["GO:0000003"] == 2
    assert c.prop_count["GO:0000002"] == 1


def test_nd_row_dropped_gene_kept_with_other_rows(fixture_ontology):
    tsv = FIXTURE_TSV + "gC\tGO:0000003\tND\tbiological_process\n"
    c = load_annotations(tsv, fixture_ontology, BP)
    assert c.direct["gC"] == frozenset({"GO:0000002"})
    assert c.diagnostics.rows_excluded_evidence == 1


def test_nd_only_gene_dropped(fixture_ontology):
    tsv = FIXTURE_TSV + "gD\tGO:0000002\tND\tbiological_process\n"
    c = load_annotations(tsv, fixture_ontology, BP)
    assert "gD" not in c.direct
    assert c.diagnostics.genes_dropped_empty == 1


def test_wrong_namespace_everything_dropped(fixture_ontology):
    tsv = FIXTURE_TSV.replace("biological_process", "molecular_function")
    with pytest.raises(EmptyCorpusError):
        load_annotations(tsv, fixture_ontology, BP)


def test_unknown_term_rows_counted(fixture_ontology):
    tsv = FIXTURE_TSV + "gA\tGO:7777777\tIDA\tbiological_process\n"
    c = load_annotations(tsv, fixture_ontology, BP)
    assert c.diagnostics.rows_unknown_term == 1
    assert c.direct["gA"] == frozenset({"GO:0000003"})


def test_foreign_namespace_term_dropped():
    from gofusion.ontology import parse_obo

    from conftest import FIXTURE_OBO

    text = FIXTURE_OBO + "\n[Term]\nid: GO:0003674\nname: mf root\nnamespace: molecular_function\n"
    o = parse_obo(text)
    # the row claims biological_process but the term lives in molecular_function
    tsv = FIXTURE_TSV + "gA\tGO:0003674\tIDA\tbiological_process\n"
    c = load_annotations(tsv, o, BP)
    assert c.diagnostics.rows_unknown_term == 1
    assert "GO:0003674" not in c.direct["gA"]


def test_malformed_row_line_number(fixture_ontology):
    tsv = FIXTURE_TSV + "gE\tGO:0000002\tIDA\n"
    with pytest.raises(ParseError, match="line 5"):
        load_annotations(tsv, fixture_ontology, BP)


def test_blank_rows_skipped_and_counted_as_lines(fixture_ontology):
    """Rows of whitespace only, tabs too, are skipped; a later error still
    names the line of the file."""
    head, rest = FIXTURE_TSV.split("\n", 1)
    tsv = head + "\n\t\t\t\n \r\n" + rest
    c = load_annotations(tsv, fixture_ontology, BP)
    assert c.direct == load_annotations(FIXTURE_TSV, fixture_ontology, BP).direct
    with pytest.raises(ParseError, match="line 7"):
        load_annotations(tsv + "gE\tGO:0000002\tIDA\n", fixture_ontology, BP)


def test_duplicate_rows_collapsed(fixture_ontology):
    tsv = FIXTURE_TSV + "gA\tGO:0000003\tIMP\tbiological_process\n"
    c = load_annotations(tsv, fixture_ontology, BP)
    assert c.diagnostics.rows_duplicate == 1
    total_direct = sum(len(ts) for ts in c.direct.values())
    assert total_direct == c.diagnostics.rows_kept == 3


def test_custom_evidence_exclusion(fixture_ontology):
    c = load_annotations(
        FIXTURE_TSV, fixture_ontology, BP, excluded_evidence=frozenset({"IMP"})
    )
    assert "gB" not in c.direct


def test_term_probability_examples(fixture_corpus):
    assert term_probability(fixture_corpus, "GO:0000003") == pytest.approx(2 / 3)
    assert term_probability(fixture_corpus, ROOT) == 1.0
    assert term_probability(fixture_corpus, "GO:0000002") == pytest.approx(1 / 3)


def test_undefined_probability_raises(fixture_ontology, fixture_corpus):
    with pytest.raises(UnknownIdError):
        term_probability(fixture_corpus, "GO:1234567")
    with pytest.raises(UnknownIdError):
        information_content(fixture_corpus, "GO:1234567")


def test_information_content_examples(fixture_corpus):
    assert information_content(fixture_corpus, ROOT) == 0.0
    assert information_content(fixture_corpus, "GO:0000002") == pytest.approx(math.log(3))
    assert information_content(fixture_corpus, "GO:0000003") == pytest.approx(math.log(1.5))


def test_ic_probability_consistency_random_dag():
    onto, corpus = random_dag_corpus(seed=7)
    for t, ic in corpus.ic.items():
        assert abs(math.exp(-ic) - term_probability(corpus, t)) < 1e-12


def test_propagation_monotone_random_dag():
    onto, corpus = random_dag_corpus(seed=11)
    for term in onto.terms.values():
        for parent, _ in term.parents:
            assert corpus.prop_count[parent] >= corpus.prop_count[term.id]
            assert corpus.ic[parent] <= corpus.ic[term.id]


def test_root_only_gene_diagnostic(fixture_ontology):
    direct = {"gA": {"GO:0000003"}, "gRoot": {ROOT}}
    c = build_corpus(direct, fixture_ontology, BP)
    assert c.diagnostics.genes_root_only == 1
    assert term_probability(c, ROOT) == 1.0


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_byte_order_mark_dropped(fixture_ontology, mark):
    c = load_annotations(mark + FIXTURE_TSV.encode(), fixture_ontology, BP)
    assert c.diagnostics == load_annotations(FIXTURE_TSV, fixture_ontology, BP).diagnostics
    assert c.diagnostics.rows_total == 3
    assert dict(c.direct) == {
        "gA": frozenset({"GO:0000003"}),
        "gB": frozenset({"GO:0000003"}),
        "gC": frozenset({"GO:0000002"}),
    }


def test_header_optional(fixture_ontology):
    tsv = "\n".join(FIXTURE_TSV.splitlines()[1:]) + "\n"
    c = load_annotations(tsv, fixture_ontology, BP)
    assert c.gene_universe_size == 3


@pytest.mark.parametrize("moved", [False, True], ids=["godag", "term-moved-to-cc"])
def test_terms_outside_the_namespace_counted(tmp_path, caplog, moved):
    """A mid-DAG term moved to another namespace keeps its biological-process
    children's edges into it, so it is propagated to and counted."""
    from gofusion.ontology import parse_obo

    from conftest import perfbench_godag

    files = perfbench_godag().write_godag(1, tmp_path)
    obo = files["obo"].read_text()
    if moved:
        at = obo.index("namespace: ", obo.index("id: GO:0035195\n"))
        obo = obo[:at] + obo[at:].replace(f"namespace: {BP}", "namespace: cellular_component", 1)
    o = parse_obo(obo)
    with caplog.at_level("WARNING", logger="gofusion.annotations"):
        c = load_annotations(files["annotations"].read_bytes(), o, BP)
    assert c.diagnostics.terms_other_namespace == int(moved)
    assert "GO:0035195" in c.ic
    warned = [r.getMessage() for r in caplog.records if "outside" in r.getMessage()]
    expected = f"propagated terms outside {BP}: 1, first GO:0035195 (cellular_component)"
    assert warned == ([expected] if moved else [])
