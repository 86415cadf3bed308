"""Generated inputs for the GO side's fast paths, each against the code it
replaced: the term table's row minimum against the painted table, and the
OBO parser against its line-by-line loop."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from gofusion import semantic  # noqa: E402
from gofusion.annotations import build_corpus  # noqa: E402
from gofusion.ontology import parse_obo, to_obo_text  # noqa: E402
from gofusion.semantic import (  # noqa: E402
    SIMILARITY_KINDS,
    _ancestor_columns,
    _row_groups,
    _term_sim_table,
)

from conftest import ROOT, random_dag_corpus, reference_term_table  # noqa: E402
from test_ontology import damaged, line_loop_parse_obo, parse_outcome  # noqa: E402
from test_roundtrip import ontologies  # noqa: E402


@st.composite
def table_cases(draw):
    """An ontology, a corpus over its live terms, the table's terms and a
    byte budget small enough for several blocks of rows and columns.
    Without the root's IC, some pairs share no ancestor with an IC."""
    o = draw(ontologies())
    live = o.topo_order
    root = live[0]
    term_sets = st.sets(st.sampled_from(live), min_size=1, max_size=4)
    genes = draw(st.lists(term_sets, min_size=1, max_size=8))
    c = build_corpus({f"g{i}": ts for i, ts in enumerate(genes)}, o, o.terms[root].namespace)
    if draw(st.booleans()):
        c = dataclasses.replace(c, ic={t: v for t, v in c.ic.items() if t != root})
    assume(c.ic)
    terms = sorted(draw(st.sets(st.sampled_from(sorted(c.ic)), min_size=1)))
    return o, c, terms, draw(st.integers(1, 64))


@settings(deadline=None, max_examples=150)
@given(table_cases(), st.sampled_from(SIMILARITY_KINDS))
def test_row_minimum_equals_painted_table(case, kind):
    o, c, terms, budget = case
    with mock.patch.object(semantic, "_MIN_BYTES", budget):
        sim = _term_sim_table(o, c, terms, kind)
    assert sim.tobytes() == reference_term_table(o, c, terms, kind).tobytes()


def blocks(o, c, terms, budget):
    """The number of column blocks and of row groups the table takes."""
    cols, flat, starts = _ancestor_columns(o, c, terms)
    item = np.min_scalar_type(len(cols)).itemsize
    width = max(1, min(len(terms), budget // (item * (len(cols) + 1))))
    runs = np.diff(starts, append=len(flat))
    groups = _row_groups(flat, starts, runs, len(cols), budget // (item * width))
    return -(-len(terms) // width), len(groups)


@pytest.mark.parametrize("kind", SIMILARITY_KINDS)
@pytest.mark.parametrize("budget", [1, 64, 500])
@pytest.mark.parametrize("root_ic", [True, False])
def test_blocks_equal_painted_table(kind, budget, root_ic):
    o, c = random_dag_corpus(seed=4)
    if not root_ic:  # the sentinel: pairs of branches that share only the root
        c = dataclasses.replace(c, ic={t: v for t, v in c.ic.items() if t != ROOT})
    terms = sorted(c.ic)
    col_blocks, row_groups = blocks(o, c, terms, budget)
    assert col_blocks > 1 and row_groups > 1
    with mock.patch.object(semantic, "_MIN_BYTES", budget):
        sim = _term_sim_table(o, c, terms, kind)
    ref = reference_term_table(o, c, terms, kind)
    assert sim.tobytes() == ref.tobytes()
    if not root_ic:
        cols, _flat, _starts = _ancestor_columns(o, c, terms)
        assert ROOT not in cols
        assert (sim == 0.0).any() or kind == "resnik_normalized"


@pytest.mark.parametrize("kind", SIMILARITY_KINDS)
def test_single_term_union(kind):
    o, c = random_dag_corpus(seed=4)
    for t in sorted(c.ic)[::9]:
        with mock.patch.object(semantic, "_MIN_BYTES", 1):
            sim = _term_sim_table(o, c, [t], kind)
        assert sim.shape == (1, 1)
        assert sim.tobytes() == reference_term_table(o, c, [t], kind).tobytes()


# how a line of OBO text may be written: padded, spaced around its colon,
# or followed by a tag no one reads
DECORATIONS = (
    lambda ln: ln,
    lambda ln: "  " + ln,
    lambda ln: ln + " \t",
    lambda ln: "\t" + ln + " ",
    lambda ln: ln.replace(":", " : ", 1),
    lambda ln: ln.replace(":", ":   ", 1),
    lambda ln: ln + "\ndef: \"a made-up definition\" []",
    lambda ln: ln + "\nsynonym: \"x\" EXACT []\nxref: Wikipedia:X",
    lambda ln: ln + "\nrelationship: regulates GO:0000001",
    lambda ln: ln + "\n\n",
)

TYPEDEF = "[Typedef]\nid: part_of\nname: part of\nis_a: GO:0000001\n\n"


@st.composite
def obo_texts(draw):
    """OBO text of a generated ontology, each line written one of the ways
    in ``DECORATIONS``, with a [Typedef] stanza between two others and LF or
    CRLF line ends."""
    lines = to_obo_text(draw(ontologies())).split("\n")
    heads = [i for i, ln in enumerate(lines) if ln == "[Term]"] + [len(lines)]
    out = [DECORATIONS[draw(st.integers(0, len(DECORATIONS) - 1))](ln) for ln in lines]
    out.insert(draw(st.sampled_from(heads)), TYPEDEF)  # between two stanzas
    text = "format-version: 1.2\n" + "\n".join(out)
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


@settings(deadline=None, max_examples=150)
@given(obo_texts(), st.booleans())
def test_parser_equals_line_loop_on_generated_text(text, as_bytes):
    data = text.encode() if as_bytes else text
    parts = parse_outcome(parse_obo, data)
    assert not isinstance(parts[0], type)  # the text is well formed
    assert parts == parse_outcome(line_loop_parse_obo, data)


@settings(deadline=None, max_examples=150)
@given(obo_texts(), st.integers(0, 2**32 - 1))
@example("[Term]\nid: GO:0000001\n[Term]\nid: GO:0000001\n", 0)
def test_parser_equals_line_loop_on_damaged_text(text, seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        text = damaged(text, rng)
    assert parse_outcome(parse_obo, text) == parse_outcome(line_loop_parse_obo, text)
