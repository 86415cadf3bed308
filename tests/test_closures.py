"""The ancestor bitsets against the DFS closures and set-union counts they replace."""

import math
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gofusion import annotations  # noqa: E402
from gofusion.annotations import build_corpus, load_annotations  # noqa: E402
from gofusion.enrichment import InferredAnnotation, export_term_graph  # noqa: E402
from gofusion.ontology import parse_obo  # noqa: E402
from gofusion.semantic import _ancestor_columns  # noqa: E402

from conftest import perfbench_godag  # noqa: E402
from test_roundtrip import ontologies  # noqa: E402


def decoded(o, t):
    bits = o.closure(t)
    return {u for j, u in enumerate(o.topo_order) if bits >> j & 1}


def reference_prop_count(direct, o):
    """The per-gene set-union count that ``build_corpus`` used before the bitsets."""
    prop = {}
    for gene in sorted(direct):
        expanded = set()
        for t in direct[gene]:
            expanded |= o.ancestors(t)
        for t in expanded:
            prop[t] = prop.get(t, 0) + 1
    return prop


@st.composite
def corpora(draw):
    """An ontology and random direct term sets over its live terms."""
    o = draw(ontologies())
    n = draw(st.integers(1, 9))
    terms = st.lists(st.sampled_from(o.topo_order), min_size=1, max_size=4)
    return o, {f"g{i}": set(draw(terms)) for i in range(n)}


@settings(deadline=None)
@given(ontologies())
def test_closure_bits_decode_to_dfs_ancestors(o):
    assert o.index == {t: i for i, t in enumerate(o.topo_order)}
    for t in o.topo_order:
        assert decoded(o, t) == o.ancestors(t)


@settings(deadline=None)
@given(ontologies(), st.data())
def test_closure_bits_on_demand_in_any_order(o, data):
    """Bitsets asked for in shuffled order decode to the DFS closures, both
    while only some terms have been asked for and after all have."""
    order = data.draw(st.permutations(o.topo_order))
    some = data.draw(st.integers(1, len(order)))
    for t in order[:some]:
        assert decoded(o, t) == o.ancestors(t)
    for t in order:
        assert decoded(o, t) == o.ancestors(t)


@settings(deadline=None)
@given(ontologies())
def test_terms_of_closure_is_ancestors_in_topo_order(o):
    for t in o.topo_order:
        assert o.terms_of(o.closure(t)) == [u for u in o.topo_order if u in o.ancestors(t)]


@settings(deadline=None)
@given(corpora(), st.integers(1, 4))
def test_prop_count_and_ic_equal_set_union_reference(corpus, block):
    o, direct = corpus
    namespace = o.terms[o.topo_order[0]].namespace
    # blocks of a few genes, so the count also sums over several blocks
    with mock.patch.object(annotations, "_COUNT_BYTES", block * len(o.topo_order)):
        c = build_corpus(direct, o, namespace)
    prop = reference_prop_count(direct, o)
    assert c.prop_count == prop
    ic = {t: -math.log(n / len(direct)) for t, n in prop.items()}
    ic[o.namespace_root(namespace)] = 0.0
    assert c.ic == ic


@settings(deadline=None)
@given(corpora())
def test_ancestor_columns_equal_dfs_reference(corpus):
    o, direct = corpus
    c = build_corpus(direct, o, o.terms[o.topo_order[0]].namespace)
    terms = sorted({t for ts in direct.values() for t in ts})
    cols, flat, starts = _ancestor_columns(o, c, terms)
    # the construction from DFS closures that the bitset decode replaced
    anc = [o.ancestors(t) & c.ic.keys() for t in terms]
    assert cols == sorted(set().union(*anc), key=lambda t: (-c.ic[t], t))
    col_of = {t: k for k, t in enumerate(cols)}
    runs = [sorted(col_of[t] for t in a) for a in anc]
    assert flat.tolist() == [k for ks in runs for k in ks]
    assert starts.tolist() == [sum(map(len, runs[:a])) for a in range(len(terms))]


def reference_term_graph(inferred, truth, o):
    """``export_term_graph`` as written before the bitsets: one DFS closure per term."""
    inferred_terms = {t for rec in inferred for t, _ in rec.terms}
    truth_terms = set()
    if truth:
        for ts in truth.values():
            truth_terms |= set(ts)
    closure = set()
    for t in sorted(inferred_terms | truth_terms):
        closure |= o.ancestors(t)
    matching = inferred_terms & truth_terms
    lines = ["digraph term_graph {", "  rankdir=BT;", '  node [shape=box];']
    for t in sorted(closure):
        name = o.terms[t].name
        label = f"{t}\\n{name}" if name else t
        if t in matching:
            attrs = f'label="{label}", shape=ellipse, style=bold'
        elif t in inferred_terms:
            attrs = f'label="{label}", style=dashed'
        elif t in truth_terms:
            attrs = f'label="{label}", penwidth=3'
        else:
            attrs = f'label="{label}"'
        lines.append(f'  "{t}" [{attrs}];')
    for t in sorted(closure):
        for parent, _kind in sorted(o.terms[t].parents):
            if parent in closure:
                lines.append(f'  "{t}" -> "{parent}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def as_inferred(direct):
    return [
        InferredAnnotation(g, tuple((t, 0.01) for t in sorted(ts)), i)
        for i, (g, ts) in enumerate(sorted(direct.items()))
    ]


@st.composite
def term_graph_inputs(draw):
    """An ontology, inferred records over its live terms, and truth or None."""
    o = draw(ontologies())
    terms = st.frozensets(st.sampled_from(o.topo_order), min_size=1, max_size=4)
    genes = st.sampled_from(("b0", "b1", "b2"))
    inferred = draw(st.dictionaries(genes, terms))
    truth = draw(st.none() | st.dictionaries(genes, terms, min_size=1))
    return o, as_inferred(inferred), truth


@settings(deadline=None)
@given(term_graph_inputs())
def test_term_graph_equals_dfs_reference(inputs):
    o, records, truth = inputs
    assert export_term_graph(records, truth, o) == reference_term_graph(records, truth, o)


def test_term_graph_equals_dfs_reference_on_godag(tmp_path):
    files = perfbench_godag().write_godag(3, tmp_path)
    o = parse_obo(files["obo"].read_bytes())
    bp = "biological_process"
    direct = load_annotations(files["annotations"].read_bytes(), o, bp).direct
    truth = dict(load_annotations(files["truth"].read_bytes(), o, bp).direct)
    records = as_inferred(dict(sorted(direct.items())[:30]))
    dot = export_term_graph(records, truth, o)
    assert dot == reference_term_graph(records, truth, o)
    assert dot.count(" -> ") > 100
