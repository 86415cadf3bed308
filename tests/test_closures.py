"""The ancestor bitsets against the DFS closures and set-union counts they replace."""

import math
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gofusion import annotations  # noqa: E402
from gofusion.annotations import build_corpus  # noqa: E402
from gofusion.semantic import _ancestor_columns  # noqa: E402

from test_roundtrip import ontologies  # noqa: E402


def decoded(o, t):
    bits = o.closure_bits[t]
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
    assert list(o.closure_bits) == o.topo_order
    assert o.index == {t: i for i, t in enumerate(o.topo_order)}
    for t in o.topo_order:
        assert decoded(o, t) == o.ancestors(t)


@settings(deadline=None)
@given(corpora(), st.integers(1, 4))
def test_prop_count_and_ic_equal_set_union_reference(corpus, block):
    o, direct = corpus
    namespace = o.terms[o.topo_order[0]].namespace
    # blocks of a few genes, so the count also sums over several blocks
    with mock.patch.object(annotations, "_COUNT_BLOCK", block):
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
