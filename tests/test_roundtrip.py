"""Round-trip properties of the text formats the stages hand to each other."""

import string

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gofusion.clustering import (  # noqa: E402
    Cluster,
    Partition,
    read_partition_tsv,
    write_partition_tsv,
)
from gofusion.expression import DistanceMatrix, read_distance_tsv  # noqa: E402
from gofusion.ontology import (  # noqa: E402
    IS_A,
    NAMESPACES,
    PART_OF,
    Ontology,
    Term,
    parse_obo,
    to_obo_text,
)

from conftest import tsv_text  # noqa: E402

GENE = st.text(string.ascii_letters + string.digits + "_-.:", min_size=1, max_size=10)


@st.composite
def distance_matrices(draw) -> DistanceMatrix:
    n = draw(st.integers(1, 8))
    genes = draw(st.lists(GENE, min_size=n, max_size=n, unique=True))
    upper = np.triu_indices(n, k=1)
    d = np.zeros((n, n))
    d[upper] = draw(st.lists(st.floats(0.0, 1.0), min_size=len(upper[0]), max_size=len(upper[0])))
    return DistanceMatrix(tuple(genes), d + d.T)


@st.composite
def partitions(draw) -> Partition:
    genes = draw(st.lists(GENE, min_size=1, max_size=20, unique=True))
    k = draw(st.integers(1, len(genes)))
    # the first k genes are the medoids; every other gene joins a cluster as A or B
    members = [({g}, set()) for g in genes[:k]]
    for g in genes[k:]:
        a, b = members[draw(st.integers(0, k - 1))]
        (a if draw(st.booleans()) else b).add(g)
    clusters = tuple(
        Cluster(m, frozenset(a), frozenset(b)) for m, (a, b) in zip(genes[:k], members)
    )
    return Partition(clusters)


# one line of OBO text: no line breaks, no edge whitespace, which the parser strips
NAME = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), max_size=20
).map(str.strip)


@st.composite
def ontologies(draw) -> Ontology:
    ids = [
        f"GO:{i:07d}"
        for i in draw(st.lists(st.integers(0, 9_999_999), min_size=1, max_size=12, unique=True))
    ]
    namespace = draw(st.sampled_from(NAMESPACES))
    n_obsolete = draw(st.integers(0, len(ids) - 1))
    live, obsolete = ids[: len(ids) - n_obsolete], ids[len(ids) - n_obsolete :]
    terms = {}
    for i, tid in enumerate(live):
        # each term below the first has parents among the terms before it
        parents = frozenset()
        if i:
            edges = st.tuples(st.sampled_from(live[:i]), st.sampled_from((IS_A, PART_OF)))
            parents = frozenset(draw(st.lists(edges, min_size=1, max_size=3)))
        terms[tid] = Term(tid, draw(NAME), namespace, parents)
    for tid in obsolete:
        ns = draw(st.sampled_from(("", namespace)))
        terms[tid] = Term(tid, draw(NAME), ns, frozenset(), obsolete=True)
    return Ontology(terms)


@settings(deadline=None)
@given(distance_matrices())
def test_distance_tsv_round_trip(dm):
    text = tsv_text(dm)
    back = read_distance_tsv(text)
    assert tsv_text(back) == text
    assert back.genes == dm.genes
    # %.10g keeps ten significant digits: half a unit in the tenth, plus one ulp
    assert (np.abs(back.d - dm.d) <= 5e-10 * dm.d + np.spacing(dm.d)).all()


@settings(deadline=None)
@given(partitions())
# a gene named like the header's first column is still a gene
@example(Partition((Cluster("gene_id", frozenset({"gene_id", "x"})),)))
def test_partition_tsv_round_trip(p):
    text = write_partition_tsv(p)
    assert read_partition_tsv(text) == p
    assert write_partition_tsv(read_partition_tsv(text)) == text


@settings(deadline=None)
@given(ontologies())
def test_obo_round_trip(o):
    text = to_obo_text(o)
    back = parse_obo(text)
    assert back.terms == o.terms
    assert to_obo_text(back) == text
