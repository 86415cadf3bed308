import io
import sys
from pathlib import Path

import numpy as np
import pytest

from gofusion.annotations import build_corpus
from gofusion.expression import DistanceMatrix, write_distance_tsv
from gofusion.ontology import parse_obo

FIXTURE_OBO = """\
[Term]
id: GO:0008150
name: biological_process
namespace: biological_process

[Term]
id: GO:0000001
name: branch
namespace: biological_process
is_a: GO:0008150

[Term]
id: GO:0000002
name: other branch
namespace: biological_process
is_a: GO:0008150

[Term]
id: GO:0000003
name: leaf
namespace: biological_process
is_a: GO:0000001
"""

ROOT = "GO:0008150"
BP = "biological_process"


@pytest.fixture(scope="session")
def fixture_ontology():
    return parse_obo(FIXTURE_OBO)


@pytest.fixture(scope="session")
def fixture_corpus(fixture_ontology):
    direct = {
        "gA": {"GO:0000003"},
        "gB": {"GO:0000003"},
        "gC": {"GO:0000002"},
    }
    return build_corpus(direct, fixture_ontology, BP)


def random_distance_matrix(rng: np.random.Generator, n: int, genes=None) -> DistanceMatrix:
    """Symmetric zero-diagonal matrix with entries drawn uniformly in (0, 1)."""
    d = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    d[iu] = rng.uniform(0.001, 0.999, size=len(iu[0]))
    d = d + d.T
    if genes is None:
        genes = tuple(f"g{i:03d}" for i in range(n))
    return DistanceMatrix(tuple(genes), d)


def mirrored(d) -> DistanceMatrix:
    """``d`` with its upper triangle copied below the diagonal, bit for bit
    (``d + d.T`` would turn -0.0 into 0.0)."""
    d = np.array(d, dtype=float)
    lower = np.tril_indices(len(d), -1)
    d[lower] = d.T[lower]
    return DistanceMatrix(tuple(f"g{i}" for i in range(len(d))), d)


def tsv_text(dm: DistanceMatrix) -> str:
    """What ``write_distance_tsv`` writes for ``dm``, as one string."""
    buf = io.StringIO()
    write_distance_tsv(dm, buf)
    return buf.getvalue()


def random_dag_corpus(seed: int, n_terms: int = 50, n_genes: int = 60):
    """Random single-namespace DAG plus a corpus covering every term.

    Each non-root term gets 1 or 2 parents among earlier terms; each term
    receives at least one directly annotated gene so every term probability
    is defined.
    """
    rng = np.random.default_rng(seed)
    ids = [ROOT] + [f"GO:{1000000 + i:07d}" for i in range(1, n_terms)]
    lines = [f"[Term]\nid: {ROOT}\nname: root\nnamespace: {BP}\n"]
    for i in range(1, n_terms):
        n_par = 1 if i == 1 else int(rng.integers(1, 3))
        parents = rng.choice(i, size=min(n_par, i), replace=False)
        rel = "\n".join(f"is_a: {ids[int(p)]}" for p in parents)
        lines.append(f"[Term]\nid: {ids[i]}\nname: t{i}\nnamespace: {BP}\n{rel}\n")
    onto = parse_obo("\n".join(lines))
    direct: dict[str, set[str]] = {}
    for i in range(n_genes):
        t = ids[i % n_terms]
        extra = ids[int(rng.integers(0, n_terms))]
        direct[f"gene{i:03d}"] = {t, extra}
    corpus = build_corpus(direct, onto, BP)
    return onto, corpus


def perfbench_godag():
    """The benchmark's GO-shaped DAG generator, ``perfbench/godag.py``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import godag
    finally:
        sys.path.pop(0)
    return godag
