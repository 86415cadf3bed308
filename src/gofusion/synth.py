"""Synthetic benchmark generator: clean annotations, noisy expression.

Genes fall into two semantic families, each split into small subgroups.
Every subgroup owns a private pool of leaf terms under its own subgroup
term, so semantic distances are strongly graded: near for same-subgroup
genes, moderate within a family, maximal across families.  Expression
vectors are family-plus-subgroup prototypes buried in Gaussian noise, with
the noise level chosen so expression-only clustering visibly scrambles the
subgroups while still carrying usable signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotations import AnnotationCorpus, build_corpus
from .errors import ConfigError
from .expression import ExpressionMatrix
from .ontology import Ontology, Term, TermId, to_obo_text

NAMESPACE = "biological_process"
ROOT = "GO:0008150"


@dataclass(frozen=True)
class SyntheticDataset:
    """Everything a pipeline run needs, plus the hidden ground truth."""

    ontology: Ontology
    annotations: dict[str, frozenset[TermId]]  # all genes, incl. held-out B
    expression: ExpressionMatrix  # all genes
    a_genes: tuple[str, ...]
    b_genes: tuple[str, ...]
    family: dict[str, int]
    subgroup: dict[str, int]

    def expression_a(self) -> ExpressionMatrix:
        return self._subset(self.a_genes)

    def expression_b(self) -> ExpressionMatrix:
        return self._subset(self.b_genes)

    def _subset(self, genes: tuple[str, ...]) -> ExpressionMatrix:
        idx = [self.expression.genes.index(g) for g in genes]
        return ExpressionMatrix(
            genes, self.expression.conditions, self.expression.values[idx]
        )

    def corpus_a(self) -> AnnotationCorpus:
        direct = {g: set(self.annotations[g]) for g in self.a_genes}
        return build_corpus(direct, self.ontology, NAMESPACE)

    def corpus_full(self) -> AnnotationCorpus:
        direct = {g: set(ts) for g, ts in self.annotations.items()}
        return build_corpus(direct, self.ontology, NAMESPACE)

    def truth_b(self) -> dict[str, frozenset[TermId]]:
        return {g: self.annotations[g] for g in self.b_genes}


def _build_ontology(n_subgroups: int, leaves_per_subgroup: int) -> Ontology:
    terms: dict[TermId, Term] = {
        ROOT: Term(ROOT, "biological_process", NAMESPACE, frozenset())
    }
    for f in range(2):
        fid = f"GO:{1000001 + f:07d}"
        terms[fid] = Term(
            fid, f"family {f} process", NAMESPACE, frozenset({(ROOT, "is_a")})
        )
    for s in range(n_subgroups):
        sid = f"GO:{2000001 + s:07d}"
        fid = f"GO:{1000001 + (s % 2):07d}"
        terms[sid] = Term(
            sid, f"subgroup {s} process", NAMESPACE, frozenset({(fid, "is_a")})
        )
        for l in range(leaves_per_subgroup):
            lid = f"GO:{3000001 + s * leaves_per_subgroup + l:07d}"
            terms[lid] = Term(
                lid,
                f"subgroup {s} activity {l}",
                NAMESPACE,
                frozenset({(sid, "is_a")}),
            )
    return Ontology(terms)


def make_dataset(
    seed: int,
    subgroups_per_family: int = 25,
    genes_per_subgroup: int = 4,
    leaves_per_subgroup: int = 4,
    conditions: int = 24,
    noise: float = 1.1,
    b_fraction: float = 0.1,
) -> SyntheticDataset:
    """Build one seeded dataset; defaults give 200 genes in two families."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    # a gene takes two or three leaves of its subgroup's pool
    for name, value, low in (("subgroups_per_family", subgroups_per_family, 1),
                             ("genes_per_subgroup", genes_per_subgroup, 1),
                             ("leaves_per_subgroup", leaves_per_subgroup, 2),
                             ("conditions", conditions, 2)):
        if value < low:
            raise ConfigError(f"{name} must be at least {low}, got {value}")
    if not 0.0 <= noise < np.inf:  # NaN fails too
        raise ConfigError(f"noise must be finite and non-negative, got {noise}")
    n_genes = 2 * subgroups_per_family * genes_per_subgroup  # at least 2 by now
    if not (0.0 <= b_fraction <= 1.0 and round(b_fraction * n_genes) < n_genes):
        raise ConfigError(f"b_fraction must lie in [0, 1] and leave at least one of "
                          f"{n_genes} genes in A, got {b_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    n_subgroups = 2 * subgroups_per_family
    onto = _build_ontology(n_subgroups, leaves_per_subgroup)

    genes: list[str] = []
    family: dict[str, int] = {}
    subgroup: dict[str, int] = {}
    annotations: dict[str, frozenset[TermId]] = {}
    fam_mean = rng.normal(0.0, 1.0, size=(2, conditions))
    sub_off = rng.normal(0.0, 1.0, size=(n_subgroups, conditions))
    rows: list[np.ndarray] = []
    for s in range(n_subgroups):
        f = s % 2
        pool = [
            f"GO:{3000001 + s * leaves_per_subgroup + l:07d}"
            for l in range(leaves_per_subgroup)
        ]
        for i in range(genes_per_subgroup):
            g = f"g{s:02d}_{i:02d}"
            genes.append(g)
            family[g] = f
            subgroup[g] = s
            n_terms = int(rng.integers(2, min(3, leaves_per_subgroup) + 1))
            picked = rng.choice(len(pool), size=n_terms, replace=False)
            annotations[g] = frozenset(pool[int(j)] for j in picked)
            rows.append(
                fam_mean[f] + sub_off[s] + rng.normal(0.0, noise, size=conditions)
            )
    expr = ExpressionMatrix(tuple(genes), tuple(f"c{i}" for i in range(conditions)), np.vstack(rows))

    n_b = max(1, int(round(b_fraction * len(genes))))
    b_idx = set(int(i) for i in rng.choice(len(genes), size=n_b, replace=False))
    a_genes = tuple(g for i, g in enumerate(genes) if i not in b_idx)
    b_genes = tuple(g for i, g in enumerate(genes) if i in b_idx)
    return SyntheticDataset(
        ontology=onto,
        annotations=annotations,
        expression=expr,
        a_genes=a_genes,
        b_genes=b_genes,
        family=family,
        subgroup=subgroup,
    )


def _expression_tsv(m: ExpressionMatrix) -> str:
    lines = ["gene_id\t" + "\t".join(m.conditions)]
    for i, g in enumerate(m.genes):
        lines.append(g + "\t" + "\t".join(f"{v:.10g}" for v in m.values[i]))
    return "\n".join(lines) + "\n"


def _annotation_tsv(annotations: dict[str, frozenset[TermId]], genes) -> str:
    lines = ["gene_id\tterm_id\tevidence_code\tnamespace"]
    for g in genes:
        for t in sorted(annotations[g]):
            lines.append(f"{g}\t{t}\tIDA\t{NAMESPACE}")
    return "\n".join(lines) + "\n"


def write_dataset(ds: SyntheticDataset, out_dir: Path) -> dict[str, Path]:
    """Write the pipeline input files plus the held-out truth."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "obo": out_dir / "go.obo",
        "annotations": out_dir / "annotations.tsv",
        "expression_a": out_dir / "expression_a.tsv",
        "expression_b": out_dir / "expression_b.tsv",
        "truth": out_dir / "truth.tsv",
    }
    files["obo"].write_text(to_obo_text(ds.ontology), newline="\n")
    files["annotations"].write_text(
        _annotation_tsv(ds.annotations, ds.a_genes), newline="\n"
    )
    files["expression_a"].write_text(_expression_tsv(ds.expression_a()), newline="\n")
    files["expression_b"].write_text(_expression_tsv(ds.expression_b()), newline="\n")
    files["truth"].write_text(_annotation_tsv(ds.annotations, ds.b_genes), newline="\n")
    return files
