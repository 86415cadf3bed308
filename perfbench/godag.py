"""GO-shaped input generator for the ``godag_staged`` workload.

``gofusion synth`` builds a four-level tree with at most three terms per
gene, so its semantic term table stays small.  Real GO releases are deep,
multi-parent DAGs where a gene carries many direct terms, part popular and
part specific.  This generator produces that shape from a seed:

- a biological-process DAG of ``sum(LEVEL_SIZES)`` terms over
  ``len(LEVEL_SIZES)`` levels, where every term has one ``is_a`` parent on
  the level above, some have a second ``is_a`` parent and some a
  ``part_of`` parent further up;
- one molecular-function term, a ``[Typedef]`` stanza and ``def:`` /
  ``synonym:`` tags that the loader must skip or filter;
- genes in modules: each module owns a pool of ``MODULE_POOL`` terms from
  the subtree of one term on ``MODULE_LEVEL``, and a gene draws about
  ``MODULE_SHARE`` of its direct terms from its module's pool and the rest
  from a Zipf-popular ranking of all terms (equal pool sizes keep the
  union-term count, and so the term-table work, nearly the same per seed);
- extra ``ND`` rows and molecular-function rows that the loader drops;
- expression as a per-module prototype plus Gaussian noise.

The files are the same five that ``gofusion.synth.write_dataset`` writes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BP_ROOT = "GO:0008150"
MF_ROOT = "GO:0003674"
BP = "biological_process"
MF = "molecular_function"

# Terms per level, root first: 4,200 terms, 14 levels deep.
LEVEL_SIZES = (1, 8, 20, 45, 90, 160, 260, 380, 500, 600, 650, 600, 500, 386)
SECOND_PARENT = 0.25  # chance of a second is_a parent
PART_OF = 0.1  # chance of a part_of edge to a term two to four levels up
MODULE_LEVEL = 6
# 20 modules of 10 genes: 200 genes, so one chain takes about 4-5 s and a
# run holds six or more; at 32 modules a run held three or four chains and
# the run medians spread twice as much across seeds in back-to-back sets.
MODULES = 20
MODULE_POOL = 20  # terms drawn from each module's subtree, so pools match in size
GENES_PER_MODULE = 10
B_GENES = 20
TERMS_PER_GENE = (6, 16)  # inclusive range of direct BP terms
MODULE_SHARE = 0.6
ZIPF_EXPONENT = 1.2
ND_SHARE = 0.2  # genes that also carry an ND row on the root
MF_SHARE = 0.5  # genes that also carry a molecular-function row
CONDITIONS = 30
NOISE = 1.0

PARAMETERS = {
    "level_sizes": list(LEVEL_SIZES),
    "second_parent": SECOND_PARENT,
    "part_of": PART_OF,
    "module_level": MODULE_LEVEL,
    "modules": MODULES,
    "module_pool": MODULE_POOL,
    "genes_per_module": GENES_PER_MODULE,
    "b_genes": B_GENES,
    "terms_per_gene": list(TERMS_PER_GENE),
    "module_share": MODULE_SHARE,
    "zipf_exponent": ZIPF_EXPONENT,
    "nd_share": ND_SHARE,
    "mf_share": MF_SHARE,
    "conditions": CONDITIONS,
    "noise": NOISE,
}

EVIDENCE = ("IDA", "IMP", "IGI", "IEA", "TAS", "ISS")


def _dag(rng: np.random.Generator):
    """Term ids per level and each term's (parent, relation) edges."""
    n_terms = sum(LEVEL_SIZES)
    numbers = rng.choice(np.arange(1, 10 * n_terms), size=n_terms - 1, replace=False)
    ids = iter(f"GO:{int(x) + 10000:07d}" for x in numbers)
    levels: list[list[str]] = [[BP_ROOT]]
    parents: dict[str, list[tuple[str, str]]] = {BP_ROOT: []}
    for depth, size in enumerate(LEVEL_SIZES[1:], start=1):
        above = levels[depth - 1]
        level = [next(ids) for _ in range(size)]
        for i, t in enumerate(level):
            # the primary parent keeps siblings together, like a GO branch
            first = above[min(len(above) - 1, i * len(above) // size)]
            edges = [(first, "is_a")]
            if depth >= 2 and rng.random() < SECOND_PARENT:
                other = above[int(rng.integers(len(above)))]
                if other != first:
                    edges.append((other, "is_a"))
            if depth >= 3 and rng.random() < PART_OF:
                up = levels[depth - int(rng.integers(2, min(4, depth) + 1))]
                edges.append((up[int(rng.integers(len(up)))], "part_of"))
            parents[t] = edges
        levels.append(level)
    return levels, parents


def _subtree(root: str, children: dict[str, list[str]]) -> list[str]:
    seen = {root}
    stack = [root]
    while stack:
        for c in children.get(stack.pop(), ()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return sorted(seen)


def _obo_text(levels, parents) -> str:
    out = [
        "format-version: 1.2",
        "ontology: go",
        "",
        "[Term]",
        f"id: {MF_ROOT}",
        "name: molecular_function",
        f"namespace: {MF}",
    ]
    for depth, level in enumerate(levels):
        for t in level:
            out += ["", "[Term]", f"id: {t}", f"name: process {t[3:]} level {depth}",
                    f"namespace: {BP}", f'def: "Generated term at depth {depth}." []']
            if depth % 3 == 1:
                out.append(f'synonym: "process {t[3:]}" EXACT []')
            for p, rel in parents[t]:
                out.append(f"is_a: {p}" if rel == "is_a" else f"relationship: part_of {p}")
    out += ["", "[Typedef]", "id: part_of", "name: part of", "is_transitive: true", ""]
    return "\n".join(out)


def write_godag(seed: int, out_dir: Path) -> dict[str, Path]:
    """Write go.obo, annotations.tsv, expression_a/b.tsv and truth.tsv."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1201)))
    levels, parents = _dag(rng)
    children: dict[str, list[str]] = {}
    for t, edges in parents.items():
        for p, _rel in edges:
            children.setdefault(p, []).append(t)

    non_root = [t for level in levels[1:] for t in level]
    popular = [non_root[int(i)] for i in rng.permutation(len(non_root))]
    weights = 1.0 / np.arange(1, len(popular) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    roots = [t for t in levels[MODULE_LEVEL] if len(_subtree(t, children)) >= MODULE_POOL]
    module_roots = sorted(roots[int(i)] for i in rng.choice(len(roots), size=MODULES, replace=False))
    subtrees = []
    for r in module_roots:
        tree = _subtree(r, children)
        subtrees.append(sorted(tree[int(i)] for i in rng.choice(len(tree), size=MODULE_POOL, replace=False)))

    genes: list[str] = []
    terms_of: dict[str, list[str]] = {}
    module_of: dict[str, int] = {}
    for m, pool in enumerate(subtrees):
        for i in range(GENES_PER_MODULE):
            g = f"GENE{m:02d}{i:02d}"
            n = int(rng.integers(TERMS_PER_GENE[0], TERMS_PER_GENE[1] + 1))
            n_mod = min(len(pool), int(round(MODULE_SHARE * n)))
            picked = {pool[int(j)] for j in rng.choice(len(pool), size=n_mod, replace=False)}
            while len(picked) < n:
                picked.add(popular[int(rng.choice(len(popular), p=weights))])
            genes.append(g)
            terms_of[g] = sorted(picked)
            module_of[g] = m

    b_idx = set(int(i) for i in rng.choice(len(genes), size=B_GENES, replace=False))
    a_genes = [g for i, g in enumerate(genes) if i not in b_idx]
    b_genes = [g for i, g in enumerate(genes) if i in b_idx]

    def annotation_tsv(gs: list[str]) -> str:
        lines = ["gene_id\tterm_id\tevidence_code\tnamespace"]
        for g in gs:
            for t in terms_of[g]:
                lines.append(f"{g}\t{t}\t{EVIDENCE[int(rng.integers(len(EVIDENCE)))]}\t{BP}")
            if rng.random() < ND_SHARE:
                lines.append(f"{g}\t{BP_ROOT}\tND\t{BP}")
            if rng.random() < MF_SHARE:
                lines.append(f"{g}\t{MF_ROOT}\tIEA\t{MF}")
        return "\n".join(lines) + "\n"

    protos = rng.normal(0.0, 1.0, size=(MODULES, CONDITIONS))
    values = {g: protos[module_of[g]] + rng.normal(0.0, NOISE, size=CONDITIONS) for g in genes}

    def expression_tsv(gs: list[str]) -> str:
        lines = ["gene_id\t" + "\t".join(f"cond{c:02d}" for c in range(CONDITIONS))]
        for g in gs:
            lines.append(g + "\t" + "\t".join(f"{v:.10g}" for v in values[g]))
        return "\n".join(lines) + "\n"

    out_dir.mkdir(parents=True, exist_ok=True)
    texts = {
        "obo": ("go.obo", _obo_text(levels, parents)),
        "annotations": ("annotations.tsv", annotation_tsv(a_genes)),
        "expression_a": ("expression_a.tsv", expression_tsv(a_genes)),
        "expression_b": ("expression_b.tsv", expression_tsv(b_genes)),
        "truth": ("truth.tsv", annotation_tsv(b_genes)),
    }
    files = {}
    for key, (name, text) in texts.items():
        files[key] = out_dir / name
        files[key].write_text(text, newline="\n")
    return files
