"""Expression matrices, normalized expression-based distance matrices, and
the readers that split every gene table of the package into numbered rows.

Both distance flavors land in [0, 1]: Euclidean distances are divided by
the largest off-diagonal raw distance, and Pearson correlation r is mapped
to (1 - r) / 2 so positively correlated genes are near each other.  Both
formulas live in ``PreparedRows.raw_distances``, which the gene-by-gene
matrix here and the nearest-centroid step of gamma tuning both call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, TextIO

import numpy as np

from .errors import AlignmentError, DegenerateError, ParseError, UnknownIdError, ValidationError

GeneId = str

EUCLIDEAN = "euclidean"
PEARSON = "pearson"
METRICS = (EUCLIDEAN, PEARSON)


@dataclass(frozen=True, eq=False)
class ExpressionMatrix:
    """Genes x conditions matrix of finite expression values."""

    genes: tuple[GeneId, ...]
    conditions: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape != (len(self.genes), len(self.conditions)):
            raise ValidationError(
                f"value shape {v.shape} does not match {len(self.genes)} genes "
                f"x {len(self.conditions)} conditions"
            )
        if len(self.conditions) < 2:
            raise ValidationError("expression matrix needs at least 2 conditions")
        if not np.isfinite(v).all():
            raise ValidationError("expression matrix contains non-finite values")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric gene-by-gene distance matrix with entries in [0, 1].

    The diagonal is 0 by convention.  This is the common currency passed
    between the fusion, clustering and metric stages.
    """

    genes: tuple[GeneId, ...]
    d: np.ndarray
    _index: dict[GeneId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "d", m)
        n = len(self.genes)
        if m.shape != (n, n):
            raise ValidationError(f"distance matrix shape {m.shape} != ({n}, {n})")
        if len(set(self.genes)) != n:
            raise ValidationError("duplicate gene ids in distance matrix")
        if not np.isfinite(m).all():
            raise ValidationError("distance matrix contains non-finite values")
        if (m != m.T).any():
            raise ValidationError("distance matrix is not symmetric")
        if np.diagonal(m).any():
            raise ValidationError("distance matrix diagonal must be zero")
        if m.min() < 0.0 or m.max() > 1.0:
            raise ValidationError("distance matrix entries must lie in [0, 1]")
        object.__setattr__(self, "_index", {g: i for i, g in enumerate(self.genes)})

    def index_of(self, gene: GeneId) -> int:
        try:
            return self._index[gene]
        except KeyError:
            raise UnknownIdError(f"gene {gene!r} not in distance matrix") from None

    def value(self, gi: GeneId, gj: GeneId) -> float:
        return float(self.d[self.index_of(gi), self.index_of(gj)])

    def restrict(self, genes: list[GeneId] | tuple[GeneId, ...]) -> "DistanceMatrix":
        """Submatrix over ``genes``, in the given order."""
        idx = np.array([self.index_of(g) for g in genes])
        return DistanceMatrix(tuple(genes), self.d[np.ix_(idx, idx)])

    def require_same_genes(self, other: "DistanceMatrix") -> None:
        if self.genes != other.genes:
            raise AlignmentError("distance matrices cover different ordered gene lists")


def upper_triangle(n: int) -> np.ndarray:
    """Boolean n x n mask of the strict upper triangle.  Indexing with it
    visits the cells row by row, the order of ``np.triu_indices(n, 1)``,
    at an eighth of the memory of those two index arrays."""
    idx = np.arange(n)
    return idx[:, None] < idx


def _lines(data: bytes | str) -> Iterator[tuple[int, str]]:
    """(line of the file, line) for each non-blank line; bytes are UTF-8."""
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    return ((no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip())


def tsv_rows(data: bytes | str, columns: int, header: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line of the file, fields) for each data row of a TSV.  Only
    the first non-blank line can be the header: it is one if it starts with
    ``header``, so a gene named ``gene_id`` stays a gene.  A row without
    ``columns`` fields raises ParseError."""
    lines = _lines(data)
    first = next(lines, None)
    if first and not first[1].startswith(header):
        lines = chain([first], lines)
    for no, line in lines:
        fields = line.split("\t")
        if len(fields) != columns:
            raise ParseError(f"expected {columns} columns, got {len(fields)}", no)
        yield no, fields


def tsv_matrix(data: bytes | str, what: str) -> tuple[list[str], list[tuple[int, str]], np.ndarray]:
    """The header's fields, each row's (line of the file, gene field) and the
    values of a ``gene_id TAB name1 TAB ...`` table of numbers.

    The first non-blank line is the header.  Each row must have its width.
    numpy's C text reader parses the cells; if it rejects one, ``float()``
    reads them cell by cell: it accepts a little more (``0.1_5``), gives the
    same bits where numpy accepts a cell, and names a bad cell's line.
    """
    lines = _lines(data)
    head_no, head = next(lines, (0, ""))
    if not head_no:
        raise ParseError(f"empty {what}", 1)
    header = head.split("\t")
    width = len(header)
    if width < 2:
        raise ParseError("header must name at least one column after the gene column", head_no)
    rows, cells = [], []
    for no, line in lines:
        if (got := line.count("\t") + 1) != width:
            raise ParseError(f"expected {width} columns, got {got}", no)
        gene, _tab, rest = line.partition("\t")
        rows.append((no, gene))
        cells.append(rest)
    if not rows:
        raise ParseError(f"no gene rows in {what}", head_no + 1)
    values = None
    if all(cells):  # numpy would skip a row of "", which float() rejects
        try:
            values = np.loadtxt(cells, delimiter="\t", comments=None, ndmin=2)
        except ValueError:
            pass  # the float() loop below reads the cell or names its line
    if values is None:
        values = np.empty((len(rows), width - 1))
        for row, (no, _gene), rest in zip(values, rows, cells):
            for col, cell in enumerate(rest.split("\t")):
                try:
                    row[col] = float(cell)
                except ValueError:
                    raise ParseError(
                        f"missing or non-numeric cell {cell!r} in column {col + 2}", no
                    ) from None
    return header, rows, values


def load_expression(data: bytes | str) -> ExpressionMatrix:
    """Read a ``gene_id TAB cond1 TAB ...`` TSV, one gene per row, with
    ``tsv_matrix``; an empty or duplicate gene id is a ParseError too.  A
    gene with a missing value must be dropped before the file is written."""
    header, rows, values = tsv_matrix(data, "expression file")
    genes: dict[GeneId, None] = {}
    for lineno, gene in rows:
        gene = gene.strip()
        if not gene:
            raise ParseError("empty gene_id", lineno)
        if gene in genes:
            raise ParseError(f"duplicate gene id {gene!r}", lineno)
        genes[gene] = None
    return ExpressionMatrix(tuple(genes), tuple(h.strip() for h in header[1:]), values)


class PreparedRows:
    """Expression rows in the form one metric's formula reads, computed once.

    Euclidean keeps the rows as given.  Pearson centres each row on its mean
    and keeps the norms of the centred rows; a flat row has norm 0.
    """

    def __init__(self, values: np.ndarray, metric: str):
        if metric == EUCLIDEAN:
            self.rows, self.norms = values, None
        elif metric == PEARSON:
            self.rows = values - values.mean(axis=1, keepdims=True)
            self.norms = np.sqrt((self.rows * self.rows).sum(axis=1))
        else:
            raise ValidationError(f"unknown expression metric {metric!r}")

    def raw_distances(self, i: int | slice, block: "PreparedRows", start: int = 0) -> np.ndarray:
        """Raw distances from row ``i`` to each row of ``block`` from ``start`` on:
        Euclidean, or Pearson's (1 - r) / 2 with r = 0 where either row is flat.

        ``i`` may also be a slice of rows, which gives one row of distances
        per sliced row, each with the bits of its own single-row call.  A
        Euclidean distance sums its squares down the row's last axis either
        way.  The Pearson numerators are one matrix-vector product per row
        over exactly ``block``'s rows: one matrix product over a slice can
        round its last bits differently.  ``block`` must be prepared for the
        same metric.
        """
        rows, x = block.rows[start:], self.rows[i]
        if self.norms is None:
            diff = rows - x[..., None, :]
            np.multiply(diff, diff, out=diff)
            return np.sqrt(diff.sum(axis=-1))
        if x.ndim == 1:
            num = rows @ x
        else:
            num = np.empty((len(x), len(rows)))
            for j, v in enumerate(x):
                np.matmul(rows, v, out=num[j])
        denom = block.norms[start:] * self.norms[i][..., None]
        r = np.divide(num, denom, out=np.zeros(denom.shape), where=denom > 0.0)
        np.clip(r, -1.0, 1.0, out=r)
        return (1.0 - r) / 2.0


def expression_distance_matrix(m: ExpressionMatrix, metric: str = EUCLIDEAN) -> DistanceMatrix:
    """Pairwise expression distances normalized to [0, 1].

    ``euclidean`` divides by the dataset's maximum off-diagonal distance so
    at least one pair sits at 1; ``pearson`` maps correlation r to
    (1 - r) / 2 and rejects a flat gene.  Row i's upper triangle is one
    ``PreparedRows.raw_distances`` call against rows i+1 onwards, mirrored
    into column i below the diagonal as it is computed, so the matrix is
    exactly symmetric and no second n x n array is made.
    """
    if len(m.genes) < 2:
        raise ValidationError("need at least 2 genes for a distance matrix")
    prep = PreparedRows(m.values, metric)
    flat = [] if prep.norms is None else np.flatnonzero(prep.norms == 0.0)
    if len(flat):
        raise DegenerateError(
            f"gene {m.genes[flat[0]]!r} has zero variance; Pearson distance undefined"
        )
    n = len(m.genes)
    d = np.zeros((n, n))
    for i in range(n - 1):
        d[i + 1 :, i] = d[i, i + 1 :] = prep.raw_distances(i, prep, i + 1)
    if metric == EUCLIDEAN:
        peak = d.max()
        if peak == 0.0:
            raise DegenerateError(
                "all expression rows identical; cannot normalize euclidean distances"
            )
        d /= peak
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(m.genes, d)


# rows per block of write_distance_tsv: its memory is O(block x n)
TSV_BLOCK_ROWS = 8


def write_distance_tsv(dm: DistanceMatrix, f: TextIO) -> None:
    """Write the full square matrix to the text file ``f`` as TSV, with a
    gene-id header row and column.

    Each cell is ``f"{v:.10g}"``.  Rows go out in blocks of
    ``TSV_BLOCK_ROWS``, so no whole-matrix key, string or joined copy is
    made.  Within a block, values are told apart by their bit patterns, not
    by ``==``, so a ``-0.0`` cell still prints ``-0`` next to a ``0.0`` one.
    A block with few distinct values formats each of them once and looks
    the cells up; one whose values are mostly distinct formats its cells
    row by row with ``"%.10g"``, the same float formatter, which is cheaper
    there than the lookup.
    """
    n = len(dm.genes)
    f.write("gene_id\t" + "\t".join(dm.genes) + "\n")
    row_format = "%s" + "\t%.10g" * n + "\n"
    for start in range(0, n, TSV_BLOCK_ROWS):
        block = dm.d[start : start + TSV_BLOCK_ROWS]
        keys, inv = np.unique(block.view(np.int64), return_inverse=True)
        genes = dm.genes[start : start + TSV_BLOCK_ROWS]
        if 2 * len(keys) > block.size:
            for g, row in zip(genes, block):
                f.write(row_format % (g, *row.tolist()))
        else:
            texts = [f"{v:.10g}" for v in keys.view(np.float64).tolist()]
            for g, row in zip(genes, inv.reshape(block.shape)):
                f.write(g + "\t" + "\t".join(map(texts.__getitem__, row.tolist())) + "\n")


def read_distance_tsv(data: bytes | str) -> DistanceMatrix:
    """Read the square TSV that ``write_distance_tsv`` writes (``tsv_matrix``):
    one row per header gene, in the header's order."""
    header, rows, d = tsv_matrix(data, "distance matrix file")
    genes = tuple(header[1:])
    n = len(genes)
    if len(rows) != n:
        raise ParseError(f"expected {n} data rows, got {len(rows)}", rows[-1][0])
    for (no, row_gene), gene in zip(rows, genes):
        if row_gene != gene:
            raise ParseError(f"row gene {row_gene!r} != column gene {gene!r}", no)
    d = np.minimum(d, d.T)  # %.10g round-trip can break exact symmetry
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(genes, d)
