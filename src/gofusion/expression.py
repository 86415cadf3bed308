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


# -- the square TSV writer ------------------------------------------------------

# bytes of the buffers one block of write_distance_tsv holds, and what one
# cell takes in them: its slot, five pair floats, five floats of work (then
# five pair indices) and five flags
_TSV_BLOCK_BYTES = 1 << 18
_CELL_BYTES = 16 + 40 + 40 + 5
# and at most this many rows, so that a small matrix goes out in blocks too
TSV_BLOCK_ROWS = 16
# A cell's text goes into a slot of eight little-endian uint16, 16 bytes: a
# tab, the text, NUL padding.  The longest text, "0.000" and ten digits,
# fills it.
_U16 = np.dtype("<u2")
# A value's lead is the count of _EDGES at or below its bit pattern: 0 for
# -0, 1 for 0, _TINY below 1e-4, then 3 to 6 for the decades [1e-4, 1e-3) to
# [0.1, 1), and one more for a value that rounds up into the next decade.
# x * _SCALES[lead] has ten digits before the point: 10**p is exact for
# p <= 22, so the product is rounded once, by at most 1e-6.
_EDGES = np.array([0.0, 5e-324, 1e-4, 1e-3, 1e-2, 1e-1]).view(np.int64)
_SCALES = np.array([0.0, 0.0, 0.0, 1e13, 1e12, 1e11, 1e10])
_TINY = 2
# a scaled value this close to a rounding tie goes to Python's "%.10g", which
# rounds half to even.  Half-integers below 2**52 are doubles and rounding is
# monotone, so only an exact .5 could be on the wrong side: the rest is margin
_NEAR_TIE = 1e-5
# N's ten digits are five pairs, N // _PAIR_DIVISORS % 100
_PAIR_DIVISORS = np.array([1e8, 1e6, 1e4, 1e2, 1.0])[:, None]
# a cell that Python formats holds this until its text is spliced in
_PLACEHOLDER = "\x01"


def _u16s(text: str, size: int) -> np.ndarray:
    return np.frombuffer(text.encode().ljust(2 * size, b"\0"), dtype=_U16)


# "00" to "99", then the same with trailing zeros NUL, for a pair with only
# zeros after it: 400 bytes
_TWO_DIGITS = np.concatenate(
    [_u16s(f"{p:02d}".rstrip("0" if strip else ""), 1) for strip in (0, 1) for p in range(100)]
)
# a slot's first three uint16, by lead; a zero's digits are all cut
_LEADS = np.stack(
    [_u16s(t, 3) for t in ("\t-0", "\t0", "\t", "\t0.000", "\t0.00", "\t0.0", "\t0.", "\t")],
    axis=1,
)
_PYTHON_SLOT = _u16s("\t" + _PLACEHOLDER, 8)[:, None]


class _TenDigitFormatter:
    """Buffers that format up to ``cells`` values of ``[-0.0, 1]`` as
    ``"%.10g"``, a block of rows at a time, with no Python call per value.

    A value in ``[1e-4, 1)`` is scaled by the power of ten that gives its
    decade ten digits before the point and rounded to the nearest integer N.
    An N of 10**10 moves up a decade as 10**9 (0.99999999995 prints ``1``).
    The text is the lead, "0." and the decade's zeros, then N's digits two
    at a time from ``_TWO_DIGITS`` with the trailing zeros cut.  A zero is
    its lead, ``0`` or ``-0``.  Python formats the rest, a value at a time:
    a value below 1e-4 that is not zero (``1e-05``, ``4.940656458e-324``)
    and one whose scaled fraction is within ``_NEAR_TIE`` of .5.
    """

    def __init__(self, cells: int):
        self.pairs = np.empty((5, cells))
        self.work = np.empty((5, cells))
        self.flags = np.ones((5, cells), bool)
        self.slots = np.empty((8, cells), _U16)

    def rows(self, block: np.ndarray) -> list[str]:
        """The text of each row of ``block``: its cells, tab-separated."""
        x = block.ravel()
        c = x.size
        pairs, work, flags, slots = (a[:, :c] for a in (self.pairs, self.work, self.flags, self.slots))
        y, n = work[0], work[1]
        lead = np.searchsorted(_EDGES, x.view(np.int64), side="right")
        # mode="clip" lets take write into out without a buffer; every index
        # is in range
        _SCALES.take(lead, out=y, mode="clip")
        np.multiply(y, x, out=y)
        np.rint(y, out=n)
        np.subtract(y, n, out=y)
        np.abs(y, out=y)
        # the first two rows of flags are masks until the strip flags below
        python, tiny = flags[0], flags[1]
        np.greater(y, 0.5 - _NEAR_TIE, out=python)
        np.equal(lead, _TINY, out=tiny)
        python |= tiny
        odd = np.flatnonzero(python)
        carry = flags[0]
        np.greater_equal(n, 1e10, out=carry)
        lead += carry
        np.subtract(n, 9e9, out=n, where=carry)
        _LEADS.take(lead, axis=1, out=slots[:3], mode="clip")
        del lead  # freed before the text is built
        # the pairs, and which have only zeros after them: those take the text
        # with trailing zeros cut (the last row of flags is always true)
        np.divide(n, _PAIR_DIVISORS, out=pairs)
        np.floor(pairs, out=pairs)
        np.multiply(pairs[:-1], 100.0, out=work[1:])
        np.subtract(pairs[1:], work[1:], out=pairs[1:])
        np.equal(pairs[1:], 0.0, out=flags[:-1])
        for j in (2, 1, 0):
            flags[j] &= flags[j + 1]
        np.add(pairs, 100.0, out=pairs, where=flags)
        index = work.view(np.intp)
        np.copyto(index, pairs, casting="unsafe")
        _TWO_DIGITS.take(index, out=slots[3:], mode="clip")
        slots[:, odd] = _PYTHON_SLOT
        slots[0, :: block.shape[1]] ^= ord("\t") ^ ord("\n")
        text = slots.T.tobytes().translate(None, b"\0").decode("ascii")
        if len(odd):
            parts = text.split(_PLACEHOLDER)
            joined = [""] * (2 * len(parts) - 1)
            joined[::2] = parts
            joined[1::2] = ["%.10g" % v for v in x[odd].tolist()]
            text = "".join(joined)
        return text.split("\n")[1:]


def write_distance_tsv(dm: DistanceMatrix, f: TextIO) -> None:
    """Write the full square matrix to the text file ``f`` as TSV, with a
    gene-id header row and column.

    Each cell is ``f"{v:.10g}"``, as ``_TenDigitFormatter`` formats it.  Rows go
    out in blocks of at most ``TSV_BLOCK_ROWS`` rows whose buffers take at
    most ``_TSV_BLOCK_BYTES`` (one row at least), so no whole-matrix key,
    string or joined copy is made.  A block with few distinct values, told
    apart by their bit patterns, formats each of them once and gathers the
    cells' texts from them; one whose values are mostly distinct formats its
    cells.  Once a block is found mostly distinct, the later blocks format
    their cells without counting their values: the bytes are the same
    either way, and on such a matrix the count costs more than it saves.
    """
    n = len(dm.genes)
    f.write("gene_id\t" + "\t".join(dm.genes) + "\n")
    rows = max(1, min(TSV_BLOCK_ROWS, _TSV_BLOCK_BYTES // (_CELL_BYTES * n)))
    digits = _TenDigitFormatter(rows * n)
    distinct = False
    for start in range(0, n, rows):
        block = dm.d[start : start + rows]
        if not distinct:
            keys, inv = np.unique(block.view(np.int64), return_inverse=True)
            distinct = 2 * len(keys) > block.size
        if distinct:
            lines = digits.rows(block)
        else:
            texts = np.array([f"{v:.10g}" for v in keys.view(np.float64).tolist()], dtype=object)
            lines = ["\t".join(row) for row in texts[inv.reshape(block.shape)].tolist()]
        for g, line in zip(dm.genes[start : start + rows], lines):
            f.write(f"{g}\t{line}\n")


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
