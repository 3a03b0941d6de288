"""CSR sparse matrices and the local kernels the sampling pipeline composes.

Everything in this package moves through one canonical format: CSR with
sorted, deduplicated column indices and double-precision values. Matrices
are immutable after construction (the backing arrays are marked
non-writeable), so they can be shared freely between simulated processes.

The multiply kernel delegates to scipy.sparse for the actual Gustavson
row-by-row product; the wrapper enforces the canonical form on the result
and removes exact zeros, so cancellation never leaves stored zeros while
genuine tiny values are kept.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ContractViolation

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64


class SparseMatrix:
    """Immutable CSR matrix.

    Attributes:
        n_rows, n_cols: matrix dimensions.
        row_offsets: int64 array of length n_rows + 1.
        col_indices: int64 array of length nnz, strictly increasing per row.
        values: float64 array of length nnz, all finite.
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_indices", "values")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values, validate=True):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = _freeze(np.asarray(row_offsets, dtype=INDEX_DTYPE))
        self.col_indices = _freeze(np.asarray(col_indices, dtype=INDEX_DTYPE))
        self.values = _freeze(np.asarray(values, dtype=VALUE_DTYPE))
        if validate:
            self._check_invariants()

    def _check_invariants(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ContractViolation("matrix dimensions must be non-negative")
        off = self.row_offsets
        if off.shape != (self.n_rows + 1,):
            raise ContractViolation("row_offsets must have length n_rows + 1")
        if off[0] != 0 or off[-1] != len(self.col_indices):
            raise ContractViolation("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(off) < 0):
            raise ContractViolation("row_offsets must be non-decreasing")
        if len(self.col_indices) != len(self.values):
            raise ContractViolation("col_indices and values must have equal length")
        if self.col_indices.size:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols:
                raise ContractViolation("column index out of range")
            # strictly increasing within each row: a backward step is only
            # legal at a row boundary
            steps = np.diff(self.col_indices) <= 0
            if np.any(steps):
                boundary = np.zeros(len(self.col_indices) - 1, dtype=bool)
                inner = off[1:-1]
                boundary[inner[(inner > 0) & (inner < len(self.col_indices))] - 1] = True
                if np.any(steps & ~boundary):
                    raise ContractViolation("column indices must be sorted and unique per row")
        if not np.all(np.isfinite(self.values)):
            raise ContractViolation("values must be finite")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals, dedup="sum"):
        """Build from triplets. Duplicates are summed ('sum') or collapsed
        to a single entry keeping one value ('first')."""
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        vals = np.asarray(vals, dtype=VALUE_DTYPE)
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ContractViolation("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ContractViolation("column index out of range")
        if dedup == "first":
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            keep = np.ones(len(rows), dtype=bool)
            if len(rows) > 1:
                keep[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
            mat = sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
        else:
            mat = sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
            mat.sum_duplicates()
        return cls.from_scipy(mat, shape=(n_rows, n_cols))

    @classmethod
    def from_scipy(cls, mat, shape=None):
        csr = mat.tocsr()
        csr.sort_indices()
        n_rows, n_cols = shape if shape is not None else csr.shape
        return cls(n_rows, n_cols, csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array, dtype=VALUE_DTYPE)
        return cls.from_scipy(sp.csr_matrix(array), shape=array.shape)

    @classmethod
    def empty(cls, n_rows, n_cols):
        return cls(n_rows, n_cols, np.zeros(n_rows + 1, dtype=INDEX_DTYPE), [], [])

    @classmethod
    def identity(cls, n):
        return cls(n, n, np.arange(n + 1), np.arange(n), np.ones(n))

    # -- views and accessors ----------------------------------------------

    @property
    def nnz(self):
        return len(self.col_indices)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def row_slice(self, start, stop):
        """Contiguous block of rows [start, stop) as a new matrix."""
        if not (0 <= start <= stop <= self.n_rows):
            raise ContractViolation(f"row slice [{start}, {stop}) out of range")
        lo, hi = self.row_offsets[start], self.row_offsets[stop]
        return SparseMatrix(
            stop - start,
            self.n_cols,
            self.row_offsets[start : stop + 1] - lo,
            self.col_indices[lo:hi],
            self.values[lo:hi],
            validate=False,
        )

    def row_cols(self, r):
        """Column indices of row r (sorted)."""
        return self.col_indices[self.row_offsets[r] : self.row_offsets[r + 1]]

    def row_vals(self, r):
        return self.values[self.row_offsets[r] : self.row_offsets[r + 1]]

    def row_nnz(self):
        return np.diff(self.row_offsets)

    def nonzero_cols(self):
        """Distinct column indices with at least one entry, ascending."""
        return np.unique(self.col_indices)

    def to_scipy(self):
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols), dtype=VALUE_DTYPE)
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
        out[rows, self.col_indices] = self.values
        return out

    def equals(self, other):
        """Bitwise equality of shape, pattern and values."""
        return (
            self.shape == other.shape
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


class Graph:
    """Unweighted graph held as an n×n 0/1 adjacency matrix.

    Row v lists the vertices reachable from v in one hop; all stored values
    are exactly 1.0 and duplicate edges are collapsed at construction.
    """

    __slots__ = ("adjacency", "n")

    def __init__(self, adjacency: SparseMatrix):
        if adjacency.n_rows != adjacency.n_cols:
            raise ContractViolation("adjacency matrix must be square")
        if adjacency.nnz and not np.all(adjacency.values == 1.0):
            raise ContractViolation("adjacency values must all equal 1.0")
        self.adjacency = adjacency
        self.n = adjacency.n_rows

    @classmethod
    def from_edges(cls, n, sources, targets):
        src = np.asarray(sources, dtype=INDEX_DTYPE)
        dst = np.asarray(targets, dtype=INDEX_DTYPE)
        adj = SparseMatrix.from_coo(n, n, src, dst, np.ones(len(src)), dedup="first")
        return cls(adj)

    def degrees(self):
        return self.adjacency.row_nnz()

    def has_edge(self, u, v):
        cols = self.adjacency.row_cols(u)
        i = np.searchsorted(cols, v)
        return i < len(cols) and cols[i] == v

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.adjacency.nnz})"


# -- kernels ----------------------------------------------------------------


def spgemm(left: SparseMatrix, right: SparseMatrix) -> SparseMatrix:
    """Sparse-sparse product left @ right.

    Entries that cancel to exactly zero are removed from the result, so
    repeated products cannot grow a phantom pattern.
    """
    if left.n_cols != right.n_rows:
        raise ContractViolation(
            f"spgemm dimension mismatch: {left.shape} @ {right.shape}"
        )
    prod = sp.csr_matrix(left.to_scipy() @ right.to_scipy())
    prod.eliminate_zeros()
    return SparseMatrix.from_scipy(prod, shape=(left.n_rows, right.n_cols))


def norm_rows_sage(P: SparseMatrix) -> SparseMatrix:
    """Divide each entry by its row sum, turning rows into distributions.

    Empty rows stay empty and the sparsity pattern is unchanged. Values
    must be non-negative.
    """
    return _normalize_rows(P, square=False)


def norm_rows_ladies(P: SparseMatrix) -> SparseMatrix:
    """Replace each entry e by e^2 / sum of squares over its row.

    The input rows hold neighbour counts; the output rows are the
    degree-squared sampling distributions used by layer-wise sampling.
    """
    return _normalize_rows(P, square=True)


def _normalize_rows(P, square):
    if P.nnz and P.values.min() < 0:
        raise ContractViolation("row normalization requires non-negative values")
    if not P.nnz:
        return P
    vals = P.values * P.values if square else P.values
    counts = P.row_nnz()
    nonempty = counts > 0
    # reduceat segments tile the data exactly because empty rows contribute
    # no elements between consecutive nonempty starts
    sums = np.add.reduceat(vals, P.row_offsets[:-1][nonempty])
    if np.any(sums <= 0):
        raise ContractViolation("nonempty row with zero mass cannot be normalized")
    out = vals / np.repeat(sums, counts[nonempty])
    return SparseMatrix(P.n_rows, P.n_cols, P.row_offsets, P.col_indices, out, validate=False)


def vstack(blocks: Sequence[SparseMatrix], n_cols: int | None = None) -> SparseMatrix:
    """Stack blocks vertically, preserving order.

    All blocks must share a column count. An empty list needs an explicit
    n_cols, otherwise the result width would be undefined.
    """
    blocks = list(blocks)
    if not blocks:
        if n_cols is None:
            raise ContractViolation("vstack of an empty list requires n_cols")
        return SparseMatrix.empty(0, n_cols)
    width = blocks[0].n_cols
    if n_cols is not None and n_cols != width:
        raise ContractViolation("explicit n_cols disagrees with block width")
    for b in blocks[1:]:
        if b.n_cols != width:
            raise ContractViolation("vstack blocks must share n_cols")
    offsets = [blocks[0].row_offsets]
    base = blocks[0].nnz
    for b in blocks[1:]:
        offsets.append(b.row_offsets[1:] + base)
        base += b.nnz
    return SparseMatrix(
        sum(b.n_rows for b in blocks),
        width,
        np.concatenate(offsets),
        np.concatenate([b.col_indices for b in blocks]),
        np.concatenate([b.values for b in blocks]),
        validate=False,
    )


def block_diag(blocks: Sequence[SparseMatrix]) -> SparseMatrix:
    """Place each block on the diagonal of an otherwise-empty matrix."""
    blocks = list(blocks)
    if not blocks:
        return SparseMatrix.empty(0, 0)
    offsets = [blocks[0].row_offsets]
    cols = [blocks[0].col_indices]
    nnz_base = blocks[0].nnz
    col_base = blocks[0].n_cols
    for b in blocks[1:]:
        offsets.append(b.row_offsets[1:] + nnz_base)
        cols.append(b.col_indices + col_base)
        nnz_base += b.nnz
        col_base += b.n_cols
    return SparseMatrix(
        sum(b.n_rows for b in blocks),
        col_base,
        np.concatenate(offsets),
        np.concatenate(cols),
        np.concatenate([b.values for b in blocks]),
        validate=False,
    )


def compact_columns(M: SparseMatrix) -> tuple[SparseMatrix, np.ndarray]:
    """Drop empty columns.

    Returns the compacted matrix plus column_map, where column_map[j] is
    the original index of new column j. Relative column order is preserved
    and the nonzero pattern is untouched.
    """
    kept = np.unique(M.col_indices)
    new_cols = np.searchsorted(kept, M.col_indices)
    out = SparseMatrix(
        M.n_rows, len(kept), M.row_offsets, new_cols, M.values, validate=False
    )
    return out, kept


def expand_row_extraction(Q: SparseMatrix) -> SparseMatrix:
    """Give every nonzero of Q its own one-hot row.

    Output has nnz(Q) rows and the same column count; the rows produced by
    one input row stay contiguous, in ascending column order. Used to turn
    a frontier row into per-vertex extraction rows.
    """
    m = Q.nnz
    return SparseMatrix(
        m, Q.n_cols, np.arange(m + 1), Q.col_indices, np.ones(m), validate=False
    )


def column_window(M: SparseMatrix, lo: int, hi: int) -> SparseMatrix:
    """Entries of M with column index in [lo, hi), shifted to start at 0.

    The result has hi - lo columns and M's row count; used to slice a block
    row into the per-stage column blocks of the distributed multiply.
    """
    if not (0 <= lo <= hi <= M.n_cols):
        raise ContractViolation(f"column window [{lo}, {hi}) out of range")
    mask = (M.col_indices >= lo) & (M.col_indices < hi)
    row_ids = np.repeat(np.arange(M.n_rows), M.row_nnz())
    counts = np.bincount(row_ids[mask], minlength=M.n_rows)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return SparseMatrix(
        M.n_rows, hi - lo, offsets, M.col_indices[mask] - lo, M.values[mask],
        validate=False,
    )


def rows_subset(M: SparseMatrix, rows) -> SparseMatrix:
    """Copy of M keeping only the given rows; all other rows are empty.

    Models a sparsity-aware transfer: the result's nnz is exactly the word
    count of sending just those rows.
    """
    rows = np.unique(np.asarray(rows, dtype=INDEX_DTYPE))
    if rows.size and (rows[0] < 0 or rows[-1] >= M.n_rows):
        raise ContractViolation("row id out of range")
    nnz_per_row = M.row_nnz()
    counts = np.zeros(M.n_rows, dtype=INDEX_DTYPE)
    counts[rows] = nnz_per_row[rows]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    lens = nnz_per_row[rows]
    starts = M.row_offsets[rows]
    total = int(lens.sum())
    # gather index: for each kept row (ascending), the contiguous range of
    # its data in M
    excl = np.concatenate([[0], np.cumsum(lens)[:-1]]) if len(lens) else lens
    gather = np.repeat(starts - excl, lens) + np.arange(total)
    return SparseMatrix(
        M.n_rows, M.n_cols, offsets, M.col_indices[gather], M.values[gather],
        validate=False,
    )


def add(left: SparseMatrix, right: SparseMatrix) -> SparseMatrix:
    """Elementwise sparse sum; exact zeros from cancellation are removed,
    as in spgemm."""
    if left.shape != right.shape:
        raise ContractViolation(f"add shape mismatch: {left.shape} vs {right.shape}")
    total = sp.csr_matrix(left.to_scipy() + right.to_scipy())
    total.eliminate_zeros()
    return SparseMatrix.from_scipy(total, shape=left.shape)


def build_column_extraction(sampled_cols, n: int) -> SparseMatrix:
    """n×s selector whose column j has a single 1 at row sampled_cols[j]."""
    sampled = np.asarray(sampled_cols, dtype=INDEX_DTYPE)
    if sampled.size:
        if sampled.min() < 0 or sampled.max() >= n:
            raise ContractViolation("sampled vertex id out of range")
        if len(np.unique(sampled)) != len(sampled):
            raise ContractViolation("sampled vertex ids must be distinct")
    s = len(sampled)
    # one entry per column at (sampled[j], j); assemble row-wise in CSR
    order = np.argsort(sampled, kind="stable")
    rows = sampled[order]
    cols = np.arange(s, dtype=INDEX_DTYPE)[order]
    offsets = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.add.at(offsets, rows + 1, 1)
    np.cumsum(offsets, out=offsets)
    return SparseMatrix(n, s, offsets, cols, np.ones(s), validate=False)
