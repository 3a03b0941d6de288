"""Minibatch samplers expressed as sparse matrix operations.

Node-wise (GraphSAGE-style) and layer-wise (LADIES-style) sampling both
follow the same per-layer recipe: multiply the current frontier matrix with
the adjacency matrix to get one probability row per frontier row, normalize,
draw without replacement from each row, then extract the sampled adjacency
block for that layer.

Randomness is keyed per (seed, epoch, layer, global row, column), never
per call, so a bulk run over k batches, k separate single-batch runs, and
any distributed split of the rows all draw identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractViolation
from .sparse import (
    Graph,
    SparseMatrix,
    block_diag,
    build_column_extraction,
    compact_columns,
    expand_row_extraction,
    norm_rows_ladies,
    norm_rows_sage,
    spgemm,
    vstack,
)


class SamplerKind(str, Enum):
    SAGE = "sage"
    LADIES = "ladies"


@dataclass(frozen=True)
class SamplerConfig:
    """Hyperparameters of a sampling run.

    fanouts holds the per-layer sample count, outermost layer first; for
    layer-wise sampling every entry is the layer width s.
    """

    kind: SamplerKind
    layers: int
    batch_size: int
    fanouts: tuple[int, ...]
    bulk_count: int
    seed: int

    def __post_init__(self):
        if self.layers < 1:
            raise ContractViolation("layers must be >= 1")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if self.bulk_count < 1:
            raise ContractViolation("bulk_count must be >= 1")
        if len(self.fanouts) != self.layers:
            raise ContractViolation("fanouts must have one entry per layer")
        if any(s < 1 for s in self.fanouts):
            raise ContractViolation("fanouts must be >= 1")
        object.__setattr__(self, "kind", SamplerKind(self.kind))
        object.__setattr__(self, "fanouts", tuple(int(s) for s in self.fanouts))

    @classmethod
    def sage(cls, layers, batch_size, fanouts, bulk_count=1, seed=0):
        if isinstance(fanouts, int):
            fanouts = (fanouts,) * layers
        return cls(SamplerKind.SAGE, layers, batch_size, tuple(fanouts), bulk_count, seed)

    @classmethod
    def ladies(cls, layers, batch_size, sample_num, bulk_count=1, seed=0):
        return cls(
            SamplerKind.LADIES, layers, batch_size, (sample_num,) * layers, bulk_count, seed
        )

    @property
    def s(self):
        return self.fanouts[0]

    def rows_per_batch(self, depth):
        """Nominal frontier rows one batch contributes at sampling depth
        `depth` (1-based); used as the stride for global row keys."""
        if self.kind is SamplerKind.LADIES:
            return 1
        rows = self.batch_size
        for s in self.fanouts[: depth - 1]:
            rows *= s
        return rows


# -- seed matrices -----------------------------------------------------------


def sage_seed_matrix(batches, n) -> SparseMatrix:
    """Stacked node-wise seed: one row per batch vertex, one-hot at that
    vertex. Batch i's rows are contiguous, in batch order."""
    cols, _ = _flatten_batches(batches, n)
    m = len(cols)
    return SparseMatrix(m, n, np.arange(m + 1), cols, np.ones(m), validate=False)


def ladies_seed_matrix(batches, n) -> SparseMatrix:
    """Stacked layer-wise seed: one row per batch with a 1 in every batch
    vertex's column."""
    cols, offsets = _flatten_batches(batches, n, sort_within=True)
    return SparseMatrix(len(batches), n, offsets, cols, np.ones(len(cols)))


def _flatten_batches(batches, n, sort_within=False):
    parts = []
    offsets = np.zeros(len(batches) + 1, dtype=np.int64)
    for i, batch in enumerate(batches):
        ids = np.asarray(batch, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ContractViolation("batch vertex id out of range")
        if sort_within:
            ids = np.sort(ids)
            if ids.size > 1 and np.any(np.diff(ids) == 0):
                raise ContractViolation("batch vertices must be distinct")
        parts.append(ids)
        offsets[i + 1] = offsets[i] + len(ids)
    cols = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    return cols, offsets


# -- the exponential race ----------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))
_ONE_BITS = np.uint64(0x3FF0000000000000)  # exponent field of 1.0
_BLOCK = 1 << 15


def _splitmix(state, counter, scratch):
    """state <- mix(state + (counter + 1) * golden), in place and wrapping
    mod 2^64: one splitmix64 step per element. scratch has state's shape."""
    np.add(counter, 1, out=scratch)
    scratch *= _GOLDEN
    state += scratch
    for shift, mult in _MIX:
        np.right_shift(state, shift, out=scratch)
        state ^= scratch
        state *= mult
    np.right_shift(state, 31, out=scratch)
    state ^= scratch


def race_uniforms(P: SparseMatrix, epoch, layer, seed, row_keys=None) -> np.ndarray:
    """One uniform in (0, 1] per nonzero (r, j) of P, keyed by
    (seed, epoch, layer, row_keys[r], j).

    A counter-based generator (Salmon et al., SC'11): every value is a
    splitmix64 hash of its own key, so it does not depend on which other
    entries are drawn, in what order, or by which process. row_keys
    defaults to the local row index.
    """
    rows = np.arange(P.n_rows) if row_keys is None else row_keys
    rows = np.asarray(rows, dtype=np.int64).view(np.uint64)
    if rows.shape != (P.n_rows,):
        raise ContractViolation("row_keys must hold one key per row")
    head = np.zeros(1, dtype=np.uint64)
    for part in (seed, epoch, layer):
        part = np.array([part], dtype=np.int64).view(np.uint64)
        _splitmix(head, part, np.empty_like(head))
    row_state = np.full(P.n_rows, head[0])
    _splitmix(row_state, rows, np.empty_like(row_state))
    state = np.repeat(row_state, P.row_nnz())
    cols = P.col_indices.view(np.uint64)
    scratch = np.empty(min(_BLOCK, P.nnz), dtype=np.uint64)
    # blocks small enough that the hash's passes stay in cache
    for lo in range(0, P.nnz, _BLOCK):
        z = state[lo : lo + _BLOCK]
        _splitmix(z, cols[lo : lo + _BLOCK], scratch[: len(z)])
        # the top 52 bits as the mantissa of a float in [1, 2); 2 - x is exact
        z >>= np.uint64(12)
        z |= _ONE_BITS
        u = z.view(np.float64)
        np.subtract(2.0, u, out=u)
    return state.view(np.float64)


def sample_frontier(P: SparseMatrix, s, epoch, layer, seed, row_keys=None) -> SparseMatrix:
    """Sample min(s, nnz) columns without replacement from every row of P.

    Efraimidis–Spirakis exponential race: nonzero (r, j) gets the key
    -log(u) / P[r, j], with u from race_uniforms, and each row keeps its s
    smallest keys. Their ranking has the distribution of successive
    inverse-transform draws, each renormalized over the weights not yet
    drawn. The result has P's shape with value-1 entries at the sampled
    columns.
    """
    if P.nnz and P.values.min() <= 0:
        raise ContractViolation("probabilities must be positive")
    s = int(s)
    keys = race_uniforms(P, epoch, layer, seed, row_keys)
    np.log(keys, out=keys)
    np.divide(keys, P.values, out=keys)
    np.negative(keys, out=keys)
    picked = _race_winners(keys, P, s)
    offsets = np.concatenate([[0], np.cumsum(np.minimum(P.row_nnz(), s))])
    return SparseMatrix(
        P.n_rows, P.n_cols, offsets, P.col_indices[picked], np.ones(len(picked)),
        validate=False,
    )


def _race_winners(keys, P: SparseMatrix, s) -> np.ndarray:
    """Positions of the s smallest keys in each row of P (all of a row with
    at most s entries), ascending; equal keys go to the lower column.

    A sort of every nonzero is slow and large when hub rows are far longer
    than s, so each row first keeps the candidates below tau = (2s + 16) /
    (row mass): a key of weight w is Exp(w), so about 2s + 16 keys fall below
    tau, and whenever at least s do, the s smallest are among them. A row
    left with fewer than s candidates keeps all of its entries, so the
    selection stays exact. The candidates are ranked by one stable sort per
    group of rows padded to the same power-of-two length.
    """
    counts = P.row_nnz()
    starts = P.row_offsets[:-1][counts > 0]
    counts = counts[counts > 0]
    mass = np.add.reduceat(P.values, starts)
    below = keys < np.repeat((2 * s + 16) / mass, counts)
    n_below = np.add.reduceat(below, starts, dtype=np.int64)
    few = n_below < s
    below |= np.repeat(few, counts)
    n_cand = np.where(few, counts, n_below)
    cand = np.flatnonzero(below)
    del below
    cand_keys = keys[cand]
    cand_starts = np.cumsum(n_cand) - n_cand
    won = np.repeat(n_cand <= s, n_cand)
    ranked = np.flatnonzero(n_cand > s)
    width = 2 ** np.ceil(np.log2(n_cand[ranked])).astype(np.int64)
    for w in np.unique(width):
        rows = ranked[width == w]
        lane = np.arange(w)
        idx = cand_starts[rows][:, None] + lane
        block = cand_keys[np.minimum(idx, len(cand_keys) - 1)]
        block[lane >= n_cand[rows][:, None]] = np.inf
        order = np.argsort(block, axis=1, kind="stable")[:, :s]
        won[np.take_along_axis(idx, order, axis=1)] = True
    return cand[won]


# -- epoch-level bulk sampling -------------------------------------------------


@dataclass(frozen=True)
class LayerSample:
    """Sampling output for one layer (depth = hops from the batch, 1-based).

    frontier is the stacked sampled matrix (one row per previous-frontier
    row). adjacency is the stacked extracted block for this layer; rows of
    batch i are contiguous. row_vertices/col_vertices map local adjacency
    rows/columns back to global vertex ids, per batch.
    """

    depth: int
    frontier: SparseMatrix
    adjacency: SparseMatrix
    row_vertices: tuple[np.ndarray, ...]
    col_vertices: tuple[np.ndarray, ...]
    sampled_vertices: tuple[np.ndarray, ...]

    def frontier_size(self):
        return int(sum(len(v) for v in self.sampled_vertices))

    def batch_row_counts(self):
        return [len(v) for v in self.row_vertices]


@dataclass(frozen=True)
class SampledEpoch:
    """All layers of sampled structure for a set of minibatches."""

    kind: SamplerKind
    epoch: int
    batches: tuple[np.ndarray, ...]
    layers: tuple[LayerSample, ...]
    spgemm_calls: int

    def deepest_frontier(self, batch_index):
        """Vertex ids whose feature rows feed forward propagation for one
        batch, in row order with duplicates preserved."""
        return self.layers[-1].sampled_vertices[batch_index]

    def equals(self, other) -> bool:
        if (
            self.kind != other.kind
            or self.epoch != other.epoch
            or len(self.batches) != len(other.batches)
            or len(self.layers) != len(other.layers)
        ):
            return False
        for a, b in zip(self.batches, other.batches):
            if not np.array_equal(a, b):
                return False
        for la, lb in zip(self.layers, other.layers):
            if la.depth != lb.depth:
                return False
            if not la.frontier.equals(lb.frontier):
                return False
            if not la.adjacency.equals(lb.adjacency):
                return False
            for xa, xb in zip(la.row_vertices, lb.row_vertices):
                if not np.array_equal(xa, xb):
                    return False
            for xa, xb in zip(la.col_vertices, lb.col_vertices):
                if not np.array_equal(xa, xb):
                    return False
            for xa, xb in zip(la.sampled_vertices, lb.sampled_vertices):
                if not np.array_equal(xa, xb):
                    return False
        return True


def global_row_keys(cfg: SamplerConfig, depth, batch_ids, rows_per_batch_actual):
    """Global row ids for a stack of per-batch frontier rows.

    Batch b's rows occupy [b * nominal, b * nominal + actual) where nominal
    is the clamp-free row count per batch at this depth; actual can be
    smaller when low-degree vertices clamp the fanout.
    """
    stride = cfg.rows_per_batch(depth)
    keys = []
    for b, actual in zip(batch_ids, rows_per_batch_actual):
        if actual > stride:
            raise ContractViolation("actual rows exceed the nominal stride")
        keys.append(b * stride + np.arange(actual, dtype=np.int64))
    return np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)


def sample_epoch_bulk(
    G: Graph,
    cfg: SamplerConfig,
    batches,
    epoch=0,
    batch_offset=0,
    prob_spgemm=None,
) -> SampledEpoch:
    """Sample every layer for k minibatches in one stacked pass.

    batch_offset is the epoch-global index of batches[0]; chunked runs pass
    it so their row keys line up with a single whole-epoch run.
    prob_spgemm lets a distributed executor substitute its own product for
    the probability-generation multiply; it defaults to the local kernel.
    """
    batches = [np.asarray(b, dtype=np.int64) for b in batches]
    n = G.n
    if prob_spgemm is None:

        def prob_spgemm(Q):
            return spgemm(Q, G.adjacency)

    batch_ids = [batch_offset + i for i in range(len(batches))]

    if cfg.kind is SamplerKind.SAGE:
        Q = sage_seed_matrix(batches, n)
        rows_actual = [len(b) for b in batches]
        row_vertices = [b.copy() for b in batches]
    else:
        Q = ladies_seed_matrix(batches, n)
        rows_actual = [1] * len(batches)
        row_vertices = [np.sort(b) for b in batches]

    layers = []
    spgemm_calls = 0
    for depth in range(1, cfg.layers + 1):
        fanout = cfg.fanouts[depth - 1]
        P = prob_spgemm(Q)
        spgemm_calls += 1
        norm = norm_rows_sage if cfg.kind is SamplerKind.SAGE else norm_rows_ladies
        P = norm(P)
        keys = global_row_keys(cfg, depth, batch_ids, rows_actual)
        frontier = sample_frontier(P, fanout, epoch, depth, cfg.seed, keys)

        row_starts = np.cumsum([0] + rows_actual)
        if cfg.kind is SamplerKind.SAGE:
            layer, Q, rows_actual, row_vertices = _extract_sage(
                depth, frontier, row_starts, row_vertices
            )
        else:
            layer, Q, row_vertices = _extract_ladies(
                depth, Q, frontier, G, row_vertices
            )
        layers.append(layer)

    return SampledEpoch(
        kind=cfg.kind,
        epoch=epoch,
        batches=tuple(batches),
        layers=tuple(layers),
        spgemm_calls=spgemm_calls,
    )


def sage_batch_blocks(frontier, row_starts):
    """Per-batch node-wise extraction pieces from a stacked sampled frontier.

    Returns (blocks, col_maps, new_rows): per batch, the compacted block
    (empty columns dropped), the global vertex id of every kept column, and
    the sampled vertices in row-expansion order (each frontier row's picks,
    ascending, rows in order) so they line up with the one-hot rows the
    next layer seeds from.
    """
    blocks, col_maps, new_rows = [], [], []
    for i in range(len(row_starts) - 1):
        block = frontier.row_slice(int(row_starts[i]), int(row_starts[i + 1]))
        compacted, col_map = compact_columns(block)
        blocks.append(compacted)
        col_maps.append(col_map)
        new_rows.append(block.col_indices.copy())
    return blocks, col_maps, new_rows


def build_sage_layer(depth, frontier, blocks, col_maps, row_vertices, new_rows):
    return LayerSample(
        depth=depth,
        frontier=frontier,
        adjacency=block_diag(blocks),
        row_vertices=tuple(v.copy() for v in row_vertices),
        col_vertices=tuple(col_maps),
        sampled_vertices=tuple(new_rows),
    )


def ladies_assemble(ar_blocks, qc_blocks) -> SparseMatrix:
    """Bulk layer-wise extraction from per-batch row-extracted blocks and
    column selectors.

    When every batch sampled the same count, the product of the
    block-diagonal row extraction with the stacked column selectors is a
    single (sum of batch rows) × s stack. If a batch's aggregated
    neighbourhood clamped the sample count, per-batch blocks stay isolated
    on the diagonal instead.
    """
    if not qc_blocks:
        return SparseMatrix.empty(0, 0)
    if len({b.n_cols for b in qc_blocks}) == 1:
        return spgemm(block_diag(ar_blocks), vstack(qc_blocks))
    return block_diag([spgemm(a, q) for a, q in zip(ar_blocks, qc_blocks)])


def ladies_batch_blocks(Q, frontier, AR, n):
    """Per-batch layer-wise extraction pieces.

    Q is the seed matrix whose row i lists batch i's frontier vertices; AR
    is the row-extracted adjacency (one row per Q nonzero, in Q's row
    order). Returns (ar_blocks, qc_blocks, sampled) per batch.
    """
    ar_starts = np.concatenate([[0], np.cumsum(Q.row_nnz())])
    sampled, qc_blocks, ar_blocks = [], [], []
    for i in range(Q.n_rows):
        cols = frontier.row_cols(i)
        sampled.append(cols.copy())
        qc_blocks.append(build_column_extraction(cols, n))
        ar_blocks.append(AR.row_slice(int(ar_starts[i]), int(ar_starts[i + 1])))
    return ar_blocks, qc_blocks, sampled


def build_ladies_layer(depth, frontier, adjacency, row_vertices, sampled):
    return LayerSample(
        depth=depth,
        frontier=frontier,
        adjacency=adjacency,
        row_vertices=tuple(v.copy() for v in row_vertices),
        col_vertices=tuple(s.copy() for s in sampled),
        sampled_vertices=tuple(s.copy() for s in sampled),
    )


def _extract_sage(depth, frontier, row_starts, row_vertices):
    """Node-wise extraction: per batch, drop the empty columns of its block
    of the sampled frontier; the next seed expands every sampled vertex to
    its own one-hot row."""
    blocks, col_maps, new_rows = sage_batch_blocks(frontier, row_starts)
    layer = build_sage_layer(depth, frontier, blocks, col_maps, row_vertices, new_rows)
    next_seed = expand_row_extraction(frontier)
    return layer, next_seed, [len(v) for v in new_rows], new_rows


def _extract_ladies(depth, Q, frontier, G, row_vertices):
    """Layer-wise extraction: rows of the previous frontier times columns of
    the new one, as row-extraction × adjacency × column-extraction."""
    QR = expand_row_extraction(Q)
    AR = spgemm(QR, G.adjacency)
    ar_blocks, qc_blocks, sampled = ladies_batch_blocks(Q, frontier, AR, G.n)
    adjacency = ladies_assemble(ar_blocks, qc_blocks)
    layer = build_ladies_layer(depth, frontier, adjacency, row_vertices, sampled)
    return layer, frontier, sampled
