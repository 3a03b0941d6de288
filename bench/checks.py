"""Output checks behind the benchmark's failure count.

The checks hold for any correct sampler, whatever values its random
stream draws: every sampled vertex is a legal choice, each row samples
min(fanout, available) distinct vertices, and every batch is trained once.
They return the indices of the batches that fail.
"""

from __future__ import annotations

import numpy as np


def _neighbour_keys(G) -> np.ndarray:
    """Sorted keys u * n + v of every edge (CSR order is already sorted)."""
    A = G.adjacency
    rows = np.repeat(np.arange(G.n, dtype=np.int64), A.row_nnz())
    return rows * G.n + A.col_indices


class SampleChecker:
    def __init__(self, G, cfg):
        self.G = G
        self.cfg = cfg
        self.degree = G.degrees()
        self.keys = _neighbour_keys(G)

    def failed_batches(self, sampled) -> set[int]:
        """Batch indices (within the chunk) whose sampled layers are wrong."""
        if len(sampled.layers) != self.cfg.layers:
            return set(range(len(sampled.batches)))
        failed: set[int] = set()
        for layer, fanout in zip(sampled.layers, self.cfg.fanouts):
            if sampled.kind.value == "sage":
                failed |= self._sage_layer(layer, fanout)
            else:
                failed |= self._ladies_layer(layer, fanout)
        return failed

    def _sage_layer(self, layer, fanout) -> set[int]:
        """Row r of the frontier samples from the neighbours of its row
        vertex u: min(fanout, deg u) distinct vertices, each adjacent to u."""
        F = layer.frontier
        counts = np.array([len(v) for v in layer.row_vertices])
        if F.n_rows != counts.sum():
            return set(range(len(counts)))
        row_vertex = np.concatenate(layer.row_vertices).astype(np.int64)
        batch_of_row = np.repeat(np.arange(len(counts)), counts)
        nnz = F.row_nnz()
        bad = nnz != np.minimum(fanout, self.degree[row_vertex])
        entry_row = np.repeat(np.arange(F.n_rows), nnz)
        query = row_vertex[entry_row] * self.G.n + F.col_indices
        pos = np.minimum(np.searchsorted(self.keys, query), len(self.keys) - 1)
        not_adjacent = self.keys[pos] != query
        repeated = np.zeros(F.nnz, dtype=bool)
        repeated[1:] = (entry_row[1:] == entry_row[:-1]) & (
            F.col_indices[1:] <= F.col_indices[:-1]
        )
        bad[entry_row[not_adjacent | repeated]] = True
        return set(batch_of_row[bad].tolist())

    def _ladies_layer(self, layer, s) -> set[int]:
        """Row i of the frontier samples from batch i's aggregated
        neighbourhood: min(s, its size) distinct vertices inside it."""
        F = layer.frontier
        if F.n_rows != len(layer.row_vertices):
            return set(range(len(layer.row_vertices)))
        A = self.G.adjacency
        bad = set()
        for i, vertices in enumerate(layer.row_vertices):
            neighbours = np.unique(
                np.concatenate(
                    [A.col_indices[A.row_offsets[u] : A.row_offsets[u + 1]] for u in vertices]
                    or [np.zeros(0, dtype=np.int64)]
                )
            )
            picked = F.row_cols(i)
            if (
                len(picked) != min(s, len(neighbours))
                or np.any(np.diff(picked) <= 0)
                or not np.all(np.isin(picked, neighbours))
            ):
                bad.add(i)
        return bad


def conserved(chunks, train, n_batches_expected, report) -> bool:
    """Every batch trained exactly once: the chunks' batches tile the
    training set with consecutive offsets, and every batch has a trainer."""
    offset = 0
    parts = []
    for batch_offset, sampled in chunks:
        if batch_offset != offset:
            return False
        offset += len(sampled.batches)
        parts.extend(sampled.batches)
    return (
        offset == n_batches_expected == report.n_batches
        and sum(report.batches_per_process) == report.n_batches
        and np.array_equal(np.sort(np.concatenate(parts)), train)
    )
