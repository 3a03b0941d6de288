"""Benchmark workloads: input generators and per-workload configurations.

Every input is generated here from the workload seed with numpy alone (no
download), so the same seed always yields the same graph, features and
training set. The program under test receives only the generated `Graph`,
the feature matrix and the training set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

N = 2**14
FEATURE_DIM = 64
BATCH = 256
# Batches per epoch: the training set is EPOCH_BATCHES * BATCH vertices, so a
# k=16 epoch is one bulk round and a k=1 epoch is sixteen.
EPOCH_BATCHES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str  # "regular" or "chung-lu"
    sampler: str  # "sage" or "ladies"
    fanouts: tuple[int, ...]
    bulk_count: int
    procs: int
    replication: int
    mode: str

    @property
    def partitioned(self) -> bool:
        return self.mode == "partitioned"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sage-serial-regular",
            "single-process SAGE bulk baseline on a 16-regular graph: the "
            "per-row draw dominates and dist does no work",
            "regular", "sage", (10, 5), 16, 1, 1, "replicated",
        ),
        Workload(
            "sage-partitioned-skewed",
            "SAGE on a Chung-Lu power-law graph over a partitioned p=8 c=2 "
            "grid: hubs make traffic uneven and all-reduce dominates words",
            "chung-lu", "sage", (10, 5), 16, 8, 2, "partitioned",
        ),
        Workload(
            "ladies-partitioned-k1",
            "LADIES with k=1 over a partitioned p=8 c=2 grid: many small "
            "staged multiplies, extraction multiply and per-chunk repartition",
            "regular", "ladies", (512, 512), 1, 8, 2, "partitioned",
        ),
    )
}


def regular_graph_edges(n: int, d: int, rng: np.random.Generator):
    """Edges of a random d-regular undirected graph (d even).

    Vertex i links to i ± o for d/2 distinct random offsets o in [1, n/2),
    then vertices are relabelled by a random permutation, so every vertex
    has exactly d distinct neighbours and block rows carry equal load.
    """
    offsets = rng.choice(np.arange(1, n // 2), size=d // 2, replace=False)
    src = np.repeat(np.arange(n), d // 2)
    dst = (src + np.tile(offsets, n)) % n
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    return np.concatenate([src, dst]), np.concatenate([dst, src])


def chung_lu_edges(n: int, exponent: float, mean_degree: float, hub_offset: float,
                   rng: np.random.Generator):
    """Edges of an undirected Chung–Lu graph with power-law expected degrees.

    Vertex i gets weight (i + hub_offset) ** (-1 / (exponent - 1)); both
    endpoints of each of n * mean_degree / 2 edges are drawn in proportion
    to weight. Self-loops are dropped and duplicates collapse when the
    matrix is built, so the realised mean degree is lower than mean_degree
    (about 12.5 for the benchmark's 16). A random relabelling spreads hubs
    over the block rows.
    The weights do not depend on the seed, so the degree profile is stable
    across seeds and only the edge draws change.
    """
    weights = (np.arange(n) + hub_offset) ** (-1.0 / (exponent - 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    m = int(n * mean_degree / 2)
    src = np.minimum(np.searchsorted(cdf, rng.random(m), side="right"), n - 1)
    dst = np.minimum(np.searchsorted(cdf, rng.random(m), side="right"), n - 1)
    keep = src != dst
    perm = rng.permutation(n)
    src, dst = perm[src[keep]], perm[dst[keep]]
    return np.concatenate([src, dst]), np.concatenate([dst, src])


@dataclass
class Inputs:
    G: object
    Hpart: object
    train: np.ndarray
    grid: object
    graph_s: float
    features_s: float

    @property
    def setup_s(self) -> float:
        return self.graph_s + self.features_s


def build_inputs(gb, w: Workload, seed: int) -> Inputs:
    """Generate the graph, features and training set for one workload and
    time the set-up: graph construction, then feature synthesis plus the
    feature partition onto the grid."""
    graph_rng, train_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence([seed, 0x6762]).spawn(2)
    )
    t0 = time.perf_counter()
    if w.graph == "regular":
        src, dst = regular_graph_edges(N, 16, graph_rng)
    else:
        src, dst = chung_lu_edges(N, 2.1, 16.0, 1.0, graph_rng)
    G = gb.Graph.from_edges(N, src, dst)
    t1 = time.perf_counter()
    grid = gb.ProcessGrid(w.procs, w.replication)
    H = gb.synthesize_features(N, FEATURE_DIM, seed)
    Hpart = gb.FeaturePartition.partition(H, grid)
    t2 = time.perf_counter()
    train = np.sort(train_rng.choice(N, size=EPOCH_BATCHES * BATCH, replace=False))
    return Inputs(G, Hpart, train, grid, t1 - t0, t2 - t1)


def sampler_config(gb, w: Workload, seed: int):
    if w.sampler == "sage":
        return gb.SamplerConfig.sage(len(w.fanouts), BATCH, w.fanouts, w.bulk_count, seed)
    return gb.SamplerConfig.ladies(len(w.fanouts), BATCH, w.fanouts[0], w.bulk_count, seed)


def input_shape(G, fanout: int) -> dict:
    deg = G.degrees()
    return {
        "n": int(G.n),
        "nnz": int(G.adjacency.nnz),
        "mean_degree": float(deg.mean()),
        "max_degree": int(deg.max()),
        "share_degree_below_fanout": float(np.mean(deg < fanout)),
        "isolated": int(np.sum(deg == 0)),
    }
