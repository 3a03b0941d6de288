"""Graph/feature ingestion, run configuration and stats output.

Two graph formats are accepted: a whitespace edge list ("src dst" per line,
'#' comments, optional "# n=<count>" header) and MatrixMarket coordinate
files (pattern/real/integer, general or symmetric, 1-based). Ingestion
collapses duplicate edges and is insensitive to line order. Stats are
line-delimited JSON so runs can be appended and diffed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dist import MODE_PARTITIONED, MODE_REPLICATED, PHASES, ProcessGrid
from .errors import ContractViolation, GraphFormatError
from .sparse import Graph

EDGE_LIST = "edge-list"
MATRIX_MARKET = "matrix-market"

DIRECTION_AS_IS = "as-is"
DIRECTION_SYMMETRIZE = "symmetrize"


@dataclass
class RunConfig:
    """Everything a reproducible run needs; mirrored by the CLI flags."""

    graph: str
    format: str = EDGE_LIST
    sampler: str = "sage"
    layers: int = 1
    batch_size: int = 2
    fanouts: tuple[int, ...] | None = None
    sample_num: int = 2
    bulk_count: int = 1
    procs: int = 1
    replication: int = 1
    mode: str = MODE_REPLICATED
    feature_dim: int = 8
    epochs: int = 1
    seed: int = 0
    stats: str | None = None
    direction: str = DIRECTION_AS_IS
    train_vertices: str | None = None
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.format not in (EDGE_LIST, MATRIX_MARKET):
            raise ContractViolation(f"unknown graph format {self.format!r}")
        if self.sampler not in ("sage", "ladies"):
            raise ContractViolation(f"unknown sampler {self.sampler!r}")
        if self.mode not in (MODE_REPLICATED, MODE_PARTITIONED):
            raise ContractViolation(f"unknown mode {self.mode!r}")
        if self.direction not in (DIRECTION_AS_IS, DIRECTION_SYMMETRIZE):
            raise ContractViolation(f"unknown direction {self.direction!r}")
        for name in ("layers", "batch_size", "sample_num", "bulk_count",
                     "procs", "replication", "feature_dim", "epochs"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be positive")
        if self.fanouts is None:
            self.fanouts = (self.sample_num,) * self.layers
        self.fanouts = tuple(int(x) for x in self.fanouts)
        if len(self.fanouts) != self.layers:
            raise ContractViolation("fanouts must list one value per layer")
        ProcessGrid(self.procs, self.replication)  # c divides p, c*c <= p
        if self.mode == MODE_PARTITIONED and self.procs % self.replication**2:
            raise ContractViolation("partitioned mode needs c*c to divide p")

    def as_dict(self):
        d = dict(self.__dict__)
        d["fanouts"] = list(self.fanouts)
        return d


def load_graph(path, fmt=EDGE_LIST, direction=DIRECTION_AS_IS) -> Graph:
    """Read a graph file into an adjacency matrix.

    Vertex ids must be 0..n-1 after parsing; duplicate edges collapse to a
    single entry; direction="symmetrize" adds every reverse edge.
    """
    if fmt == EDGE_LIST:
        n, src, dst = _parse_edge_list(path)
    elif fmt == MATRIX_MARKET:
        n, src, dst = _parse_matrix_market(path)
    else:
        raise ContractViolation(f"unknown graph format {fmt!r}")
    if direction == DIRECTION_SYMMETRIZE:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    elif direction != DIRECTION_AS_IS:
        raise ContractViolation(f"unknown direction {direction!r}")
    return Graph.from_edges(n, src, dst)


def _parse_edge_list(path):
    src, dst = [], []
    declared_n = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("n="):
                    try:
                        declared_n = int(body[2:])
                    except ValueError:
                        raise GraphFormatError(
                            f"{path}:{lineno}: bad vertex-count header {body!r}"
                        ) from None
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src dst', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id in {line!r}"
                ) from None
            if u < 0 or v < 0:
                raise GraphFormatError(f"{path}:{lineno}: negative vertex id")
            src.append(u)
            dst.append(v)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    top = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    n = declared_n if declared_n is not None else top
    if n < top:
        raise GraphFormatError(f"{path}: vertex id {top - 1} exceeds declared n={n}")
    if n <= 0:
        raise GraphFormatError(f"{path}: empty edge list without an 'n=' header")
    return n, src, dst


def _parse_matrix_market(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphFormatError(f"{path}:1: missing MatrixMarket banner")
        tokens = header.strip().split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise GraphFormatError(f"{path}:1: unsupported banner {header.strip()!r}")
        fmt_field, symmetry = tokens[3], tokens[4]
        if fmt_field not in ("pattern", "real", "integer"):
            raise GraphFormatError(f"{path}:1: unsupported field {fmt_field!r}")
        if symmetry not in ("general", "symmetric"):
            raise GraphFormatError(f"{path}:1: unsupported symmetry {symmetry!r}")
        dims = None
        src, dst = [], []
        expected = 2 if fmt_field == "pattern" else 3
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            parts = line.split()
            if dims is None:
                if len(parts) != 3:
                    raise GraphFormatError(f"{path}:{lineno}: bad size line {line!r}")
                try:
                    rows, cols, _ = (int(x) for x in parts)
                except ValueError:
                    raise GraphFormatError(
                        f"{path}:{lineno}: non-integer size line {line!r}"
                    ) from None
                if rows != cols:
                    raise GraphFormatError(
                        f"{path}:{lineno}: adjacency matrix must be square"
                    )
                dims = rows
                continue
            if len(parts) != expected:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {expected} fields, got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer coordinate in {line!r}"
                ) from None
            if not (1 <= u <= dims and 1 <= v <= dims):
                raise GraphFormatError(f"{path}:{lineno}: coordinate out of range")
            src.append(u - 1)
            dst.append(v - 1)
            if symmetry == "symmetric" and u != v:
                src.append(v - 1)
                dst.append(u - 1)
        if dims is None:
            raise GraphFormatError(f"{path}: missing size line")
    return dims, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def save_graph(G: Graph, path):
    """Write the adjacency pattern as MatrixMarket coordinate (1-based)."""
    adj = G.adjacency
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        fh.write(f"{G.n} {G.n} {adj.nnz}\n")
        for r in range(G.n):
            for c in adj.row_cols(r):
                fh.write(f"{r + 1} {int(c) + 1}\n")


def synthesize_features(n: int, f: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random n×f feature matrix."""
    if n < 1 or f < 1:
        raise ContractViolation("feature matrix dimensions must be positive")
    gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), 0x66656174]))
    )
    return gen.standard_normal((n, f))


def load_vertex_subset(path, n):
    ids = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                v = int(line)
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id {line!r}"
                ) from None
            if not (0 <= v < n):
                raise GraphFormatError(f"{path}:{lineno}: vertex id out of range")
            ids.append(v)
    return np.asarray(ids, dtype=np.int64)


# -- stats ----------------------------------------------------------------------

STATS_EPOCH_FIELDS = (
    "record", "epoch", "mode", "batches", "chunks", "spgemm_calls",
    "t_sample", "t_fetch", "t_propagate", "messages", "words", "predicted",
)
STATS_PHASE_FIELDS = ("record", "epoch", "phase", "process", "messages", "words")
DURATION_FIELDS = ("t_sample", "t_fetch", "t_propagate")


def emit_stats(report, path, config: RunConfig | None = None):
    """Append one epoch summary record plus one record per (phase, process).

    Records are single-line JSON objects with fixed key order; everything
    except the wall-clock duration fields is deterministic for a given
    RunConfig.
    """
    ledger = report.ledger
    epoch_rec = {
        "record": "epoch",
        "epoch": report.epoch,
        "mode": report.mode,
        "batches": report.n_batches,
        "chunks": report.chunks,
        "spgemm_calls": report.spgemm_calls,
        "t_sample": report.durations.get("sample", 0.0),
        "t_fetch": report.durations.get("fetch", 0.0),
        "t_propagate": report.durations.get("propagate", 0.0),
        "messages": {ph: ledger.messages(phase=ph) for ph in PHASES},
        "words": {ph: ledger.words(phase=ph) for ph in PHASES},
        "predicted": (
            None
            if report.prediction is None
            else {
                "t_rowdata": report.prediction.t_rowdata,
                "t_allreduce": report.prediction.t_allreduce,
                "t_prob": report.prediction.t_prob,
            }
        ),
    }
    lines = []
    if config is not None and report.epoch == 0:
        lines.append(json.dumps({"record": "run", **config.as_dict()}))
    lines.append(json.dumps(epoch_rec))
    for proc, phase, messages, words in ledger.records():
        lines.append(
            json.dumps(
                {
                    "record": "phase",
                    "epoch": report.epoch,
                    "phase": phase,
                    "process": proc,
                    "messages": messages,
                    "words": words,
                }
            )
        )
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ContractViolation(f"cannot write stats to {path}: {exc}") from exc


def read_stats(path):
    """Parse a stats file back into a list of records."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
