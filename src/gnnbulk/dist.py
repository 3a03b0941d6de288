"""Deterministic simulator of distributed sparse multiplication.

p simulated processes are arranged on a p/c × c grid (c is the replication
factor). Two multiply strategies are provided:

* graph-replicated: the left operand is split into block rows, the right
  operand (the adjacency matrix) is available everywhere, so every process
  multiplies locally and nothing is communicated.

* graph-partitioned: both operands are split into p/c block rows, each
  replicated on the c processes of its grid row. The multiply runs in
  p/c² stages; in a stage each process asks the owner of one block row for
  exactly the rows its local nonzero columns reference (sparsity-aware),
  accumulates a partial product, and a final all-reduce across each grid
  row sums the partials.

Processes execute sequentially inside one program; all exchanges go through
an in-memory mailbox whose deliveries are ordered by (stage, sender), so a
run is reproducible regardless of scheduling. Every transfer is charged to
a ledger that the latency/bandwidth cost model can be checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .sparse import SparseMatrix, add, column_window, rows_subset, spgemm, vstack

PHASES = ("gather-cols", "row-data", "all-reduce", "all-to-allv")


class ProcessGrid:
    """p processes arranged as p/c rows by c columns.

    Rank r sits at (r // c, r % c). The processes of one grid row hold
    replicas of the same block row; a grid column collectively holds every
    block row exactly once.
    """

    __slots__ = ("p", "c", "rows")

    def __init__(self, p: int, c: int = 1):
        p, c = int(p), int(c)
        if p < 1 or c < 1:
            raise ContractViolation("process counts must be positive")
        if p % c != 0:
            raise ContractViolation("replication factor must divide process count")
        if c * c > p:
            raise ContractViolation("replication factor must satisfy c*c <= p")
        self.p = p
        self.c = c
        self.rows = p // c

    @property
    def stages(self) -> int:
        if self.p % (self.c * self.c) != 0:
            raise ContractViolation(
                "staged multiply needs c*c to divide p so block rows tile the grid columns"
            )
        return self.p // (self.c * self.c)

    def rank(self, i: int, j: int) -> int:
        return i * self.c + j

    def coords(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.c)

    def row_group(self, i: int) -> list[int]:
        return [self.rank(i, j) for j in range(self.c)]

    def col_group(self, j: int) -> list[int]:
        return [self.rank(i, j) for i in range(self.rows)]

    def __repr__(self):
        return f"ProcessGrid(p={self.p}, c={self.c})"


class CommLedger:
    """Per-process, per-phase message and word counters.

    Words are counted at the sender; latency/bandwidth parameters are kept
    so entries can be converted to model-cost units.
    """

    def __init__(self, n_procs: int, alpha: float = 1.0, beta: float = 1.0):
        self.n_procs = int(n_procs)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._messages = {ph: np.zeros(self.n_procs, dtype=np.int64) for ph in PHASES}
        self._words = {ph: np.zeros(self.n_procs, dtype=np.int64) for ph in PHASES}

    def charge(self, process: int, phase: str, messages: int, words: int):
        if phase not in PHASES:
            raise ContractViolation(f"unknown phase {phase!r}")
        if messages < 0 or words < 0:
            raise ContractViolation("ledger counts must be non-negative")
        self._messages[phase][process] += messages
        self._words[phase][process] += words

    def messages(self, phase: str | None = None, process: int | None = None) -> int:
        return self._query(self._messages, phase, process)

    def words(self, phase: str | None = None, process: int | None = None) -> int:
        return self._query(self._words, phase, process)

    @staticmethod
    def _query(table, phase, process):
        phases = [phase] if phase is not None else list(PHASES)
        total = 0
        for ph in phases:
            col = table[ph]
            total += int(col[process]) if process is not None else int(col.sum())
        return total

    def cost(self, process: int) -> float:
        """alpha * messages + beta * words charged to one process."""
        return self.alpha * self.messages(process=process) + self.beta * self.words(
            process=process
        )

    def records(self):
        """One (process, phase, message_count, word_count) tuple per cell."""
        for proc in range(self.n_procs):
            for ph in PHASES:
                yield proc, ph, int(self._messages[ph][proc]), int(self._words[ph][proc])

    def totals(self):
        return {
            ph: {
                "messages": int(self._messages[ph].sum()),
                "words": int(self._words[ph].sum()),
            }
            for ph in PHASES
        }


class Mailbox:
    """In-memory message store with deterministic delivery order.

    Messages posted under one tag are handed to the receiver sorted by
    (sequence of posting per sender is preserved; collection sorts by
    sender rank), so results cannot depend on simulated scheduling.
    """

    def __init__(self):
        self._boxes: dict[tuple, list] = {}

    def post(self, sender: int, receiver: int, tag, payload):
        self._boxes.setdefault((receiver, tag), []).append((sender, payload))

    def collect(self, receiver: int, tag):
        box = self._boxes.pop((receiver, tag), [])
        box.sort(key=lambda item: item[0])
        return box


@dataclass(frozen=True)
class Partition1_5D:
    """A matrix split into grid.rows contiguous block rows.

    Block i covers global rows [row_starts[i], row_starts[i+1]) and lives
    on every process of grid row i.
    """

    grid: ProcessGrid
    blocks: tuple[SparseMatrix, ...]
    row_starts: np.ndarray
    n_cols: int

    def __post_init__(self):
        if len(self.blocks) != self.grid.rows:
            raise ContractViolation("need one block per grid row")
        for idx, b in enumerate(self.blocks):
            if b.n_cols != self.n_cols:
                raise ContractViolation("all blocks must share the global width")
            if b.n_rows != self.row_starts[idx + 1] - self.row_starts[idx]:
                raise ContractViolation("block height disagrees with row ranges")

    @property
    def n_rows(self) -> int:
        return int(self.row_starts[-1])

    def block(self, i: int) -> SparseMatrix:
        return self.blocks[i]

    def block_range(self, i: int) -> tuple[int, int]:
        return int(self.row_starts[i]), int(self.row_starts[i + 1])

    def to_matrix(self) -> SparseMatrix:
        return vstack(list(self.blocks), n_cols=self.n_cols)

    def owner_row(self, global_row: int) -> int:
        return int(np.searchsorted(self.row_starts, global_row, side="right") - 1)


def partition_block_rows(M: SparseMatrix, grid: ProcessGrid) -> Partition1_5D:
    """Split M into grid.rows contiguous, balanced block rows.

    Block heights differ by at most one row; stacking the blocks back
    together reproduces M exactly.
    """
    if M.n_rows < grid.rows:
        raise ContractViolation(
            f"cannot split {M.n_rows} rows into {grid.rows} block rows"
        )
    bounds = np.linspace(0, M.n_rows, grid.rows + 1).astype(np.int64)
    blocks = tuple(
        M.row_slice(int(bounds[i]), int(bounds[i + 1])) for i in range(grid.rows)
    )
    return Partition1_5D(grid, blocks, bounds, M.n_cols)


def partition_from_blocks(blocks, grid: ProcessGrid, n_cols: int) -> Partition1_5D:
    """Wrap pre-split blocks (e.g. per-batch stacks) as a 1.5D partition."""
    heights = np.array([b.n_rows for b in blocks], dtype=np.int64)
    row_starts = np.concatenate([[0], np.cumsum(heights)])
    return Partition1_5D(grid, tuple(blocks), row_starts, n_cols)


# -- collectives ---------------------------------------------------------------


def allreduce_sum(blocks, group, ledger: CommLedger | None = None) -> SparseMatrix:
    """Sum equally-shaped sparse partials held by a process group.

    Partials are combined in ascending group order so the reduction order
    is fixed. Accounting follows a recursive-halving/doubling collective:
    each member is charged ceil(log2 |group|) messages and the nnz of the
    reduced matrix in words; a singleton group communicates nothing.
    """
    blocks = list(blocks)
    group = list(group)
    if len(blocks) != len(group):
        raise ContractViolation("one partial per group member required")
    shape = blocks[0].shape
    for b in blocks[1:]:
        if b.shape != shape:
            raise ContractViolation("all-reduce partials must share a shape")
    result = blocks[0]
    for b in blocks[1:]:
        result = add(result, b)
    if ledger is not None and len(group) > 1:
        rounds = math.ceil(math.log2(len(group)))
        for rank in group:
            ledger.charge(rank, "all-reduce", rounds, result.nnz)
    return result


def alltoallv(send_buffers, group, ledger: CommLedger | None = None):
    """Deliver per-destination payloads between the members of a group.

    send_buffers maps sender rank -> {receiver rank -> payload}. Returns
    {receiver rank -> [(sender, payload), ...]} sorted by sender. Each
    nonempty remote transfer costs its sender one message plus the payload
    size in words; a payload kept by its own sender is free.
    """
    group = list(group)
    members = set(group)
    mailbox = Mailbox()
    for sender, by_dest in send_buffers.items():
        if sender not in members:
            raise ContractViolation("sender outside the group")
        for dest, payload in by_dest.items():
            if dest not in members:
                raise ContractViolation("destination outside the group")
            words = int(np.size(payload))
            if words == 0:
                continue
            mailbox.post(sender, dest, "a2av", payload)
            if ledger is not None and dest != sender:
                ledger.charge(sender, "all-to-allv", 1, words)
    return {rank: mailbox.collect(rank, "a2av") for rank in group}


# -- distributed SpGEMM --------------------------------------------------------


def replicated_spgemm(
    Qpart: Partition1_5D, A: SparseMatrix, grid: ProcessGrid,
    ledger: CommLedger | None = None,
) -> Partition1_5D:
    """Multiply a block-row partitioned left operand by a fully replicated
    right operand. Every product is local, so the ledger is untouched."""
    if Qpart.n_cols != A.n_rows:
        raise ContractViolation(
            f"dimension mismatch: {Qpart.n_cols} columns vs {A.n_rows} rows"
        )
    blocks = tuple(spgemm(b, A) for b in Qpart.blocks)
    return Partition1_5D(grid, blocks, Qpart.row_starts, A.n_cols)


@dataclass(frozen=True)
class StageTransfer:
    """Instrumentation record of one stage's sparsity-aware transfer."""

    stage: int
    block: int
    owner: int
    consumer: int
    requested_cols: np.ndarray
    words: int


def spgemm_15d_sparsity_aware(
    Qpart: Partition1_5D,
    Apart: Partition1_5D,
    grid: ProcessGrid,
    ledger: CommLedger | None = None,
    trace: list | None = None,
) -> Partition1_5D:
    """Stage-based 1.5D multiply of two block-row partitioned operands.

    Grid column j is responsible for block rows of A numbered
    j*stages .. (j+1)*stages - 1. In stage q, process (i, j) gathers the
    nonzero column ids of its local block of Q that fall inside A's block
    row k = j*stages + q, the owner (k, j) replies with exactly those rows,
    and the local product is accumulated. A final all-reduce across each
    grid row combines the per-column partials, leaving the full result
    block row replicated on its grid row.

    The result equals the serial product. Pass a list as `trace` to record
    one StageTransfer per (stage, consumer).
    """
    if Qpart.grid is not grid or Apart.grid is not grid:
        raise ContractViolation("operands must be partitioned on the given grid")
    if Qpart.n_cols != Apart.n_rows:
        raise ContractViolation(
            f"dimension mismatch: {Qpart.n_cols} columns vs {Apart.n_rows} rows"
        )
    stages = grid.stages
    n_out_cols = Apart.n_cols
    mailbox = Mailbox()
    result_blocks = []
    for i in range(grid.rows):
        Qi = Qpart.block(i)
        partials = []
        for j in range(grid.c):
            partial = SparseMatrix.empty(Qi.n_rows, n_out_cols)
            for q in range(stages):
                k = j * stages + q
                lo, hi = Apart.block_range(k)
                Qik = column_window(Qi, lo, hi)
                needed_local = Qik.nonzero_cols()
                owner = grid.rank(k, j)
                consumer = grid.rank(i, j)
                tag = (i, j, q)
                # consumer tells the owner which rows of the block it needs
                mailbox.post(consumer, owner, ("cols",) + tag, needed_local)
                if ledger is not None and consumer != owner and needed_local.size:
                    ledger.charge(consumer, "gather-cols", 1, len(needed_local))
                # owner answers each request with exactly the referenced rows
                Ak = Apart.block(k)
                for req_from, req_ids in mailbox.collect(owner, ("cols",) + tag):
                    Ahat = rows_subset(Ak, req_ids)
                    mailbox.post(owner, req_from, ("rows",) + tag, Ahat)
                    if ledger is not None and req_from != owner and Ahat.nnz:
                        ledger.charge(owner, "row-data", 1, Ahat.nnz)
                    if trace is not None:
                        trace.append(
                            StageTransfer(
                                stage=q,
                                block=k,
                                owner=owner,
                                consumer=req_from,
                                requested_cols=req_ids + lo,
                                words=Ahat.nnz,
                            )
                        )
                ((_, received),) = mailbox.collect(consumer, ("rows",) + tag)
                partial = add(partial, spgemm(Qik, received))
            partials.append(partial)
        reduced = allreduce_sum(partials, grid.row_group(i), ledger)
        result_blocks.append(reduced)
    return Partition1_5D(grid, tuple(result_blocks), Qpart.row_starts, n_out_cols)


# -- distributed epoch sampling -------------------------------------------------

MODE_REPLICATED = "replicated"
MODE_PARTITIONED = "partitioned"


def _split_contiguous(count: int, parts: int) -> np.ndarray:
    return np.linspace(0, count, parts + 1).astype(np.int64)


def sample_epoch_distributed(
    G,
    cfg,
    batches,
    grid: ProcessGrid,
    mode: str = MODE_REPLICATED,
    epoch: int = 0,
    batch_offset: int = 0,
    ledger: CommLedger | None = None,
    trace: list | None = None,
):
    """Run one bulk sampling pass with the work spread over the grid.

    Replicated mode splits the minibatches across all p processes and keeps
    the adjacency matrix everywhere, so sampling and extraction never
    communicate. Partitioned mode splits both operands into p/c block rows
    and multiplies with the staged sparsity-aware algorithm; random draws
    are keyed by epoch-global batch and row ids, so the returned epoch is
    identical to a serial run over the same batches.
    """
    from . import sampler as smp

    if mode not in (MODE_REPLICATED, MODE_PARTITIONED):
        raise ContractViolation(f"unknown mode {mode!r}")
    batches = [np.asarray(b, dtype=np.int64) for b in batches]
    n = G.n
    if mode == MODE_REPLICATED:
        work_grid = ProcessGrid(grid.p, 1)
        Apart = None
    else:
        work_grid = grid
        Apart = partition_block_rows(G.adjacency, grid)
    n_groups = work_grid.rows
    bounds = _split_contiguous(len(batches), n_groups)
    group_slices = [slice(int(bounds[g]), int(bounds[g + 1])) for g in range(n_groups)]
    group_batches = [batches[sl] for sl in group_slices]
    group_ids = [
        [batch_offset + idx for idx in range(sl.start, sl.stop)] for sl in group_slices
    ]

    def multiply(blocks):
        part = partition_from_blocks(blocks, work_grid, n)
        if mode == MODE_REPLICATED:
            return replicated_spgemm(part, G.adjacency, work_grid, ledger)
        return spgemm_15d_sparsity_aware(part, Apart, work_grid, ledger, trace)

    is_sage = cfg.kind is smp.SamplerKind.SAGE
    if is_sage:
        group_Q = [smp.sage_seed_matrix(gb, n) for gb in group_batches]
        group_rows = [[len(b) for b in gb] for gb in group_batches]
        group_rowverts = [[b.copy() for b in gb] for gb in group_batches]
    else:
        group_Q = [smp.ladies_seed_matrix(gb, n) for gb in group_batches]
        group_rows = [[1] * len(gb) for gb in group_batches]
        group_rowverts = [[np.sort(b) for b in gb] for gb in group_batches]

    layers = []
    spgemm_calls = 0
    for depth in range(1, cfg.layers + 1):
        fanout = cfg.fanouts[depth - 1]
        Ppart = multiply(group_Q)
        spgemm_calls += 1
        norm = smp.norm_rows_sage if is_sage else smp.norm_rows_ladies

        group_frontier = []
        for g in range(n_groups):
            Pg = norm(Ppart.block(g))
            keys = smp.global_row_keys(cfg, depth, group_ids[g], group_rows[g])
            group_frontier.append(
                smp.sample_frontier(Pg, fanout, epoch, depth, cfg.seed, keys)
            )
        frontier = vstack(group_frontier, n_cols=n)

        if is_sage:
            all_blocks, all_maps, all_rowverts, all_new = [], [], [], []
            for g in range(n_groups):
                row_starts = np.cumsum([0] + group_rows[g])
                blocks, col_maps, new_rows = smp.sage_batch_blocks(
                    group_frontier[g], row_starts
                )
                all_blocks += blocks
                all_maps += col_maps
                all_rowverts += group_rowverts[g]
                all_new += new_rows
                group_Q[g] = smp.expand_row_extraction(group_frontier[g])
                group_rows[g] = [len(v) for v in new_rows]
                group_rowverts[g] = new_rows
            layers.append(
                smp.build_sage_layer(
                    depth, frontier, all_blocks, all_maps, all_rowverts, all_new
                )
            )
        else:
            ARpart = multiply([smp.expand_row_extraction(Qg) for Qg in group_Q])
            per_group_pieces = []
            for g in range(n_groups):
                per_group_pieces.append(
                    smp.ladies_batch_blocks(
                        group_Q[g], group_frontier[g], ARpart.block(g), n
                    )
                )
            all_ar = [a for ar, qc, sv in per_group_pieces for a in ar]
            all_qc = [q for ar, qc, sv in per_group_pieces for q in qc]
            all_sv = [s for ar, qc, sv in per_group_pieces for s in sv]
            widths = {q.n_cols for q in all_qc}
            if mode == MODE_PARTITIONED and grid.c > 1 and len(widths) == 1:
                adjacency = _ladies_column_extraction_split(
                    per_group_pieces, grid, ledger, widths.pop()
                )
            else:
                # replicated mode keeps the adjacency and selectors local,
                # the degenerate non-uniform case falls back to per-batch
                # diagonal blocks
                adjacency = smp.ladies_assemble(all_ar, all_qc)
            all_rowverts = [v for g in range(n_groups) for v in group_rowverts[g]]
            layers.append(
                smp.build_ladies_layer(depth, frontier, adjacency, all_rowverts, all_sv)
            )
            for g in range(n_groups):
                group_Q[g] = group_frontier[g]
                group_rowverts[g] = list(per_group_pieces[g][2])
    return smp.SampledEpoch(
        kind=cfg.kind,
        epoch=epoch,
        batches=tuple(batches),
        layers=tuple(layers),
        spgemm_calls=spgemm_calls,
    )


def _ladies_column_extraction_split(per_group_pieces, grid, ledger, width):
    """Column extraction with the per-batch products of each grid row split
    across that row's replicas and combined with an all-reduce."""
    row_stacks = []
    for g, (ar_blocks, qc_blocks, _) in enumerate(per_group_pieces):
        n_batches = len(ar_blocks)
        assign = _split_contiguous(n_batches, grid.c)
        partials = []
        for j in range(grid.c):
            mine = range(int(assign[j]), int(assign[j + 1]))
            blocks = [
                spgemm(ar_blocks[b], qc_blocks[b])
                if b in mine
                else SparseMatrix.empty(ar_blocks[b].n_rows, width)
                for b in range(n_batches)
            ]
            partials.append(vstack(blocks, n_cols=width))
        row_stacks.append(allreduce_sum(partials, grid.row_group(g), ledger))
    return vstack(row_stacks, n_cols=width)


# -- cost model ----------------------------------------------------------------


@dataclass(frozen=True)
class CostModelParams:
    """Inputs of the closed-form communication cost model.

    d is the average nonzeros per adjacency row; alpha and beta are the
    per-message latency and per-word inverse bandwidth.
    """

    p: int
    c: int
    k: int
    b: int
    s: int
    d: float
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if min(self.p, self.c, self.k, self.b, self.s) < 1 or self.d <= 0:
            raise ContractViolation("cost model parameters must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ContractViolation("alpha and beta must be non-negative")
        if self.c * self.c > self.p:
            raise ContractViolation("replication factor must satisfy c*c <= p")


@dataclass(frozen=True)
class CostPrediction:
    t_rowdata: float
    t_allreduce: float
    t_prob: float


def predict_costs(params: CostModelParams) -> CostPrediction:
    """Closed-form cost of generating probability distributions.

    Row data is fetched over p/c² stages with kbd/c words on the critical
    path of each grid column; the all-reduce combines partials of ckbd/p
    nonzeros across each grid row. The total keeps the stage count as its
    latency term. Logarithms are base 2.
    """
    p, c = params.p, params.c
    kbd = params.k * params.b * params.d
    stages = p / (c * c)
    t_rowdata = params.alpha * math.log2(stages) + params.beta * (kbd / c)
    t_allreduce = params.alpha * math.log2(c) + params.beta * (c * kbd / p)
    t_prob = params.alpha * (stages + math.log2(c)) + params.beta * (
        kbd / c + c * kbd / p
    )
    return CostPrediction(t_rowdata, t_allreduce, t_prob)
