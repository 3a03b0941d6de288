"""Matrix-based bulk minibatch sampling for GNN training.

Node-wise and layer-wise samplers are expressed as sparse matrix products
over a CSR core, with k minibatches sampled per stacked pass. A
deterministic in-process simulator runs the same sampling over a p/c × c
process grid with either a graph-replicated (communication-free) or a
graph-partitioned staged, sparsity-aware multiply, charging every transfer
to a ledger that the closed-form latency/bandwidth cost model predicts.
"""

from .errors import ContractViolation, GraphFormatError
from .sparse import (
    Graph,
    SparseMatrix,
    add,
    block_diag,
    build_column_extraction,
    column_window,
    compact_columns,
    expand_row_extraction,
    norm_rows_ladies,
    norm_rows_sage,
    rows_subset,
    spgemm,
    vstack,
)
from .sampler import (
    LayerSample,
    SampledEpoch,
    SamplerConfig,
    SamplerKind,
    ladies_seed_matrix,
    race_uniforms,
    sage_seed_matrix,
    sample_epoch_bulk,
    sample_frontier,
)
from .dist import (
    MODE_PARTITIONED,
    MODE_REPLICATED,
    PHASES,
    CommLedger,
    CostModelParams,
    CostPrediction,
    Mailbox,
    Partition1_5D,
    ProcessGrid,
    StageTransfer,
    allreduce_sum,
    alltoallv,
    partition_block_rows,
    partition_from_blocks,
    predict_costs,
    replicated_spgemm,
    sample_epoch_distributed,
    spgemm_15d_sparsity_aware,
)
from .pipeline import (
    EpochPlan,
    EpochReport,
    FeaturePartition,
    fetch_features,
    forward_aggregate,
    make_batches,
    run_epoch,
)
from .graph_io import (
    RunConfig,
    emit_stats,
    load_graph,
    read_stats,
    save_graph,
    synthesize_features,
)

__version__ = "0.1.0"
