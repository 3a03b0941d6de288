"""gnnbulk benchmark: one workload, one process, one JSON result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sage-serial-regular --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's `src/`. Inputs are generated
from --seed (see workloads.py). After set-up and one warm-up epoch, the
benchmark calls `pipeline.run_epoch` in a closed loop until the timed
epochs add up to --seconds, checks every chunk's output, and prints a
human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced epochs; the traced ones record spans (tracer.py) that give the
per-layer metrics, and the two halves give the tracer's overhead. Spans
are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import Reference  # noqa: E402
from checks import SampleChecker, conserved  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EPOCH_BATCHES, WORKLOADS, build_inputs, input_shape, sampler_config,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_REPS = 7
# peak_rss_mb is read after this many measured epochs, so every run of a
# seed reports the same allocation sequence however fast the host is.
RSS_EPOCHS = 3

# Span groups behind each per-layer timing; each timing sums self time.
DRAW = ("sampler.sample_rows_ordered", "sampler.its_sample_row")
FRONTIER = ("sampler.frontier_from_rows", "sampler.sample_frontier")
EXTRACT = (
    "sampler._extract_sage", "sampler._extract_ladies", "sampler.sage_batch_blocks",
    "sampler.build_sage_layer", "sampler.ladies_batch_blocks",
    "sampler.ladies_assemble", "sampler.build_ladies_layer",
)
NORMALIZE = ("sparse.norm_rows_sage", "sparse.norm_rows_ladies")
MULTIPLY = ("dist.replicated_spgemm", "dist.spgemm_15d_sparsity_aware")
PARTITION = ("dist.partition_block_rows", "dist.partition_from_blocks")
PROPAGATE = ("pipeline._propagate_batch", "pipeline.forward_aggregate")
LAYERS = ("sparse", "sampler", "dist", "pipeline")
PHASE_NAMES = ("gather-cols", "row-data", "all-reduce", "all-to-allv")


def import_program():
    """Import gnnbulk from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gnnbulk
        from gnnbulk import dist, pipeline, sampler, sparse
    except ImportError as exc:
        sys.exit(f"bench: cannot import gnnbulk from {src}: {exc}")
    if not pathlib.Path(gnnbulk.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: gnnbulk resolved to {gnnbulk.__file__}, not {src}")
    return gnnbulk, (sparse, sampler, dist, pipeline)


class ChunkCapture:
    """Wraps the sampling entry points `run_epoch` looks up, to mark where
    each bulk round starts and keep its SampledEpoch for the checks. It
    costs one clock read per chunk and stays installed in every run."""

    def __init__(self, pipeline):
        self.starts: list[float] = []
        self.chunks: list[tuple[int, object]] = []
        for attr in ("sample_epoch_bulk", "sample_epoch_distributed"):
            setattr(pipeline, attr, self._wrap(getattr(pipeline, attr)))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            self.starts.append(time.perf_counter())
            out = fn(*args, **kwargs)
            self.chunks.append((kwargs["batch_offset"], out))
            return out

        return captured

    def reset(self):
        self.starts, self.chunks = [], []


@dataclass
class EpochRecord:
    traced: bool
    raw_seconds: float
    raw_chunk_seconds: list[float]
    batches: int
    failed: int
    words: np.ndarray  # phase × process
    messages: np.ndarray  # phase × process
    scale: float = 1.0  # raw seconds -> seconds at the reference speed

    @property
    def seconds(self) -> float:
        return self.raw_seconds * self.scale

    @property
    def chunk_seconds(self) -> list[float]:
        return [c * self.scale for c in self.raw_chunk_seconds]


def ledger_arrays(ledger):
    words = np.zeros((len(PHASE_NAMES), ledger.n_procs), dtype=np.int64)
    messages = np.zeros_like(words)
    for proc, phase, m, wds in ledger.records():
        i = PHASE_NAMES.index(phase)
        messages[i, proc] = m
        words[i, proc] = wds
    return words, messages


class Bench:
    def __init__(self, gb, modules, w, inputs, cfg, trace, reference):
        self.gb = gb
        self.reference = reference
        _, self.sampler, _, self.pipeline = modules
        self.w, self.inputs, self.cfg = w, inputs, cfg
        self.capture = ChunkCapture(self.pipeline)
        self.checker = SampleChecker(inputs.G, cfg)
        self.tracer = Tracer(modules) if trace else None
        self.records: list[EpochRecord] = []
        self.first_chunk = None  # (epoch, batch_offset, SampledEpoch)
        self.peak_rss_mb = 0.0

    def epoch(self, epoch: int, traced: bool) -> EpochRecord:
        inp = self.inputs
        ledger = self.gb.CommLedger(inp.grid.p)
        self.capture.reset()
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            report = self.pipeline.run_epoch(
                inp.G, inp.Hpart, self.cfg, inp.grid, mode=self.w.mode, epoch=epoch,
                ledger=ledger, train_vertices=inp.train,
            )
            t1 = time.perf_counter()
        finally:
            if traced:
                self.tracer.uninstall()
        bounds = [t0] + self.capture.starts[1:] + [t1]
        chunks = self.capture.chunks
        if conserved(chunks, inp.train, EPOCH_BATCHES, report):
            failed = sum(len(self.checker.failed_batches(se)) for _, se in chunks)
        else:
            failed = report.n_batches
        if self.first_chunk is None and chunks:
            self.first_chunk = (epoch, *chunks[0])
        words, messages = ledger_arrays(ledger)
        return EpochRecord(
            traced, t1 - t0, list(np.diff(bounds)), report.n_batches, failed, words, messages
        )

    def run(self, seconds: float):
        # Warm-up on one batch: lazy imports and first-call costs stay untimed.
        inp = self.inputs
        self.pipeline.run_epoch(
            inp.G, inp.Hpart, self.cfg, inp.grid, mode=self.w.mode, epoch=0,
            train_vertices=inp.train[: self.cfg.batch_size],
        )
        timed = 0.0
        before = self.reference.seconds()
        while timed < seconds or len(self.records) < RSS_EPOCHS:
            e = len(self.records) + 1
            rec = self.epoch(e, traced=self.tracer is not None and e % 2 == 0)
            after = self.reference.seconds()
            rec.scale = self.reference.scale(before, after)
            before = after
            self.records.append(rec)
            timed += rec.raw_seconds
            if e == RSS_EPOCHS:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def serial_mismatch(self) -> int:
        """Re-sample the first measured chunk serially and compare; returns
        the number of batches in it when the two disagree."""
        epoch, offset, sampled = self.first_chunk
        serial = self.sampler.sample_epoch_bulk(
            self.inputs.G, self.cfg, list(sampled.batches), epoch=epoch, batch_offset=offset
        )
        return 0 if sampled.equals(serial) else len(sampled.batches)


# -- metrics -----------------------------------------------------------------


def traffic(records):
    """Ledger-derived figures over the given epochs, per batch."""
    batches = sum(r.batches for r in records)
    words = sum(r.words for r in records)
    messages = sum(r.messages for r in records)
    out = {
        "crit_words_per_batch": float(words.sum(axis=0).max()) / batches,
        "crit_messages_per_batch": float(messages.sum(axis=0).max()) / batches,
    }
    for i, ph in enumerate(PHASE_NAMES):
        mean = float(words[i].mean())
        out[f"words.{ph}.max"] = float(words[i].max()) / batches
        out[f"words.{ph}.mean"] = mean / batches
        out[f"messages.{ph}.max"] = float(messages[i].max()) / batches
        out[f"imbalance.{ph}"] = float(words[i].max()) / mean if mean else 0.0
    return out


def model_ratios(gb, records, inputs, staged):
    """Measured critical words against the β term of the α–β model.

    Each staged multiply with nnz(Q) referenced rows is predicted
    nnz(Q)·d/c row-data words per grid column and c·nnz(Q)·d/p all-reduce
    words per process; the terms are linear in nnz(Q), so one prediction
    with the summed nnz(Q) covers every call. The sparsity ratio compares
    row-data words with shipping every remote block row whole, which costs
    (p/c - 1)·nnz(A) per staged multiply. All three read 0 without staged
    multiplies.
    """
    if not staged["count"]:
        return 0.0, 0.0, 0.0
    grid, A = inputs.grid, inputs.G.adjacency
    words = sum(r.words for r in records)
    rowdata = words[PHASE_NAMES.index("row-data")]
    allreduce = words[PHASE_NAMES.index("all-reduce")]
    column_max = max(float(rowdata[grid.col_group(j)].sum()) for j in range(grid.c))
    pred = gb.predict_costs(gb.CostModelParams(
        p=grid.p, c=grid.c, k=1, b=staged["count"], s=1, d=A.nnz / inputs.G.n,
        alpha=0.0, beta=1.0,
    ))
    whole_rows = staged["calls"] * (grid.rows - 1) * A.nnz
    return (
        column_max / pred.t_rowdata,
        float(allreduce.max()) / pred.t_allreduce if pred.t_allreduce else 0.0,
        float(rowdata.sum()) / whole_rows,
    )


def end_to_end(bench, setups, setup_scale):
    recs = bench.records
    batches = sum(r.batches for r in recs)
    chunk = np.concatenate([r.chunk_seconds for r in recs])
    return {
        "batches_per_s": (batches / sum(r.seconds for r in recs), "1/s"),
        "chunk_s_p50": (float(np.percentile(chunk, 50)), "s"),
        "chunk_s_p90": (float(np.percentile(chunk, 90)), "s"),
        "setup_s": (setup_scale * statistics.median(s.setup_s for s in setups), "s"),
        "peak_rss_mb": (bench.peak_rss_mb, "MB"),
    }, len(chunk)


def per_layer(bench, setups, setup_scale):
    inp, tr = bench.inputs, bench.tracer
    traced = [r for r in bench.records if r.traced]
    plain = [r for r in bench.records if not r.traced]
    B = sum(r.batches for r in traced)
    traced_raw = sum(r.raw_seconds for r in traced)
    scale = sum(r.seconds for r in traced) / traced_raw
    S = tr.summary()

    def self_s(names):
        """Self time in seconds at the reference speed."""
        return scale * sum(S[n]["self_s"] for n in names if n in S)

    def calls(names):
        return sum(S[n]["calls"] for n in names if n in S)

    def count(name):
        return S[name]["count"] if name in S else 0

    draw_rows = count("sampler.sample_rows_ordered")
    m = {
        "sampler.draw_s": (self_s(DRAW) / B, "s/batch"),
        "sampler.draw_rows": (draw_rows / B, "rows/batch"),
        "sampler.draw_us_per_row": (1e6 * self_s(DRAW) / max(draw_rows, 1), "us/row"),
        "sampler.frontier_s": (self_s(FRONTIER) / B, "s/batch"),
        "sampler.extract_s": (self_s(EXTRACT) / B, "s/batch"),
        "sparse.spgemm_s": (self_s(("sparse.spgemm",)) / B, "s/batch"),
        "sparse.spgemm_calls": (calls(("sparse.spgemm",)) / B, "calls/batch"),
        "sparse.spgemm_out_nnz": (count("sparse.spgemm") / B, "nnz/batch"),
        "sparse.add_s": (self_s(("sparse.add",)) / B, "s/batch"),
        "sparse.add_calls": (calls(("sparse.add",)) / B, "calls/batch"),
        "sparse.normalize_s": (self_s(NORMALIZE) / B, "s/batch"),
        "dist.multiply_s": (self_s(MULTIPLY) / B, "s/batch"),
        "dist.multiply_calls": (calls(MULTIPLY) / B, "calls/batch"),
        "dist.allreduce_s": (self_s(("dist.allreduce_sum",)) / B, "s/batch"),
        "dist.partition_s": (self_s(PARTITION) / B, "s/batch"),
    }
    for key, value in traffic(traced).items():
        unit = "ratio" if key.startswith("imbalance") else (
            "msgs/batch" if "messages" in key else "words/batch"
        )
        m[f"dist.{key}"] = (value, unit)
    staged = S.get("dist.spgemm_15d_sparsity_aware", {"calls": 0, "count": 0})
    ratios = model_ratios(bench.gb, traced, inp, staged)
    m["dist.rowdata_vs_model"] = (ratios[0], "ratio")
    m["dist.allreduce_vs_model"] = (ratios[1], "ratio")
    m["dist.rowdata_sparsity_ratio"] = (ratios[2], "ratio")

    m["pipeline.fetch_s"] = (self_s(("pipeline.fetch_features",)) / B, "s/batch")
    m["pipeline.propagate_s"] = (self_s(PROPAGATE) / B, "s/batch")
    m["pipeline.fetch_rows"] = (count("pipeline.fetch_features") / B, "rows/batch")
    m["setup.graph_s"] = (setup_scale * statistics.median(s.graph_s for s in setups), "s")
    m["setup.features_s"] = (
        setup_scale * statistics.median(s.features_s for s in setups), "s"
    )
    plain_rate = sum(r.batches for r in plain) / sum(r.seconds for r in plain)
    m["trace.overhead"] = ((B / (scale * traced_raw)) / plain_rate, "ratio")
    layer_self = {
        layer: sum(v["self_s"] for n, v in S.items() if n.startswith(layer + "."))
        for layer in LAYERS
    }
    m["trace.coverage"] = (sum(layer_self.values()) / traced_raw, "ratio")
    shares = {layer: v / traced_raw for layer, v in layer_self.items()}
    return m, shares, S, traced_raw, len(traced)


# -- report ------------------------------------------------------------------


def environment():
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    gb, modules = import_program()
    w = WORKLOADS[args.workload]
    reference = Reference()
    before = reference.seconds()
    setups = [build_inputs(gb, w, args.seed) for _ in range(SETUP_REPS)]
    setup_scale = reference.scale(before, reference.seconds())
    inputs = setups[-1]
    cfg = sampler_config(gb, w, args.seed)
    bench = Bench(gb, modules, w, inputs, cfg, bool(args.trace), reference)
    bench.run(args.seconds)

    attempted = sum(r.batches for r in bench.records)
    failed = sum(r.failed for r in bench.records)
    if w.partitioned:
        failed += bench.serial_mismatch()

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
    print("env " + json.dumps(environment()))
    print("input " + json.dumps(input_shape(inputs.G, cfg.fanouts[0])))
    print("config " + json.dumps({
        "sampler": w.sampler, "fanouts": list(w.fanouts), "batch_size": cfg.batch_size,
        "bulk_count": w.bulk_count, "procs": w.procs, "replication": w.replication,
        "mode": w.mode, "batches_per_epoch": EPOCH_BATCHES,
        "epochs": len(bench.records), "setup_reps": SETUP_REPS,
    }))
    error_rate = failed / attempted
    if args.trace:
        metrics, shares, summary, traced_raw, n_traced = per_layer(bench, setups, setup_scale)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{w.name}-seed{args.seed}.npz"
        bench.tracer.write(spans)
        print(f"spans {len(bench.tracer.name_id)} written to {spans.relative_to(ROOT)}")
        print(f"traced raw wall {traced_raw:.4f} s over {n_traced} epochs; self-time share: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
              + f"; named layers {sum(shares.values()):.1%}")
        for name, v in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"span {name:42s} calls {v['calls']:8d} self {v['self_s']:9.4f} s "
                  f"total {v['total_s']:9.4f} s")
    else:
        metrics, n_chunks = end_to_end(bench, setups, setup_scale)
        t = traffic(bench.records)
        raw_s = sum(r.raw_seconds for r in bench.records)
        print(f"samples: {n_chunks} chunks over {len(bench.records)} epochs, "
              f"{attempted} batches; setup repeated {SETUP_REPS} times")
        print(f"raw: {attempted / raw_s:.6g} batches/s over {raw_s:.4f} s; "
              f"reference scale {sum(r.seconds for r in bench.records) / raw_s:.4f}, "
              f"set-up scale {setup_scale:.4f}")
        for name in ("crit_words_per_batch", "crit_messages_per_batch"):
            unit = "words/batch" if "words" in name else "msgs/batch"
            print(f"metric {name} {t[name]:.6g} {unit}")
        print(f"metric error_rate {error_rate:.6g} failed/batch")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
