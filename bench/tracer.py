"""Out-of-program span tracer for gnnbulk.

The tracer replaces functions at the module attributes their callers look
up (for example `sampler.spgemm`, which `sample_epoch_bulk` resolves at
call time) with wrappers that record one span per call: name, start, end
and the index of the enclosing span. Spans are kept in flat in-memory
arrays and written out once, when the benchmark ends. Nothing inside the
program changes, and uninstalling restores every attribute.
"""

from __future__ import annotations

import array
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

# Private helpers that mark a layer boundary the public functions do not:
# extraction in the sampler, the LADIES column-extraction split, and the
# per-batch aggregation chain.
PRIVATE_BOUNDARIES = {
    "sampler": ("_extract_sage", "_extract_ladies"),
    "dist": ("_ladies_column_extraction_split",),
    "pipeline": ("_propagate_batch",),
}

# Work counted where it happens: span name -> f(args, result) -> count.
COUNTERS = {
    "sampler.sample_rows_ordered": lambda args, out: len(out),
    "sparse.spgemm": lambda args, out: out.nnz,
    "pipeline.fetch_features": lambda args, out: len(out),
    "dist.spgemm_15d_sparsity_aware": lambda args, out: sum(b.nnz for b in args[0].blocks),
}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans for every traced gnnbulk function while installed."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _targets(self, module):
        short = module.__name__.rsplit(".", 1)[-1]
        private = PRIVATE_BOUNDARIES.get(short, ())
        for attr, value in vars(module).items():
            if not inspect.isfunction(value):
                continue
            if not value.__module__.startswith("gnnbulk."):
                continue
            if attr.startswith("_") and attr not in private:
                continue
            yield attr, value

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in self.modules:
            for attr, fn in list(self._targets(module)):
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        name = _span_name(fn)
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack, clock = self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if counter is not None:
                counts[name] += counter(args, out)
            return out

        self._wrappers[key] = traced
        return traced

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total time and self time, where self
        time is a span's duration minus the durations of its child spans."""
        name_id, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_time, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "count": int(self.counts.get(name, 0)),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        name_id, start, end, parent = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
        )
