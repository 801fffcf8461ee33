"""Layer boundaries of fixedposit, the span log that times them, and the layer metrics.

Every traced function is wrapped where it is bound, not only where it is
defined: ``multiplier`` calls the ``decode`` it imported from ``codec``,
``workloads`` calls its own ``mul_float32_batch`` binding, and so on.  A
wrapper therefore replaces every binding of the original function object in
every loaded ``fixedposit`` module, and the originals come back when the
``patched`` block ends.  Methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _size(i: int) -> Callable[[tuple], int]:
    return lambda args: int(np.size(args[i]))


def _broadcast_size(i: int, j: int) -> Callable[[tuple], int]:
    return lambda args: math.prod(np.broadcast_shapes(np.shape(args[i]), np.shape(args[j])))


@dataclass(frozen=True)
class Target:
    """One public function at a layer boundary.

    ``elems`` counts the elements a batch call processes; ``aux`` records a
    second per-call quantity (the operand elements handed to ``TracingMul``
    before broadcasting).
    """

    label: str
    module: str
    attr: str
    elems: Callable[[tuple], int] | None = None
    aux: Callable[[tuple], int] | None = None

    @property
    def layer(self) -> str:
        return self.label.split(".", 1)[0]


TARGETS = (
    Target("batch.from_binary32_batch", "fixedposit.batch", "from_binary32_batch", _size(0)),
    Target("batch.to_binary64_batch", "fixedposit.batch", "to_binary64_batch", _size(0)),
    Target("batch.to_binary32_batch", "fixedposit.batch", "to_binary32_batch", _size(0)),
    Target("batch.mul_batch", "fixedposit.batch", "mul_batch", _size(0)),
    Target("batch.mul_binary32_batch", "fixedposit.batch", "mul_binary32_batch", _size(1)),
    Target(
        "batch.mul_float32_batch", "fixedposit.batch", "mul_float32_batch", _broadcast_size(1, 2)
    ),
    Target("workloads.run_workload", "fixedposit.workloads", "run_workload"),
    Target("workloads.TracingMul.__init__", "fixedposit.workloads", "TracingMul.__init__"),
    Target(
        "workloads.TracingMul.__call__",
        "fixedposit.workloads",
        "TracingMul.__call__",
        _broadcast_size(1, 2),
        lambda args: int(np.size(args[1]) + np.size(args[2])),
    ),
    Target("metrics.sweep_conversion_error", "fixedposit.metrics", "sweep_conversion_error"),
    Target("metrics.error_report", "fixedposit.metrics", "error_report"),
    Target("cli.main", "fixedposit.cli", "main"),
    Target("codec.decode", "fixedposit.codec", "decode"),
    Target("codec.encode", "fixedposit.codec", "encode"),
    Target("codec.from_binary32", "fixedposit.codec", "from_binary32"),
    Target("codec.to_binary32", "fixedposit.codec", "to_binary32"),
    Target("multiplier.mul_datapath", "fixedposit.multiplier", "mul_datapath"),
    Target("multiplier.mul_reference", "fixedposit.multiplier", "mul_reference"),
    Target("multiplier.mul_binary32_bits", "fixedposit.multiplier", "mul_binary32_bits"),
    Target("posit.posit_mul_binary32_bits", "fixedposit.posit", "posit_mul_binary32_bits"),
    Target("posit.posit_encode", "fixedposit.posit", "posit_encode"),
    Target("posit.posit_decode", "fixedposit.posit", "posit_decode"),
    Target("formats.scale_range", "fixedposit.formats", "scale_range"),
)


@contextmanager
def patched(make_wrapper: Callable[[Target, Callable], Callable | None], targets=TARGETS):
    """Replace every binding of each target with ``make_wrapper(target, original)``.

    A ``None`` wrapper leaves that target alone.  All bindings are restored
    on exit, also when the block raises.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            owner = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, name = target.attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[name]
                bindings = [(owner, name)]
            else:
                original = getattr(owner, target.attr)
                bindings = [
                    (module, key)
                    for mod_name, module in list(sys.modules.items())
                    if mod_name == "fixedposit" or mod_name.startswith("fixedposit.")
                    for key, value in list(vars(module).items())
                    if value is original
                ]
            wrapper = make_wrapper(target, original)
            if wrapper is None:
                continue
            for owner, key in bindings:
                saved.append((owner, key, original))
                setattr(owner, key, wrapper)
        yield
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


class SpanLog:
    """In-memory spans: name, start, end, parent span, iteration, elements, aux.

    Columns are typed arrays so that a scalar iteration's million-odd spans
    stay compact; ``save`` writes them out once the run ends.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.iteration = array("H")
        self.elems = array("q")
        self.aux = array("q")
        self.current_iteration = 0
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrapper(self, target: Target, fn: Callable) -> Callable:
        if target.label not in self.names:
            self.names.append(target.label)
        name_id = self.names.index(target.label)
        log, open_spans, clock = self, self._open, time.perf_counter_ns
        name, start, end, parent = self.name, self.start, self.end, self.parent
        iteration, elems, aux = self.iteration, self.elems, self.aux
        count_elems, count_aux = target.elems, target.aux

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(open_spans[-1] if open_spans else -1)
            iteration.append(log.current_iteration)
            elems.append(count_elems(args) if count_elems else 0)
            aux.append(count_aux(args) if count_aux else 0)
            end.append(0)
            open_spans.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, np.uint8),
            "start": np.frombuffer(self.start, np.int64),
            "end": np.frombuffer(self.end, np.int64),
            "parent": np.frombuffer(self.parent, np.int64),
            "iteration": np.frombuffer(self.iteration, np.uint16),
            "elems": np.frombuffer(self.elems, np.int64),
            "aux": np.frombuffer(self.aux, np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


class SpanStats:
    """Per-label totals over a span log; self time excludes traced children."""

    def __init__(self, log: SpanLog) -> None:
        cols = log.columns()
        self.names = log.names
        self.name = cols["name"]
        self.start = cols["start"]
        self.end = cols["end"]
        self.parent = cols["parent"]
        self.iteration = cols["iteration"]
        self.elems = cols["elems"]
        self.aux = cols["aux"]
        self.dur = (self.end - self.start).astype(np.float64)
        nested = self.parent >= 0
        children = np.bincount(self.parent[nested], weights=self.dur[nested], minlength=len(self.dur))
        self.self_ns = self.dur - children
        width = len(self.names)
        self._count = np.bincount(self.name, minlength=width)
        self._total = np.bincount(self.name, weights=self.dur, minlength=width)
        self._self = np.bincount(self.name, weights=self.self_ns, minlength=width)
        self._elems = np.bincount(self.name, weights=self.elems, minlength=width)

    def ids(self, label: str) -> int:
        return self.names.index(label) if label in self.names else -1

    def _pick(self, column: np.ndarray, label: str) -> float:
        idx = self.ids(label)
        return float(column[idx]) if idx >= 0 else 0.0

    def count(self, label: str) -> int:
        return int(self._pick(self._count, label))

    def total_ns(self, label: str) -> float:
        return self._pick(self._total, label)

    def self_ns_of(self, label: str) -> float:
        return self._pick(self._self, label)

    def elems_of(self, label: str) -> float:
        return self._pick(self._elems, label)

    def counts_per_iteration(self, label: str, iterations: int) -> list[int]:
        idx = self.ids(label)
        if idx < 0:
            return [0] * iterations
        hits = self.iteration[self.name == idx]
        return np.bincount(hits, minlength=iterations)[:iterations].tolist()

    def mask(self, label: str) -> np.ndarray:
        return self.name == self.ids(label)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    stats: SpanStats,
    iterations: int,
    substituted_s: float,
    peak_bytes_per_elem: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Per-layer figures from one traced run, each per iteration or per call.

    ``substituted_s`` is the summed ``elapsed_s`` the workload reports for
    its substituted runs over all traced iterations.
    """
    per_it = 1.0 / iterations

    def ns_per_elem(*labels: str, elems_label: str | None = None) -> float:
        elems = stats.elems_of(elems_label or labels[0])
        return _ratio(sum(stats.self_ns_of(label) for label in labels), elems)

    def us_per_call(label: str) -> float:
        return _ratio(stats.self_ns_of(label), stats.count(label)) / 1e3

    # Calls into the batch layer from outside it.
    batch_ids = [i for i, name in enumerate(stats.names) if name.startswith("batch.")]
    in_batch = np.isin(stats.name, batch_ids)
    parent_in_batch = np.zeros_like(in_batch)
    has_parent = stats.parent >= 0
    parent_in_batch[has_parent] = in_batch[stats.parent[has_parent]]
    batch_entries = int(np.count_nonzero(in_batch & ~parent_in_batch))

    # Substituted multiplies: TracingMul calls that reach mul_float32_batch.
    mfb = stats.mask("batch.mul_float32_batch")
    sub_calls = np.unique(stats.parent[mfb & has_parent])
    sub_calls = sub_calls[stats.name[sub_calls] == stats.ids("workloads.TracingMul.__call__")]
    sub_elems = float(stats.elems[sub_calls].sum())
    sub_operands = float(stats.aux[sub_calls].sum())

    # Reference run: from the end of the first TracingMul construction in a
    # run_workload call to the start of the second.
    ref_ns = 0.0
    inits = np.flatnonzero(stats.mask("workloads.TracingMul.__init__"))
    by_run: dict[int, list[int]] = {}
    for idx in inits.tolist():
        by_run.setdefault(int(stats.parent[idx]), []).append(idx)
    for pair in by_run.values():
        if len(pair) >= 2:
            first, second = sorted(pair, key=lambda i: stats.start[i])[:2]
            ref_ns += float(stats.start[second] - stats.end[first])

    mfb_s = stats.total_ns("batch.mul_float32_batch") / 1e9
    return {
        "batch.encode_ns_per_elem": ns_per_elem("batch.from_binary32_batch"),
        "batch.mul_ns_per_elem": ns_per_elem("batch.mul_batch"),
        "batch.decode32_ns_per_elem": ns_per_elem("batch.to_binary32_batch"),
        "batch.decode64_ns_per_elem": ns_per_elem("batch.to_binary64_batch"),
        "batch.glue_ns_per_elem": ns_per_elem(
            "batch.mul_float32_batch", "batch.mul_binary32_batch",
            elems_label="batch.mul_float32_batch",
        ),
        "batch.calls": batch_entries * per_it,
        "batch.peak_bytes_per_elem": peak_bytes_per_elem,
        "workloads.mul_calls": len(sub_calls) * per_it,
        "workloads.elems_per_call": _ratio(sub_elems, len(sub_calls)),
        "workloads.operand_reuse": _ratio(2.0 * sub_elems, sub_operands),
        "workloads.native_s": (substituted_s - mfb_s) * per_it if len(sub_calls) else 0.0,
        "workloads.ref_s": ref_ns / 1e9 * per_it,
        "metrics.sweep_self_s": stats.self_ns_of("metrics.sweep_conversion_error") / 1e9 * per_it,
        "metrics.error_report_s": stats.total_ns("metrics.error_report") / 1e9 * per_it,
        "cli.self_s": stats.self_ns_of("cli.main") / 1e9 * per_it,
        "codec.decode_us": us_per_call("codec.decode"),
        "codec.encode_us": us_per_call("codec.encode"),
        "codec.from_binary32_us": us_per_call("codec.from_binary32"),
        "codec.to_binary32_us": us_per_call("codec.to_binary32"),
        "codec.decode_calls": stats.count("codec.decode") * per_it,
        "codec.encode_calls": stats.count("codec.encode") * per_it,
        "multiplier.datapath_us": us_per_call("multiplier.mul_datapath"),
        "multiplier.reference_us": us_per_call("multiplier.mul_reference"),
        "multiplier.binary32_bits_us": us_per_call("multiplier.mul_binary32_bits"),
        "posit.mul_binary32_us": us_per_call("posit.posit_mul_binary32_bits"),
        "posit.encode_us": us_per_call("posit.posit_encode"),
        "posit.decode_us": us_per_call("posit.posit_decode"),
        "formats.scale_range_calls": stats.count("formats.scale_range") * per_it,
        "formats.scale_range_us": us_per_call("formats.scale_range"),
        "trace.overhead_frac": overhead_frac,
    }
