"""Measurement: set-up probes, the memory pass, timed and traced iterations.

A run is one process.  It makes no threads; the only other processes are
the set-up probes, started one at a time and waited for.  ``tracemalloc``
is on only during the memory pass, and wrappers are installed only around
traced iterations, so neither touches the timed iterations.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from hashlib import sha256
from pathlib import Path

import numpy as np

from spans import SpanLog, SpanStats, Target, layer_metrics, patched

END_TO_END_UNITS = {
    "setup_s": "s",
    "iter_s_p50": "s",
    "iter_s_tail": "s",
    "ops_per_s": "1/s",
    "peak_mib": "MiB",
}
PER_LAYER_UNITS = {
    "batch.encode_ns_per_elem": "ns/elem",
    "batch.mul_ns_per_elem": "ns/elem",
    "batch.decode32_ns_per_elem": "ns/elem",
    "batch.decode64_ns_per_elem": "ns/elem",
    "batch.glue_ns_per_elem": "ns/elem",
    "batch.calls": "count",
    "batch.peak_bytes_per_elem": "B/elem",
    "workloads.mul_calls": "count",
    "workloads.elems_per_call": "elem",
    "workloads.operand_reuse": "ratio",
    "workloads.native_s": "s",
    "workloads.ref_s": "s",
    "metrics.sweep_self_s": "s",
    "metrics.error_report_s": "s",
    "cli.self_s": "s",
    "codec.decode_us": "us",
    "codec.encode_us": "us",
    "codec.from_binary32_us": "us",
    "codec.to_binary32_us": "us",
    "codec.decode_calls": "count",
    "codec.encode_calls": "count",
    "multiplier.datapath_us": "us",
    "multiplier.reference_us": "us",
    "multiplier.binary32_bits_us": "us",
    "posit.mul_binary32_us": "us",
    "posit.encode_us": "us",
    "posit.decode_us": "us",
    "formats.scale_range_calls": "count",
    "formats.scale_range_us": "us",
    "trace.overhead_frac": "ratio",
}
# Traced iterations stop once the log holds this many spans.  One scalar_check
# iteration makes about 1.3 million (some 45 MB), so it is traced once.
SPAN_CAP = 1_000_000
PROBE = Path(__file__).with_name("setup_probe.py")


def machine_record(root: Path, seed: int) -> dict:
    """Where and on what a result was measured."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_times(root: Path, workload: str, seed: int, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import fixedposit and make one cold call per format.

    The wait for each probe blocks in ``waitpid``: ``subprocess`` with a
    timeout polls in steps of up to 50 ms, too coarse for a 0.3 s probe.
    An alarm bounds the wait instead.
    """
    def give_up(signum, frame):
        raise TimeoutError("set-up probe did not finish in 120 s")

    times = []
    previous = signal.signal(signal.SIGALRM, give_up)
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            probe = subprocess.Popen(
                [sys.executable, str(PROBE), str(root / "src"), workload, str(seed)],
                stdout=subprocess.DEVNULL,
            )
            signal.alarm(120)
            try:
                code = probe.wait()
            finally:
                signal.alarm(0)
                probe.kill()
                probe.wait()
            times.append(time.perf_counter() - started)
            if code:
                raise RuntimeError(f"set-up probe for {workload} exited with {code}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return times


class MemoryProbe:
    """One untimed iteration under tracemalloc.

    Records the iteration's traced-memory peak and, for each outermost call
    into the batch layer, the bytes its peak rose above the memory in use
    when it started.
    """

    def __init__(self) -> None:
        self.depth = 0
        self.extra_bytes = 0
        self.elems = 0
        self.peak = 0

    @property
    def peak_mib(self) -> float:
        return self.peak / 2**20

    @property
    def bytes_per_elem(self) -> float:
        return self.extra_bytes / self.elems if self.elems else 0.0

    def iterate(self, case):
        tracemalloc.start()
        try:
            with patched(self.wrapper):
                out = case.iterate()
            self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    def wrapper(self, target: Target, fn):
        if target.layer != "batch":
            return None

        def probed(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            before, peak = tracemalloc.get_traced_memory()
            self.peak = max(self.peak, peak)
            tracemalloc.reset_peak()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                peak = tracemalloc.get_traced_memory()[1]
                self.peak = max(self.peak, peak)
                self.extra_bytes += peak - before
                self.elems += target.elems(args)

        return probed


def tail(values: list[float]) -> tuple[float, int]:
    """The 90th percentile (linear interpolation) and how many samples lie above it.

    A run makes 4 to 25 iterations, too few for any percentile above the
    median to have ten samples beyond it, so a fixed percentile is reported
    together with the count of samples above it.
    """
    if len(values) == 1:
        return values[0], 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return p90, sum(v > p90 for v in values)


class Run:
    """Counts of attempted and failed iterations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def iteration(self, case, step=None):
        """Run ``step`` (default ``case.iterate``), gate its output, return (seconds, output)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            out = (step or case.iterate)()
        except Exception:  # a crash is a failed iteration; the run goes on and reports it
            elapsed = time.perf_counter() - started
            self.fail([traceback.format_exc(limit=3)])
            return elapsed, None
        elapsed = time.perf_counter() - started
        self.fail(case.check(out))
        return elapsed, out

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.messages.extend(problems[: 10 - len(self.messages)])

    def loop(self, case, seconds: float, step=None, stop=None):
        """Iterate until ``seconds`` have passed (at least once) or ``stop()`` is true."""
        times, outs = [], []
        deadline = time.perf_counter() + seconds
        while True:
            elapsed, out = self.iteration(case, step)
            times.append(elapsed)
            outs.append(out)
            if time.perf_counter() >= deadline or (stop and stop()):
                return times, outs


def measure(case, root: Path, seconds: float, trace: bool, setup_repeats: int = 5,
            spans_out: Path | None = None) -> tuple[dict, dict]:
    """Run one workload for ``seconds``; return the result line and a record of details.

    ``attempted`` counts every checked step: the warm-up with its one-off
    checks, the memory pass and each timed or traced iteration.
    """
    run = Run()
    info: dict = {"workload": case.name}
    run.attempted += 1
    try:
        run.fail(case.prepare())
    except Exception:  # reported as a failed warm-up, like any gate failure
        run.fail([traceback.format_exc(limit=3)])
    info["ops_per_iteration"] = case.ops
    if trace:
        metrics = _layers(case, seconds, run, info, spans_out)
        units = PER_LAYER_UNITS
    else:
        metrics = _end_to_end(case, root, seconds, run, info, setup_repeats)
        units = END_TO_END_UNITS
    info["fail_frac"] = run.failed / run.attempted
    info["failures"] = run.messages
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def _end_to_end(case, root, seconds, run, info, setup_repeats) -> dict[str, float]:
    setups = setup_times(root, case.name, case.seed, setup_repeats)
    memory = MemoryProbe()
    run.iteration(case, lambda: memory.iterate(case))
    times, _ = run.loop(case, seconds)
    p50 = statistics.median(times)
    tail_s, above = tail(times)
    info.update(
        setup_s_all=setups,
        iterations=len(times),
        iter_s_all=times,
        iter_s_tail_percentile=90,
        iter_s_tail_samples_above=above,
    )
    return {
        "setup_s": statistics.median(setups),
        "iter_s_p50": p50,
        "iter_s_tail": tail_s,
        "ops_per_s": case.ops / p50,
        "peak_mib": memory.peak_mib,
    }


def _layers(case, seconds, run, info, spans_out) -> dict[str, float]:
    """Untraced iterations for half the time, then traced ones for the other half."""
    times, _ = run.loop(case, seconds / 2)
    log = SpanLog()

    def traced_step():
        with patched(log.wrapper):
            return case.iterate()

    def advance():
        log.current_iteration += 1
        return len(log) > SPAN_CAP

    traced_times, outs = run.loop(case, seconds / 2, traced_step, advance)
    iterations = len(traced_times)
    stats = SpanStats(log)
    counts = {label: stats.counts_per_iteration(label, iterations) for label in case.expected_calls}
    run.fail([
        f"{label}: {got} spans per iteration, expected {case.expected_calls[label]}"
        for label, got in counts.items()
        if any(n != case.expected_calls[label] for n in got)
    ])
    # The batch layer's memory needs its own pass; skip it where the trace
    # shows no batch call (a tracemalloc pass over scalar code is slow).
    memory = MemoryProbe()
    if any(name.startswith("batch.") and stats.count(name) for name in stats.names):
        run.iteration(case, lambda: memory.iterate(case))
    substituted = 0.0
    if hasattr(case, "substituted_s"):
        substituted = sum(case.substituted_s(out) for out in outs if out is not None)
    info.update(
        iterations=len(times),
        traced_iterations=iterations,
        spans=len(log),
        span_counts=counts,
    )
    if spans_out is not None:
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        log.save(spans_out)
    return layer_metrics(
        stats, iterations, substituted, memory.bytes_per_elem,
        statistics.median(traced_times) / statistics.median(times) - 1.0,
    )
