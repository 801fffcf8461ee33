"""The four benchmark workloads: what one iteration runs and how its output is checked.

Each case has ``prepare`` (an untimed warm-up that also runs the one-off
checks), ``iterate`` (the timed work) and ``check`` (the per-iteration
output gate, returning a list of failures).  ``ops`` is the number of ops
one iteration performs, as defined per workload.

Workload iterations drive fixedposit only through ``cli.main`` with
``--json`` and through the public scalar functions.  Package functions are
looked up on their module at call time so that wrappers installed by
``spans.patched`` take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from fixedposit import batch, cli, codec, multiplier, posit, workloads
from fixedposit.formats import FixedPositFormat, PositFormat

KERNEL_MIX = ("axpby", "trsv", "dot", "blackscholes", "fft", "kmeans", "sobel", "mlp_forward")
# Small sizes used by the self-test; the benchmark runs each kernel's default size.
TINY_KERNEL_SIZES = {
    "axpby": 16, "trsv": 8, "dot": 8, "blackscholes": 16,
    "fft": 16, "kmeans": 12, "sobel": 8, "mlp_forward": 4,
}
SUBSTITUTED_FMT = "18,6,2"
# The operand gate samples GATE_SAMPLE_CHUNKS runs of GATE_SAMPLE_LEN recorded pairs,
# spread over a case's CLI calls.
GATE_SAMPLE_CHUNKS = 50
GATE_SAMPLE_LEN = 100
CONVERSION_SAMPLES_PER_FORMAT = 200


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``fixedposit`` in-process and return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _results(code: int, text: str) -> list[dict]:
    if code != 0:
        raise ValueError(f"fixedposit exited with {code}")
    return json.loads(text)["results"]


def _strip(entries: list[dict], *keys: str) -> list[dict]:
    return [{k: v for k, v in entry.items() if k not in keys} for entry in entries]


def _binary32_bits(rng: np.random.Generator, count: int, lo: int, hi: int) -> np.ndarray:
    """Signed normal binary32 patterns with unbiased exponents in [lo, hi]."""
    exps = rng.integers(lo, hi + 1, count)
    return (rng.integers(0, 2, count) << 31) | ((exps + 127) << 23) | rng.integers(0, 1 << 23, count)


class CliCase:
    """A workload that is a fixed list of ``fixedposit`` CLI calls."""

    def __init__(self, name: str, argvs: list[list[str]], seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.argvs = [argv + ["--json", "--seed", str(seed)] for argv in argvs]
        self.reference: list[list[dict]] = []
        self.ops = 0

    def iterate(self) -> list[tuple[int, str]]:
        return [call_cli(argv) for argv in self.argvs]

    def results(self, out: list[tuple[int, str]]) -> list[list[dict]]:
        return [_results(code, text) for code, text in out]


class WorkloadCase(CliCase):
    """``fixedposit workload`` calls: substituted multiplies in application kernels.

    Gate: every iteration's results, without timings, equal the warm-up's;
    and a seeded sample of the warm-up's recorded operand pairs gives the
    same bits from ``batch.mul_binary32_batch`` and scalar ``mul_binary32_bits``.
    """

    def __init__(self, name, argvs, seed, workdir, expected_mul_calls: int | None):
        super().__init__(name, argvs, seed, workdir)
        self.expected_calls = (
            {"batch.mul_float32_batch": expected_mul_calls} if expected_mul_calls else {}
        )

    def prepare(self) -> list[str]:
        failures = []
        self.workdir.mkdir(parents=True, exist_ok=True)
        fmt = FixedPositFormat(*(int(p) for p in SUBSTITUTED_FMT.split(",")))
        for i, argv in enumerate(self.argvs):
            trace_path = self.workdir / f"operands-{self.name}-{i}.trace"
            try:
                results = _results(*call_cli(argv + ["--trace-out", str(trace_path)]))
                trace = workloads.OperandTrace.load(trace_path)
            finally:
                trace_path.unlink(missing_ok=True)
            self.reference.append(_strip(results, "elapsed_s", "trace_file", "trace_len"))
            self.ops += sum(entry["mul_count"] for entry in results)
            chunks = -(-GATE_SAMPLE_CHUNKS // len(self.argvs))
            chunk = min(GATE_SAMPLE_LEN, len(trace))
            sample = workloads.trace_sample(trace, chunks, chunk, self.seed + i)
            got = batch.mul_binary32_batch(fmt, sample.a_bits, sample.b_bits).tolist()
            want = [
                multiplier.mul_binary32_bits(fmt, a, b)
                for a, b in zip(sample.a_bits.tolist(), sample.b_bits.tolist())
            ]
            bad = sum(g != w for g, w in zip(got, want))
            if bad:
                failures.append(f"{argv[2]}: {bad} of {len(want)} sampled pairs differ from scalar")
        return failures

    def check(self, out) -> list[str]:
        try:
            got = [_strip(r, "elapsed_s") for r in self.results(out)]
        except ValueError as exc:
            return [str(exc)]
        return [
            f"{argv[2]}: results differ from the warm-up"
            for argv, g, ref in zip(self.argvs, got, self.reference)
            if g != ref
        ]

    def substituted_s(self, out) -> float:
        return sum(entry["elapsed_s"] for results in self.results(out) for entry in results)


class SweepCase(CliCase):
    """``fixedposit sweep``: binary32 -> fixed-posit -> binary64 round trips.

    Gate: each format's max relative error is within the half-ulp bound
    ``100 * 2**-(f+1) / (1 - 2**-(f+1))``, every iteration equals the warm-up,
    and a seeded sample of conversions through the batch codec matches
    scalar ``from_binary32`` followed by ``to_binary64``.
    """

    def __init__(self, name, argvs, seed, workdir, formats: int):
        super().__init__(name, argvs, seed, workdir)
        self.expected_calls = {
            "metrics.sweep_conversion_error": formats,
            "batch.from_binary32_batch": formats,
            "batch.to_binary64_batch": formats,
        }

    def prepare(self) -> list[str]:
        out = self.iterate()
        failures = self.check_bounds(out)
        self.reference = self.results(out)
        self.ops = sum(entry["count"] for results in self.reference for entry in results)
        rng = np.random.default_rng(self.seed)
        for results in self.reference:
            for entry in results:
                fmt = FixedPositFormat(*entry["format"])
                bits = _binary32_bits(rng, CONVERSION_SAMPLES_PER_FORMAT, -126, 127)
                got = batch.to_binary64_batch(batch.from_binary32_batch(bits, fmt), fmt).tolist()
                want = [codec.to_binary64(codec.from_binary32(b, fmt)) for b in bits.tolist()]
                if got != want:
                    failures.append(f"{fmt}: batch conversions differ from scalar")
        return failures

    def check_bounds(self, out) -> list[str]:
        failures = []
        for results in self.results(out):
            for entry in results:
                f = FixedPositFormat(*entry["format"]).fraction_bits
                bound = 100.0 * 2.0 ** -(f + 1) / (1 - 2.0 ** -(f + 1))
                if not entry["max_rel_err_pct"] <= bound:
                    failures.append(
                        f"{entry['format']}: max rel err {entry['max_rel_err_pct']} > {bound}"
                    )
        return failures

    def check(self, out) -> list[str]:
        try:
            failures = self.check_bounds(out)
            if self.results(out) != self.reference:
                failures.append("sweep results differ from the warm-up")
        except ValueError as exc:
            return [str(exc)]
        return failures


class ScalarCase:
    """Scalar multipliers checked against each other.

    One iteration compares ``mul_datapath`` with ``mul_reference`` on every
    word pair of each small format, and ``mul_binary32_bits`` at (32,6,2)
    with ``posit_mul_binary32_bits`` at posit (32,6) on seeded binary32
    pairs whose exponents lie in [-32, 31], where the two formats agree.
    An op is one compared pair.  Gate: no mismatch, and the binary32
    results equal the native binary32 product.
    """

    name = "scalar_check"

    def __init__(self, seed: int, word_formats=((8, 2, 2), (8, 3, 1)), pairs: int = 20_000):
        self.seed = seed
        self.word_sets = [
            [codec.PositWord(bits, fmt) for bits in range(1 << fmt.n)]
            for fmt in (FixedPositFormat(*t) for t in word_formats)
        ]
        rng = np.random.default_rng(seed)
        a_bits = _binary32_bits(rng, pairs, -32, 31)
        b_bits = _binary32_bits(rng, pairs, -32, 31)
        self.pairs = list(zip(a_bits.tolist(), b_bits.tolist()))
        native = a_bits.astype(np.uint32).view(np.float32) * b_bits.astype(np.uint32).view(np.float32)
        self.native = native.view(np.uint32).tolist()
        self.fixed_fmt = FixedPositFormat(32, 6, 2)
        self.posit_fmt = PositFormat(32, 6)
        exhaustive = sum(len(words) ** 2 for words in self.word_sets)
        self.ops = exhaustive + pairs
        self.expected_calls = {
            "multiplier.mul_datapath": exhaustive + pairs,
            "multiplier.mul_reference": exhaustive,
            "multiplier.mul_binary32_bits": pairs,
            "posit.posit_mul_binary32_bits": pairs,
        }

    def prepare(self) -> list[str]:
        """Nothing to warm up: the inputs are built in the constructor."""
        return []

    def iterate(self) -> tuple[int, list[int]]:
        mul_datapath, mul_reference = multiplier.mul_datapath, multiplier.mul_reference
        mul_bits, posit_mul_bits = multiplier.mul_binary32_bits, posit.posit_mul_binary32_bits
        fixed_fmt, posit_fmt = self.fixed_fmt, self.posit_fmt
        mismatches = 0
        for words in self.word_sets:
            for wa in words:
                for wb in words:
                    if mul_datapath(wa, wb).bits != mul_reference(wa, wb).bits:
                        mismatches += 1
        fixed = []
        for a, b in self.pairs:
            bits = mul_bits(fixed_fmt, a, b)
            if bits != posit_mul_bits(posit_fmt, a, b):
                mismatches += 1
            fixed.append(bits)
        return mismatches, fixed

    def check(self, out) -> list[str]:
        mismatches, fixed = out
        failures = [f"{mismatches} mismatched pairs"] if mismatches else []
        if fixed != self.native:
            failures.append("binary32 results differ from the native binary32 product")
        return failures


WORKLOADS = ("gemm", "kernel_mix", "conv_sweep", "scalar_check")


def build(name: str, seed: int, workdir: Path, tiny: bool = False):
    """The case for one workload; ``tiny`` shrinks its inputs for the self-test."""
    if name == "gemm":
        size = 8 if tiny else 200
        argv = ["workload", "--name", "gemm", "--fmt", SUBSTITUTED_FMT, "--size", str(size)]
        return WorkloadCase(name, [argv], seed, workdir, expected_mul_calls=size)
    if name == "kernel_mix":
        argvs = [
            ["workload", "--name", kernel, "--fmt", SUBSTITUTED_FMT]
            + (["--size", str(TINY_KERNEL_SIZES[kernel])] if tiny else [])
            for kernel in KERNEL_MIX
        ]
        return WorkloadCase(name, argvs, seed, workdir, expected_mul_calls=None if tiny else 420)
    if name == "conv_sweep":
        if tiny:
            return SweepCase(name, [["sweep", "--fmt", SUBSTITUTED_FMT, "--samples", "500"]],
                             seed, workdir, formats=1)
        argv = ["sweep", "--all-paper-widths", "--samples", "100000"]
        return SweepCase(name, [argv], seed, workdir, formats=38)
    if name == "scalar_check":
        if tiny:
            return ScalarCase(seed, word_formats=((4, 1, 1),), pairs=20)
        return ScalarCase(seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")

