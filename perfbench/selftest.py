"""Self-test of the benchmark: tiny inputs, metric names and units, and the output gate.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

1. Runs every workload on tiny inputs, untraced and traced, on two seeds,
   and requires ``fail_frac`` 0 and every metric named in BENCHMARK.json,
   with its unit.
2. Corrupts outputs with wrappers installed here (never by editing the
   package) and requires the gate to report each corruption.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

run.load_fixedposit()

import numpy as np  # noqa: E402

import cases  # noqa: E402
import harness  # noqa: E402
from spans import patched  # noqa: E402

SEEDS = (67, 5)


def _only(label: str, make):
    """A wrapper factory that replaces just the target called ``label``."""
    return lambda target, fn: make(fn) if target.label == label else None


def _flip_low_bit(fn):
    return lambda *args: np.asarray(fn(*args)) ^ 1


def _flip_word_bit(fn):
    def flipped(a, b):
        word = fn(a, b)
        return type(word)(word.bits ^ 1, word.fmt)

    return flipped


def _scale(factor):
    return lambda fn: lambda *args: fn(*args) * factor


def check_metrics(workdir: Path) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for seed in SEEDS:
        for name in cases.WORKLOADS:
            for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
                case = cases.build(name, seed, workdir, tiny=True)
                result, info = harness.measure(case, run.ROOT, 0.2, trace, setup_repeats=1)
                where = f"{name} seed {seed} trace {int(trace)}"
                if not result["correct"] or info["fail_frac"] != 0:
                    problems.append(f"{where}: gate failed: {info['failures']}")
                for metric in listed:
                    got = result["metrics"].get(metric["name"])
                    if got is None or got["unit"] != metric["unit"]:
                        problems.append(f"{where}: {metric['name']} missing or not in {metric['unit']}")
                extra = set(result["metrics"]) - {m["name"] for m in listed}
                if extra:
                    problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def _gate_reports(name: str, workdir: Path, corrupt, after_prepare: bool) -> bool:
    """True when the gate flags a run whose outputs ``corrupt`` alters."""
    case = cases.build(name, SEEDS[0], workdir, tiny=True)
    if after_prepare:
        if case.prepare():
            return False  # the uncorrupted warm-up must pass
        with patched(corrupt):
            return bool(case.check(case.iterate()))
    with patched(corrupt):
        result, _ = harness.measure(case, run.ROOT, 0.2, False, setup_repeats=1)
    return not result["correct"] and result["failed"] > 0


def check_gate(workdir: Path) -> list[str]:
    corruptions = [
        ("gemm: batch multiply off by one bit",
         "gemm", _only("batch.mul_batch", _flip_low_bit), False),
        ("gemm: products change after the warm-up",
         "gemm", _only("batch.mul_float32_batch", _scale(np.float32(1.5))), True),
        ("kernel_mix: products change after the warm-up",
         "kernel_mix", _only("batch.mul_float32_batch", _scale(np.float32(1.5))), True),
        ("conv_sweep: round trip scaled by 1.001",
         "conv_sweep", _only("batch.to_binary64_batch", _scale(1.001)), False),
        ("scalar_check: oracle off by one bit",
         "scalar_check", _only("multiplier.mul_reference", _flip_word_bit), False),
        ("scalar_check: binary32 product off by one bit",
         "scalar_check", _only("multiplier.mul_binary32_bits", _flip_low_bit), False),
    ]
    return [
        f"gate missed: {label}"
        for label, name, corrupt, after_prepare in corruptions
        if not _gate_reports(name, workdir, corrupt, after_prepare)
    ]


def main() -> int:
    workdir = run.OUT_DIR / "selftest"
    problems = check_metrics(workdir) + check_gate(workdir)
    for problem in problems:
        print(problem)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
