"""The benchmark in ``perfbench/`` still runs, gates and traces the package.

Each workload runs on its tiny inputs with ``--trace 1`` semantics: the
traced iterations must pass the output gate and give the expected span
count for every layer boundary the workload pins (for scalar_check, that
``mul_reference`` runs only for the fixed-posit oracle comparison). A
renamed or moved traced function makes the span patching fail, and with
it the run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import cases
        import harness
    finally:
        sys.path.remove(str(PERFBENCH))
    return cases, harness


@pytest.mark.parametrize("workload", ["gemm", "kernel_mix", "conv_sweep", "scalar_check"])
def test_traced_tiny_workload_is_correct(perfbench, workload, tmp_path):
    cases, harness = perfbench
    case = cases.build(workload, 67, tmp_path, tiny=True)
    result, info = harness.measure(
        case, ROOT, 0.01, trace=True, spans_out=tmp_path / f"spans-{workload}.npz"
    )
    assert result["correct"], info["failures"]
    assert info["spans"] > 0
