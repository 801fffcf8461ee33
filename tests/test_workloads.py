import numpy as np
import pytest

from fixedposit import (
    FixedPositFormat,
    OperandTrace,
    TracingMul,
    mul_binary32_via,
    read_pgm,
    run_workload,
    synthetic_image,
    trace_sample,
    write_pgm,
)
from fixedposit.batch import mul_float32_batch
from fixedposit.workloads import WORKLOAD_NAMES, native_mul

F18 = FixedPositFormat(18, 6, 2)
F32 = FixedPositFormat(32, 6, 2)

SMALL_SIZES = {
    "axpby": 64,
    "gemm": 24,
    "trsv": 48,
    "dot": 32,
    "blackscholes": 64,
    "fft": 64,
    "kmeans": 30,
    "sobel": 32,
    "mlp_forward": 16,
}


def test_workload_names_cover_all_kernels():
    assert set(WORKLOAD_NAMES) == set(SMALL_SIZES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_reference_run_compares_to_itself(name):
    result, _ = run_workload(name, None, size=SMALL_SIZES[name], seed=3)
    if result.primary_metric == "rmse":
        assert result.quality == 0.0
    else:
        assert result.quality == 0.0
    if "psnr_db" in result.metrics:
        assert result.metrics["psnr_db"] == 100.0
    if "top1_agreement_pct" in result.metrics:
        assert result.metrics["top1_agreement_pct"] == 100.0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_runs_are_deterministic(name):
    first, _ = run_workload(name, F18, size=SMALL_SIZES[name], seed=5)
    second, _ = run_workload(name, F18, size=SMALL_SIZES[name], seed=5)
    assert first.quality == second.quality
    assert first.metrics == second.metrics
    assert first.mul_count == second.mul_count


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_mul_count_matches_reference_run(name):
    ref, _ = run_workload(name, None, size=SMALL_SIZES[name], seed=7)
    sub, _ = run_workload(name, F18, size=SMALL_SIZES[name], seed=7)
    assert ref.mul_count == sub.mul_count > 0


def test_mul_count_formulas():
    gemm, _ = run_workload("gemm", None, size=16, seed=1)
    assert gemm.mul_count == 16**3
    fft, _ = run_workload("fft", None, size=16, seed=1)
    assert fft.mul_count == 2 * 16 * 4  # 4 muls per butterfly, n/2 log2(n) butterflies
    sobel, _ = run_workload("sobel", None, size=18, seed=1)
    assert sobel.mul_count == 14 * 16 * 16  # 12 taps + 2 squares per interior pixel
    dot, _ = run_workload("dot", None, size=16, seed=1)
    assert dot.mul_count == 16 * 16


@pytest.mark.parametrize(
    "name", ["axpby", "gemm", "trsv", "dot", "blackscholes", "fft"]
)
def test_zero_quality_loss_at_full_width(name):
    result, _ = run_workload(name, F32, size=SMALL_SIZES[name], seed=11)
    assert result.quality == 0.0
    assert result.metrics["max_rel_err_pct"] == 0.0


def test_substituted_error_appears_at_narrow_width():
    result, _ = run_workload("gemm", F18, size=SMALL_SIZES["gemm"], seed=11)
    assert result.quality > 0.0


def test_unknown_workload_and_bad_sizes():
    with pytest.raises(ValueError):
        run_workload("jacobi", None)
    with pytest.raises(ValueError):
        run_workload("fft", None, size=100)  # not a power of two
    with pytest.raises(ValueError):
        run_workload("kmeans", None, size=5)
    with pytest.raises(ValueError):
        run_workload("gemm", None, size=0)


def test_tracing_mul_counts_and_records():
    mul = TracingMul(native_mul, record=True)
    out = mul(np.float32(2.0), np.arange(5, dtype=np.float32))
    assert out.shape == (5,)
    assert mul.count == 5
    mul(np.ones((2, 3), np.float32), np.float32(4.0))
    assert mul.count == 11
    trace = mul.trace()
    assert len(trace) == 11
    assert trace.a_bits[0] == np.float32(2.0).view(np.uint32)


def test_trace_length_equals_mul_count():
    result, trace = run_workload("fft", F18, size=32, seed=13, record_trace=True)
    assert len(trace) == result.mul_count


def test_trace_file_roundtrip(tmp_path):
    _, trace = run_workload("dot", F18, size=8, seed=13, record_trace=True)
    path = tmp_path / "operands.trace"
    trace.save(path)
    assert path.stat().st_size == 8 * len(trace)  # two 4-byte patterns per record
    loaded = OperandTrace.load(path)
    assert np.array_equal(loaded.a_bits, trace.a_bits)
    assert np.array_equal(loaded.b_bits, trace.b_bits)


@pytest.mark.parametrize("length", [5, 9, 12])
def test_trace_load_rejects_partial_records(tmp_path, length):
    path = tmp_path / "partial.trace"
    path.write_bytes(bytes(range(length)))
    with pytest.raises(ValueError, match=f"{length} bytes, not a multiple of 8"):
        OperandTrace.load(path)


def test_trace_sample_shapes_and_errors():
    trace = OperandTrace(np.arange(10_000, dtype=np.uint32), np.arange(10_000, dtype=np.uint32))
    sampled = trace_sample(trace, chunks=10, chunk_len=100, seed=1)
    assert len(sampled) == 1000
    # each chunk is a run of consecutive records
    runs = sampled.a_bits.astype(np.int64).reshape(10, 100)
    assert np.all(np.diff(runs, axis=1) == 1)
    identity = trace_sample(trace, chunks=1, chunk_len=10_000, seed=1)
    assert np.array_equal(identity.a_bits, trace.a_bits)
    with pytest.raises(ValueError):
        trace_sample(trace, chunks=1, chunk_len=10_001, seed=1)
    with pytest.raises(ValueError):
        trace_sample(trace, chunks=0, chunk_len=10, seed=1)


def test_trace_sample_is_seed_deterministic():
    trace = OperandTrace(np.arange(5000, dtype=np.uint32), np.arange(5000, dtype=np.uint32))
    a = trace_sample(trace, 4, 50, seed=2)
    b = trace_sample(trace, 4, 50, seed=2)
    assert np.array_equal(a.a_bits, b.a_bits)


def test_trace_sample_at_power_analysis_scale():
    # 10 chunks of 10K consecutive records out of a million-record trace
    trace = OperandTrace(
        np.arange(1_000_000, dtype=np.uint32), np.arange(1_000_000, dtype=np.uint32)
    )
    sampled = trace_sample(trace, chunks=10, chunk_len=10_000, seed=67)
    assert len(sampled) == 100_000
    runs = sampled.a_bits.astype(np.int64).reshape(10, 10_000)
    assert np.all(np.diff(runs, axis=1) == 1)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_native_substitution_reproduces_reference_bit_exactly(name):
    from fixedposit.workloads import _KERNELS

    kernel = _KERNELS[name][0]
    first = kernel(SMALL_SIZES[name], 5, TracingMul(native_mul))
    second = kernel(SMALL_SIZES[name], 5, TracingMul(native_mul))
    assert np.array_equal(
        np.ascontiguousarray(first, np.float32).view(np.uint32),
        np.ascontiguousarray(second, np.float32).view(np.uint32),
    )


def test_sobel_psnr_thresholds():
    narrow, _ = run_workload("sobel", F18, size=64, seed=1)
    assert narrow.metrics["psnr_db"] >= 30.0
    full, _ = run_workload("sobel", F32, size=64, seed=1)
    assert full.metrics["psnr_db"] == 100.0
    assert full.metrics["rmse"] == 0.0


def test_sobel_accepts_external_image(tmp_path):
    img = synthetic_image(40)
    path = tmp_path / "frame.pgm"
    write_pgm(path, img)
    again = read_pgm(path)
    assert np.array_equal(img, again)
    from_file, _ = run_workload("sobel", F18, size=40, seed=1, image=again)
    synthetic, _ = run_workload("sobel", F18, size=40, seed=1)
    assert from_file.quality == synthetic.quality


def test_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_mlp_keeps_top1_agreement_at_narrow_width():
    result, _ = run_workload("mlp_forward", F18, size=32, seed=9)
    assert result.metrics["top1_agreement_pct"] == 100.0
    assert result.quality > 0.0  # logits move, ranking does not


def test_kmeans_is_stable_for_separated_blobs():
    result, _ = run_workload("kmeans", F18, size=60, seed=9)
    assert result.primary_metric == "rmse"
    assert result.quality == 0.0  # planted blobs never flip assignment


def test_batch_substitution_matches_scalar_callable():
    mul_scalar = mul_binary32_via(F18)
    rng = np.random.default_rng(31)
    a = np.exp2(rng.uniform(-6, 6, 200)).astype(np.float32)
    b = np.exp2(rng.uniform(-6, 6, 200)).astype(np.float32)
    out = mul_float32_batch(F18, a, b)
    for i in range(0, 200, 7):
        assert out[i] == np.float32(mul_scalar(float(a[i]), float(b[i])))
