from functools import partial

import numpy as np
import pytest

from fixedposit import (
    FixedPositFormat,
    OperandTrace,
    TracingMul,
    mul_binary32_bits,
    read_pgm,
    run_workload,
    synthetic_image,
    trace_sample,
    write_pgm,
)
from fixedposit import batch
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
    received = []

    def fn(a, b):
        received.append((a.shape, b.shape))
        return native_mul(a, b)

    with pytest.raises(ValueError, match="operand recording was not enabled"):
        TracingMul(fn).trace()
    mul = TracingMul(fn, record=True)
    out = mul(np.float32(2.0), np.arange(5, dtype=np.float32))
    assert out.shape == (5,)
    assert mul.count == 5
    mul(np.ones((2, 3), np.float32), np.float32(4.0))
    assert mul.count == 11
    trace = mul.trace()
    assert len(trace) == 11
    assert trace.a_bits[0] == np.float32(2.0).view(np.uint32)

    # fn gets each operand at its own shape; count and trace use the broadcast pairs.
    rng = np.random.default_rng(5)
    grid = rng.random((4, 6), dtype=np.float32)
    calls = [
        (np.float32(2.0), np.arange(5, dtype=np.float32)),
        (np.ones((2, 3), np.float32), np.float32(4.0)),
        (grid[:, 2:3], grid[1, :]),  # gemm's column times row
        (grid[:1, :3], grid[:, 4:5]),
        (np.float32(3.0), np.float32(-0.5)),
    ]
    for a, b in calls[2:]:
        mul(a, b)
    assert received == [(np.shape(a), np.shape(b)) for a, b in calls]
    pairs = [np.broadcast_arrays(np.asarray(a), np.asarray(b)) for a, b in calls]
    assert mul.count == sum(wide_a.size for wide_a, _ in pairs) == 11 + 24 + 12 + 1
    trace = mul.trace()
    wide_a, wide_b = (np.concatenate([p[i].ravel() for p in pairs]) for i in (0, 1))
    assert np.array_equal(trace.a_bits, wide_a.view(np.uint32))
    assert np.array_equal(trace.b_bits, wide_b.view(np.uint32))


def test_substituted_mul_quantises_each_operand_once(monkeypatch):
    # A gemm rank-1 step quantises a 200-element column and a 200-element row
    # in one pass over their 400 lanes, not the 2 x 40,000 lanes of their broadcast.
    quantised = []
    operand = batch._quantized_operand

    def counting_operand(x32, fmt, dtype):
        quantised.append(np.size(x32))
        return operand(x32, fmt, dtype)

    monkeypatch.setattr(batch, "_quantized_operand", counting_operand)
    mul = TracingMul(partial(mul_float32_batch, F18))
    a = np.ones((200, 200), np.float32)
    out = mul(a[:, 7:8], a[7, :])
    assert out.shape == (200, 200) and mul.count == 40_000
    assert quantised == [400]


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


@pytest.mark.parametrize("size", [2, 64, 4096])
def test_fft_kernel_under_native_multiplies_is_an_fft(size):
    from fixedposit.workloads import _kernel_fft, _log_uniform

    signal = _log_uniform(np.random.default_rng(5), -4, 4, size)
    re, im = _kernel_fft(size, 5, TracingMul(native_mul))
    expected = np.fft.fft(signal.astype(np.float64))
    # Each of the log2(size) binary32 butterfly stages rounds; the error stays
    # within a few ulps of the signal's 1-norm per stage.
    tol = 4 * np.finfo(np.float32).eps * np.log2(size) * np.abs(signal).sum(dtype=np.float64)
    assert np.max(np.abs((re + 1j * im) - expected)) <= tol


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


@pytest.mark.parametrize(
    "size, image, frame",
    [
        (2, None, "2x2"),
        (40, np.zeros((2, 5), np.uint8), "2x5"),
        (40, np.zeros((5, 2), np.uint8), "5x2"),
    ],
    ids=["synthetic-2", "external-2x5", "external-5x2"],
)
def test_sobel_needs_a_3x3_frame(size, image, frame):
    with pytest.raises(ValueError, match=f"sobel needs at least a 3x3 image, got {frame}$"):
        run_workload("sobel", F18, size=size, image=image)


def test_only_sobel_takes_an_image():
    with pytest.raises(ValueError, match="sobel only, not gemm"):
        run_workload("gemm", F18, size=8, image=synthetic_image(8))


def test_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ValueError):
        read_pgm(path)
    with pytest.raises(ValueError, match=r"expected a 2-d grayscale image, got shape \(2, 2, 3\)"):
        write_pgm(path, np.zeros((2, 2, 3)))


def test_pgm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "frame.pgm"
    path.write_bytes(b"P5\n# a comment\n3 2 # another\n255\n" + bytes(range(6)))
    assert np.array_equal(read_pgm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))


def test_mlp_keeps_top1_agreement_at_narrow_width():
    result, _ = run_workload("mlp_forward", F18, size=32, seed=9)
    assert result.metrics["top1_agreement_pct"] == 100.0
    assert result.quality > 0.0  # logits move, ranking does not


def test_kmeans_is_stable_for_separated_blobs():
    result, _ = run_workload("kmeans", F18, size=60, seed=9)
    assert result.primary_metric == "rmse"
    assert result.quality == 0.0  # planted blobs never flip assignment


def test_batch_substitution_matches_scalar_callable():
    rng = np.random.default_rng(31)
    a = np.exp2(rng.uniform(-6, 6, 200)).astype(np.float32)
    b = np.exp2(rng.uniform(-6, 6, 200)).astype(np.float32)
    out = mul_float32_batch(F18, a, b).view(np.uint32)
    a_bits, b_bits = a.view(np.uint32), b.view(np.uint32)
    for i in range(0, 200, 7):
        assert out[i] == mul_binary32_bits(F18, int(a_bits[i]), int(b_bits[i]))


# How each output's products lie in a kernel's recorded trace: the shape to
# view it in, the axis that holds one output's terms, and n, the number of
# terms summed into each output.
SUMMED_TERMS = {
    "gemm": lambda size: ((size, -1), 0, size),  # one rank-1 update per call
    "dot": lambda size: ((-1, size), 1, size),  # one row per output
    "axpby": lambda size: ((2, -1), 0, 2),  # alpha * x, then beta * y
}


@pytest.mark.parametrize("fmt", [FixedPositFormat(n, 6, 2) for n in (12, 14, 18, 24, 32)], ids=str)
@pytest.mark.parametrize(
    "name, size", [("gemm", 16), ("gemm", 48), ("dot", 16), ("dot", 48), ("axpby", 200)]
)
@pytest.mark.parametrize("seed", [1, 67])
def test_substituted_error_is_within_its_first_order_bound(name, size, seed, fmt):
    # Higham's standard model: a product inside the window is Q(Q(a)Q(b)) =
    # ab(1+t) with |t| <= (1+u)**3 - 1, the reference product rounds by at
    # most 2**-24, and binary32 sums of n terms add gamma_n on each side.
    from fixedposit.workloads import _KERNELS

    kernel = _KERNELS[name][0]
    ref_mul = TracingMul(native_mul, record=True)
    ref = kernel(size, seed, ref_mul).astype(np.float64)
    sub = kernel(size, seed, TracingMul(partial(mul_float32_batch, fmt))).astype(np.float64)
    trace = ref_mul.trace()
    a, b = (bits.view(np.float32).astype(np.float64) for bits in (trace.a_bits, trace.b_bits))
    products = np.abs(a * b)  # exact: 24-bit significands
    for x in (np.abs(a), np.abs(b), products):  # no lane saturates or flushes
        assert np.all((x > 2.0**fmt.min_scale) & (x < 2.0 ** (fmt.max_scale + 1)))
    shape, axis, n = SUMMED_TERMS[name](size)
    magnitude = products.reshape(shape).sum(axis).reshape(ref.shape)
    u = 2.0 ** -(fmt.fraction_bits + 1)
    gamma = n * 2.0**-24 / (1 - n * 2.0**-24)
    rel = ((1 + u) ** 3 - 1) + 2.0**-24 + 2 * gamma * (1 + u) ** 3
    assert np.all(np.abs(sub - ref) <= rel * magnitude)
