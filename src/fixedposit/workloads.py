"""Multiply-substitution workload kernels and their quality harness.

Each kernel is written against a multiply callable: the reference run hands
it native binary32 multiplication, the substituted run hands it the
fixed-posit pipeline.  Everything else (adds, subtractions, divisions,
comparisons, library math) stays native binary32, and both runs share the
same seeded inputs and the same code path, so a native-multiply
substitution reproduces the reference bit for bit.

Kernel inputs are positive and log-uniform by default.  That keeps every
output well away from catastrophic cancellation, so the reported relative
errors track the multiplier's rounding rather than the conditioning of a
particular random draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .batch import mul_float32_batch
from .formats import FixedPositFormat
from .metrics import error_report, psnr_db, rmse

DEFAULT_SEED = 67

_F32 = np.float32


class TracingMul:
    """Routes every scalar multiplication through ``fn``, counting operands.

    With ``record=True`` the broadcast operand pairs are captured in order,
    which is the software analogue of logging a multiplier's input trace.
    """

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray], record: bool = False):
        self._fn = fn
        self.count = 0
        self.record = record
        self._a_chunks: list[np.ndarray] = []
        self._b_chunks: list[np.ndarray] = []

    def __call__(self, a, b) -> np.ndarray:
        a32, b32 = np.broadcast_arrays(np.asarray(a, _F32), np.asarray(b, _F32))
        self.count += a32.size
        if self.record:
            self._a_chunks.append(np.ascontiguousarray(a32).view(np.uint32).ravel().copy())
            self._b_chunks.append(np.ascontiguousarray(b32).view(np.uint32).ravel().copy())
        return self._fn(a32, b32)

    def trace(self) -> "OperandTrace":
        if not self.record:
            raise ValueError("operand recording was not enabled")
        return OperandTrace(
            np.concatenate(self._a_chunks) if self._a_chunks else np.empty(0, np.uint32),
            np.concatenate(self._b_chunks) if self._b_chunks else np.empty(0, np.uint32),
        )


def native_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


@dataclass(frozen=True, slots=True)
class OperandTrace:
    """Recorded multiplier inputs: parallel arrays of binary32 bit patterns."""

    a_bits: np.ndarray
    b_bits: np.ndarray

    def __len__(self) -> int:
        return int(self.a_bits.size)

    def save(self, path) -> None:
        """Little-endian stream of 8-byte records: a pattern then b pattern."""
        packed = np.empty((len(self), 2), dtype="<u4")
        packed[:, 0] = self.a_bits
        packed[:, 1] = self.b_bits
        packed.tofile(path)

    @classmethod
    def load(cls, path) -> "OperandTrace":
        raw = np.fromfile(path, dtype=np.uint8)
        if raw.size % 8:
            raise ValueError(f"operand trace holds {raw.size} bytes, not a multiple of 8")
        packed = raw.view("<u4").reshape(-1, 2)
        return cls(packed[:, 0].copy(), packed[:, 1].copy())


def trace_sample(trace: OperandTrace, chunks: int, chunk_len: int, seed: int) -> OperandTrace:
    """Sample ``chunks`` runs of ``chunk_len`` consecutive pairs, uniformly at random.

    Chunks are drawn independently and may overlap.
    """
    if chunk_len < 1 or chunks < 1:
        raise ValueError("chunks and chunk_len must be positive")
    if chunk_len > len(trace):
        raise ValueError(f"chunk_len {chunk_len} exceeds trace length {len(trace)}")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(trace) - chunk_len + 1, size=chunks)
    idx = np.concatenate([np.arange(s, s + chunk_len) for s in starts])
    return OperandTrace(trace.a_bits[idx].copy(), trace.b_bits[idx].copy())


# ---------------------------------------------------------------------------
# Kernels.  Each generates its own inputs from the seed and returns the raw
# outputs the quality metric is computed over.


def _log_uniform(rng: np.random.Generator, lo2: float, hi2: float, shape) -> np.ndarray:
    return np.exp2(rng.uniform(lo2, hi2, shape)).astype(_F32)


def _kernel_axpby(size: int, seed: int, mul: TracingMul) -> np.ndarray:
    """y' = alpha * x + beta * y over length-``size`` vectors."""
    rng = np.random.default_rng(seed)
    alpha, beta = _log_uniform(rng, -2, 2, 2)
    x = _log_uniform(rng, -4, 4, size)
    y = _log_uniform(rng, -4, 4, size)
    return mul(alpha, x) + mul(beta, y)


def _kernel_gemm(size: int, seed: int, mul: TracingMul) -> np.ndarray:
    """Dense ``size`` x ``size`` matrix product, accumulated column-rank by rank."""
    rng = np.random.default_rng(seed)
    a = _log_uniform(rng, -6, 6, (size, size))
    b = _log_uniform(rng, -6, 6, (size, size))
    c = np.zeros((size, size), dtype=_F32)
    for k in range(size):
        c += mul(a[:, k : k + 1], b[k, :])
    return c


def _kernel_trsv(size: int, seed: int, mul: TracingMul) -> np.ndarray:
    """Forward substitution on a row-normalized lower-triangular system."""
    rng = np.random.default_rng(seed)
    g = _log_uniform(rng, -8, 8, (size, size))
    diag = _log_uniform(rng, -0.5, 0.5, size)
    b = _log_uniform(rng, -3, -1, size)
    low = np.tril(g, -1)
    sums = low.sum(axis=1)
    sums[sums == 0] = 1.0
    low = (-0.9 * low / sums[:, None]).astype(_F32)  # off-diagonals pull solutions up
    x = np.zeros(size, dtype=_F32)
    for i in range(size):
        acc = np.sum(mul(low[i, :i], x[:i]), dtype=_F32) if i else _F32(0.0)
        x[i] = (b[i] - acc) / diag[i]
    return x


def _kernel_dot(size: int, seed: int, mul: TracingMul) -> np.ndarray:
    """A batch of ``size`` independent length-``size`` dot products."""
    rng = np.random.default_rng(seed)
    x = _log_uniform(rng, -6, 6, (size, size))
    y = _log_uniform(rng, -6, 6, (size, size))
    return np.sum(mul(x, y), axis=1, dtype=_F32)


def _normal_cdf(d: np.ndarray, mul: TracingMul) -> np.ndarray:
    # Rational polynomial approximation of the standard normal CDF; high
    # multiply density on purpose.
    a1, a2, a3, a4, a5 = (
        _F32(0.319381530),
        _F32(-0.356563782),
        _F32(1.781477937),
        _F32(-1.821255978),
        _F32(1.330274429),
    )
    mag = np.abs(d)
    t = _F32(1.0) / (_F32(1.0) + mul(_F32(0.2316419), mag))
    poly = mul(t, a1 + mul(t, a2 + mul(t, a3 + mul(t, a4 + mul(t, a5)))))
    pdf = mul(_F32(0.3989422804014327), np.exp(mul(_F32(-0.5), mul(mag, mag))))
    upper = _F32(1.0) - mul(pdf, poly)
    return np.where(d >= 0, upper, _F32(1.0) - upper)


def _kernel_blackscholes(size: int, seed: int, mul: TracingMul) -> np.ndarray:
    """European call prices for ``size`` near-the-money options."""
    rng = np.random.default_rng(seed)
    spot = _log_uniform(rng, 4, 7, size)
    strike = (spot * rng.uniform(0.92, 1.08, size)).astype(_F32)
    expiry = rng.uniform(0.25, 2.0, size).astype(_F32)
    vol = rng.uniform(0.15, 0.45, size).astype(_F32)
    rate = _F32(0.05)
    sqrt_t = np.sqrt(expiry)
    vol_sqrt_t = mul(vol, sqrt_t)
    drift = rate + mul(_F32(0.5), mul(vol, vol))
    d1 = (np.log(spot / strike) + mul(drift, expiry)) / vol_sqrt_t
    d2 = d1 - vol_sqrt_t
    discount = np.exp(mul(-rate, expiry))
    return mul(spot, _normal_cdf(d1, mul)) - mul(mul(strike, discount), _normal_cdf(d2, mul))


def _kernel_fft(size: int, seed: int, mul: TracingMul) -> np.ndarray:
    """Radix-2 complex FFT of a positive random signal; returns (re, im) stacked."""
    if size < 2 or size & (size - 1):
        raise ValueError(f"fft size must be a power of two >= 2, got {size}")
    rng = np.random.default_rng(seed)
    stages = size.bit_length() - 1
    rev = np.zeros(size, dtype=np.int64)
    for i in range(size):
        rev[i] = int(format(i, f"0{stages}b")[::-1], 2)
    xr = _log_uniform(rng, -4, 4, size)[rev].copy()
    xi = np.zeros(size, dtype=_F32)
    for s in range(1, stages + 1):
        m = 1 << s
        half = m // 2
        angles = -2.0 * np.pi * np.arange(half) / m
        wr = np.cos(angles).astype(_F32)
        wi = np.sin(angles).astype(_F32)
        vr = xr.reshape(-1, m)
        vi = xi.reshape(-1, m)
        er, ei = vr[:, :half].copy(), vi[:, :half].copy()
        orr, oi = vr[:, half:], vi[:, half:]
        tr = mul(wr, orr) - mul(wi, oi)
        ti = mul(wr, oi) + mul(wi, orr)
        vr[:, :half], vr[:, half:] = er + tr, er - tr
        vi[:, :half], vi[:, half:] = ei + ti, ei - ti
    return np.stack([xr, xi])


def _kernel_kmeans(size: int, seed: int, mul: TracingMul) -> np.ndarray:
    """Fixed-iteration Lloyd clustering of three planted blobs; returns centroids."""
    if size < 9:
        raise ValueError(f"kmeans needs at least 9 points, got {size}")
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 1.0], [1.0, 8.0]], dtype=_F32)
    blob = (np.arange(size) * 3) // size
    points = (centers[blob] + rng.uniform(-1.0, 1.0, (size, 2))).astype(_F32)
    centroids = points[[0, size // 3, 2 * (size // 3)]].copy()
    for _ in range(8):
        dist = np.empty((3, size), dtype=_F32)
        for c in range(3):
            dx = points[:, 0] - centroids[c, 0]
            dy = points[:, 1] - centroids[c, 1]
            dist[c] = mul(dx, dx) + mul(dy, dy)
        labels = np.argmin(dist, axis=0)  # ties resolve to the lowest index
        for c in range(3):
            chosen = points[labels == c]
            if chosen.size:
                centroids[c] = (chosen.sum(axis=0, dtype=_F32) / _F32(len(chosen))).astype(_F32)
    return centroids.ravel()


def synthetic_image(size: int = 256) -> np.ndarray:
    """Deterministic 8-bit gradient-plus-checker test image."""
    if size < 2:
        raise ValueError(f"image side must be at least 2, got {size}")
    yy, xx = np.mgrid[0:size, 0:size]
    ramp = (xx + yy) * (160.0 / (2 * (size - 1)))
    checker = ((xx // 16 + yy // 16) % 2) * 48.0
    return np.clip(ramp + checker + 24.0, 0, 255).astype(np.uint8)


def _sobel_on(img: np.ndarray, mul: TracingMul) -> np.ndarray:
    p = img.astype(_F32)
    size_y, size_x = p.shape
    w = lambda di, dj: p[1 + di : size_y - 1 + di, 1 + dj : size_x - 1 + dj]
    c = lambda v: _F32(v)
    gx = (
        mul(c(-1), w(-1, -1)) + mul(c(-2), w(0, -1)) + mul(c(-1), w(1, -1))
        + mul(c(1), w(-1, 1)) + mul(c(2), w(0, 1)) + mul(c(1), w(1, 1))
    )
    gy = (
        mul(c(-1), w(-1, -1)) + mul(c(-2), w(-1, 0)) + mul(c(-1), w(-1, 1))
        + mul(c(1), w(1, -1)) + mul(c(2), w(1, 0)) + mul(c(1), w(1, 1))
    )
    magnitude = np.sqrt(mul(gx, gx) + mul(gy, gy))
    return np.minimum(magnitude, _F32(255.0))


def _kernel_sobel(size: int, seed: int, mul: TracingMul) -> np.ndarray:
    """3x3 gradient magnitude over the synthetic test image."""
    if size < 3:
        raise ValueError(f"sobel needs at least a 3x3 image, got size {size}")
    return _sobel_on(synthetic_image(size), mul)


def _kernel_mlp_forward(size: int, seed: int, mul: TracingMul) -> np.ndarray:
    """Three dense layers with ReLU then softmax over a ``size`` batch.

    Returns logits and class probabilities stacked as (2, size, classes).
    """
    rng = np.random.default_rng(seed)
    dims = (16, 32, 32, 10)
    weights = [
        (_log_uniform(rng, -3, 0, (dims[i], dims[i + 1])) / _F32(dims[i])) for i in range(3)
    ]
    biases = [_log_uniform(rng, -4, -2, dims[i + 1]) for i in range(3)]
    act = _log_uniform(rng, -2, 2, (size, dims[0]))
    for layer, (w_mat, b_vec) in enumerate(zip(weights, biases)):
        z = np.tile(b_vec, (size, 1)).astype(_F32)
        for j in range(w_mat.shape[0]):
            z += mul(act[:, j : j + 1], w_mat[j, :])
        act = np.maximum(z, _F32(0.0)) if layer < 2 else z
    logits = act
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    probabilities = exps / exps.sum(axis=1, keepdims=True)
    return np.stack([logits, probabilities])


# ---------------------------------------------------------------------------
# Harness.


@dataclass(frozen=True, slots=True)
class WorkloadResult:
    """Quality of one kernel run against its binary32 reference run."""

    workload: str
    fmt: FixedPositFormat | None  # None marks the reference run
    size: int
    seed: int
    primary_metric: str
    quality: float
    metrics: dict = field(default_factory=dict)
    mul_count: int = 0
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "format": [self.fmt.n, self.fmt.es, self.fmt.rs] if self.fmt else "reference",
            "size": self.size,
            "seed": self.seed,
            "primary_metric": self.primary_metric,
            "quality": self.quality,
            "metrics": self.metrics,
            "mul_count": self.mul_count,
            "elapsed_s": self.elapsed_s,
        }


def _quality_rel(ref: np.ndarray, sub: np.ndarray) -> tuple[str, dict]:
    report = error_report(ref, sub)
    return "mean_rel_err_pct", {
        "mean_rel_err_pct": report.mean_rel_err_pct,
        "max_rel_err_pct": report.max_rel_err_pct,
        "skipped": report.skipped,
    }


def _quality_rmse(ref: np.ndarray, sub: np.ndarray) -> tuple[str, dict]:
    return "rmse", {"rmse": rmse(ref, sub)}


def _quality_image(ref: np.ndarray, sub: np.ndarray) -> tuple[str, dict]:
    return "rmse", {"rmse": rmse(ref, sub), "psnr_db": psnr_db(ref, sub)}


def _quality_mlp(ref: np.ndarray, sub: np.ndarray) -> tuple[str, dict]:
    name, stats = _quality_rel(ref[0], sub[0])  # relative error over logits
    agreement = float(np.mean(np.argmax(ref[1], axis=1) == np.argmax(sub[1], axis=1)) * 100.0)
    stats["top1_agreement_pct"] = agreement
    return name, stats


_KERNELS = {
    "axpby": (_kernel_axpby, 200, _quality_rel),
    "gemm": (_kernel_gemm, 200, _quality_rel),
    "trsv": (_kernel_trsv, 200, _quality_rel),
    "dot": (_kernel_dot, 200, _quality_rel),
    "blackscholes": (_kernel_blackscholes, 200, _quality_rel),
    "fft": (_kernel_fft, 4096, lambda r, s: _quality_rel(r[0] + 1j * r[1], s[0] + 1j * s[1])),
    "kmeans": (_kernel_kmeans, 200, _quality_rmse),
    "sobel": (_kernel_sobel, 256, _quality_image),
    "mlp_forward": (_kernel_mlp_forward, 128, _quality_mlp),
}

WORKLOAD_NAMES = tuple(_KERNELS)


def run_workload(
    name: str,
    fmt: FixedPositFormat | None,
    size: int | None = None,
    seed: int = DEFAULT_SEED,
    record_trace: bool = False,
    image: np.ndarray | None = None,
) -> tuple[WorkloadResult, OperandTrace | None]:
    """Run a kernel twice (reference and substituted) and report its quality.

    With ``fmt=None`` the requested run is the reference itself, giving the
    zero-loss baseline.  ``image`` feeds sobel an external grayscale frame in
    place of the synthetic one; any other workload rejects it.
    """
    if name not in _KERNELS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")
    if image is not None and name != "sobel":
        raise ValueError(f"an input image is for sobel only, not {name}")
    kernel, dflt, quality = _KERNELS[name]
    size = dflt if size is None else size
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")

    if image is not None:
        if image.shape[0] < 3 or image.shape[1] < 3:
            raise ValueError("sobel needs at least a 3x3 image")
        size = int(image.shape[0])  # size reports the frame actually processed
        runner = lambda mul: _sobel_on(image, mul)
    else:
        runner = lambda mul: kernel(size, seed, mul)

    ref_mul = TracingMul(native_mul)
    ref_out = runner(ref_mul)

    start = time.perf_counter()
    sub_fn = native_mul if fmt is None else partial(mul_float32_batch, fmt)
    sub_mul = TracingMul(sub_fn, record=record_trace)
    sub_out = runner(sub_mul)
    elapsed = time.perf_counter() - start

    primary, stats = quality(ref_out, sub_out)
    result = WorkloadResult(
        workload=name,
        fmt=fmt,
        size=size,
        seed=seed,
        primary_metric=primary,
        quality=stats[primary],
        metrics=stats,
        mul_count=sub_mul.count,
        elapsed_s=elapsed,
    )
    return result, (sub_mul.trace() if record_trace else None)


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary (P5) PGM file into a uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        if pos == len(data):
            raise ValueError(f"PGM header is truncated: {len(fields)} of 4 fields present")
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM file: magic {fields[0]!r}")
    for name, text in zip(("width", "height", "maxval"), fields[1:]):
        if not text.isdigit():
            raise ValueError(f"PGM {name} is not a decimal number: {text!r}")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, got maxval {maxval}")
    pos += 1  # single whitespace after the header
    body = data[pos : pos + width * height]
    if len(body) < width * height:
        raise ValueError(f"PGM body is truncated: {len(body)} of {width}x{height} pixel bytes")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, image: np.ndarray) -> None:
    """Write a uint8 grayscale array as a binary (P5) PGM file."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-d grayscale image, got shape {img.shape}")
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())
