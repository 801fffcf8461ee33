"""Error and quality metrics: relative error, RMSE, PSNR, conversion sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import from_binary32_batch, to_binary64_batch
from .formats import FixedPositFormat

PSNR_CAP_DB = 100.0
PSNR_PEAK = 255.0  # 8-bit images

DISTRIBUTIONS = ("log-uniform", "uniform-real")


@dataclass(frozen=True, slots=True)
class ErrorReport:
    """Aggregated error statistics for a sweep or a workload comparison."""

    count: int
    max_rel_err_pct: float
    mean_rel_err_pct: float
    rmse: float
    skipped: int = 0


def _compare(reference, approximation) -> tuple[np.ndarray, np.ndarray, float]:
    """Both inputs as flat float64 or complex128 (float64 is not copied), and their MSE."""
    ref = np.asarray(reference)
    approx = np.asarray(approximation)
    if ref.shape != approx.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {approx.shape}")
    if ref.size == 0:
        raise ValueError("need at least one sample")
    dtype = np.complex128 if np.iscomplexobj(ref) or np.iscomplexobj(approx) else np.float64
    ref = ref.astype(dtype, copy=False).ravel()
    approx = approx.astype(dtype, copy=False).ravel()
    return ref, approx, float(np.mean(np.abs(ref - approx) ** 2))


def rmse(reference, approximation) -> float:
    """Root mean squared difference of two equal-shape sequences."""
    return math.sqrt(_compare(reference, approximation)[2])


def psnr_db(reference, approximation) -> float:
    """PSNR of 8-bit images in dB, capped at 100 for identical inputs.

    A NaN error gives NaN, and an infinite error gives ``-inf``, as ``rmse``
    gives inf.
    """
    mse = _compare(reference, approximation)[2]
    if mse == 0.0:
        return PSNR_CAP_DB
    if mse == math.inf:
        return -math.inf
    # min(nan, cap) is nan, where min(cap, nan) would read a NaN output as perfect
    return min(10.0 * math.log10(PSNR_PEAK * PSNR_PEAK / mse), PSNR_CAP_DB)


def error_report(reference, approximation) -> ErrorReport:
    """Elementwise relative error ``100 * |x - x'| / |x|``, aggregated.

    Real or complex inputs.  Elements whose reference is zero or non-finite
    (NaN included) are excluded from the relative-error statistics and
    counted in ``skipped``; RMSE still includes every element.
    """
    ref, approx, mse = _compare(reference, approximation)
    usable = np.isfinite(ref) & (ref != 0)
    if not usable.all():  # a boolean index copies, so skip it when nothing is excluded
        ref, approx = ref[usable], approx[usable]
    rel = 100.0 * np.abs(ref - approx) / np.abs(ref)
    return ErrorReport(
        count=int(usable.size),
        max_rel_err_pct=float(rel.max()) if rel.size else 0.0,
        mean_rel_err_pct=float(rel.mean()) if rel.size else 0.0,
        rmse=math.sqrt(mse),
        skipped=int(usable.size - rel.size),
    )


def _sample_binary32(
    rng: np.random.Generator, count: int, distribution: str
) -> np.ndarray:
    """Positive binary32 bit patterns drawn from the requested distribution."""
    if distribution == "log-uniform":
        exponents = rng.integers(-126, 128, size=count, dtype=np.int64)
        fractions = rng.integers(0, 1 << 23, size=count, dtype=np.int64)
        return ((exponents + 127) << 23) | fractions
    if distribution == "uniform-real":
        reals = rng.uniform(2.0**-126, float(np.finfo(np.float32).max), size=count)
        return reals.astype(np.float32).view(np.uint32).astype(np.int64)
    raise ValueError(f"unknown distribution {distribution!r}; pick one of {DISTRIBUTIONS}")


def sweep_conversion_error(
    fmt: FixedPositFormat,
    sample_count: int,
    seed: int,
    distribution: str = "log-uniform",
) -> ErrorReport:
    """Round-trip binary32 samples through ``fmt`` and aggregate the error.

    Samples are drawn at once from the seeded generator, converted to the
    format and back to binary64 in one pass, and compared against the exact
    sampled values, so a given seed always gives the same report.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be positive, got {sample_count}")
    rng = np.random.default_rng(seed)
    bits = _sample_binary32(rng, sample_count, distribution)
    reference = bits.astype(np.uint32).view(np.float32).astype(np.float64)
    roundtrip = to_binary64_batch(from_binary32_batch(bits, fmt), fmt)
    return error_report(reference, roundtrip)
