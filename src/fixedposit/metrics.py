"""Error and quality metrics: relative error, RMSE, PSNR, conversion sweeps."""

from __future__ import annotations

import functools
import math
import numbers
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
    """Flat float64 or complex128 reference (float64 is not copied), |ref - approx| and the MSE.

    The error is a new array, which callers may overwrite.
    """
    ref = np.asarray(reference)
    approx = np.asarray(approximation)
    if ref.shape != approx.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {approx.shape}")
    if ref.size == 0:
        raise ValueError("need at least one sample")
    dtype = np.complex128 if np.iscomplexobj(ref) or np.iscomplexobj(approx) else np.float64
    ref = ref.astype(dtype, copy=False).ravel()
    approx = approx.astype(dtype, copy=False).ravel()
    error = ref - approx
    if dtype is np.float64:
        np.abs(error, out=error)
    else:
        error = np.abs(error)
    return ref, error, float(np.mean(error**2))


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
    ref, error, mse = _compare(reference, approximation)
    usable = np.isfinite(ref)
    usable &= ref != 0
    if not usable.all():  # a boolean index copies, so skip it when nothing is excluded
        ref, error = ref[usable], error[usable]
    # The relative error takes the error's own array: for real x, |100e / x|
    # is exactly 100e / |x|, since division rounds magnitudes alike.
    rel = error
    rel *= 100.0
    if np.iscomplexobj(ref):
        rel /= np.abs(ref)
    else:
        rel /= ref
        np.abs(rel, out=rel)
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


@functools.lru_cache(maxsize=1)
def _draw(sample_count: int, seed: int, distribution: str) -> np.ndarray:
    """The seeded samples as a read-only float32 array, shared by every caller."""
    bits = _sample_binary32(np.random.default_rng(seed), sample_count, distribution)
    x32 = bits.astype(np.uint32).view(np.float32)
    x32.flags.writeable = False
    return x32


def sweep_conversion_error(
    fmt: FixedPositFormat,
    sample_count: int,
    seed: int,
    distribution: str = "log-uniform",
) -> ErrorReport:
    """Round-trip binary32 samples through ``fmt`` and aggregate the error.

    Samples are drawn at once from the seeded generator, converted to the
    format and back to binary64 (one call each, which works through
    ``batch.BLOCK`` samples at a time), and compared against the exact
    sampled values, so a given seed always gives the same report.  A sweep
    over many formats uses the same samples for each, so the last draw of an
    integer seed is held, read-only, at 4 bytes per sample, until a call with
    another count, seed or distribution replaces it.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be positive, got {sample_count}")
    # Any other seed (None, a generator) gives a fresh draw on every call.
    draw = _draw if isinstance(seed, numbers.Integral) else _draw.__wrapped__
    x32 = draw(sample_count, seed, distribution)
    roundtrip = to_binary64_batch(from_binary32_batch(x32.view(np.uint32), fmt), fmt)
    return error_report(x32.astype(np.float64), roundtrip)
