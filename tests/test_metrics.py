import gc
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedposit import (
    ErrorReport,
    FixedPositFormat,
    error_report,
    psnr_db,
    rmse,
    sweep_conversion_error,
)
from fixedposit import batch, metrics


def one_rel_err_pct(reference: float, approximation: float) -> float:
    """The relative error of a single sample, through ``error_report``."""
    report = error_report([reference], [approximation])
    assert report.skipped == 0 and report.mean_rel_err_pct == report.max_rel_err_pct
    return report.max_rel_err_pct


def test_relative_error_examples():
    assert one_rel_err_pct(2.0, 2.0) == 0.0
    assert one_rel_err_pct(1.0, 1.0625) == 6.25
    assert one_rel_err_pct(-4.0, -3.0) == 25.0


def test_relative_error_excludes_bad_references():
    for reference in (0.0, -0.0, math.inf, -math.inf, math.nan):
        report = error_report([reference], [1.0])
        assert report.count == 1 and report.skipped == 1
        assert report.max_rel_err_pct == report.mean_rel_err_pct == 0.0


@given(
    x=st.floats(min_value=1e-6, max_value=1e6),
    xp=st.floats(min_value=-1e6, max_value=1e6),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=200)
def test_relative_error_is_scale_invariant(x, xp, c):
    base = one_rel_err_pct(x, xp)
    scaled = one_rel_err_pct(c * x, c * xp)
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_rmse_examples():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
    assert rmse([1.0], [1.5]) == 0.5
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0])


def test_psnr_examples():
    img = np.full((8, 8), 100.0)
    assert psnr_db(img, img) == 100.0
    off_by_one = img + 1.0  # MSE 1 against peak 255
    assert psnr_db(img, off_by_one) == pytest.approx(10 * math.log10(255**2))
    assert psnr_db(np.zeros((4, 4)), np.full((4, 4), 255.0)) == 0.0
    with pytest.raises(ValueError):
        psnr_db(np.zeros((4, 4)), np.zeros((4, 5)))


def test_empty_inputs_are_rejected():
    for metric in (rmse, psnr_db, error_report):
        with pytest.raises(ValueError, match="at least one sample"):
            metric([], [])


def test_psnr_propagates_nan():
    assert math.isnan(psnr_db([1.0, math.nan], [1.0, 2.0]))
    assert math.isnan(rmse([1.0, math.nan], [1.0, 2.0]))


def test_psnr_of_an_infinite_error_is_minus_infinity():
    assert psnr_db([0.0], [math.inf]) == -math.inf
    assert rmse([0.0], [math.inf]) == math.inf


def test_psnr_and_rmse_agree_on_zero_error():
    ref = np.arange(16.0).reshape(4, 4)
    assert rmse(ref, ref) == 0.0 and psnr_db(ref, ref) == 100.0
    bumped = ref.copy()
    bumped[0, 0] += 0.5
    assert rmse(ref, bumped) > 0.0 and psnr_db(ref, bumped) < 100.0
    # sub-resolvable errors saturate at the reporting cap
    barely = ref.copy()
    barely[0, 0] += 1e-9
    assert psnr_db(ref, barely) == 100.0


def test_error_report_skips_zero_and_nonfinite_references():
    ref = [2.0, 0.0, math.inf, math.nan, -4.0]
    approx = [2.0, 5.0, 1.0, 1.0, -3.0]
    report = error_report(ref, approx)
    assert report.count == 5
    assert report.skipped == 3
    assert report.max_rel_err_pct == 25.0
    assert report.mean_rel_err_pct == 12.5
    assert report.max_rel_err_pct >= report.mean_rel_err_pct >= 0.0


def test_error_report_on_complex_values():
    report = error_report([3 + 4j], [3 + 5j])  # |1j| / |3 + 4j|
    assert report.mean_rel_err_pct == report.max_rel_err_pct == 20.0
    assert report.rmse == 1.0
    report = error_report([0j, 1j, complex(math.inf, 0)], [1j, 1.5j, 0j])
    assert (report.count, report.skipped, report.max_rel_err_pct) == (3, 2, 50.0)


def relative_error_by_formula(reference, approximation) -> tuple[float, float]:
    """Max and mean of ``100 * abs(x - y) / abs(x)`` over references that are finite and nonzero."""
    x, y = np.asarray(reference).ravel(), np.asarray(approximation).ravel()
    usable = np.isfinite(x) & (x != 0)
    rel = 100 * abs(x - y)[usable] / abs(x[usable])
    return rel.max(), rel.mean()


def error_report_cases() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(31)
    x = rng.standard_normal(3000) * 2.0 ** rng.integers(-60, 60, 3000)  # both signs
    y = x * (1 + rng.standard_normal(3000) * 1e-3)
    bad_y = y.copy()
    bad_y[[5, 6, 7, 2000]] = [np.nan, np.inf, -np.inf, np.nan]
    bad_x = x.copy()
    bad_x[[1, 2, 3, 4, 2999]] = [0.0, -0.0, np.inf, -np.inf, np.nan]
    z = x + 1j * rng.standard_normal(3000)
    return {
        "real": (x, y),
        "non-finite approximations": (x, bad_y),
        "skipped references": (bad_x, y),
        "complex": (z, z * (1 + 1e-3j)),
        "complex skipped": (np.where(np.isfinite(bad_x) & (bad_x != 0), z, bad_x), z * (1 - 1e-3j)),
    }


@pytest.mark.parametrize("case", error_report_cases())
def test_error_report_equals_the_formula_and_leaves_its_inputs_alone(case):
    x, y = error_report_cases()[case]
    kept = x.tobytes(), y.tobytes()  # x float64 and contiguous: _compare does not copy it
    report = error_report(x, y)
    assert (x.tobytes(), y.tobytes()) == kept
    want_max, want_mean = relative_error_by_formula(x, y)
    assert np.float64(report.max_rel_err_pct).tobytes() == want_max.tobytes()
    assert np.float64(report.mean_rel_err_pct).tobytes() == want_mean.tobytes()
    assert report.skipped == np.count_nonzero(~(np.isfinite(x) & (x != 0)))
    assert np.float64(report.rmse).tobytes() == np.float64(rmse(x, y)).tobytes()


@pytest.mark.parametrize("triple", [(18, 6, 2), (32, 6, 2)])
def test_sweep_peak_memory_per_sample(triple):
    # With the draw held, a 100k-sample sweep allocates at its peak the reference,
    # the round trip, the error and its square: 32 bytes per sample.
    fmt = FixedPositFormat(*triple)
    sweep_conversion_error(fmt, 100_000, 67)
    gc.collect()
    tracemalloc.start()
    try:
        sweep_conversion_error(fmt, 100_000, 67)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 100_000 < 40


def test_error_report_serializes_stably():
    report = ErrorReport(3, 1.0, 0.5, 0.1, 0)
    assert list(asdict(report)) == [
        "count",
        "max_rel_err_pct",
        "mean_rel_err_pct",
        "rmse",
        "skipped",
    ]


def test_sweep_is_deterministic_given_seed():
    fmt = FixedPositFormat(32, 4, 8)
    a = sweep_conversion_error(fmt, 20_000, 9)
    b = sweep_conversion_error(fmt, 20_000, 9)
    assert a == b
    c = sweep_conversion_error(fmt, 20_000, 10)
    assert c != a


def test_sweep_rejects_bad_arguments():
    fmt = FixedPositFormat(32, 6, 2)
    with pytest.raises(ValueError):
        sweep_conversion_error(fmt, 0, 1)
    with pytest.raises(ValueError):
        sweep_conversion_error(fmt, 10, 1, "gaussian")


@pytest.mark.parametrize("distribution", ["log-uniform", "uniform-real"])
@pytest.mark.parametrize("triple", [(32, 3, 16), (24, 5, 4), (18, 6, 2)])
def test_sweep_max_error_below_fraction_bound(triple, distribution):
    fmt = FixedPositFormat(*triple)
    report = sweep_conversion_error(fmt, 30_000, 21, distribution)
    assert report.max_rel_err_pct <= 100.0 * 2.0**-fmt.fraction_bits
    assert report.mean_rel_err_pct <= report.max_rel_err_pct
    assert report.skipped == 0


def test_sweep_exact_formats_report_zero():
    for triple in ((32, 6, 2), (32, 7, 1)):
        report = sweep_conversion_error(FixedPositFormat(*triple), 50_000, 4)
        assert report.max_rel_err_pct == 0.0
        assert report.rmse == 0.0


def test_uniform_real_sweep_reaches_top_end_saturation():
    fmt = FixedPositFormat(22, 3, 16)  # 2 fraction bits; maxpos is 1.75 * 2**127
    report = sweep_conversion_error(fmt, 20_000, 67, "uniform-real")
    assert report.max_rel_err_pct > 100.0 * 2.0**-3 / (1 + 2.0**-3)  # beyond rounding's worst case


def sweep_through_int64_bits(fmt, sample_count, seed, distribution):
    """The sweep as it was composed before its draws were held: int64 bits, drawn per call."""
    bits = metrics._sample_binary32(np.random.default_rng(seed), sample_count, distribution)
    reference = bits.astype(np.uint32).view(np.float32).astype(np.float64)
    words = batch.from_binary32_batch(bits, fmt)
    return error_report(reference, batch.to_binary64_batch(words, fmt))


@pytest.mark.parametrize("distribution", ["log-uniform", "uniform-real"])
@pytest.mark.parametrize("triple", [(18, 6, 2), (32, 3, 16), (12, 2, 3)])
def test_sweep_equals_the_int64_bits_round_trip(triple, distribution):
    fmt = FixedPositFormat(*triple)
    expected = sweep_through_int64_bits(fmt, 20_000, 5, distribution)
    assert sweep_conversion_error(fmt, 20_000, 5, distribution) == expected


def test_interleaved_sweeps_match_the_same_sweeps_in_isolation():
    fmt = FixedPositFormat(18, 6, 2)
    calls = [(count, seed, dist) for seed in (3, 4) for count in (1_000, 3_000)
             for dist in ("log-uniform", "uniform-real")]
    isolated = []
    for call in calls:
        metrics._draw.cache_clear()
        isolated.append(sweep_conversion_error(fmt, *call))
    interleaved = [sweep_conversion_error(fmt, *call) for call in calls + calls[::-1]]
    assert interleaved == isolated + isolated[::-1]
    assert len(set(isolated)) == len(calls)


def test_held_draw_is_read_only():
    sweep_conversion_error(FixedPositFormat(18, 6, 2), 1_000, 7)
    x32 = metrics._draw(1_000, 7, "log-uniform")
    assert metrics._draw.cache_info().hits >= 1
    assert x32.dtype == np.float32 and x32.nbytes == 4_000
    assert not x32.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        x32[0] = 1.0


def test_numpy_integer_seed_gives_the_same_report():
    fmt = FixedPositFormat(24, 5, 4)
    assert sweep_conversion_error(fmt, 2_000, np.int64(9)) == sweep_conversion_error(fmt, 2_000, 9)
    metrics._draw.cache_clear()
    assert sweep_conversion_error(fmt, 2_000, 9) == sweep_conversion_error(fmt, 2_000, np.int64(9))


def test_seeds_that_are_not_integers_draw_afresh():
    fmt = FixedPositFormat(18, 6, 2)
    assert sweep_conversion_error(fmt, 1_000, None) != sweep_conversion_error(fmt, 1_000, None)
    rng = np.random.default_rng(1)
    assert sweep_conversion_error(fmt, 1_000, rng) != sweep_conversion_error(fmt, 1_000, rng)
