import math
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
