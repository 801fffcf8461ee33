"""End-to-end acceptance suite.

Each test exercises one headline claim at its stated tolerance and runtime
budget, printing a PASS/FAIL line (run with ``pytest -s`` to see them live).
"""

import time

import numpy as np

from fixedposit import (
    DEFAULT_SEED,
    SWEEP_WIDTHS,
    FixedPositFormat,
    PositFormat,
    PositWord,
    mul_binary32_bits,
    mul_datapath,
    mul_reference,
    posit_mul_binary32_bits,
    run_workload,
    sweep_conversion_error,
)
from fixedposit import batch
from fixedposit.formats import paper_formats

from support import (
    all_fixed_formats,
    canonical_words,
    check_monotone,
    check_negation_symmetry,
    check_roundtrip,
    signed_word_order,
)


def report(number: str, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_configuration_grid():
    started = time.perf_counter()
    got = [(f.n, f.es, f.rs) for f in paper_formats()]  # in width, then es, order
    expected = sorted(
        [(n, es, 128 >> es) for n in (22, 24, 26, 28, 30, 32) for es in (3, 4, 5, 6, 7)]
        + [(n, es, 128 >> es) for n in (18, 20) for es in (4, 5, 6, 7)]
    )
    elapsed = time.perf_counter() - started
    report(
        "1",
        "binary32-range configuration grid",
        got == expected and len(got) == 38 and elapsed < 1.0,
        f"{len(got)} configurations in {elapsed:.3f}s",
    )


def test_criterion_2_conversion_error_table():
    started = time.perf_counter()
    targets = {
        (32, 3, 16): 2.44e-2,
        (32, 4, 8): 1.78e-4,
        (32, 5, 4): 1.19e-5,
        (32, 6, 2): 0.0,
        (32, 7, 1): 0.0,
    }
    ok = True
    lines = []
    for triple, target in targets.items():
        got = sweep_conversion_error(
            FixedPositFormat(*triple), 100_000, DEFAULT_SEED
        ).max_rel_err_pct
        if target == 0.0:
            good = got == 0.0
        else:
            good = target / 2 <= got <= target * 2
        ok = ok and good
        lines.append(f"{triple}:{got:.4g}")
    elapsed = time.perf_counter() - started
    report(
        "2",
        "conversion error sweep vs published table",
        ok and elapsed < 10.0,
        f"{' '.join(lines)} in {elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    pairs = 0
    for triple in ((8, 2, 2), (8, 3, 1), (10, 3, 2)):
        fmt = FixedPositFormat(*triple)
        words = [PositWord(bits, fmt) for bits in range(1 << fmt.n)]
        for wa in words:
            for wb in words:
                pairs += 1
                if mul_datapath(wa, wb).bits != mul_reference(wa, wb).bits:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        "3",
        "datapath equals exact-arithmetic oracle",
        mismatches == 0 and elapsed < 60.0,
        f"{pairs} pairs, {mismatches} mismatches in {elapsed:.1f}s",
    )


def test_criterion_4_binary32_equivalence():
    started = time.perf_counter()
    fmt = FixedPositFormat(32, 6, 2)
    rng = np.random.default_rng(DEFAULT_SEED)
    count = 1_000_000
    e_a = rng.integers(-60, 61, count)
    e_b = rng.integers(-60, 61, count)
    a_bits = (rng.integers(0, 2, count) << 31) | ((e_a + 127) << 23) | rng.integers(0, 1 << 23, count)
    b_bits = (rng.integers(0, 2, count) << 31) | ((e_b + 127) << 23) | rng.integers(0, 1 << 23, count)
    native = (
        a_bits.astype(np.uint32).view(np.float32) * b_bits.astype(np.uint32).view(np.float32)
    ).view(np.uint32).astype(np.int64)
    substituted = batch.mul_binary32_batch(fmt, a_bits, b_bits)
    mismatches = int(np.count_nonzero(substituted != native))
    scalar_bad = 0
    for i in rng.integers(0, count, 5_000):
        if mul_binary32_bits(fmt, int(a_bits[i]), int(b_bits[i])) != int(native[i]):
            scalar_bad += 1
    elapsed = time.perf_counter() - started
    report(
        "4",
        "substituted multiply bit-equals native binary32",
        mismatches == 0 and scalar_bad == 0,
        f"{count} pairs (+5000 scalar), {mismatches + scalar_bad} mismatches in {elapsed:.1f}s",
    )


def test_criterion_5_workload_errors():
    started = time.perf_counter()
    kernels = ("gemm", "axpby", "trsv", "dot", "fft", "blackscholes")
    ok_zero, ok_window, ok_monotone = True, True, True
    details = []
    for name in kernels:
        size = 256 if name == "fft" else 200  # fft needs a power of two
        series = []
        for width in SWEEP_WIDTHS:
            result, _ = run_workload(
                name, FixedPositFormat(width, 6, 2), size=size, seed=DEFAULT_SEED
            )
            series.append(result.quality)
        ok_zero = ok_zero and series[-1] == 0.0
        ok_window = ok_window and 0.01 <= series[0] <= 5.0
        ok_monotone = ok_monotone and all(
            series[i] >= series[i + 1] for i in range(len(series) - 1)
        )
        details.append(f"{name}:{series[0]:.3g}%")
    elapsed = time.perf_counter() - started
    report(
        "5",
        "workload substitution errors (exact at 32, bounded at 18, monotone)",
        ok_zero and ok_window and ok_monotone and elapsed < 120.0,
        f"18-bit errors {' '.join(details)} in {elapsed:.0f}s",
    )


def test_criterion_6_sobel_psnr():
    started = time.perf_counter()
    narrow, _ = run_workload("sobel", FixedPositFormat(18, 6, 2), size=256, seed=DEFAULT_SEED)
    full, _ = run_workload("sobel", FixedPositFormat(32, 6, 2), size=256, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - started
    report(
        "6",
        "sobel image quality",
        narrow.metrics["psnr_db"] >= 30.0
        and full.metrics["psnr_db"] == 100.0
        and elapsed < 10.0,
        f"psnr(18)={narrow.metrics['psnr_db']:.1f}dB psnr(32)={full.metrics['psnr_db']:.0f}dB "
        f"in {elapsed:.1f}s",
    )


def test_criterion_7_codec_property_suite():
    started = time.perf_counter()
    checked_all, checked_reachable = 0, 0
    for fmt in all_fixed_formats(12):
        if fmt.rs <= 2:
            words = signed_word_order(fmt)
            check_roundtrip(fmt, words)
            check_monotone(fmt, words)
            check_negation_symmetry(fmt, words)
            checked_all += 1
        else:
            # Regime fields with rs >= 3 only reach the 2*rs staircase
            # patterns, so the exhaustive walk covers the encoder's image
            # (see the multiplier/codec unit tests for the aliasing proof).
            words = canonical_words(fmt)
            check_roundtrip(fmt, words)
            check_monotone(fmt, words)
            check_negation_symmetry(fmt, signed_word_order(fmt))
            checked_reachable += 1

    bound_ok = True
    for fmt in paper_formats():
        f = fmt.fraction_bits
        bound = 100.0 * 2.0 ** -(f + 1) / (1 - 2.0 ** -(f + 1))
        got = sweep_conversion_error(fmt, 100_000, DEFAULT_SEED).max_rel_err_pct
        bound_ok = bound_ok and got <= bound
    elapsed = time.perf_counter() - started
    report(
        "7",
        "codec round-trip/order/negation + half-ulp conversion bound",
        bound_ok and elapsed < 120.0,
        f"{checked_all} formats over all words, {checked_reachable} over reachable words, "
        f"38 formats x 100k bound samples in {elapsed:.0f}s",
    )


def test_criterion_8_posit_equivalence_in_shared_range():
    started = time.perf_counter()
    posit_fmt = PositFormat(32, 6)
    fixed_fmt = FixedPositFormat(32, 6, 2)
    rng = np.random.default_rng(DEFAULT_SEED)
    count = 100_000
    e_a = rng.integers(-32, 32, count)
    e_b = rng.integers(-32, 32, count)
    a_bits = (rng.integers(0, 2, count) << 31) | ((e_a + 127) << 23) | rng.integers(0, 1 << 23, count)
    b_bits = (rng.integers(0, 2, count) << 31) | ((e_b + 127) << 23) | rng.integers(0, 1 << 23, count)
    fixed_bits = batch.mul_binary32_batch(fixed_fmt, a_bits, b_bits)
    mismatches = 0
    for i in range(count):
        if posit_mul_binary32_bits(posit_fmt, int(a_bits[i]), int(b_bits[i])) != int(fixed_bits[i]):
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        "8",
        "posit and fixed-posit agree for scales in [-64, 63]",
        mismatches == 0,
        f"{count} pairs, {mismatches} mismatches in {elapsed:.1f}s",
    )
