"""The value-domain substituted multiply against the word-level mirror and the scalar path.

``mul_binary32_batch`` computes in binary64 values; ``mul_batch`` and the
word-level codec compute on bit patterns, and ``mul_datapath`` and
``mul_binary32_bits`` are the scalar specification.  These pins keep the
three bit-identical.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedposit import (
    FixedPositFormat,
    PositWord,
    enumerate_ieee_equivalent,
    mul_binary32_bits,
    mul_datapath,
    scale_range,
)
from fixedposit import batch
from fixedposit.formats import SWEEP_WIDTHS

from support import all_fixed_formats

F1862 = FixedPositFormat(18, 6, 2)
F32316 = FixedPositFormat(32, 3, 16)

PINNED_32BIT_FORMATS = [fmt for width in SWEEP_WIDTHS for fmt in enumerate_ieee_equivalent(width)]
PINNED_32BIT_FORMATS += [F32316, FixedPositFormat(12, 2, 3)]


def word_level_mul(fmt: FixedPositFormat, a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Substituted multiply composed from the word-level codec and ``mul_batch``."""
    wa = batch.from_binary32_batch(a_bits, fmt)
    wb = batch.from_binary32_batch(b_bits, fmt)
    return batch.to_binary32_batch(batch.mul_batch(wa, wb, fmt), fmt)


def test_word_path_matches_datapath_exhaustively_small():
    # 34 formats and 293,632 word pairs with n <= 7, regime aliases for rs >= 3,
    # NaR and zero included; n <= 9 would take the scalar datapath ~30x longer.
    for fmt in all_fixed_formats(7):
        count = 1 << fmt.n
        words = np.arange(count)
        got = batch.mul_batch(np.repeat(words, count), np.tile(words, count), fmt)
        expected = [
            mul_datapath(PositWord(a, fmt), PositWord(b, fmt)).bits
            for a in range(count)
            for b in range(count)
        ]
        assert np.array_equal(got, expected), fmt


def test_value_path_matches_word_path_exhaustively_small():
    # For n <= 9 every word's value is a binary32 normal (f <= 7, |scale| <= 64),
    # so feeding the words' values to the value path must reproduce mul_batch
    # on every word pair, regime aliases for rs >= 3 included.
    for fmt in all_fixed_formats(9):
        count = 1 << fmt.n
        words = np.arange(count)
        x = batch.to_binary32_batch(words, fmt)
        exact = batch.to_binary64_batch(words, fmt)
        values = np.delete(x, 1 << (fmt.n - 1)).astype(np.uint32).view(np.float32)
        assert np.array_equal(values, np.delete(exact, 1 << (fmt.n - 1)))  # all but NaR exact
        aa = np.repeat(words, count)
        bb = np.tile(words, count)
        expected = batch.to_binary32_batch(batch.mul_batch(aa, bb, fmt), fmt)
        got = batch.mul_binary32_batch(fmt, x[aa], x[bb])
        assert np.array_equal(got, expected), fmt


def edge_operands(fmt: FixedPositFormat) -> np.ndarray:
    """Binary32 patterns at binary32's and the format's boundaries, both signs."""
    f = fmt.fraction_bits
    rng = scale_range(fmt)
    fixed = [
        0x00000000, 0x7F800000, 0x7FC00000, 0x7FFFFFFF,  # zero, inf, quiet NaNs
        0x7F800001, 0x7FBFFFFF,  # signalling NaNs
        0x00000001, 0x007FFFFF,  # smallest and largest subnormal
        0x00800000, 0x7F7FFFFF,  # smallest and largest normal
    ]
    limits = [
        math.ldexp(1.0, rng.min_scale),
        math.ldexp(1.0 + 2.0**-f, rng.min_scale),  # minpos
        math.ldexp(2.0 - 2.0**-f, rng.max_scale),  # maxpos
    ]
    values = limits + [math.sqrt(v) for v in limits]  # products of two straddle the limits
    values += [1.0, 1.0 + 2.0 ** -(f + 1), 1.0 + 3 * 2.0 ** -(f + 1)]  # ties to even, down and up
    with np.errstate(over="ignore"):  # limits past binary32 become infinities
        centres = np.array(values, np.float32)
        below = np.nextafter(centres, np.float32(0))
        above = np.nextafter(centres, np.float32(np.inf))
    near = np.concatenate([centres, below, above])
    positive = np.concatenate([np.array(fixed, np.int64), near.view(np.uint32).astype(np.int64)])
    return np.concatenate([positive, positive | 0x80000000])


@pytest.mark.parametrize("fmt", PINNED_32BIT_FORMATS, ids=str)
def test_value_path_matches_word_path_sampled_32bit(fmt):
    rng = np.random.default_rng(fmt.n * 1000 + fmt.es * 100 + fmt.rs)
    a_bits = rng.integers(0, 1 << 32, 200_000, dtype=np.int64)
    b_bits = rng.integers(0, 1 << 32, 200_000, dtype=np.int64)
    edges = edge_operands(fmt)
    a_bits = np.concatenate([a_bits, np.repeat(edges, edges.size)])
    b_bits = np.concatenate([b_bits, np.tile(edges, edges.size)])
    got = batch.mul_binary32_batch(fmt, a_bits, b_bits)
    expected = word_level_mul(fmt, a_bits, b_bits)
    assert np.array_equal(got, expected), np.flatnonzero(got != expected)[:5]


BINARY32_PATTERNS = st.builds(
    lambda sign, exp_field, mantissa: (sign << 31) | (exp_field << 23) | mantissa,
    st.integers(0, 1),
    st.integers(0, 255),
    st.integers(0, (1 << 23) - 1),
)


@pytest.mark.parametrize("fmt", [F1862, F32316], ids=str)
@given(a=BINARY32_PATTERNS, b=BINARY32_PATTERNS)
@settings(max_examples=300, deadline=None)
def test_value_path_matches_scalar_substitution(fmt, a, b):
    got = batch.mul_binary32_batch(fmt, np.array([a]), np.array([b]))
    assert int(got[0]) == mul_binary32_bits(fmt, a, b)


@pytest.mark.parametrize("fmt", [F1862, FixedPositFormat(16, 8, 1)], ids=str)
def test_special_operands_multiply_without_warnings(fmt):
    # (16,8,1) reaches 2**255, so its products also overflow the binary32 cast.
    values = np.array([np.nan, np.inf, 0.0, 1e-40, 1e-45, 1.0, 3e38, 1e-30], np.float32)
    signalling = np.array([0x7F800001, 0x7FBFFFFF], np.uint32).view(np.float32)
    ops = np.concatenate([values, -values, signalling])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = batch.mul_float32_batch(fmt, ops[:, None], ops[None, :])
    assert out.shape == (ops.size, ops.size)
    bits = ops.view(np.uint32)
    expected = [[mul_binary32_bits(fmt, int(a), int(b)) for b in bits] for a in bits]
    assert np.array_equal(out.view(np.uint32), np.array(expected, np.uint32))
