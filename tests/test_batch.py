"""The value-domain substituted multiply against the word-level mirror and the scalar path.

``mul_binary32_batch`` computes in binary64 values; ``mul_batch`` and the
word-level codec compute on bit patterns, and ``mul_datapath`` and
``mul_binary32_bits`` are the scalar specification.  These pins keep the
three bit-identical.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import BroadcastableShapes, mutually_broadcastable_shapes

from fixedposit import (
    FixedPositFormat,
    PositWord,
    from_binary32,
    mul_binary32_bits,
    mul_datapath,
    to_binary32,
    to_binary64,
)
from fixedposit import batch
from fixedposit.formats import paper_formats

from support import all_fixed_formats

F1862 = FixedPositFormat(18, 6, 2)
F32316 = FixedPositFormat(32, 3, 16)

PINNED_32BIT_FORMATS = paper_formats() + [F32316, FixedPositFormat(12, 2, 3)]


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


WIDE_FRACTION_FORMATS = [
    FixedPositFormat(*spec)
    for spec in [(32, 0, 1), (32, 1, 1), (32, 0, 30), (32, 2, 3), (31, 0, 1),
                 (32, 10, 2), (32, 4, 20), (24, 0, 1), (32, 5, 1)]
]


def extreme_words(fmt: FixedPositFormat) -> list[int]:
    """Zero, NaR, one and the words at both ends of the scale window, both signs."""
    n, f = fmt.n, fmt.fraction_bits
    maxpos = (1 << (n - 1)) - 1
    one = from_binary32(0x3F800000, fmt).bits
    return [0, 1, 2, (1 << f) - 1, 1 << f, maxpos - ((1 << f) - 1), maxpos - 1, maxpos,
            1 << (n - 1), (1 << (n - 1)) + 1, (1 << n) - 1, one]


@pytest.mark.parametrize("fmt", WIDE_FRACTION_FORMATS, ids=str)
def test_word_path_matches_datapath_sampled_wide(fmt):
    # Up to f = 30 fraction bits the significand product takes 62 of int64's 63
    # bits, so these formats leave the rounding the least headroom.
    # Random words almost never give a tie at f > 23; fractions with few low
    # bits set, times each other, give ties that round both up and down.
    rng = np.random.default_rng(fmt.n * 1000 + fmt.es * 100 + fmt.rs)
    one, half = from_binary32(0x3F800000, fmt).bits, 1 << (fmt.fraction_bits - 1)
    special = extreme_words(fmt) + [one | j for j in (1, 3, half, half | 1, half | 3)]
    a = np.concatenate([rng.integers(0, 1 << fmt.n, 20_000), np.repeat(special, len(special))])
    b = np.concatenate([rng.integers(0, 1 << fmt.n, 20_000), np.tile(special, len(special))])
    got = batch.mul_batch(a, b, fmt)
    expected = [mul_datapath(PositWord(int(x), fmt), PositWord(int(y), fmt)).bits
                for x, y in zip(a, b)]
    assert np.array_equal(got, expected), np.flatnonzero(got != expected)[:5]


@pytest.mark.parametrize(
    "shape_a, shape_b", [((), ()), ((), (3,)), ((4, 1), (3,)), ((4, 1), (1, 3)), ((2, 1, 3), (4, 1))]
)
def test_word_path_broadcasts_and_keeps_0d(shape_a, shape_b):
    rng = np.random.default_rng(len(shape_a) * 10 + len(shape_b))
    extremes = extreme_words(F1862)
    a = np.asarray(rng.choice(extremes + list(rng.integers(0, 1 << 18, 12)), shape_a))
    b = np.asarray(rng.choice(extremes + list(rng.integers(0, 1 << 18, 12)), shape_b))
    got = batch.mul_batch(a, b, F1862)
    wide_a, wide_b = np.broadcast_arrays(a, b)
    assert isinstance(got, np.ndarray) and got.shape == wide_a.shape
    expected = [mul_datapath(PositWord(int(x), F1862), PositWord(int(y), F1862)).bits
                for x, y in zip(wide_a.ravel(), wide_b.ravel())]
    assert np.array_equal(got.ravel(), expected)


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
    fixed = [
        0x00000000, 0x7F800000, 0x7FC00000, 0x7FFFFFFF,  # zero, inf, quiet NaNs
        0x7F800001, 0x7FBFFFFF,  # signalling NaNs
        0x00000001, 0x007FFFFF,  # smallest and largest subnormal
        0x00800000, 0x7F7FFFFF,  # smallest and largest normal
    ]
    limits = [
        math.ldexp(1.0, fmt.min_scale),
        math.ldexp(1.0 + 2.0**-f, fmt.min_scale),  # minpos
        math.ldexp(2.0 - 2.0**-f, fmt.max_scale),  # maxpos
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


@pytest.mark.parametrize("fmt", PINNED_32BIT_FORMATS, ids=str)
def test_encode_matches_scalar_sampled_32bit(fmt):
    # The encode packs _operand's values, which the value-path multiply shares,
    # so it is pinned here to the scalar codec directly.
    rng = np.random.default_rng(fmt.n * 1000 + fmt.es * 100 + fmt.rs + 7)
    bits = np.concatenate([edge_operands(fmt), rng.integers(0, 1 << 32, 5_000, dtype=np.int64)])
    expected = [from_binary32(int(b), fmt).bits for b in bits]
    assert np.array_equal(batch.from_binary32_batch(bits, fmt), expected)


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


def binary32_overflow(fmt: FixedPositFormat) -> bool:
    """Whether maxpos rounds to infinity in binary32: it reaches the midpoint 2**128 - 2**103."""
    f, hi = fmt.fraction_bits, fmt.max_scale
    return Fraction(2 ** (f + 1) - 1) * Fraction(2) ** (hi - f) >= 2**128 - 2**103


@pytest.mark.parametrize(
    "fmt", PINNED_32BIT_FORMATS + all_fixed_formats(10) + [FixedPositFormat(16, 8, 1)], ids=str
)
def test_product_cast_overflows_only_where_maxpos_passes_binary32(fmt):
    # The binary64 product's cast to binary32 runs under np.errstate.  Under
    # warnings as errors, formats whose maxpos rounds to infinity, such as
    # (16,8,1), must still overflow to infinity quietly, and the others must
    # never overflow.
    big = np.array([np.finfo(np.float32).max, 2.0**64, 1.5], np.float32)
    ops = np.concatenate([big, -big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = batch.mul_float32_batch(fmt, ops[:, None], ops[None, :])
    assert np.array_equal(out.view(np.uint32), scalar_products(fmt, ops[:, None], ops[None, :]))
    assert np.isinf(out).any() == binary32_overflow(fmt)  # the largest products saturate to maxpos


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_batch_functions_only_read_their_inputs(dtype):
    bits = edge_operands(F1862).astype(dtype)
    words = batch.from_binary32_batch(bits, F1862).astype(dtype)
    expected = (batch.from_binary32_batch(bits, F1862), batch.to_binary64_batch(words, F1862),
                batch.mul_binary32_batch(F1862, bits, bits[::-1]))
    kept = bits.copy(), words.copy()
    bits.flags.writeable = words.flags.writeable = False
    got = (batch.from_binary32_batch(bits, F1862), batch.to_binary64_batch(words, F1862),
           batch.mul_binary32_batch(F1862, bits, bits[::-1]))
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))
    assert np.array_equal(bits, kept[0]) and np.array_equal(words, kept[1])


def test_scalar_operands_give_0d_results():
    out = batch.mul_float32_batch(F1862, np.float32(2), np.float32(3))
    assert isinstance(out, np.ndarray) and out.shape == () and out == np.float32(6)
    two, three = (int(np.float32(v).view(np.uint32)) for v in (2.0, 3.0))
    bits = batch.mul_binary32_batch(F1862, two, three)
    assert isinstance(bits, np.ndarray) and bits.shape == ()
    assert int(bits) == mul_binary32_bits(F1862, two, three)


@pytest.mark.parametrize("pattern", [0x3F800000, 0xC0490FDB, 0, 0x7F800000, 0x00000001])
def test_scalar_conversions_give_0d_results(pattern):
    for operand in (pattern, np.int64(pattern), np.array(pattern)):
        words = batch.from_binary32_batch(operand, F1862)
        assert isinstance(words, np.ndarray) and words.shape == ()
        assert int(words) == from_binary32(pattern, F1862).bits
    word = PositWord(int(words), F1862)
    value = batch.to_binary64_batch(int(words), F1862)
    assert isinstance(value, np.ndarray) and value.shape == ()
    assert value.tobytes() == np.float64(to_binary64(word)).tobytes()
    bits = batch.to_binary32_batch(words, F1862)
    assert isinstance(bits, np.ndarray) and bits.shape == ()
    assert int(bits) == to_binary32(word)


# Conversions of inputs longer than batch.BLOCK lanes run block by block.
BLOCK = batch.BLOCK
BLOCK_SHAPES = [(), (1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3 * BLOCK + 5,), (5, 3001)]
CONVERSION_SPECIALS = [0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x7F800000, 0xFF800000,
                       0x7FC00000, 0xFFC00001, 0x7F800001]  # +-0, subnormals, +-inf, NaNs


def conversion_inputs(fmt: FixedPositFormat, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Binary32 patterns and fixed-posit words of ``shape``, specials spread through every block."""
    size = math.prod(shape)
    rng = np.random.default_rng(size)
    bits = rng.integers(0, 1 << 32, size, dtype=np.int64)
    words = rng.integers(0, 1 << fmt.n, size, dtype=np.int64)
    at = rng.permutation(size)[: 2 * len(CONVERSION_SPECIALS)]
    bits[at] = np.resize(CONVERSION_SPECIALS, at.size)
    words[at] = np.resize([0, 1 << (fmt.n - 1)], at.size)  # zero and NaR
    if size > BLOCK:  # and in the last and first lanes of a block
        bits[[BLOCK - 1, BLOCK]], words[[BLOCK - 1, BLOCK]] = 0x7FC00000, 1 << (fmt.n - 1)
    return bits.reshape(shape), words.reshape(shape)


@pytest.mark.parametrize("fmt", [F1862, FixedPositFormat(32, 6, 2), FixedPositFormat(12, 2, 3)],
                         ids=str)
def test_conversions_in_blocks_match_scalar_and_one_block(fmt, monkeypatch):
    for shape in BLOCK_SHAPES:
        for dtype in (np.uint32, np.int64):
            bits, words = (x.astype(dtype) for x in conversion_inputs(fmt, shape))
            kept = bits.copy(), words.copy()
            bits.flags.writeable = words.flags.writeable = False
            got = batch.from_binary32_batch(bits, fmt), batch.to_binary64_batch(words, fmt)
            assert [g.dtype for g in got] == [np.int64, np.float64]
            assert all(isinstance(g, np.ndarray) and g.shape == shape for g in got)
            assert np.array_equal(bits, kept[0]) and np.array_equal(words, kept[1])
            with monkeypatch.context() as m:
                m.setattr(batch, "BLOCK", bits.size)  # the whole input as one block
                whole = batch.from_binary32_batch(bits, fmt), batch.to_binary64_batch(words, fmt)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, whole)), (shape, dtype)
        encoded = [from_binary32(int(b), fmt).bits for b in bits.flat]
        decoded = [to_binary64(PositWord(int(w), fmt)) for w in words.flat]
        assert got[0].ravel().tolist() == encoded, shape
        assert got[1].ravel().tobytes() == np.array(decoded, np.float64).tobytes(), shape


def broadcast_first_mul(fmt: FixedPositFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The substituted multiply quantising every broadcast lane, as it was composed before.

    The lanes are flattened first, so the composition also takes 0-d operands.
    """
    a32, b32 = np.broadcast_arrays(np.asarray(a, np.float32), np.asarray(b, np.float32))
    product = batch._operand(a32.ravel(), fmt)
    product *= batch._operand(b32.ravel(), fmt)
    batch._round_and_clamp(product, batch._constants(fmt))
    product += 0.0
    with np.errstate(over="ignore"):
        out = product.astype(np.float32)
    out.view(np.uint32)[np.isnan(out)] = 0x7FC00000
    return out.reshape(a32.shape)


def operands(fmt: FixedPositFormat, shape: tuple, seed: int) -> np.ndarray:
    """float32 operands of ``shape``: edge patterns and random 32-bit patterns, mixed."""
    rng = np.random.default_rng(seed)
    edges = rng.choice(edge_operands(fmt), shape)
    bits = np.where(rng.random(shape) < 0.5, edges, rng.integers(0, 1 << 32, shape))
    return np.asarray(bits, np.int64).astype(np.uint32).view(np.float32)


@pytest.mark.parametrize("fmt", [F1862, F32316], ids=str)
@given(
    shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=6),
    seed=st.integers(0, 2**32 - 1),
    strided=st.booleans(),
)
@example(shapes=BroadcastableShapes(((), ()), ()), seed=1, strided=False)
@example(shapes=BroadcastableShapes(((7, 1), (5,)), (7, 5)), seed=2, strided=False)
@example(shapes=BroadcastableShapes(((1, 5), (7, 1)), (7, 5)), seed=3, strided=False)
@example(shapes=BroadcastableShapes(((7, 1), (5,)), (7, 5)), seed=4, strided=True)
@settings(max_examples=150, deadline=None)
def test_operands_at_own_shape_match_broadcast_first(fmt, shapes, seed, strided):
    shape_a, shape_b = shapes.input_shapes
    if strided and shape_a:
        # A non-contiguous slice, like gemm's column a[:, k:k+1].
        wide = operands(fmt, shape_a[:-1] + (3 * shape_a[-1],), seed)
        a = wide[..., 1::3]
    else:
        a = operands(fmt, shape_a, seed)
    b = operands(fmt, shape_b, seed + 1)
    got = batch.mul_float32_batch(fmt, a, b)
    expected = broadcast_first_mul(fmt, a, b)
    assert got.shape == expected.shape == shapes.result_shape
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


def test_binary64_decode_rounds_like_ldexp_where_scalar_raises():
    # Below binary64's normal range the scalar decode raises, but the batch
    # decode returns np.ldexp's rounding: 0x1ee7ffff is (2**20 - 1) * 2**-1079,
    # which rounds up to 2**-1059; 0x1f000001 is 524289 * 2**-1075, a tie that
    # goes to the even 2**18 * 2**-1074.  Past binary64's range it gives +-inf.
    fmt = FixedPositFormat(32, 10, 2)
    words = [0x1EE7FFFF, 0x1F000001, 0x00000001, 0x60000000, 0xA0000000]
    for word in words:
        with pytest.raises(ValueError, match="does not fit exactly in binary64"):
            to_binary64(PositWord(word, fmt))
    got = batch.to_binary64_batch(np.array(words), fmt)
    assert got[0] == math.ldexp(1.0, -1059) and got[0] == 1.61895e-319
    assert got.view(np.uint64)[1] == 1 << 18
    assert got[2] == 0.0
    assert np.array_equal(got[3:], [np.inf, -np.inf])


# The value path finds rare lanes with one range test per stage and fixes only
# those: zeros, subnormals, infinities and NaNs among the operands; zeros,
# underflows, overflows and NaNs among the rounded values.  These formats cover
# operand rounding (f < 23) and none (f = 23), regime aliasing (rs = 3), and a
# maxpos past binary32, where the product's cast overflows.
RARE_LANE_FORMATS = [F1862, FixedPositFormat(32, 6, 2), FixedPositFormat(12, 2, 3),
                     FixedPositFormat(16, 8, 1)]
SPECIALS = [0x00000000, 0x00000001, 0x007FFFFF, 0x7F800000, 0x7FC00000, 0x7FFFFFFF,
            0x7F800001, 0x7FBFFFFF]  # zero, subnormals, inf, quiet and signalling NaNs


def scalar_products(fmt: FixedPositFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    wide_a, wide_b = np.broadcast_arrays(a.view(np.uint32), b.view(np.uint32))
    expected = [mul_binary32_bits(fmt, int(x), int(y)) for x, y in zip(wide_a.flat, wide_b.flat)]
    return np.array(expected, np.uint32).reshape(wide_a.shape)


def checked_mul(fmt: FixedPositFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``mul_float32_batch``, run with warnings as errors and pinned to the scalar path."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = batch.mul_float32_batch(fmt, a, b)
        words = batch.from_binary32_batch(a.view(np.uint32), fmt)
    assert np.array_equal(got.view(np.uint32), scalar_products(fmt, a, b))
    assert np.array_equal(words.ravel(), [from_binary32(int(x), fmt).bits for x in a.view(np.uint32).flat])
    return got


def is_normal(x: np.ndarray) -> np.ndarray:
    magnitude = x.view(np.uint32) & 0x7FFFFFFF
    return (magnitude >= 0x00800000) & (magnitude < 0x7F800000)


@pytest.mark.parametrize("fmt", RARE_LANE_FORMATS, ids=str)
def test_value_path_with_no_rare_operand_rounds_onto_and_past_the_limits(fmt):
    # Binary32 normals within a few half-ulps of 2**min_scale, minpos and
    # maxpos and of their square roots, so operands and products round onto
    # the limits, past them, or stay just inside.
    f = fmt.fraction_bits
    limits = [math.ldexp(1.0, fmt.min_scale), math.ldexp(1.0 + 2.0**-f, fmt.min_scale),
              math.ldexp(2.0 - 2.0**-f, fmt.max_scale)]
    centres = limits + [math.sqrt(v) for v in limits]
    near = [c * (1 + k * 2.0 ** -(f + 1)) for c in centres for k in range(-3, 4)]
    with np.errstate(over="ignore"):  # limits past binary32 become infinities, dropped below
        near32 = np.array(near, np.float32)
        near32 = np.concatenate([near32, np.nextafter(near32, np.float32(0)),
                                 np.nextafter(near32, np.float32(np.inf))])
    ops = near32[is_normal(near32)]
    ops = np.concatenate([ops, -ops])
    got = checked_mul(fmt, ops[:, None], ops[None, :])
    # The products saturate to maxpos (or its binary32 overflow) and, where
    # products of binary32 normals reach 2**min_scale, to minpos.
    reached = set(got.view(np.uint32).flat)
    assert to_binary32(PositWord((1 << (fmt.n - 1)) - 1, fmt)) in reached
    assert fmt.min_scale < -252 or to_binary32(PositWord(1, fmt)) in reached


def out_of_window_normals(fmt: FixedPositFormat) -> list[float]:
    """Binary32 normals that ``fmt`` saturates: below 2**min_scale or past maxpos."""
    f = fmt.fraction_bits
    candidates = [math.ldexp(1.5, fmt.min_scale - 3), math.ldexp(1.0, fmt.min_scale),
                  math.ldexp(2.0 - 2.0 ** -(f + 2), fmt.max_scale), math.ldexp(1.25, fmt.max_scale + 2)]
    return [v for v in candidates if 2.0**-126 <= v <= float(np.finfo(np.float32).max)]


@pytest.mark.parametrize("fmt", RARE_LANE_FORMATS, ids=str)
def test_value_path_where_every_lane_is_rare(fmt):
    specials = np.array(SPECIALS, np.uint32).view(np.float32)
    saturating = np.array(out_of_window_normals(fmt), np.float32)
    ops = np.concatenate([specials, saturating])
    ops = np.concatenate([ops, -ops])
    words = batch.from_binary32_batch(ops.view(np.uint32), fmt)
    maxword = (1 << (fmt.n - 1)) - 1
    rare_words = [0, 1, maxword, 1 << (fmt.n - 1), (1 << fmt.n) - 1, (1 << fmt.n) - maxword]
    assert np.isin(words, rare_words).all()
    checked_mul(fmt, ops, ops[::-1])  # elementwise: every operand lane is rare
    checked_mul(fmt, ops[:, None], specials[None, :])  # and every product lane
    checked_mul(fmt, saturating[:, None], saturating[None, :])  # underflows and overflows


@pytest.mark.parametrize("fmt", RARE_LANE_FORMATS, ids=str)
def test_value_path_on_mostly_zero_operands(fmt):
    rng = np.random.default_rng(fmt.n * 1000 + fmt.es * 100 + fmt.rs)
    lo, hi = max(fmt.min_scale - 2, -126), min(fmt.max_scale + 2, 127)

    def mostly_zero(size: int) -> np.ndarray:
        x = (rng.uniform(1.0, 2.0, size) * 2.0 ** rng.integers(lo, hi + 1, size)).astype(np.float32)
        x *= rng.choice(np.array([-1, 1], np.float32), size)
        zeros = rng.random(size) < 0.9
        x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, np.float32(0.0), np.float32(-0.0))
        return x

    a, b = mostly_zero(2_000), mostly_zero(2_000)
    dense = mostly_zero(2_000)
    dense[dense == 0] = np.float32(1.5)
    checked_mul(fmt, a, b)
    checked_mul(fmt, a, dense)
    checked_mul(fmt, a[:40, None], b[None, :40])


def test_formats_alternating_call_by_call():
    # Both formats have n = 18 and f = 9 but different windows and regime
    # fields, so per-format constants that are keyed or filled wrongly give one
    # of them the other's results.
    formats = [F1862, FixedPositFormat(18, 5, 3)]
    rng = np.random.default_rng(11)
    ops = (rng.uniform(1.0, 2.0, 64) * 2.0 ** rng.integers(-126, 128, 64)).astype(np.float32)
    ops = np.concatenate([ops, np.array(SPECIALS, np.uint32).view(np.float32)])
    expected = {fmt: (scalar_products(fmt, ops, ops[::-1]),
                      [from_binary32(int(x), fmt).bits for x in ops.view(np.uint32)])
                for fmt in formats}
    assert not np.array_equal(expected[formats[0]][0], expected[formats[1]][0])
    assert expected[formats[0]][1] != expected[formats[1]][1]
    for call in range(6):
        fmt = formats[call % 2]
        got = batch.mul_float32_batch(fmt, ops, ops[::-1])
        assert np.array_equal(got.view(np.uint32), expected[fmt][0]), (call, fmt)
        assert np.array_equal(batch.from_binary32_batch(ops.view(np.uint32), fmt), expected[fmt][1])


def test_output_nan_is_canonical_whatever_nan_the_product_carries(monkeypatch):
    # On x86 a product NaN is the operands' own quiet NaN, so the output
    # canonicalisation is exercised here by handing the multiply operands whose
    # NaN is negative and carries a payload, as other platforms may produce.
    # A NaN operand is a rare lane, so the product is taken in binary64.
    operand = batch._quantized_operand

    def odd_nan_operand(x32, fmt, dtype):
        x, rare = operand(x32, fmt, dtype)
        odd = 0xFFF8_0000_0000_1234 if x.itemsize == 8 else 0xFFC0_1234
        x.view(f"u{x.itemsize}")[np.isnan(x)] = odd
        return x, rare

    monkeypatch.setattr(batch, "_quantized_operand", odd_nan_operand)
    a = np.array([np.nan, 1.5, np.inf, 2.0], np.float32)
    b = np.array([2.0, np.nan, -3.0, 0.5], np.float32)
    out = batch.mul_float32_batch(F1862, a, b)
    assert out.view(np.uint32).tolist() == [0x7FC00000] * 3 + [0x3F800000]


# Formats with f <= 11 and a window ending by 2**127 multiply in binary32: two
# (f+1)-bit significands give at most 24 bits, so every product inside
# binary32's normal range is exact there.  Any rare lane sends the call to
# binary64.
def binary32_exact(fmt: FixedPositFormat) -> bool:
    f, hi = fmt.fraction_bits, fmt.max_scale
    # Past 2**200 the window is far beyond binary32; the cap keeps the Fraction small.
    maxpos = Fraction(2 ** (f + 1) - 1, 2**f) * Fraction(2) ** min(hi, 200)
    return (2 ** (f + 1) - 1) ** 2 < 2**24 and maxpos < 2**128


def test_binary32_path_is_enabled_exactly_where_products_are_exact_there():
    for fmt in all_fixed_formats(32):
        assert (batch._constants(fmt).narrow is not None) == binary32_exact(fmt), fmt
    enabled = [fmt for fmt in paper_formats() if batch._constants(fmt).narrow is not None]
    assert len(paper_formats()) == 38 and len(enabled) == 15 and F1862 in enabled
    assert batch._constants(FixedPositFormat(32, 6, 2)).narrow is None
    assert batch._constants(FixedPositFormat(16, 8, 1)).narrow is None


def rounded_in_binary64(monkeypatch) -> list[int]:
    """Sizes of the binary64 arrays ``_round_and_clamp`` rounds from now on."""
    sizes = []
    round_and_clamp = batch._round_and_clamp

    def spy(x, c):
        if x.dtype == np.float64:
            sizes.append(x.size)
        return round_and_clamp(x, c)

    monkeypatch.setattr(batch, "_round_and_clamp", spy)
    return sizes


@pytest.mark.parametrize("n", range(4, 11))
def test_binary32_path_matches_binary64_on_every_value_pair(n, monkeypatch):
    # Every format with n <= 10 multiplies in binary32.  Each signed value of
    # the format and each of its binary32 neighbours, which the operand
    # rounding moves onto a value or saturates, times each positive value.
    # Pairs whose operands lie strictly between minpos and maxpos and whose
    # product lies in [2**(min_scale+1), maxpos] and binary32's normal range
    # must take the binary32 product; the rest fall back or start in binary64.
    wide = rounded_in_binary64(monkeypatch)
    for fmt in all_fixed_formats(n, min_n=n):
        assert batch._constants(fmt).narrow is not None, fmt
        f = fmt.fraction_bits
        maxpos = math.ldexp(2.0 - 2.0**-f, fmt.max_scale)
        minpos = math.ldexp(1.0 + 2.0**-f, fmt.min_scale)
        b = batch.to_binary64_batch(np.arange(1, 1 << (n - 1)), fmt).astype(np.float32)
        a = np.concatenate([b, np.nextafter(b, np.float32(0)), np.nextafter(b, np.float32(np.inf))])
        a = np.concatenate([a, -a])
        expected = broadcast_first_mul(fmt, a[:, None], b[None, :])
        qa, qb = batch._operand(a, fmt), batch._operand(b, fmt)
        inside_a = (np.abs(qa) > minpos) & (np.abs(qa) < maxpos)
        inside_b = (np.abs(qb) > minpos) & (np.abs(qb) < maxpos)
        exact = np.abs(qa[:, None] * qb[None, :])
        ordinary = inside_a[:, None] & inside_b[None, :] & (exact <= maxpos)
        ordinary &= exact >= math.ldexp(1.0, max(fmt.min_scale + 1, -126))
        wide_a, wide_b = np.broadcast_arrays(a[:, None], b[None, :])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide.clear()
            got = batch.mul_float32_batch(fmt, wide_a[ordinary], wide_b[ordinary])
            assert wide == [], fmt  # no fallback
            rest = batch.mul_float32_batch(fmt, wide_a[~ordinary], wide_b[~ordinary])
        assert np.array_equal(got.view(np.uint32), expected[ordinary].view(np.uint32)), fmt
        assert np.array_equal(rest.view(np.uint32), expected[~ordinary].view(np.uint32)), fmt


def boundary_operands(fmt: FixedPositFormat) -> dict[str, np.ndarray]:
    """Groups of nonzero binary32 normals whose products reach the binary32 path's edges."""
    f = fmt.fraction_bits
    fractions = [1.0, 1.0 + 2.0**-f, 2.0 - 2.0**-f, 1.5 + 2.0**-f]
    # (1 + 2**(i-f)) * (1 + 2**(j-f)) with i + j = f - 1 is a tie at f bits: it
    # rounds up when i or j is 0 (odd kept lsb) and down otherwise.
    ties = [1.0 + 2.0 ** (i - f) for i in range(f)]
    groups = {
        "under": [m * 2.0**s for m in fractions for s in (-64, -63)],  # products from 2**-128
        "over": [m * 2.0**s for m in fractions for s in (63, 64)],  # products to past 2**128
        "ties": ties + [t * 2.0**-63 for t in ties],
    }
    return {k: np.array(v + [-x for x in v], np.float32) for k, v in groups.items()}


@pytest.mark.parametrize("fmt", [F1862, FixedPositFormat(12, 2, 3)], ids=str)
def test_binary32_path_at_its_boundaries_matches_scalar(fmt):
    # At (18,6,2), products in [2**-128, 2**-126) lie inside the window but are
    # binary32 subnormals, so they must fall back; (12,2,3) saturates them.
    groups = boundary_operands(fmt)
    specials = np.array([0x00000000, 0x80000000, 0x807FFFFF, 0x007FFFFF,
                         0x7F800000, 0xFF800000, 0x7FC00000], np.uint32).view(np.float32)
    for ops in groups.values():
        checked_mul(fmt, ops[:, None], ops[None, :])
        checked_mul(fmt, ops, ops[::-1])
    everything = np.concatenate([*groups.values(), specials, np.float32([1.0, -3.0])])
    checked_mul(fmt, everything[:, None], everything[None, :])
    # Flushed before it is rounded: rounded first, 0x807FFFFF would become -2**-126.
    flushed = checked_mul(fmt, specials[2:4], np.float32([1.0, 1.0]))
    assert flushed.view(np.uint32).tolist() == [0, 0]


def test_gemm_rank1_step_takes_the_binary32_path_and_falls_back_once(monkeypatch):
    # A gemm rank-1 step at (18,6,2) quantises its 200-element column and row
    # in one binary32 pass over 400 lanes.  With no rare lane the rounded binary32 product
    # is the result; one product below 2**-126 sends it to binary64 once.
    quantised = []
    quantized_operand = batch._quantized_operand

    def spy(x32, fmt, dtype):
        quantised.append((np.size(x32), dtype))
        return quantized_operand(x32, fmt, dtype)

    monkeypatch.setattr(batch, "_quantized_operand", spy)
    wide = rounded_in_binary64(monkeypatch)
    rng = np.random.default_rng(200)
    a = rng.uniform(-1.0, 1.0, (200, 200)).astype(np.float32)
    for k, underflow in [(7, False), (8, True)]:
        if underflow:
            a[3, k], a[k, 5] = np.float32(2.0**-64), np.float32(2.0**-63)
        quantised.clear()
        wide.clear()
        out = batch.mul_float32_batch(F1862, a[:, k:k + 1], a[k, :])
        assert quantised == [(400, np.float32)]
        assert wide == ([40_000] if underflow else [])
        expected = broadcast_first_mul(F1862, a[:, k:k + 1], a[k, :])
        assert np.array_equal(out.view(np.uint32), expected.view(np.uint32))
    assert out[3, 5] == np.float32(2.0**-127)  # inside the window, below binary32's normals


# A call with rare product lanes but no rare operand keeps its binary32
# product where the smallest product of in-window operands, minpos**2, reaches
# 2**(-126 - f), the smallest nonzero binary32 subnormal at f fraction bits.
def clamps_in_binary32(fmt: FixedPositFormat) -> bool:
    f = fmt.fraction_bits
    # Below 2**-200 the square is far below 2**-137; the cap keeps the Fraction small.
    minpos = Fraction(2 ** f + 1, 2**f) * Fraction(2) ** max(fmt.min_scale, -200)
    return binary32_exact(fmt) and minpos**2 >= Fraction(1, 2 ** (126 + f))


def test_binary32_clamp_is_enabled_exactly_where_no_product_rounds_to_zero():
    for fmt in all_fixed_formats(32):
        assert batch._constants(fmt).clamps32 == clamps_in_binary32(fmt), fmt
        if fmt.min_scale >= -63:
            assert batch._constants(fmt).clamps32 == binary32_exact(fmt), fmt
    assert not any(batch._constants(fmt).clamps32 for fmt in paper_formats())
    assert batch._constants(FixedPositFormat(12, 2, 3)).clamps32


@pytest.mark.parametrize("n", range(4, 11))
def test_rare_products_of_in_window_operands_stay_in_binary32_where_they_clamp_exactly(
    n, monkeypatch
):
    # Every signed value of the format that is a binary32 normal, times every
    # one, in one call.  No operand is rare, and products past maxpos make
    # rare lanes in every format; so do products below 2**-126.
    wide = rounded_in_binary64(monkeypatch)
    for fmt in all_fixed_formats(n, min_n=n):
        values = batch.to_binary64_batch(np.arange(1, 1 << (n - 1)), fmt)
        values = values[values >= 2.0**-126].astype(np.float32)
        a = np.concatenate([values, -values])
        expected = broadcast_first_mul(fmt, a[:, None], a[None, :])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide.clear()
            got = batch.mul_float32_batch(fmt, a[:, None], a[None, :])
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32)), fmt
        # For n <= 10 the formats that clamp in binary32 are those with min_scale >= -75.
        in_binary32 = fmt.min_scale >= -75
        assert batch._constants(fmt).clamps32 == in_binary32, fmt
        assert wide == ([] if in_binary32 else [a.size**2]), fmt
    if n == 10:  # min_scale -96: products of the smallest operands round to zero in binary32
        assert not batch._constants(FixedPositFormat(10, 5, 3)).clamps32


def test_gaussian_outer_product_at_12_2_3_clamps_in_binary32(monkeypatch):
    # Underflowing products are common at (12,2,3), whose window is (2**-12, 2**12).
    fmt = FixedPositFormat(12, 2, 3)
    rng = np.random.default_rng(12)
    a = rng.standard_normal((200, 1)).astype(np.float32)
    b = rng.standard_normal(200).astype(np.float32)
    wide = rounded_in_binary64(monkeypatch)
    got = batch.mul_float32_batch(fmt, a, b)
    assert wide == []
    expected = broadcast_first_mul(fmt, a, b)
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))
    assert (np.abs(got) == batch._constants(fmt).minpos).any()  # some lanes are nudged


def test_product_that_binary32_rounds_to_zero_falls_back():
    # At (14,3,9), min_scale -72: (1.5 * 2**-72)**2 is a binary32 subnormal that
    # rounds to zero at one fraction bit, so a binary32 clamp would give +0, not
    # minpos.  min_scale >= -75 alone would not keep this call off binary32.
    fmt = FixedPositFormat(14, 3, 9)
    assert batch._constants(fmt).narrow is not None and not batch._constants(fmt).clamps32
    x = np.float32([1.5 * 2.0**-72, -1.5 * 2.0**-72, 3.0])
    got = checked_mul(fmt, x, x[::-1].copy())
    assert got[1] == np.float32(batch._constants(fmt).minpos)


# mul_float32_batch rounds both operands in one pass over a buffer of its own.
# Shape pairs of column times row, 0-d times array, array times 0-d and more.
FUSED_SHAPES = [((7, 1), (5,)), ((), (4, 3)), ((2, 3), ()), ((2, 1, 4), (3, 1)), ((6,), (6,))]


def fused_operand(shape: tuple, seed: int, rare: bool) -> np.ndarray:
    """Binary32 normals that most formats round, with a special operand in lane 0 when ``rare``."""
    x = np.array(np.random.default_rng(seed).uniform(-4.0, 4.0, shape), np.float32)
    if rare:
        x.reshape(-1)[0] = np.uint32(SPECIALS[seed % len(SPECIALS)]).view(np.float32)
    return x


def layouts(x: np.ndarray) -> list[np.ndarray]:
    """``x`` as a writable, a read-only and a strided array, F-ordered if 2-d or more, scalar if 0-d."""
    read_only = x.copy()
    read_only.setflags(write=False)
    wide = np.repeat(x[..., None], 3, axis=-1)
    forms = [x.copy(), read_only, wide[..., 1]]
    if x.ndim >= 2:
        forms.append(np.asfortranarray(x))
    if x.ndim == 0:
        forms.append(x[()])
    assert all(form.shape == x.shape for form in forms)
    return forms


@pytest.mark.parametrize("fmt", RARE_LANE_FORMATS, ids=str)
@pytest.mark.parametrize("rare", ["neither", "a", "b", "both"])
def test_fused_operand_pass_leaves_inputs_alone_and_matches_separate_operands(fmt, rare):
    for seed, (shape_a, shape_b) in enumerate(FUSED_SHAPES):
        a = fused_operand(shape_a, seed, rare in ("a", "both"))
        b = fused_operand(shape_b, seed + 100, rare in ("b", "both"))
        expected = broadcast_first_mul(fmt, a, b)  # Q(Q(a) * Q(b)), one _operand call each
        for xa in layouts(a):
            for xb in layouts(b):
                before = xa.tobytes(), xb.tobytes()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = batch.mul_float32_batch(fmt, xa, xb)
                assert (xa.tobytes(), xb.tobytes()) == before
                assert got.shape == expected.shape
                assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


# Each call would run without the width gate: (33,6,2) has 24 fraction bits.
F3362 = FixedPositFormat(33, 6, 2)
WIDE_BITS = np.array([0, 0x3F800000, 0x40400000], np.int64)
WIDE_CALLS = {
    "from_binary32_batch": (WIDE_BITS, F3362),
    "to_binary64_batch": (WIDE_BITS, F3362),
    "to_binary32_batch": (WIDE_BITS, F3362),
    "mul_batch": (WIDE_BITS, WIDE_BITS, F3362),
    "mul_float32_batch": (F3362, WIDE_BITS.astype(np.uint32).view(np.float32), np.float32(2.0)),
    "mul_binary32_batch": (F3362, WIDE_BITS, WIDE_BITS),
}


@pytest.mark.parametrize("name", WIDE_CALLS)
def test_every_batch_entry_point_rejects_words_wider_than_32_bits(name):
    with pytest.raises(ValueError, match=r"at most 32-bit words, got \(33,6,2\)"):
        getattr(batch, name)(*WIDE_CALLS[name])
