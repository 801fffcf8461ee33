"""Vectorized NumPy paths for conversion sweeps and multiply-substituted workloads.

Two paths live here, so sweeps and workloads run in array passes instead of
per-scalar Python calls.

*Value domain* (``mul_binary32_batch``, ``mul_float32_batch``).  Over its
scale window a fixed-posit format holds exactly the binary numbers with ``f``
fraction bits: scales saturate at both ends, there are no subnormals, and
``+-2**min_scale``, whose pattern would be the zero word, is nudged one ulp
up.  A substituted binary32 multiply is therefore ``Q(Q(a) * Q(b))`` in
binary64, where ``Q`` rounds to nearest-even at ``f`` fraction bits and
saturates.  Every step is exact: a binary32 operand has at most 24
significant bits and so has ``Q(a)``; the product has at most 48 bits and a
magnitude within ``2**+-260``, so it is a binary64 normal; ``Q`` of it keeps
``f + 1 <= 31`` bits (``n <= 32`` gives ``f <= 30``).  The final cast to
binary32 is then the one correct rounding ``to_binary32`` performs,
subnormal outputs and overflow to infinity included.

*Word level* (``from_binary32_batch``, ``to_binary64_batch``,
``to_binary32_batch``, ``mul_batch``).  Mirrors of the scalar codec and of
``mul_datapath`` over int64 word patterns.  The sweeps use the codec
functions; ``mul_batch`` is pinned to ``mul_datapath`` exhaustively and is
the reference the value path is tested against.

Both paths are pinned to the scalar functions by exhaustive small-width and
sampled 32-bit equivalence tests.  The int64 word carrier limits batch
formats to n <= 32 (plenty for every stock configuration).
"""

from __future__ import annotations

import math

import numpy as np

from .formats import FixedPositFormat, scale_range

_I64 = np.int64
_QNAN32 = 0x7FC00000  # NaR as binary32


def _check_fmt(fmt: FixedPositFormat) -> None:
    if fmt.n > 32:
        raise ValueError(f"batch codec carries at most 32-bit words, got {fmt}")


def _rne_shift_right(num: np.ndarray, drop: np.ndarray | int) -> np.ndarray:
    """Elementwise right shift with round-to-nearest, ties-to-even.

    Negative drops are treated as zero; drops past 62 bits saturate (the
    remainder comparison still rounds such lanes to zero correctly).
    """
    drop = np.clip(np.asarray(drop, dtype=_I64), 0, 62)
    kept = num >> drop
    rem = num & ((_I64(1) << drop) - 1)
    half = (_I64(1) << drop) >> 1
    round_up = (drop > 0) & ((rem > half) | ((rem == half) & ((kept & 1) == 1)))
    return kept + round_up.astype(_I64)


def _bit_length(x: np.ndarray) -> np.ndarray:
    # frexp's exponent is the bit length for positive ints (and 0 for 0).
    return np.frexp(x.astype(np.float64))[1].astype(_I64)


def _split_sign(words: np.ndarray, fmt: FixedPositFormat) -> tuple[np.ndarray, np.ndarray]:
    n = fmt.n
    mask = (1 << n) - 1
    sign = (words >> (n - 1)) & 1
    mag = np.where(sign == 1, (-words) & mask, words)
    return sign, mag


def _decode_fields(mag: np.ndarray, fmt: FixedPositFormat) -> tuple[np.ndarray, ...]:
    """(k, exponent, significand, scale) of positive magnitudes."""
    es, rs, f = fmt.es, fmt.rs, fmt.fraction_bits
    regime = (mag >> (es + f)) & ((1 << rs) - 1)
    lead = regime >> (rs - 1)
    inverted = np.where(lead == 1, regime ^ ((1 << rs) - 1), regime)
    run = rs - _bit_length(inverted)
    k = np.where(lead == 1, run - 1, -run)
    exponent = (mag >> f) & ((1 << es) - 1)
    significand = (mag & ((1 << f) - 1)) | (1 << f)
    return k, exponent, significand, (k << es) + exponent


def _assemble(scale: np.ndarray, significand: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Pack (scale, significand) into positive magnitudes, saturating the scale."""
    es, rs, f = fmt.es, fmt.rs, fmt.fraction_bits
    rng = scale_range(fmt)
    k = scale >> es
    exponent = scale - (k << es)
    k_pos = np.clip(k, 0, rs - 1)
    k_neg = np.clip(k, -rs, -1)
    reg_pos = ((_I64(1) << (k_pos + 1)) - 1) << (rs - k_pos - 1)
    reg_neg = (_I64(1) << (rs + k_neg)) - 1
    regime = np.where(k >= 0, reg_pos, reg_neg)
    mag = (regime << (es + f)) | (exponent << f) | (significand & ((1 << f) - 1))
    mag = np.where(mag == 0, 1, mag)  # zero pattern is reserved; nudge up
    mag = np.where(scale > rng.max_scale, (1 << (fmt.n - 1)) - 1, mag)
    mag = np.where(scale < rng.min_scale, 1, mag)
    return mag


def from_binary32_batch(x_bits: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of codec.from_binary32; returns int64 word patterns."""
    _check_fmt(fmt)
    x = np.asarray(x_bits).astype(_I64) & 0xFFFFFFFF
    n, f = fmt.n, fmt.fraction_bits
    sign = (x >> 31) & 1
    exp_field = (x >> 23) & 0xFF
    scale = exp_field - 127
    sig = (x & 0x7FFFFF) | (1 << 23)
    if f >= 23:
        sig = sig << (f - 23)
    else:
        sig = _rne_shift_right(sig, 23 - f)
        carried = sig >> (f + 1)
        sig = np.where(carried == 1, sig >> 1, sig)
        scale = scale + carried
    mag = _assemble(scale, sig, fmt)
    words = np.where(sign == 1, (-mag) & ((1 << n) - 1), mag)
    words = np.where(exp_field == 0, 0, words)  # zeros and subnormals flush
    words = np.where(exp_field == 0xFF, 1 << (n - 1), words)
    return words


def to_binary64_batch(words: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of codec.to_binary64; exact float64 values."""
    _check_fmt(fmt)
    w = np.asarray(words).astype(_I64)
    n, f = fmt.n, fmt.fraction_bits
    sign, mag = _split_sign(w, fmt)
    _, _, significand, scale = _decode_fields(mag, fmt)
    value = np.ldexp(significand.astype(np.float64), (scale - f).astype(np.int32))
    value = np.where(sign == 1, -value, value)
    value = np.where(w == 0, 0.0, value)
    value = np.where(w == (1 << (n - 1)), np.nan, value)
    return value


def to_binary32_batch(words: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of codec.to_binary32; returns int64 bit patterns.

    A word's binary64 value is exact for n <= 32, or already beyond binary32's
    overflow or underflow when its scale leaves binary64's range, so one
    correctly rounded cast gives ``to_binary32``'s result.
    """
    with np.errstate(over="ignore"):
        value = to_binary64_batch(words, fmt).astype(np.float32)
    return value.view(np.uint32).astype(_I64)


def mul_batch(a_words: np.ndarray, b_words: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of multiplier.mul_datapath."""
    _check_fmt(fmt)
    a = np.asarray(a_words).astype(_I64)
    b = np.asarray(b_words).astype(_I64)
    n, es, f = fmt.n, fmt.es, fmt.fraction_bits
    nar = 1 << (n - 1)

    sa, mag_a = _split_sign(a, fmt)
    sb, mag_b = _split_sign(b, fmt)
    sc = sa ^ sb
    k_a, exp_a, frac_a, _ = _decode_fields(mag_a, fmt)
    k_b, exp_b, frac_b, _ = _decode_fields(mag_b, fmt)

    product = frac_a * frac_b  # <= 2f+2 bits, fine in int64 for n <= 32
    carry = (product >> (2 * f + 1)) & 1
    raw_scale = (k_a << es) + exp_a + (k_b << es) + exp_b + carry

    kept = _rne_shift_right(product, f + carry)
    carried = kept >> (f + 1)
    kept = np.where(carried == 1, kept >> 1, kept)
    result_scale = raw_scale + carried

    mag_c = _assemble(result_scale, kept, fmt)
    words = np.where(sc == 1, (-mag_c) & ((1 << n) - 1), mag_c)
    words = np.where((a == 0) | (b == 0), 0, words)
    words = np.where((a == nar) | (b == nar), nar, words)
    return words


def _quantize(x: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Round finite or NaN binary64 values in place to the nearest value of ``fmt``.

    Ties go to even.  Magnitudes past the largest value saturate to it, and
    nonzero magnitudes at or below ``2**min_scale`` become the smallest.
    """
    f = fmt.fraction_bits
    drop = 52 - f
    bits = x.view(np.uint64)
    # Adding half an ulp less one, plus the kept lsb, then truncating is RNE;
    # a carry into the exponent field is the correct rounding up.
    step = bits >> np.uint64(drop)
    step &= np.uint64(1)
    step += np.uint64((1 << (drop - 1)) - 1)
    bits += step
    bits &= ~np.uint64((1 << drop) - 1)

    rng = scale_range(fmt)
    # Values reaching here lie within 2**+-260, so a window wider than
    # 2**+-1000 saturates nothing; clamping keeps its bounds finite.
    lo, hi = max(rng.min_scale, -1000), min(rng.max_scale, 1000)
    minpos = math.ldexp(1.0 + 2.0**-f, lo)
    maxpos = math.ldexp(2.0 - 2.0**-f, hi)
    mag = np.abs(x, out=step.view(np.float64))  # reuses the rounding buffer
    under = mag <= math.ldexp(1.0, lo)
    under &= mag > 0
    x[under] = np.copysign(minpos, x[under])
    np.clip(x, -maxpos, maxpos, out=x)
    return x


def _operand(x32: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Binary64 value of ``from_binary32`` of each binary32 operand; NaR is NaN."""
    with np.errstate(invalid="ignore"):  # widening a signalling NaN flags invalid
        x = x32.astype(np.float64)
    exp_field = x32.view(np.uint32) & np.uint32(0x7F800000)
    x[exp_field == 0] = 0.0  # zeros and subnormals flush
    x[exp_field == 0x7F800000] = np.nan  # one NaN pattern, safe to round
    return _quantize(x, fmt)


def mul_float32_batch(fmt: FixedPositFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Substituted multiply over float32 arrays (any broadcastable shapes)."""
    _check_fmt(fmt)
    a32, b32 = np.broadcast_arrays(np.asarray(a, np.float32), np.asarray(b, np.float32))
    product = _operand(a32, fmt)
    product *= _operand(b32, fmt)
    _quantize(product, fmt)
    product += 0.0  # word 0 is +0, never -0
    with np.errstate(over="ignore"):
        out = product.astype(np.float32)
    out.view(np.uint32)[np.isnan(out)] = _QNAN32  # NaN sign and payload vary by platform
    return out


def _bits_to_float32(bits: np.ndarray) -> np.ndarray:
    return (np.asarray(bits).astype(_I64) & 0xFFFFFFFF).astype(np.uint32).view(np.float32)


def mul_binary32_batch(
    fmt: FixedPositFormat, a_bits: np.ndarray, b_bits: np.ndarray
) -> np.ndarray:
    """Substituted binary32 multiply over arrays of bit patterns (int64 out)."""
    out = mul_float32_batch(fmt, _bits_to_float32(a_bits), _bits_to_float32(b_bits))
    return out.view(np.uint32).astype(_I64)
