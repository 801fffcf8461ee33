"""Standard posit (n, es) codec and exact-product multiplier.

Used as the comparison baseline for fixed-posit: same special values, same
two's-complement negatives, but a variable-length regime terminated by an
opposite bit.  When the regime squeezes out exponent bits, the surviving
bits are the high-order bits of the exponent (low bits read as zero).  A
magnitude whose post-sign bits are all identical has no terminator; its run
counts as n-2 bits and the last bit is data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .codec import (
    DecodedNumber,
    NumberClass,
    PositWord,
    bits32_to_float,
    float_to_bits32,
    nar_word,
    pack_binary32,
    round_to_nearest_even,
    zero_word,
)
from .formats import PositFormat


def _split_magnitude(body: int, fmt: PositFormat) -> tuple[int, int, int, int]:
    """Regime k, exponent, significand, and fraction width of a positive body."""
    n, es = fmt.n, fmt.es
    width = n - 1
    lead = (body >> (width - 1)) & 1
    inverted = body ^ ((1 << width) - 1) if lead else body
    run = width - inverted.bit_length()
    if run == width:
        m = width - 1  # unterminated run: cap it, the last bit stays data
        consumed = width - 1
    else:
        m = run
        consumed = run + 1
    k = m - 1 if lead else -m
    rest_len = width - consumed
    rest = body & ((1 << rest_len) - 1)
    e_take = min(es, rest_len)
    exponent = (rest >> (rest_len - e_take)) << (es - e_take)
    f_len = rest_len - e_take
    significand = (1 << f_len) | (rest & ((1 << f_len) - 1))
    return k, exponent, significand, f_len


def posit_decode(w: PositWord) -> DecodedNumber:
    """Decode a standard posit word to its exact value."""
    fmt = w.fmt
    if not isinstance(fmt, PositFormat):
        raise TypeError(f"expected a posit word, got format {fmt}")
    n = fmt.n
    bits = w.bits
    if bits == 0:
        return DecodedNumber.zero()
    if bits == 1 << (n - 1):
        return DecodedNumber.nar()
    sign = -1 if bits >> (n - 1) else 1
    mag = (-bits) & ((1 << n) - 1) if sign < 0 else bits
    k, exponent, significand, f_len = _split_magnitude(mag, fmt)
    return DecodedNumber(NumberClass.NORMAL, sign, (k << fmt.es) + exponent, significand, f_len)


def _body_value(body: int, fmt: PositFormat) -> Fraction:
    k, exponent, significand, f_len = _split_magnitude(body, fmt)
    shift = (k << fmt.es) + exponent - f_len
    if shift >= 0:
        return Fraction(significand << shift)
    return Fraction(significand, 1 << -shift)


def _encode_nearest_body(value: Fraction, fmt: PositFormat) -> int:
    """Largest-below / smallest-above search over the monotone positive bodies.

    Handles the regime-truncation zone where field boundaries shift between
    neighboring patterns; used only near the format's extremes.
    """
    lo, hi = 1, (1 << (fmt.n - 1)) - 1
    if value >= _body_value(hi, fmt):
        return hi
    if value <= _body_value(lo, fmt):
        return lo
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _body_value(mid, fmt) <= value:
            lo = mid
        else:
            hi = mid - 1
    below = _body_value(lo, fmt)
    if below == value:
        return lo
    above = _body_value(lo + 1, fmt)
    if value - below < above - value:
        return lo
    if above - value < value - below:
        return lo + 1
    return lo if lo % 2 == 0 else lo + 1  # tie: even pattern


def posit_encode(
    sign: int, scale: int, significand_num: int, significand_den_log2: int, fmt: PositFormat
) -> PositWord:
    """Round and pack sign * (num / 2**den_log2) * 2**scale into a posit word.

    The significand must lie in [1, 2).  Values beyond the largest or below
    the smallest magnitude saturate to the extreme nonzero words.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not (1 << significand_den_log2) <= significand_num < (2 << significand_den_log2):
        raise ValueError("significand must lie in [1, 2)")
    n, es = fmt.n, fmt.es
    width = n - 1
    num, den = significand_num, significand_den_log2
    body = None
    for _ in range(2):
        k = scale >> es
        exponent = scale - (k << es)
        regime_len = k + 2 if k >= 0 else 1 - k
        if regime_len + es > width:
            # Exponent truncation zone: fall back to the exact search.
            shift = scale - den
            value = Fraction(num << shift) if shift >= 0 else Fraction(num, 1 << -shift)
            body = _encode_nearest_body(value, fmt)
            break
        f_avail = width - regime_len - es
        sig = round_to_nearest_even(num, den - f_avail)
        if sig == 2 << f_avail:
            scale += 1
            num, den = 1, 0  # carried out: re-split the scale and retry
            continue
        regime = (((1 << (k + 1)) - 1) << 1) if k >= 0 else 1
        body = (regime << (es + f_avail)) | (exponent << f_avail) | (sig - (1 << f_avail))
        break
    assert body is not None
    bits = body if sign > 0 else (-body) & ((1 << n) - 1)
    return PositWord(bits, fmt)


def posit_from_binary32(x_bits: int, fmt: PositFormat) -> PositWord:
    """Convert a binary32 bit pattern to a posit word (subnormals flush to zero)."""
    exp_field = (x_bits >> 23) & 0xFF
    if exp_field == 0xFF:
        return nar_word(fmt)
    if exp_field == 0:
        return zero_word(fmt)
    sign = -1 if x_bits >> 31 else 1
    significand = (1 << 23) | (x_bits & 0x7FFFFF)
    return posit_encode(sign, exp_field - 127, significand, 23, fmt)


def posit_to_binary32(w: PositWord) -> int:
    """Correctly-rounded binary32 bit pattern of a posit word."""
    d = posit_decode(w)
    if d.is_zero:
        return 0
    if d.is_nar:
        return 0x7FC00000
    return pack_binary32(d.sign, d.scale, d.significand, d.fraction_bits)


def posit_mul_binary32_bits(fmt: PositFormat, a_bits: int, b_bits: int) -> int:
    """Substituted multiply on binary32 bit patterns via exact posit arithmetic."""
    wa = posit_from_binary32(a_bits, fmt)
    wb = posit_from_binary32(b_bits, fmt)
    if wa.is_nar or wb.is_nar:
        return 0x7FC00000
    if wa.is_zero or wb.is_zero:
        return 0
    da = posit_decode(wa)
    db = posit_decode(wb)
    product = da.significand * db.significand
    den_log2 = da.fraction_bits + db.fraction_bits
    scale = da.scale + db.scale
    if product >= 2 << den_log2:
        den_log2 += 1
        scale += 1
    wc = posit_encode(da.sign * db.sign, scale, product, den_log2, fmt)
    return posit_to_binary32(wc)


def posit_mul_binary32_via(fmt: PositFormat) -> Callable[[float, float], float]:
    """A binary32 multiply substitute routed through a standard posit format."""

    def mul(a: float, b: float) -> float:
        return bits32_to_float(posit_mul_binary32_bits(fmt, float_to_bits32(a), float_to_bits32(b)))

    return mul
