"""Standard posit (n, es) codec and exact-product multiplier.

Used as the comparison baseline for fixed-posit: same special values, same
two's-complement negatives, but a variable-length regime terminated by an
opposite bit.  When the regime squeezes out exponent bits, the surviving
bits are the high-order bits of the exponent (low bits read as zero).  A
magnitude whose post-sign bits are all identical has no terminator; its run
counts as n-2 bits and the last bit is data.  The binary32 bridge and the
exact multiply (``exact_mul``) come from ``codec``, shared with fixed-posit.
"""

from __future__ import annotations

from fractions import Fraction

from .codec import (
    DecodedNumber,
    NumberClass,
    PositWord,
    binary32_bits,
    encode_binary32,
    exact_mul,
    round_to_nearest_even,
)
from .formats import PositFormat


def _split_magnitude(body: int, fmt: PositFormat, sign: int = 1) -> DecodedNumber:
    """The value of a positive body (all bits after the sign), with ``sign`` applied."""
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
    return DecodedNumber(NumberClass.NORMAL, sign, (k << es) + exponent, significand, f_len)


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
    return _split_magnitude(mag, fmt, sign)


def _encode_nearest_body(value: Fraction, fmt: PositFormat) -> int:
    """Largest-below / smallest-above search over the monotone positive bodies.

    Handles the regime-truncation zone where field boundaries shift between
    neighboring patterns; used only near the format's extremes.
    """

    def value_of(body: int) -> Fraction:
        return _split_magnitude(body, fmt).exact_value()

    lo, hi = 1, (1 << (fmt.n - 1)) - 1
    if value >= value_of(hi):
        return hi
    if value <= value_of(lo):
        return lo
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if value_of(mid) <= value:
            lo = mid
        else:
            hi = mid - 1
    below = value_of(lo)
    if below == value:
        return lo
    above = value_of(lo + 1)
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
    if not isinstance(fmt, PositFormat):
        raise TypeError(f"expected a posit format, got {fmt}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not (1 << significand_den_log2) <= significand_num < (2 << significand_den_log2):
        raise ValueError("significand must lie in [1, 2)")
    n, es = fmt.n, fmt.es
    width = n - 1
    num, den = significand_num, significand_den_log2
    while True:  # at most twice: after a carry the significand is exactly 1
        k = scale >> es
        exponent = scale - (k << es)
        regime_len = k + 2 if k >= 0 else 1 - k
        if regime_len + es > width:
            # Exponent truncation zone: fall back to the exact search.
            value = DecodedNumber(NumberClass.NORMAL, 1, scale, num, den).exact_value()
            body = _encode_nearest_body(value, fmt)
            break
        f_avail = width - regime_len - es
        sig = round_to_nearest_even(num, den - f_avail)
        if sig < 2 << f_avail:
            regime = (((1 << (k + 1)) - 1) << 1) if k >= 0 else 1
            body = (regime << (es + f_avail)) | (exponent << f_avail) | (sig - (1 << f_avail))
            break
        scale, num, den = scale + 1, 1, 0  # carried out: re-split the scale and retry
    bits = body if sign > 0 else (-body) & ((1 << n) - 1)
    return PositWord(bits, fmt)


def posit_from_binary32(x_bits: int, fmt: PositFormat) -> PositWord:
    """Convert a binary32 bit pattern to a posit word (subnormals flush to zero)."""
    if not isinstance(fmt, PositFormat):
        raise TypeError(f"expected a posit format, got {fmt}")
    return encode_binary32(x_bits, fmt, posit_encode)


def posit_to_binary32(w: PositWord) -> int:
    """Correctly-rounded binary32 bit pattern of a posit word."""
    return binary32_bits(posit_decode(w))


def posit_mul_binary32_bits(fmt: PositFormat, a_bits: int, b_bits: int) -> int:
    """Substituted multiply on binary32 bit patterns via exact posit arithmetic."""
    wa = posit_from_binary32(a_bits, fmt)
    wb = posit_from_binary32(b_bits, fmt)
    return posit_to_binary32(exact_mul(wa, wb, posit_decode, posit_encode))
