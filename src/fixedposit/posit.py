"""Standard posit (n, es) codec and exact-product multiplier.

Used as the comparison baseline for fixed-posit: same special values, same
two's-complement negatives, but a variable-length regime terminated by an
opposite bit.  When the regime squeezes out exponent bits, the surviving
bits are the high-order bits of the exponent (low bits read as zero).  A run
that fills the body has no terminator, so maxpos is ``useed**(n-2)`` and
minpos is its reciprocal.  The encoder rounds on the bit string, as the posit
standard does: the exact body is rounded once to n-1 bits, ties to the even
pattern, so a nonzero value never rounds to zero or past maxpos.  The
binary32 bridge and the exact multiply (``exact_mul``) come from ``codec``,
shared with fixed-posit.
"""

from __future__ import annotations

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


def posit_decode(w: PositWord) -> DecodedNumber:
    """Decode a standard posit word to its exact value."""
    fmt = w.fmt
    if not isinstance(fmt, PositFormat):
        raise TypeError(f"expected a posit word, got format {fmt}")
    n, es = fmt.n, fmt.es
    bits = w.bits
    if bits == 0:
        return DecodedNumber(NumberClass.ZERO)
    if bits == 1 << (n - 1):
        return DecodedNumber(NumberClass.NAR)
    sign = -1 if bits >> (n - 1) else 1
    body = (-bits) & ((1 << n) - 1) if sign < 0 else bits  # all bits after the sign
    width = n - 1
    lead = body >> (width - 1)
    run = width - (body ^ ((1 << width) - 1) if lead else body).bit_length()
    k = run - 1 if lead else -run
    rest_len = max(width - run - 1, 0)  # bits after the terminator; a full run leaves none
    rest = body & ((1 << rest_len) - 1)
    e_take = min(es, rest_len)
    exponent = (rest >> (rest_len - e_take)) << (es - e_take)
    f_len = rest_len - e_take
    significand = (1 << f_len) | (rest & ((1 << f_len) - 1))
    return DecodedNumber(NumberClass.NORMAL, sign, (k << es) + exponent, significand, f_len)


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
    num, den = significand_num, significand_den_log2
    if not (1 << den) <= num < (2 << den):
        raise ValueError("significand must lie in [1, 2)")
    n, es = fmt.n, fmt.es
    width = n - 1
    k = scale >> es
    if k >= n - 2:
        body = (1 << width) - 1  # maxpos
    elif k < 2 - n:
        body = 1  # minpos
    else:
        # The exact body: regime run and terminator, es exponent bits, every fraction bit.
        regime, regime_len = (((1 << (k + 1)) - 1) << 1, k + 2) if k >= 0 else (1, 1 - k)
        exact = (((regime << es) | (scale - (k << es))) << den) | (num - (1 << den))
        body = round_to_nearest_even(exact, regime_len + es + den - width)
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
