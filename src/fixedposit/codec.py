"""Bit-exact fixed-posit codec and IEEE-754 binary32/binary64 bridges.

Words are stored right-aligned in a Python int; negative numbers are the
two's complement of the whole n-bit word, so decoding first negates and
then splits the magnitude into regime / exponent / fraction fields.  The
regime field is a run of identical bits padded with complement bits: a run
of m leading zeros means k = -m, a run of m leading ones means k = m - 1.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .formats import FixedPositFormat, PositFormat, scale_range


class NumberClass(Enum):
    ZERO = "zero"
    NAR = "nar"
    NORMAL = "normal"


@dataclass(frozen=True, slots=True)
class PositWord:
    """An n-bit pattern right-aligned in a Python int, plus its format."""

    bits: int
    fmt: FixedPositFormat | PositFormat

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.fmt.n):
            raise ValueError(f"bit pattern {self.bits:#x} does not fit in {self.fmt.n} bits")

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def is_nar(self) -> bool:
        return self.bits == 1 << (self.fmt.n - 1)

    def __str__(self) -> str:
        width = (self.fmt.n + 3) // 4
        return f"0x{self.bits:0{width}x}"


@dataclass(frozen=True, slots=True)
class DecodedNumber:
    """Classified value of a word: Zero, NaR, or an exact sign/scale/significand.

    For a normal number the value is
    ``sign * significand / 2**fraction_bits * 2**scale`` with
    ``2**fraction_bits <= significand < 2**(fraction_bits + 1)``.
    """

    klass: NumberClass
    sign: int = 1
    scale: int = 0
    significand: int = 1
    fraction_bits: int = 0

    @classmethod
    def zero(cls) -> "DecodedNumber":
        return cls(NumberClass.ZERO)

    @classmethod
    def nar(cls) -> "DecodedNumber":
        return cls(NumberClass.NAR)

    @property
    def is_zero(self) -> bool:
        return self.klass is NumberClass.ZERO

    @property
    def is_nar(self) -> bool:
        return self.klass is NumberClass.NAR

    def exact_value(self) -> Fraction:
        """The represented real as an exact rational (normal numbers only)."""
        if self.klass is NumberClass.ZERO:
            return Fraction(0)
        if self.klass is NumberClass.NAR:
            raise ValueError("NaR has no rational value")
        shift = self.scale - self.fraction_bits
        if shift >= 0:
            return Fraction(self.sign * (self.significand << shift))
        return Fraction(self.sign * self.significand, 1 << -shift)


def round_to_nearest_even(num: int, drop: int) -> int:
    """Shift ``num`` right by ``drop`` bits, rounding to nearest, ties to even.

    A non-positive ``drop`` is an exact left shift.
    """
    if drop <= 0:
        return num << -drop
    kept = num >> drop
    rem = num & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    if rem > half or (rem == half and kept & 1):
        kept += 1
    return kept


def _regime_field(k: int, rs: int) -> int:
    # k >= 0: k+1 ones then complement (zero) fill; k < 0: -k zeros then ones.
    if k >= 0:
        return ((1 << (k + 1)) - 1) << (rs - k - 1)
    return (1 << (rs + k)) - 1


def _regime_k(field: int, rs: int) -> int:
    # Run length of the leading bit, capped at rs.
    if field >> (rs - 1):
        run = rs - ((field ^ ((1 << rs) - 1)).bit_length())
        return run - 1
    return -(rs - field.bit_length())


def zero_word(fmt: FixedPositFormat | PositFormat) -> PositWord:
    return PositWord(0, fmt)


def nar_word(fmt: FixedPositFormat | PositFormat) -> PositWord:
    return PositWord(1 << (fmt.n - 1), fmt)


def decode(w: PositWord) -> DecodedNumber:
    """Split a fixed-posit word into its exact value.  Total over all patterns."""
    fmt = w.fmt
    if not isinstance(fmt, FixedPositFormat):
        raise TypeError(f"expected a fixed-posit word, got format {fmt}")
    n, es, rs, f = fmt.n, fmt.es, fmt.rs, fmt.fraction_bits
    bits = w.bits
    if bits == 0:
        return DecodedNumber.zero()
    if bits == 1 << (n - 1):
        return DecodedNumber.nar()
    sign = -1 if bits >> (n - 1) else 1
    mag = (-bits) & ((1 << n) - 1) if sign < 0 else bits
    k = _regime_k((mag >> (es + f)) & ((1 << rs) - 1), rs)
    exponent = (mag >> f) & ((1 << es) - 1)
    significand = (1 << f) | (mag & ((1 << f) - 1))
    return DecodedNumber(NumberClass.NORMAL, sign, (k << es) + exponent, significand, f)


def encode(
    sign: int, scale: int, significand_num: int, significand_den_log2: int, fmt: FixedPositFormat
) -> PositWord:
    """Round and pack sign * (num / 2**den_log2) * 2**scale into a word.

    The significand must lie in [1, 2) and may carry more precision than the
    format holds; it is rounded to the format's fraction width (a carry out
    of rounding bumps the scale).  Scales beyond the representable range
    saturate to the largest/smallest-magnitude nonzero word.
    """
    if not isinstance(fmt, FixedPositFormat):
        raise TypeError(f"expected a fixed-posit format, got {fmt}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not (1 << significand_den_log2) <= significand_num < (2 << significand_den_log2):
        raise ValueError("significand must lie in [1, 2)")
    f = fmt.fraction_bits
    sig = round_to_nearest_even(significand_num, significand_den_log2 - f)
    if sig == 2 << f:
        sig >>= 1
        scale += 1
    rng = scale_range(fmt)
    if scale > rng.max_scale:
        mag = (1 << (fmt.n - 1)) - 1
    elif scale < rng.min_scale:
        mag = 1
    else:
        k = scale >> fmt.es
        exponent = scale - (k << fmt.es)
        mag = (_regime_field(k, fmt.rs) << (fmt.es + f)) | (exponent << f) | (sig - (1 << f))
        if mag == 0:
            # (min_scale, fraction 0) collides with the zero pattern; nudge to
            # the smallest nonzero magnitude instead of underflowing.
            mag = 1
    bits = mag if sign > 0 else (-mag) & ((1 << fmt.n) - 1)
    return PositWord(bits, fmt)


def from_binary32(x_bits: int, fmt: FixedPositFormat) -> PositWord:
    """Convert a binary32 bit pattern to a fixed-posit word.

    Zeros and subnormals flush to the zero word; NaN and infinities map to NaR.
    """
    exp_field = (x_bits >> 23) & 0xFF
    if exp_field == 0xFF:
        return nar_word(fmt)
    if exp_field == 0:
        return zero_word(fmt)
    sign = -1 if x_bits >> 31 else 1
    significand = (1 << 23) | (x_bits & 0x7FFFFF)
    return encode(sign, exp_field - 127, significand, 23, fmt)


def to_binary64(w: PositWord) -> float:
    """The exactly-represented value of a word as a binary64 float."""
    d = decode(w)
    if d.is_zero:
        return 0.0
    if d.is_nar:
        return math.nan
    if d.fraction_bits > 52 or abs(d.scale) > 1022:
        raise ValueError(f"{w.fmt} word does not fit exactly in binary64")
    return d.sign * math.ldexp(d.significand, d.scale - d.fraction_bits)


def pack_binary32(sign: int, scale: int, significand: int, fraction_bits: int) -> int:
    """Correctly round sign * significand * 2**(scale - fraction_bits) to binary32.

    Produces subnormal patterns below 2**-126 and infinity on overflow.
    """
    s_bit = 0 if sign > 0 else 1 << 31
    if scale >= -126:
        sig24 = round_to_nearest_even(significand, fraction_bits - 23)
        if sig24 == 1 << 24:
            sig24 >>= 1
            scale += 1
        if scale > 127:
            return s_bit | 0x7F800000
        return s_bit | ((scale + 127) << 23) | (sig24 & 0x7FFFFF)
    # Subnormal target grid: multiples of 2**-149.
    mantissa = round_to_nearest_even(significand, fraction_bits - scale - 149)
    return s_bit | mantissa  # mantissa == 2**23 lands on the smallest normal


def to_binary32(w: PositWord) -> int:
    """Correctly-rounded binary32 bit pattern of a word; NaR becomes a quiet NaN."""
    d = decode(w)
    if d.is_zero:
        return 0
    if d.is_nar:
        return 0x7FC00000
    return pack_binary32(d.sign, d.scale, d.significand, d.fraction_bits)


def float_to_bits32(x: float) -> int:
    """Bit pattern of a float coerced to binary32."""
    return struct.unpack("<I", struct.pack("<f", x))[0]


def bits32_to_float(bits: int) -> float:
    """The binary32 value stored in a bit pattern, widened to a Python float."""
    return struct.unpack("<f", struct.pack("<I", bits))[0]
