"""Fixed-posit multiplication, implemented twice.

``mul_datapath`` mirrors a hardware pipeline: sign XOR, regime decode with a
left shift by the exponent width, fraction multiply with normalization
carry, a single scale adder, and a regime/exponent/fraction encoder with
guard-and-sticky rounding.  ``mul_reference`` is the independent oracle: it
decodes both operands to exact integers, multiplies exactly, and re-encodes
through the generic codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .codec import (
    PositWord,
    bits32_to_float,
    decode,
    encode,
    float_to_bits32,
    from_binary32,
    nar_word,
    to_binary32,
    zero_word,
)
from .formats import FixedPositFormat, scale_range


@dataclass(frozen=True, slots=True)
class DatapathTrace:
    """Intermediate values of one multiplier pass, for block-level checks.

    ``raw_scale`` is the adder output before any saturation:
    ``shifted_k_a + exp_a + shifted_k_b + exp_b + carry``.
    """

    result_sign: int
    k_a: int
    k_b: int
    shifted_k_a: int
    shifted_k_b: int
    exp_a: int
    exp_b: int
    carry: int
    raw_scale: int
    fraction_field: int


def _check_same_format(a: PositWord, b: PositWord) -> FixedPositFormat:
    if a.fmt != b.fmt:
        raise ValueError(f"operand formats differ: {a.fmt} vs {b.fmt}")
    if not isinstance(a.fmt, FixedPositFormat):
        raise TypeError(f"expected fixed-posit operands, got format {a.fmt}")
    return a.fmt


def mul_datapath_traced(a: PositWord, b: PositWord) -> tuple[PositWord, DatapathTrace | None]:
    """Multiply two words through the datapath, returning the block trace.

    The trace is None for special operands (NaR or Zero short-circuit the
    pipeline).
    """
    fmt = _check_same_format(a, b)
    if a.is_nar or b.is_nar:
        return nar_word(fmt), None
    if a.is_zero or b.is_zero:
        return zero_word(fmt), None

    n, es, rs, f = fmt.n, fmt.es, fmt.rs, fmt.fraction_bits
    mask = (1 << n) - 1
    rmask = (1 << rs) - 1

    # Block 1: result sign from an XOR of the operand signs.
    sa = a.bits >> (n - 1)
    sb = b.bits >> (n - 1)
    sc = sa ^ sb
    mag_a = (-a.bits) & mask if sa else a.bits
    mag_b = (-b.bits) & mask if sb else b.bits

    # Block 2: regime decode (run length of the leading bit) and the k-value
    # left-shifted by the exponent width.
    def decode_k(mag: int) -> int:
        field = (mag >> (es + f)) & rmask
        if field >> (rs - 1):
            return rs - ((field ^ rmask).bit_length()) - 1
        return -(rs - field.bit_length())

    k_a = decode_k(mag_a)
    k_b = decode_k(mag_b)
    shifted_k_a = k_a << es
    shifted_k_b = k_b << es
    exp_a = (mag_a >> f) & ((1 << es) - 1)
    exp_b = (mag_b >> f) & ((1 << es) - 1)

    # Block 3: fraction multiply and normalization carry.
    frac_a = (1 << f) | (mag_a & ((1 << f) - 1))
    frac_b = (1 << f) | (mag_b & ((1 << f) - 1))
    product = frac_a * frac_b  # 2f+2 bits
    carry = 1 if product >> (2 * f + 1) else 0

    # Block 4: one adder for exponents, shifted k-values, and the carry.
    raw_scale = shifted_k_a + exp_a + shifted_k_b + exp_b + carry

    # Block 5: encoder.  Round the normalized fraction to f bits with
    # guard/sticky logic, then re-split the scale into regime and exponent.
    drop = f + carry
    kept = product >> drop
    guard = (product >> (drop - 1)) & 1
    sticky = (product & ((1 << (drop - 1)) - 1)) != 0
    if guard and (sticky or kept & 1):
        kept += 1
    result_scale = raw_scale
    if kept == 2 << f:
        kept >>= 1
        result_scale += 1

    rng = scale_range(fmt)
    if result_scale > rng.max_scale:
        mag_c = (1 << (n - 1)) - 1
    elif result_scale < rng.min_scale:
        mag_c = 1
    else:
        k_c = result_scale >> es
        exp_c = result_scale - (k_c << es)
        if k_c >= 0:
            regime = ((1 << (k_c + 1)) - 1) << (rs - k_c - 1)
        else:
            regime = (1 << (rs + k_c)) - 1
        mag_c = (regime << (es + f)) | (exp_c << f) | (kept & ((1 << f) - 1))
        if mag_c == 0:
            mag_c = 1  # never underflow to the zero pattern
    bits = (-mag_c) & mask if sc else mag_c
    trace = DatapathTrace(
        result_sign=sc,
        k_a=k_a,
        k_b=k_b,
        shifted_k_a=shifted_k_a,
        shifted_k_b=shifted_k_b,
        exp_a=exp_a,
        exp_b=exp_b,
        carry=carry,
        raw_scale=raw_scale,
        fraction_field=kept & ((1 << f) - 1),
    )
    return PositWord(bits, fmt), trace


def mul_datapath(a: PositWord, b: PositWord) -> PositWord:
    """Multiply two fixed-posit words through the hardware-style pipeline."""
    word, _ = mul_datapath_traced(a, b)
    return word


def mul_reference(a: PositWord, b: PositWord) -> PositWord:
    """Oracle multiply: exact integer product of the decoded significands."""
    fmt = _check_same_format(a, b)
    if a.is_nar or b.is_nar:
        return nar_word(fmt)
    if a.is_zero or b.is_zero:
        return zero_word(fmt)
    da = decode(a)
    db = decode(b)
    product = da.significand * db.significand
    den_log2 = da.fraction_bits + db.fraction_bits
    scale = da.scale + db.scale
    if product >= 2 << den_log2:
        den_log2 += 1
        scale += 1
    return encode(da.sign * db.sign, scale, product, den_log2, fmt)


def mul_binary32_bits(fmt: FixedPositFormat, a_bits: int, b_bits: int) -> int:
    """Substituted multiply on binary32 bit patterns: convert, multiply, convert back."""
    wa = from_binary32(a_bits, fmt)
    wb = from_binary32(b_bits, fmt)
    return to_binary32(mul_datapath(wa, wb))


def mul_binary32_via(fmt: FixedPositFormat) -> Callable[[float, float], float]:
    """A drop-in replacement for binary32 multiplication routed through ``fmt``.

    The returned callable coerces its arguments to binary32, multiplies them
    in the fixed-posit format, and returns the binary32 result widened to a
    Python float.
    """

    def mul(a: float, b: float) -> float:
        return bits32_to_float(mul_binary32_bits(fmt, float_to_bits32(a), float_to_bits32(b)))

    return mul
