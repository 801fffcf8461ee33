"""Fixed-posit multiplication, implemented twice.

``mul_datapath`` mirrors a hardware pipeline: sign XOR, regime decode with a
left shift by the exponent width, fraction multiply with normalization
carry, a single scale adder, and a regime/exponent/fraction encoder with
guard-and-sticky rounding.  It is written once, in ``_datapath``, which
returns the block values as plain ints; only ``mul_datapath_traced`` packs
them into a ``DatapathTrace``.  ``mul_reference`` is the independent oracle:
it decodes both operands to exact integers, multiplies exactly, and
re-encodes through the generic codec.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import (
    PositWord,
    decode,
    encode,
    exact_mul,
    from_binary32,
    nar_word,
    to_binary32,
    zero_word,
)
from .formats import FixedPositFormat


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
    fmt = a.fmt
    if fmt is not b.fmt and fmt != b.fmt:
        raise ValueError(f"operand formats differ: {fmt} vs {b.fmt}")
    if not isinstance(fmt, FixedPositFormat):
        raise TypeError(f"expected fixed-posit operands, got format {fmt}")
    return fmt


def _datapath(a: PositWord, b: PositWord) -> tuple[PositWord, tuple[int, ...] | None]:
    """The one datapath pass: the result word and the block values as plain ints.

    The block values are ``(result_sign, k_a, k_b, exp_a, exp_b, carry,
    raw_scale, fraction_field)``, or None when a special operand (NaR or Zero)
    short-circuits the pipeline.
    """
    fmt = _check_same_format(a, b)
    n, es, rs, f = fmt.n, fmt.es, fmt.rs, fmt.fraction_bits
    a_bits, b_bits = a.bits, b.bits
    nar = 1 << (n - 1)
    if a_bits == nar or b_bits == nar:
        return nar_word(fmt), None
    if a_bits == 0 or b_bits == 0:
        return zero_word(fmt), None
    mask = (1 << n) - 1
    rmask = (1 << rs) - 1
    emask = (1 << es) - 1
    fmask = (1 << f) - 1

    # Block 1: result sign from an XOR of the operand signs.
    sa = a_bits >> (n - 1)
    sb = b_bits >> (n - 1)
    sc = sa ^ sb
    mag_a = (-a_bits) & mask if sa else a_bits
    mag_b = (-b_bits) & mask if sb else b_bits

    # Block 2: regime decode, the run length of the leading bit: a run of m
    # ones gives k = m - 1 and a run of m zeros k = -m.  The adder below takes
    # k left-shifted by the exponent width.
    field_a = (mag_a >> (es + f)) & rmask
    field_b = (mag_b >> (es + f)) & rmask
    k_a = (
        rs - 1 - (field_a ^ rmask).bit_length() if field_a >> (rs - 1)
        else field_a.bit_length() - rs
    )
    k_b = (
        rs - 1 - (field_b ^ rmask).bit_length() if field_b >> (rs - 1)
        else field_b.bit_length() - rs
    )
    exp_a = (mag_a >> f) & emask
    exp_b = (mag_b >> f) & emask

    # Block 3: fraction multiply and normalization carry.
    frac_a = (1 << f) | (mag_a & fmask)
    frac_b = (1 << f) | (mag_b & fmask)
    product = frac_a * frac_b  # 2f+2 bits
    carry = product >> (2 * f + 1)

    # Block 4: one adder for exponents, shifted k-values, and the carry.
    raw_scale = (k_a << es) + exp_a + (k_b << es) + exp_b + carry

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

    if result_scale > fmt.max_scale:
        mag_c = (1 << (n - 1)) - 1
    elif result_scale < fmt.min_scale:
        mag_c = 1
    else:
        k_c = result_scale >> es
        exp_c = result_scale - (k_c << es)
        if k_c >= 0:
            regime = ((1 << (k_c + 1)) - 1) << (rs - k_c - 1)
        else:
            regime = (1 << (rs + k_c)) - 1
        mag_c = (regime << (es + f)) | (exp_c << f) | (kept & fmask)
        if mag_c == 0:
            mag_c = 1  # never underflow to the zero pattern
    bits = (-mag_c) & mask if sc else mag_c
    blocks = (sc, k_a, k_b, exp_a, exp_b, carry, raw_scale, kept & fmask)
    return PositWord(bits, fmt), blocks


def mul_datapath_traced(a: PositWord, b: PositWord) -> tuple[PositWord, DatapathTrace | None]:
    """Multiply two words through the datapath, returning the block trace.

    The same pass as ``mul_datapath``; only this wrapper builds the trace.
    The trace is None for special operands (NaR or Zero short-circuit the
    pipeline).
    """
    word, blocks = _datapath(a, b)
    if blocks is None:
        return word, None
    sc, k_a, k_b, exp_a, exp_b, carry, raw_scale, fraction_field = blocks
    es = word.fmt.es
    trace = DatapathTrace(
        result_sign=sc,
        k_a=k_a,
        k_b=k_b,
        shifted_k_a=k_a << es,
        shifted_k_b=k_b << es,
        exp_a=exp_a,
        exp_b=exp_b,
        carry=carry,
        raw_scale=raw_scale,
        fraction_field=fraction_field,
    )
    return word, trace


def mul_datapath(a: PositWord, b: PositWord) -> PositWord:
    """Multiply two fixed-posit words through the hardware-style pipeline.

    Runs the same pass as ``mul_datapath_traced`` but builds no trace.
    """
    return _datapath(a, b)[0]


def mul_reference(a: PositWord, b: PositWord) -> PositWord:
    """Oracle multiply: exact integer product of the decoded significands."""
    _check_same_format(a, b)
    return exact_mul(a, b, decode, encode)


def mul_binary32_bits(fmt: FixedPositFormat, a_bits: int, b_bits: int) -> int:
    """Substituted multiply on binary32 bit patterns: convert, multiply, convert back."""
    wa = from_binary32(a_bits, fmt)
    wb = from_binary32(b_bits, fmt)
    return to_binary32(mul_datapath(wa, wb))
