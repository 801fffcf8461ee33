"""Vectorized NumPy paths for conversion sweeps and multiply-substituted workloads.

Three groups live here, so sweeps and workloads run in array passes instead
of per-scalar Python calls.

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

An ordinary lane pays only for widening, rounding and one range test per
stage: an unsigned compare on the binary32 bits finds the zero, subnormal,
infinite and NaN operands, and one on the rounded magnitude's bits finds
every value outside ``(2**min_scale, maxpos]``.  The fix-ups (flush, NaN,
clamp, nudge, ``+0``, NaN canonicalisation) run only on calls that have such
a lane, so a small call costs about as much as its fixed NumPy calls.  Each
format's constants are computed once, by ``_constants``.  ``_quantize``
rounds a 1-d binary64 array in place; callers flatten first, since on a 0-d
array the in-place ufuncs would return scalars.

*Conversions* (``from_binary32_batch``, ``to_binary64_batch``,
``to_binary32_batch``), used by the sweeps.  The encode packs the value
path's quantised operand: its binary64 exponent is the word's scale and its
top ``f`` fraction bits are the word's fraction.  The decode splits a word's
fields with the same array passes for every format.

*Word-level multiply* (``mul_batch``).  A mirror of ``mul_datapath`` over
int64 word patterns, pinned to it exhaustively.  It takes the value path's
steps: round as ``_quantize`` does, clamp to [minpos, maxpos], pack.  With
the scalar codec it is the reference the value path is tested against.

Every function here is pinned to the scalar functions by exhaustive
small-width and sampled 32-bit equivalence tests.  The int64 word carrier
limits batch formats to n <= 32 (plenty for every stock configuration).
``_constants`` holds that width gate, and every public function reaches it:
the value path through ``_quantize``, the word decode through ``_fields``.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .formats import FixedPositFormat, scale_range

_I64 = np.int64
_QNAN32 = 0x7FC00000  # NaR as binary32


def _f64_bits(value: float) -> np.uint64:
    return np.float64(value).view(np.uint64)


class _Constants(NamedTuple):
    """What the value path and ``_pack`` need of one format, as NumPy scalars."""

    drop: np.uint64  # binary64 fraction bits below the format's f
    half: np.uint64  # half an ulp less one, at the last kept bit
    keep: np.uint64  # clears the dropped bits
    low: np.uint64  # bits of the smallest magnitude in range, the one above 2**min_scale
    span: np.uint64  # maxpos's bits less ``low``
    zero: np.uint64  # zero's bits less ``low``, wrapped round
    minpos: float
    maxpos: float
    overflows32: bool  # maxpos rounds to inf in binary32, so the product's cast can overflow
    regimes: np.ndarray  # regime fields for k = -rs .. rs-1, shifted into place


@cache
def _constants(fmt: FixedPositFormat) -> _Constants:
    if fmt.n > 32:
        raise ValueError(f"batch codec carries at most 32-bit words, got {fmt}")
    es, rs, f = fmt.es, fmt.rs, fmt.fraction_bits
    drop = 52 - f
    rng = scale_range(fmt)
    # Values reaching the value path lie within 2**+-260, so a window wider than
    # 2**+-1000 saturates nothing; clamping keeps its bounds finite.
    lo, hi = max(rng.min_scale, -1000), min(rng.max_scale, 1000)
    maxpos = math.ldexp(2.0 - 2.0**-f, hi)
    low = _f64_bits(math.ldexp(1.0, lo)) + np.uint64(1)
    # Regime fields: -k zeros then ones, or k+1 ones then zeros.
    regimes = np.array([(1 << (rs + k)) - 1 if k < 0 else ((2 << k) - 1) << (rs - 1 - k)
                        for k in range(-rs, rs)], _I64) << (es + f)
    regimes.flags.writeable = False  # every caller shares it
    with np.errstate(over="ignore"):
        overflows32 = bool(np.isinf(np.float32(maxpos)))
    return _Constants(
        drop=np.uint64(drop),
        half=np.uint64((1 << (drop - 1)) - 1),
        keep=~np.uint64((1 << drop) - 1),
        low=low,
        span=_f64_bits(maxpos) - low,
        zero=np.uint64((1 << 64) - int(low)),
        minpos=math.ldexp(1.0 + 2.0**-f, lo),
        maxpos=maxpos,
        overflows32=overflows32,
        regimes=regimes,
    )


def _fields(words: np.ndarray, fmt: FixedPositFormat) -> tuple[np.ndarray, ...]:
    """(sign-extended word, scale, significand) of int64 words.

    Zero and NaR lanes decode to values the callers overwrite.  Updating in
    place keeps few arrays alive, which saves page faults on large calls.
    """
    _constants(fmt)  # the width gate
    n, es, rs, f = fmt.n, fmt.es, fmt.rs, fmt.fraction_bits
    signed = (words << (64 - n)) >> (64 - n)
    mag = np.abs(signed)
    # The regime field, sign-extended from its lead bit: -lead is 0 or -1, and
    # xor with it turns a run of ones into a run of zeros.
    regime = (mag << (65 - n)) >> (64 - rs)
    neg_lead = regime >> (rs - 1)
    # 2x+1 converts exactly; its binary64 exponent field is bit_length(x) + 1023.
    scale = (((regime ^ neg_lead) << 1) | 1).astype(np.float64).view(_I64) >> 52
    scale -= 1023 + rs
    scale ^= neg_lead  # k: -run, or run-1 for a run of ones
    scale <<= es
    scale += (mag >> f) & ((1 << es) - 1)
    mag &= (1 << f) - 1  # the significand
    mag |= 1 << f
    return signed, scale, mag


def _pack(scale: np.ndarray, fraction: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Positive magnitudes of in-window scales and ``f``-bit fractions."""
    es, f = fmt.es, fmt.fraction_bits
    # Clipping keeps out-of-window lanes, which the callers overwrite, in the table.
    mag = np.take(_constants(fmt).regimes, (scale >> es) + fmt.rs, mode="clip")
    mag |= (scale & ((1 << es) - 1)) << f
    mag |= fraction
    return mag


def from_binary32_batch(x_bits: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of codec.from_binary32; returns int64 word patterns."""
    n, f = fmt.n, fmt.fraction_bits
    x32 = _bits_to_float32(x_bits)
    bits = _operand(x32.reshape(-1), fmt).view(_I64)  # 1-d, so the masked stores work on 0-d input
    scale = ((bits >> 52) & 0x7FF) - 1023  # -1023 for zero, 1024 for NaN
    words = _pack(scale, (bits >> (52 - f)) & ((1 << f) - 1), fmt)
    sign = bits >> 63  # 0 or -1; negating is xor with -1, then adding 1
    words ^= sign
    words -= sign
    words &= (1 << n) - 1
    words[scale == -1023] = 0
    words[scale == 1024] = 1 << (n - 1)
    return words.reshape(x32.shape)


def to_binary64_batch(words: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of codec.to_binary64, equal to it wherever it returns.

    Where ``to_binary64`` raises because a word is not exactly a binary64
    value, this returns ``np.ldexp``'s rounding of it instead: +-inf past
    binary64's range, and below its normal range the nearest subnormal or
    zero, ties to even.  Words with n <= 32 and scales in [-1022, 1023] are
    exact.
    """
    shape = np.shape(words)
    # Not copied when already int64; 1-d, since on 0-d input the ufuncs would give scalars.
    w = np.asarray(words).astype(_I64, copy=False).reshape(-1)
    signed, scale, significand = _fields(w, fmt)
    scale -= fmt.fraction_bits
    with np.errstate(over="ignore"):
        value = np.ldexp(significand.astype(np.float64), scale.astype(np.int32))
    np.copysign(value, signed, out=value)
    value[w == 0] = 0.0
    value[w == 1 << (fmt.n - 1)] = np.nan
    return value.reshape(shape)


def to_binary32_batch(words: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of codec.to_binary32; returns int64 bit patterns.

    A word's binary64 value is exact for n <= 32, or already beyond binary32's
    overflow or underflow when its scale leaves binary64's range, so one
    correctly rounded cast gives ``to_binary32``'s result.
    """
    with np.errstate(over="ignore"):  # the float32 cast overflows too
        value = to_binary64_batch(words, fmt).astype(np.float32)
    return value.view(np.uint32).astype(_I64)


def mul_batch(a_words: np.ndarray, b_words: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of multiplier.mul_datapath: round, clamp, pack."""
    a = np.asarray(a_words).astype(_I64)
    b = np.asarray(b_words).astype(_I64)
    n, f = fmt.n, fmt.fraction_bits
    nar = 1 << (n - 1)

    signed_a, scale_a, frac_a = _fields(a, fmt)
    signed_b, scale_b, frac_b = _fields(b, fmt)
    product = frac_a * frac_b  # <= 2f+2 bits, fine in int64 for n <= 32
    carry = product >> (2 * f + 1)
    drop = f + carry
    # Adding half an ulp less one, plus the kept lsb, then truncating is RNE.
    product += ((product >> drop) & 1) + (1 << (drop - 1)) - 1
    product >>= drop  # the significand, or 2**(f+1) after a rounding carry
    # (scale, fraction) as one number, scale * 2**f + fraction, so that a rounding
    # carry bumps the scale.  Its clamp is _quantize's [minpos, maxpos], which
    # leaves out (min_scale, 0), the zero word.
    pair = ((scale_a + scale_b + carry - 1) << f) + product
    rng = scale_range(fmt)
    pair = np.clip(pair, (rng.min_scale << f) + 1, ((rng.max_scale + 1) << f) - 1)

    mag = _pack(pair >> f, pair & ((1 << f) - 1), fmt)
    words = np.where((signed_a ^ signed_b) < 0, (-mag) & ((1 << n) - 1), mag)
    words = np.where((a == 0) | (b == 0), 0, words)
    return np.where((a == nar) | (b == nar), nar, words)


def _quantize(x: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Round a 1-d array of finite or NaN binary64 values to the nearest value of ``fmt``.

    Rounds in place and returns ``x``.  Ties go to even.  Magnitudes past the largest value
    saturate to it, nonzero magnitudes at or below ``2**min_scale`` become
    the smallest, and zeros become +0.
    """
    _round_and_clamp(x, _constants(fmt))
    return x


def _round_and_clamp(x: np.ndarray, c: _Constants) -> int:
    """``_quantize`` of a 1-d ``x`` in place; returns how many lanes were rare.

    A lane is rare when its rounded magnitude lies outside
    (2**min_scale, maxpos]: a zero, an underflow, an overflow or a NaN.
    Only rare lanes are clamped.
    """
    bits = x.view(np.uint64)
    # Adding half an ulp less one, plus the kept lsb, then truncating is RNE;
    # a carry into the exponent field is the correct rounding up.
    step = bits >> c.drop
    step &= np.uint64(1)
    step += c.half
    bits += step
    bits &= c.keep
    # One unsigned compare finds the rare lanes: magnitudes below ``low`` wrap
    # round to the top.  It reuses the rounding buffer.
    offset = np.bitwise_and(bits, np.uint64(0x7FFF_FFFF_FFFF_FFFF), out=step)
    offset -= c.low
    rare = offset > c.span
    count = np.count_nonzero(rare)
    if count:
        # NaNs stay, zeros become +0 (word 0 is +0, never -0), overflows saturate.
        np.clip(x, -c.maxpos, c.maxpos, out=x)
        x += 0.0
        under = offset > c.zero  # nonzero magnitudes at or below 2**min_scale wrap past zero
        if np.count_nonzero(under):
            np.copysign(c.minpos, x, out=x, where=under)
    return count


def _operand(x32: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Binary64 value of ``from_binary32`` of each binary32 operand; NaR is NaN."""
    flat = x32.reshape(-1)
    # One unsigned compare finds the rare lanes: zeros and subnormals, whose
    # offset wraps round to the top, and infinities and NaNs.
    offset = flat.view(np.uint32) & np.uint32(0x7FFFFFFF)
    offset -= np.uint32(0x00800000)
    rare = offset > np.uint32(0x7F7FFFFF - 0x00800000)
    if np.count_nonzero(rare):
        # Zeros and subnormals flush to +0; infinities and NaNs become one quiet
        # NaN, so no signalling NaN reaches the widening cast.
        fixed = np.where(offset < np.uint32(1 << 31), np.uint32(_QNAN32), np.uint32(0))
        flat = np.where(rare, fixed, flat.view(np.uint32)).view(np.float32)
    return _quantize(flat.astype(np.float64), fmt).reshape(x32.shape)


def mul_float32_batch(fmt: FixedPositFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Substituted multiply over float32 arrays (any broadcastable shapes).

    Each operand is quantised once at its own shape; only the product is
    broadcast, so a column times a row quantises ``n + m`` operands, not
    ``2 * n * m``.
    """
    qa = _operand(np.asarray(a, np.float32), fmt)
    qb = _operand(np.asarray(b, np.float32), fmt)
    shape = np.broadcast(qa, qb).shape
    # Writing into an operand of the full shape, when there is one, saves an array.
    full = qa if qa.shape == shape else qb if qb.shape == shape else None
    product = np.multiply(qa, qb, out=full).reshape(-1)
    c = _constants(fmt)
    rare = _round_and_clamp(product, c)
    if c.overflows32:  # entering errstate costs about a microsecond, so only where it is needed
        with np.errstate(over="ignore"):
            out = product.astype(np.float32)
    else:
        out = product.astype(np.float32)
    if rare:  # NaN sign and payload vary by platform
        out.view(np.uint32)[np.isnan(out)] = _QNAN32
    return out.reshape(shape)


def _bits_to_float32(bits: np.ndarray) -> np.ndarray:
    # Integer casts wrap modulo 2**32 without a warning.
    return np.asarray(bits).astype(np.uint32, copy=False).view(np.float32)


def mul_binary32_batch(
    fmt: FixedPositFormat, a_bits: np.ndarray, b_bits: np.ndarray
) -> np.ndarray:
    """Substituted binary32 multiply over arrays of bit patterns (int64 out)."""
    out = mul_float32_batch(fmt, _bits_to_float32(a_bits), _bits_to_float32(b_bits))
    return out.view(np.uint32).astype(_I64)
