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

For formats with ``f <= 11`` whose window ends by ``2**127`` (15 of the 38
paper formats, (18,6,2) among them) the same steps run in binary32, with no
widening and no final cast.  ``Q(a)`` and ``Q(b)`` are binary32 values: at
most ``f + 1 <= 12`` significant bits, and maxpos is finite.  Their product
has at most ``2f + 2 <= 24`` bits, since ``(2**12 - 1)**2 < 2**24``, so
wherever it lands in binary32's normal range the binary32 multiply is exact
and ``Q`` of it is ``Q`` of the exact product.  A product below ``2**-126``
may have been rounded as a subnormal, and one past binary32's range has
overflowed, so the product's range test uses the low bound
``max(2**min_scale + 1 ulp, 2**-126)``.  When no lane is rare the rounded
binary32 product is the result; its lanes lie in ``(2**min_scale,
maxpos]`` and need no cast.  A call with any rare lane widens its quantised
operands, which is exact, and takes the binary64 product instead; a call
whose operands already had a rare lane goes there before multiplying.  The
operand flush reads the unrounded bits, because rounding first would carry a
subnormal such as ``0x807FFFFF`` into the normal ``-2**-126``.

A call with rare product lanes but no rare operand keeps its binary32
product where ``minpos**2 >= 2**(-126 - f)`` (``_Constants.clamps32``).  Of
the formats that multiply in binary32, that is every one with ``min_scale >=
-63``, exactly those with ``min_scale >= -75`` among ``n <= 10``, and no
paper format, whose ``min_scale`` is -128.  There ``min_scale >= -69``, so the range test's low bound is
``2**min_scale`` plus one ulp, a binary32 normal.  Each product ``p`` of two
in-window operands is nonzero and lies in ``[minpos**2, maxpos**2]``.  A lane
rounded past maxpos had ``p > maxpos``, since binary32 rounding and ``Q``'s
rounding are monotone and maxpos is a value of both, so saturating it is
``Q(p)``.  A nonzero lane rounded to at most ``2**min_scale`` either was
exact there or was a binary32 subnormal below ``2**-126``; either way ``Q``
takes ``p`` to the nudged minpos, as the clamp does.  And no lane rounds to
zero: ``2**(-126 - f)``, the smallest nonzero subnormal at ``f`` fraction
bits, is a value of both roundings and at most ``p``.  Where
``minpos**2`` is smaller, a product can round to zero in binary32 and lose
its nudge, as ``(1.5 * 2**-72)**2`` does at (14,3,9), so those calls still
fall back.

An ordinary lane pays only for rounding and one range test per stage: an
unsigned compare on the binary32 bits finds the zero, subnormal, infinite
and NaN operands, and one on the rounded magnitude's bits finds every value
outside ``(2**min_scale, maxpos]``.  The fix-ups (flush, NaN, clamp, nudge,
``+0``, NaN canonicalisation) run only on calls that have such a lane, so a
small call costs about as much as its fixed NumPy calls.  The multiply pays
the operand's calls once for both operands: it copies them side by side into
one buffer of its own and quantises that in one pass.  Each format's
constants, for binary64 and, where it is exact, binary32, are computed once,
by ``_constants``.  ``_round_and_clamp`` rounds a 1-d array in place,
viewing it as the unsigned integer of its own width; callers flatten first,
since on a 0-d array the in-place ufuncs would return scalars.

*Conversions* (``from_binary32_batch``, ``to_binary64_batch``,
``to_binary32_batch``), used by the sweeps.  The encode packs the value
path's quantised operand: its binary64 exponent is the word's scale and its
top ``f`` fraction bits are the word's fraction.  The decode splits a word's
fields with the same array passes for every format.  Both work through
their input ``BLOCK`` lanes at a time, into one output array
(``_blockwise``): a block's temporaries stay in cache and are reused
from malloc's free lists, where full-size ones were returned to the kernel
and faulted in again for each array.  Every lane is converted on its own,
so the output is the same bits.

*Word-level multiply* (``mul_batch``).  A mirror of ``mul_datapath`` over
int64 word patterns, pinned to it exhaustively.  It takes the value path's
steps: round as ``_round_and_clamp`` does, clamp to [minpos, maxpos], pack.
With the scalar codec it is the reference the value path is tested against.

Every function here is pinned to the scalar functions by exhaustive
small-width and sampled 32-bit equivalence tests.  The int64 word carrier
limits batch formats to n <= 32 (plenty for every stock configuration).
``_constants`` holds that width gate, and every public function reaches it:
the value path through ``_quantized_operand``, the word decode through
``_fields``.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .codec import QNAN32, _regime_field
from .formats import FixedPositFormat

_I64 = np.int64


class _Rounding(NamedTuple):
    """What ``_round_and_clamp`` needs of one float width, as unsigned scalars of that width."""

    drop: np.unsignedinteger  # fraction bits below the format's f
    half: np.unsignedinteger  # half an ulp less one, at the last kept bit
    keep: np.unsignedinteger  # clears the dropped bits
    magnitude: np.unsignedinteger  # clears the sign bit
    low: np.unsignedinteger  # bits of the smallest magnitude in range
    span: np.unsignedinteger  # maxpos's bits less ``low``
    zero: np.unsignedinteger  # zero's bits less ``low``, wrapped round


def _rounding(float_type: type, f: int, lo: int, maxpos: float) -> _Rounding:
    """``_round_and_clamp``'s constants for ``float_type`` values at ``f`` fraction bits.

    The range is (2**lo, maxpos], cut below at the smallest normal: a product
    under it may already have been rounded, so only the fallback may clamp it.
    """
    info = np.finfo(float_type)
    uint = np.dtype(f"u{info.dtype.itemsize}").type
    width = 8 * info.dtype.itemsize
    drop = info.nmant - f

    def bits(value: float) -> np.unsignedinteger:
        return float_type(value).view(uint)

    low = max(bits(math.ldexp(1.0, lo)) + uint(1), bits(info.smallest_normal))
    return _Rounding(
        drop=uint(drop),
        half=uint((1 << (drop - 1)) - 1),
        keep=~uint((1 << drop) - 1),
        magnitude=uint((1 << (width - 1)) - 1),
        low=low,
        span=bits(maxpos) - low,
        zero=uint((1 << width) - int(low)),
    )


class _Constants(NamedTuple):
    """What the value path and ``_pack`` need of one format, as NumPy scalars."""

    wide: _Rounding  # binary64
    narrow: _Rounding | None  # binary32, for formats whose products it holds exactly
    clamps32: bool  # binary32 clamps rare products of in-window operands exactly
    minpos: float
    maxpos: float
    regimes: np.ndarray  # regime fields for k = -rs .. rs-1, shifted into place


@cache
def _constants(fmt: FixedPositFormat) -> _Constants:
    if fmt.n > 32:
        raise ValueError(f"batch codec carries at most 32-bit words, got {fmt}")
    es, rs, f = fmt.es, fmt.rs, fmt.fraction_bits
    # Values reaching the value path lie within 2**+-260, so a window wider than
    # 2**+-1000 saturates nothing; clamping keeps its bounds finite.
    lo, hi = max(fmt.min_scale, -1000), min(fmt.max_scale, 1000)
    maxpos = math.ldexp(2.0 - 2.0**-f, hi)
    regimes = np.array([_regime_field(k, rs) for k in range(-rs, rs)], _I64) << (es + f)
    regimes.flags.writeable = False  # every caller shares it
    # Two (f+1)-bit significands multiply to at most 24 bits, which binary32
    # holds, when f <= 11; maxpos is finite there when the window ends by 2**127.
    exact32 = f <= 11 and fmt.max_scale <= 127
    minpos = math.ldexp(1.0 + 2.0**-f, lo)
    return _Constants(
        wide=_rounding(np.float64, f, lo, maxpos),
        narrow=_rounding(np.float32, f, lo, maxpos) if exact32 else None,
        # minpos**2 (exact) reaches the f-bit quantum of binary32's subnormals.
        clamps32=exact32 and minpos * minpos >= math.ldexp(1.0, -126 - f),
        minpos=minpos,
        maxpos=maxpos,
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


# Lanes per block of a long conversion: 64 KiB of int64 or binary64, so a
# block's temporaries stay in cache and are reused from malloc's free lists
# instead of being returned to the kernel and faulted in again for each array.
BLOCK = 8192


def _blockwise(step, x: np.ndarray, fmt: FixedPositFormat, dtype: type) -> np.ndarray:
    """``step(block, fmt)`` over ``x``, block by block, as one ``dtype`` array of ``x``'s shape.

    ``step`` maps a 1-d array to a 1-d array of its length, lane by lane.
    """
    flat = np.asarray(x).reshape(-1)
    out = np.empty(flat.size, dtype)
    for start in range(0, flat.size, BLOCK):
        out[start : start + BLOCK] = step(flat[start : start + BLOCK], fmt)
    return out.reshape(np.shape(x))


def from_binary32_batch(x_bits: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of codec.from_binary32; returns int64 word patterns."""
    return _blockwise(_encode, x_bits, fmt, _I64)


def _encode(x_bits: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """``from_binary32_batch`` of a 1-d array, which the masked stores need."""
    n, f = fmt.n, fmt.fraction_bits
    bits = _operand(_bits_to_float32(x_bits), fmt).view(_I64)
    scale = ((bits >> 52) & 0x7FF) - 1023  # -1023 for zero, 1024 for NaN
    words = _pack(scale, (bits >> (52 - f)) & ((1 << f) - 1), fmt)
    sign = bits >> 63  # 0 or -1; negating is xor with -1, then adding 1
    words ^= sign
    words -= sign
    words &= (1 << n) - 1
    words[scale == -1023] = 0
    words[scale == 1024] = 1 << (n - 1)
    return words


def to_binary64_batch(words: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Vector version of codec.to_binary64, equal to it wherever it returns.

    Where ``to_binary64`` raises because a word is not exactly a binary64
    value, this returns ``np.ldexp``'s rounding of it instead: +-inf past
    binary64's range, and below its normal range the nearest subnormal or
    zero, ties to even.  Words with n <= 32 and scales in [-1022, 1023] are
    exact.
    """
    return _blockwise(_decode64, words, fmt, np.float64)


def _decode64(words: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """``to_binary64_batch`` of a 1-d array, on which the ufuncs give arrays, not scalars."""
    w = words.astype(_I64, copy=False)
    signed, scale, significand = _fields(w, fmt)
    scale -= fmt.fraction_bits
    with np.errstate(over="ignore"):
        value = np.ldexp(significand.astype(np.float64), scale.astype(np.int32))
    np.copysign(value, signed, out=value)
    value[w == 0] = 0.0
    value[w == 1 << (fmt.n - 1)] = np.nan
    return value


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
    # carry bumps the scale.  Its clamp is _round_and_clamp's [minpos, maxpos],
    # which leaves out (min_scale, 0), the zero word.
    pair = ((scale_a + scale_b + carry - 1) << f) + product
    pair = np.clip(pair, (fmt.min_scale << f) + 1, ((fmt.max_scale + 1) << f) - 1)

    mag = _pack(pair >> f, pair & ((1 << f) - 1), fmt)
    words = np.where((signed_a ^ signed_b) < 0, (-mag) & ((1 << n) - 1), mag)
    words = np.where((a == 0) | (b == 0), 0, words)
    return np.where((a == nar) | (b == nar), nar, words)


def _round_and_clamp(x: np.ndarray, c: _Constants) -> int:
    """Round a 1-d array of finite or NaN values to the nearest value of the format, in place.

    ``x`` is binary64, or binary32 for a format with binary32 constants.
    Ties go to even.  Magnitudes past the largest value saturate to it,
    nonzero magnitudes at or below ``2**min_scale`` become the smallest, and
    zeros become +0.  Returns how many lanes were rare: those whose rounded
    magnitude lies outside (2**min_scale, maxpos], or, in binary32, below
    the smallest normal.  Only rare lanes are clamped.
    """
    r = c.wide if x.itemsize == 8 else c.narrow
    bits = x.view(r.keep.dtype)
    # Adding half an ulp less one, plus the kept lsb, then truncating is RNE;
    # a carry into the exponent field is the correct rounding up.
    step = bits >> r.drop
    step &= bits.dtype.type(1)
    step += r.half
    bits += step
    bits &= r.keep
    # One unsigned compare finds the rare lanes: magnitudes below ``low`` wrap
    # round to the top.  It reuses the rounding buffer.
    offset = np.bitwise_and(bits, r.magnitude, out=step)
    offset -= r.low
    rare = offset > r.span
    count = np.count_nonzero(rare)
    if count:
        # NaNs stay, zeros become +0 (word 0 is +0, never -0), overflows saturate.
        np.clip(x, -c.maxpos, c.maxpos, out=x)
        x += 0.0
        under = offset > r.zero  # nonzero magnitudes below ``low`` wrap past zero
        if np.count_nonzero(under):
            np.copysign(c.minpos, x, out=x, where=under)
    return count


def _quantized_operand(
    x32: np.ndarray, fmt: FixedPositFormat, dtype: type
) -> tuple[np.ndarray, int]:
    """``from_binary32`` of each binary32 operand as 1-d ``dtype`` values, and how many are rare.

    NaR is NaN.  The flush runs on the unrounded bits: rounded first, the
    subnormal ``0x807FFFFF`` would become the normal ``-2**-126``.  With
    ``dtype`` float32 the rounding may run in ``x32`` itself, so its one
    caller passes a buffer it owns; with binary64 it runs in a copy.
    """
    flat = x32.reshape(-1)
    # One unsigned compare finds the rare lanes: zeros and subnormals, whose
    # offset wraps round to the top, and infinities and NaNs.
    offset = flat.view(np.uint32) & np.uint32(0x7FFFFFFF)
    offset -= np.uint32(0x00800000)
    rare = offset > np.uint32(0x7F7FFFFF - 0x00800000)
    if np.count_nonzero(rare):
        # Zeros and subnormals flush to +0; infinities and NaNs become one quiet
        # NaN, so no signalling NaN reaches a cast.
        fixed = np.where(offset < np.uint32(1 << 31), np.uint32(QNAN32), np.uint32(0))
        flat = np.where(rare, fixed, flat.view(np.uint32)).view(np.float32)
    values = flat.astype(dtype, copy=False)
    return values, _round_and_clamp(values, _constants(fmt))


def _operand(x32: np.ndarray, fmt: FixedPositFormat) -> np.ndarray:
    """Binary64 value of ``from_binary32`` of each binary32 operand; NaR is NaN."""
    return _quantized_operand(x32, fmt, np.float64)[0].reshape(x32.shape)


def mul_float32_batch(fmt: FixedPositFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Substituted multiply over float32 arrays (any broadcastable shapes).

    Both operands are quantised in one pass over a private buffer that
    holds them side by side, each at its own shape; only the product is
    broadcast, so a column times a row quantises ``n + m`` operands, not
    ``2 * n * m``, and the caller's arrays are never written.  Formats whose
    products binary32 holds exactly multiply there, and widen to binary64
    only for a call with a rare lane.
    """
    a32, b32 = np.asarray(a, np.float32), np.asarray(b, np.float32)
    shape = np.broadcast(a32, b32).shape
    c = _constants(fmt)
    dtype = np.float64 if c.narrow is None else np.float32
    q, rare = _quantized_operand(np.concatenate((a32, b32), axis=None), fmt, dtype)
    qa, qb = q[: a32.size].reshape(a32.shape), q[a32.size :].reshape(b32.shape)
    if dtype is np.float32:
        if not rare:
            # The operands stay intact for the fallback, so the product gets its own array.
            with np.errstate(over="ignore"):
                product = np.multiply(qa, qb, out=np.empty(shape, np.float32)).reshape(-1)
            if not _round_and_clamp(product, c) or c.clamps32:
                return product.reshape(shape)
        qa, qb = qa.astype(np.float64), qb.astype(np.float64)  # exact
    # Writing into an operand of the full shape, when there is one, saves an array.
    full = qa if qa.shape == shape else qb if qb.shape == shape else None
    product = np.multiply(qa, qb, out=full).reshape(-1)
    rare = _round_and_clamp(product, c)
    with np.errstate(over="ignore"):  # maxpos past binary32's range casts to inf
        out = product.astype(np.float32)
    if rare:  # NaN sign and payload vary by platform
        out.view(np.uint32)[np.isnan(out)] = QNAN32
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
