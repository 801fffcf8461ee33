import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedposit import (
    FixedPositFormat,
    PositFormat,
    PositWord,
    bits32_to_float,
    decode,
    encode,
    float_to_bits32,
    from_binary32,
    mul_binary32_bits,
    posit_decode,
    posit_encode,
    posit_from_binary32,
    posit_mul_binary32_bits,
    posit_to_binary32,
)
from fixedposit.codec import exact_mul

P82 = PositFormat(8, 2)
P326 = PositFormat(32, 6)


def test_decode_matches_fixed_posit_when_regime_fits():
    d = posit_decode(PositWord(0x4D, P82))
    assert (d.sign, d.scale, d.significand, d.fraction_bits) == (1, 1, 13, 3)
    assert float(d.exact_value()) == 3.25


def test_decode_unterminated_regime_fills_the_body():
    # 0x7F: seven ones fill the body, so k = 6 and no exponent or fraction
    # bits remain: scale 24, value useed**6 = 2**24.
    d = posit_decode(PositWord(0x7F, P82))
    assert (d.scale, d.significand, d.fraction_bits) == (24, 1, 0)
    assert d.exact_value() == Fraction(16) ** 6 == Fraction(1 << 24)


def test_decode_specials():
    assert posit_decode(PositWord(0x00, P82)).is_zero
    assert posit_decode(PositWord(0x80, P82)).is_nar


def test_truncated_exponent_reads_high_bits():
    # 0x7D: regime 11111 0 leaves one bit; '1' means e = 2, not e = 1.
    d = posit_decode(PositWord(0x7D, P82))
    assert d.scale == 4 * 4 + 2


def test_encode_inverts_decode_example():
    assert posit_encode(1, 1, 13, 3, P82).bits == 0x4D


def test_one_is_the_same_pattern_in_every_format():
    for fmt in (P82, PositFormat(8, 0), PositFormat(16, 3), P326):
        assert posit_encode(1, 0, 1, 0, fmt).bits == 1 << (fmt.n - 2)


def test_encode_saturates_at_extremes():
    top = posit_decode(PositWord(0x7F, P82))
    assert posit_encode(1, top.scale + 5, 1, 0, P82).bits == 0x7F
    assert posit_encode(1, -100, 1, 0, P82).bits == 0x01
    assert posit_encode(-1, top.scale + 5, 1, 0, P82).bits == 0x81


def test_encode_rejects_bad_significand():
    with pytest.raises(ValueError):
        posit_encode(1, 0, 5, 1, P82)
    with pytest.raises(ValueError, match="sign must be"):
        posit_encode(0, 0, 1, 0, P82)


def test_encoders_reject_the_other_format_family():
    fixed = FixedPositFormat(8, 2, 2)
    one, two = float_to_bits32(1.5), float_to_bits32(2.5)
    with pytest.raises(TypeError, match="expected a posit format"):
        posit_encode(1, 0, 1, 0, fixed)
    with pytest.raises(TypeError, match="expected a posit format"):
        posit_from_binary32(one, fixed)
    with pytest.raises(TypeError, match="expected a posit format"):
        posit_mul_binary32_bits(fixed, one, two)
    with pytest.raises(TypeError, match="expected a fixed-posit format"):
        encode(1, 0, 1, 0, P82)
    with pytest.raises(TypeError, match="expected a posit word"):
        posit_decode(PositWord(0x40, fixed))
    with pytest.raises(TypeError, match="expected a fixed-posit word"):
        decode(PositWord(0x40, P82))


@pytest.mark.parametrize(
    "pattern",
    [0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000],
    ids=["+0", "-0", "min-subnormal", "-max-subnormal", "qnan", "snan", "+inf", "-inf"],
)
def test_binary32_bridges_check_the_family_before_zero_and_nar(pattern):
    # These operands never reach the encoder, so the bridge checks the family itself.
    with pytest.raises(TypeError, match="expected a posit format"):
        posit_from_binary32(pattern, FixedPositFormat(8, 2, 2))
    with pytest.raises(TypeError, match="expected a fixed-posit format"):
        from_binary32(pattern, P82)


@pytest.mark.parametrize(
    "fmt",
    [
        PositFormat(6, 1),
        PositFormat(8, 0),
        PositFormat(8, 2),
        PositFormat(9, 4),
        PositFormat(10, 2),
        PositFormat(12, 0),
        PositFormat(12, 3),
    ],
)
def test_exhaustive_roundtrip_and_order(fmt):
    previous = None
    mask = (1 << fmt.n) - 1
    for s in range(-(1 << (fmt.n - 1)) + 1, 1 << (fmt.n - 1)):
        bits = s & mask
        d = posit_decode(PositWord(bits, fmt))
        if d.is_zero:
            value = Fraction(0)
        else:
            value = d.exact_value()
            back = posit_encode(d.sign, d.scale, d.significand, d.fraction_bits, fmt)
            assert back.bits == bits, f"{fmt} {bits:#x}"
        if previous is not None:
            assert previous < value, f"{fmt} order break at {bits:#x}"
        previous = value
        # negation symmetry
        mirrored = posit_decode(PositWord((-bits) & mask, fmt))
        if not (d.is_zero or d.is_nar):
            assert (mirrored.sign, mirrored.scale, mirrored.significand) == (
                -d.sign,
                d.scale,
                d.significand,
            )


def test_from_binary32_specials_and_flush():
    assert posit_from_binary32(float_to_bits32(0.0), P326).is_zero
    assert posit_from_binary32(0x00000001, P326).is_zero  # subnormal flushes
    assert posit_from_binary32(float_to_bits32(math.inf), P326).is_nar
    assert posit_from_binary32(0x7FC00000, P326).is_nar


def test_conversion_exact_for_central_scales():
    # (32,6) keeps 23 fraction bits while the regime stays at two bits, i.e.
    # for scales in [-64, 63]; conversions there are exact.
    rng = np.random.default_rng(23)
    for _ in range(2000):
        bits = int(
            (rng.integers(0, 2) << 31)
            | ((rng.integers(-64, 64) + 127) << 23)
            | rng.integers(0, 1 << 23)
        )
        assert posit_to_binary32(posit_from_binary32(bits, P326)) == bits


def test_conversion_rounds_outside_central_scales():
    # At scale 64 the regime takes three bits and only 22 fraction bits
    # remain, so an odd mantissa cannot survive the round trip.
    bits = ((64 + 127) << 23) | 1
    assert posit_to_binary32(posit_from_binary32(bits, P326)) != bits


def test_mul_exact_product():
    def mul(a, b):
        return bits32_to_float(posit_mul_binary32_bits(P326, float_to_bits32(a), float_to_bits32(b)))

    assert mul(1.5, 2.5) == 3.75
    assert mul(0.0, 5.0) == 0.0
    assert math.isnan(mul(math.nan, 2.0))


def test_binary32_bridge_on_every_small_posit_word():
    # Every word of every posit (n <= 12, es <= 4): 40,832 words, reaching
    # binary32 overflow, subnormals and underflow to zero.
    words = 0
    for n in range(3, 13):
        for es in range(min(4, n - 2) + 1):
            fmt = PositFormat(n, es)
            nar = 1 << (n - 1)
            got = [posit_to_binary32(PositWord(bits, fmt)) for bits in range(1 << n)]
            values = [
                posit_decode(PositWord(bits, fmt)).exact_value() if bits != nar else 0
                for bits in range(1 << n)
            ]
            # At most 12 significant bits and scales within +-160: float() is exact.
            with np.errstate(over="ignore"):
                want = np.array([float(v) for v in values]).astype(np.float32).view(np.uint32)
            want[nar] = 0x7FC00000
            assert got == want.tolist(), fmt
            for bits, (pattern, value) in enumerate(zip(got, values)):
                normal = 0x00800000 <= pattern & 0x7FFFFFFF < 0x7F800000
                if bits != nar and normal and bits32_to_float(pattern) == value:
                    assert posit_from_binary32(pattern, fmt).bits == bits, (fmt, bits)
            words += 1 << n
    assert words == 40_832


@pytest.mark.parametrize("fmt", [PositFormat(32, es) for es in range(3)], ids=str)
def test_binary32_bridge_rounds_like_a_cast_on_32_bit_posits(fmt):
    # Up to 29 fraction bits and scales within +-120: float() of a value is exact,
    # so its cast to binary32 rounds once.
    rng = np.random.default_rng(32)
    mags = [int(m) for m in rng.integers(1, 1 << 31, 20_000)]
    for mag in mags[:300]:
        mags += [mag | ((1 << j) - 1) for j in range(1, 30)]  # all-ones fractions carry
        # Ties to even and to odd, and past a tie, at every drop these words have.
        for drop in range(1, 7):
            tie = 1 << (drop - 1)
            high = mag >> drop << drop
            mags += [high | tie, (high ^ (1 << drop)) | tie, high | (tie + 1)]
    words = [PositWord(bits, fmt) for m in mags for bits in (m, (-m) & 0xFFFFFFFF)]
    want = np.array([float(posit_decode(w).exact_value()) for w in words], np.float32)
    assert [posit_to_binary32(w) for w in words] == want.view(np.uint32).tolist()


def test_scale_restricted_equivalence_with_fixed_posit():
    # Same operand error and bit-identical substituted products as the
    # (32,6,2) fixed layout whenever all scales stay inside [-64, 63].
    fixed = FixedPositFormat(32, 6, 2)
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        e_a = int(rng.integers(-32, 32))
        e_b = int(rng.integers(-32, 32))
        a = int((rng.integers(0, 2) << 31) | ((e_a + 127) << 23) | rng.integers(0, 1 << 23))
        b = int((rng.integers(0, 2) << 31) | ((e_b + 127) << 23) | rng.integers(0, 1 << 23))
        assert posit_mul_binary32_bits(P326, a, b) == mul_binary32_bits(fixed, a, b)


@given(
    scale=st.integers(-40, 40),
    frac=st.integers(0, (1 << 26) - 1),
    sign=st.sampled_from([1, -1]),
)
@settings(max_examples=300)
def test_encode_decode_inverse_on_values(sign, scale, frac):
    w = posit_encode(sign, scale, (1 << 26) | frac, 26, PositFormat(16, 2))
    d = posit_decode(w)
    assert not d.is_zero and not d.is_nar
    assert d.sign == sign
    # the represented value is within one rounding step of the request
    requested = sign * Fraction((1 << 26) | frac, 1 << 26) * Fraction(2) ** scale
    err = abs(d.exact_value() - requested) / abs(requested)
    assert err <= Fraction(1, 1 << (d.fraction_bits + 1)) * (1 + Fraction(1, 1000))


# The standard's value set and rounding rule, read off the decoder alone: an
# n-bit word w is the (n+1)-bit word w << 1, and the odd (n+1)-bit words are
# the midpoints the standard rounds against (Posit Working Group, "Standard
# for Posit Arithmetic", 2022).
SMALL_POSITS = [PositFormat(n, es) for n in range(3, 13) for es in range(min(4, n - 2) + 1)]


def _value(bits, fmt):
    d = posit_decode(PositWord(bits, fmt))
    return "NaR" if d.is_nar else d.exact_value()


def _posit_encode_fraction(value, fmt):
    """posit_encode of a positive dyadic rational."""
    num, den = value.numerator, value.denominator
    assert den & (den - 1) == 0
    top = num.bit_length() - 1
    return posit_encode(1, top - (den.bit_length() - 1), num, top, fmt).bits


def test_posit_5_1_values_are_the_2017_ring():
    # Gustafson & Yonemoto, "Beating Floating Point at its Own Game" (2017).
    want = [Fraction(1, 64), Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8),
            Fraction(1, 2), Fraction(3, 4), 1, Fraction(3, 2), 2, 3, 4, 8, 16, 64]
    assert [_value(bits, PositFormat(5, 1)) for bits in range(1, 16)] == want


@pytest.mark.parametrize("fmt", SMALL_POSITS, ids=str)
def test_maxpos_is_useed_to_the_n_minus_2_and_one_over_minpos(fmt):
    maxpos, minpos = _value((1 << (fmt.n - 1)) - 1, fmt), _value(1, fmt)
    assert maxpos == Fraction(1 << (1 << fmt.es)) ** (fmt.n - 2)
    assert maxpos * minpos == 1


@pytest.mark.parametrize("fmt", [f for f in SMALL_POSITS if f.n <= 11], ids=str)
def test_appending_a_zero_bit_keeps_every_value(fmt):
    wide = PositFormat(fmt.n + 1, fmt.es)
    for bits in range(1 << fmt.n):
        assert _value(bits, fmt) == _value(bits << 1, wide), (fmt, bits)


@pytest.mark.parametrize("fmt", [f for f in SMALL_POSITS if f.n <= 9], ids=str)
def test_encode_rounds_against_the_wider_midpoint(fmt):
    # Adjacent positive words u < w and the (n+1)-bit word v between them:
    # v is a tie and goes to the even pattern, and either side of v goes to
    # its own neighbour, also where the regime cuts exponent bits.
    wide = PositFormat(fmt.n + 1, fmt.es)
    for u_bits in range(1, (1 << (fmt.n - 1)) - 1):
        w_bits = u_bits + 1
        u, v, w = _value(u_bits, fmt), _value((u_bits << 1) | 1, wide), _value(w_bits, fmt)
        assert u < v < w
        assert _posit_encode_fraction(v, fmt) == (u_bits if u_bits % 2 == 0 else w_bits)
        assert _posit_encode_fraction((u + v) / 2, fmt) == u_bits, (fmt, u_bits)
        assert _posit_encode_fraction((v + w) / 2, fmt) == w_bits, (fmt, w_bits)


@pytest.mark.parametrize("fmt", [PositFormat(8, 0), P82, PositFormat(7, 3)], ids=str)
def test_exact_mul_rounds_like_the_standard(fmt):
    # Every positive word times every nonzero, non-NaR word.  The expected
    # word comes from the sorted (n+1)-bit values: a product goes to the
    # nearer n-bit word on its side of the midpoint, a midpoint tie to the
    # even pattern, and a product past maxpos or below minpos to that
    # extreme, never to zero.
    n = fmt.n
    wide = PositFormat(n + 1, fmt.es)
    wide_values = [_value(j, wide) for j in range(1, 1 << n)]  # word j at index j - 1

    def standard_round(p):
        j = bisect.bisect_left(wide_values, p) + 1  # the smallest (n+1)-bit word >= p
        if j % 2:  # a midpoint: below it, the word under it; a tie, the even n-bit word
            j += 1 if wide_values[j - 1] == p and j % 4 == 3 else -1
        return min(max(j >> 1, 1), (1 << (n - 1)) - 1)

    values = {bits: _value(bits, fmt) for bits in range(1, 1 << n) if bits != 1 << (n - 1)}
    wrong = []
    for a in range(1, 1 << (n - 1)):
        for b, value in values.items():
            p = values[a] * value
            want = standard_round(abs(p)) if p > 0 else -standard_round(-p) & ((1 << n) - 1)
            got = exact_mul(PositWord(a, fmt), PositWord(b, fmt), posit_decode, posit_encode)
            if got.bits != want:
                wrong.append((a, b))
    assert not wrong, f"{len(wrong)} products misrounded, first {wrong[:3]}"
