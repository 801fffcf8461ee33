import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedposit import (
    DecodedNumber,
    FixedPositFormat,
    NumberClass,
    PositFormat,
    PositWord,
    decode,
    encode,
    float_to_bits32,
    bits32_to_float,
    from_binary32,
    nar_word,
    posit_decode,
    to_binary32,
    to_binary64,
    zero_word,
)
from fixedposit import batch
from fixedposit.codec import exact_mul

from support import (
    all_fixed_formats,
    canonical_words,
    check_monotone,
    check_negation_symmetry,
    check_roundtrip,
    signed_word_order,
)

F822 = FixedPositFormat(8, 2, 2)
F3262 = FixedPositFormat(32, 6, 2)


# --- decode -----------------------------------------------------------------


def test_decode_hand_worked_word():
    # 0x4D is 0 10 01 101: k=0, e=1, fraction 1.625 -> +3.25
    d = decode(PositWord(0x4D, F822))
    assert d.klass is NumberClass.NORMAL
    assert (d.sign, d.scale, d.significand, d.fraction_bits) == (1, 1, 13, 3)
    assert float(d.exact_value()) == 3.25


def test_decode_specials():
    assert decode(PositWord(0x00, F822)).is_zero
    assert decode(PositWord(0x80, F822)).is_nar
    with pytest.raises(ValueError, match="NaR has no rational value"):
        decode(PositWord(0x80, F822)).exact_value()


@pytest.mark.parametrize("bits", [0x100, -1])
def test_word_must_fit_its_width(bits):
    with pytest.raises(ValueError, match="does not fit in 8 bits"):
        PositWord(bits, F822)


def test_decode_negative_is_twos_complement():
    assert to_binary64(PositWord(0xC0, F822)) == -1.0
    assert from_binary32(float_to_bits32(1.0), F822).bits == 0x40


@pytest.mark.parametrize(
    "fmt, decoder",
    [(F822, decode), (PositFormat(8, 2), posit_decode)],
    ids=["fixed-posit", "posit"],
)
def test_decoded_numbers_are_immutable_hashable_values(fmt, decoder):
    assert tuple(DecodedNumber(NumberClass.ZERO)) == (NumberClass.ZERO, 1, 0, 1, 0)
    nar = 1 << (fmt.n - 1)
    for bits in range(1 << fmt.n):
        d = decoder(PositWord(bits, fmt))
        fields = (d.klass, d.sign, d.scale, d.significand, d.fraction_bits)
        same = DecodedNumber(*fields)
        assert d == same and hash(d) == hash(same) and d in {same}
        assert (d.is_zero, d.is_nar) == (bits == 0, bits == nar)
        for name in ("klass", "sign", "scale", "significand", "fraction_bits"):
            with pytest.raises(AttributeError):
                setattr(d, name, 0)
        if bits in (0, nar):
            # Zero and NaR keep the defaults.
            assert d == DecodedNumber(NumberClass.ZERO if bits == 0 else NumberClass.NAR)
        if bits == nar:
            with pytest.raises(ValueError, match="NaR has no rational value"):
                d.exact_value()
        else:
            value = d.sign * Fraction(d.significand, 2**d.fraction_bits) * Fraction(2) ** d.scale
            assert d.exact_value() == (0 if bits == 0 else value)


# --- encode -----------------------------------------------------------------


def test_encode_inverts_decode_example():
    assert encode(1, 1, 13, 3, F822).bits == 0x4D


def test_encode_tie_rounds_to_even():
    # 1.0625 sits halfway between fraction 000 and 001; even wins.
    assert encode(1, 0, 17, 4, F822).bits == 0x40


def test_encode_saturates_to_extremes():
    assert encode(1, 14, 1, 0, F822).bits == 0x7F
    assert to_binary64(PositWord(0x7F, F822)) == 240.0
    assert encode(-1, 14, 1, 0, F822).bits == 0x81
    assert encode(1, -40, 1, 0, F822).bits == 0x01
    assert encode(-1, -40, 1, 0, F822).bits == 0xFF


def test_encode_never_emits_the_zero_pattern():
    # scale at the bottom of the range with a zero fraction would assemble
    # to the all-zeros word; it must nudge to the smallest magnitude.
    w = encode(1, -8, 1, 0, F822)
    assert w.bits == 0x01
    assert not w.is_zero


def test_encode_rejects_bad_significand():
    with pytest.raises(ValueError):
        encode(1, 0, 3, 0, F822)  # 3.0 not in [1, 2)
    with pytest.raises(ValueError):
        encode(1, 0, 1, 1, F822)  # 0.5 not in [1, 2)
    with pytest.raises(ValueError):
        encode(2, 0, 1, 0, F822)


def test_encode_rounding_carry_bumps_scale():
    # 1.9375 rounds up to 2.0 at three fraction bits.
    assert encode(1, 0, 31, 4, F822).bits == 0x48  # 2.0


def test_exact_mul_short_circuits_nar_then_zero():
    def unreachable(*args):
        raise AssertionError("a special operand reached the decoder or encoder")

    nar, zero, one = nar_word(F822), zero_word(F822), encode(1, 0, 1, 0, F822)
    for a, b in [(nar, zero), (zero, nar), (nar, one), (one, nar), (nar, nar)]:
        assert exact_mul(a, b, unreachable, unreachable) == nar
    for a, b in [(zero, one), (one, zero), (zero, zero)]:
        assert exact_mul(a, b, unreachable, unreachable) == zero


# --- binary32 bridge --------------------------------------------------------


def test_from_binary32_examples():
    assert from_binary32(float_to_bits32(1.0), F3262).bits == 0x40000000
    assert from_binary32(0x00800000, F3262).bits == 0x01000000  # 2**-126
    assert from_binary32(0x00000001, F3262).bits == 0x00000000  # subnormal flushes


def test_from_binary32_specials():
    assert from_binary32(float_to_bits32(0.0), F3262).is_zero
    assert from_binary32(float_to_bits32(-0.0), F3262).is_zero
    assert from_binary32(float_to_bits32(math.inf), F3262).is_nar
    assert from_binary32(float_to_bits32(-math.inf), F3262).is_nar
    assert from_binary32(0x7FC00000, F3262).is_nar  # quiet NaN
    assert from_binary32(0x7F800001, F3262).is_nar  # signaling NaN


def test_float_to_bits32_rounds_like_a_cast():
    assert float_to_bits32(1e39) == 0x7F800000
    assert float_to_bits32(-1e39) == 0xFF800000
    assert float_to_bits32(3.4028235e38) == 0x7F7FFFFF
    tie = math.ldexp(2.0 - 2.0**-24, 127)  # halfway to 2**128: rounds to even, infinity
    with np.errstate(over="ignore"):
        for x in (tie, math.nextafter(tie, 0.0), -tie, 1e300, 1e-50):
            assert float_to_bits32(x) == int(np.float32(x).view(np.uint32)), x


def test_to_binary64_examples():
    assert to_binary64(PositWord(0x4D, F822)) == 3.25
    assert to_binary64(zero_word(F822)) == 0.0
    assert to_binary64(PositWord(0x7F, F822)) == 240.0
    assert math.isnan(to_binary64(nar_word(F822)))
    # The value decides, not the format: a wide fraction, a scale past 1022
    # and binary64 subnormals all convert when the value is exact.
    f1602 = FixedPositFormat(16, 10, 2)
    assert to_binary64(encode(1, 0, 1, 0, FixedPositFormat(60, 2, 2))) == 1.0
    assert to_binary64(encode(1, 1023, 1, 0, f1602)) == 2.0**1023
    assert to_binary64(encode(-1, -1030, 1, 0, f1602)) == -(2.0**-1030)
    assert to_binary64(encode(1, -1071, 0b1001, 3, f1602)) == 9 * 2.0**-1074


def test_to_binary64_precondition():
    fmt = FixedPositFormat(64, 10, 1)  # scale range reaches -1024
    f1602 = FixedPositFormat(16, 10, 2)
    for w in (
        encode(1, -1024, 1, 0, fmt),  # nudged off the zero pattern: (1 + 2**-52) * 2**-1024
        encode(1, 1024, 1, 0, f1602),  # beyond the largest binary64
        encode(1, -1072, 0b1001, 3, f1602),  # lowest bit 2**-1075, below the subnormal grid
        PositWord((1 << 59) - 1, FixedPositFormat(60, 2, 2)),  # maxpos: 56 significant bits
    ):
        with pytest.raises(ValueError, match="does not fit exactly in binary64"):
            to_binary64(w)


def test_to_binary32_examples():
    w = from_binary32(float_to_bits32(1.0), F3262)
    assert to_binary32(w) == float_to_bits32(1.0)
    w = encode(1, -128, 1, 0, F3262)
    assert bits32_to_float(to_binary32(w)) == 2.0**-128  # subnormal output
    assert to_binary32(nar_word(F3262)) == 0x7FC00000


def test_to_binary32_subnormal_and_underflow_outputs():
    w = encode(1, -128, 1, 0, F3262)
    assert bits32_to_float(to_binary32(w)) == 2.0**-128  # subnormal, not zero
    wide = FixedPositFormat(16, 8, 1)  # scale range [-256, 255]
    w = encode(1, -200, 1, 0, wide)
    assert to_binary32(w) == 0  # below half the smallest subnormal
    w = encode(1, 200, 1, 0, wide)
    assert to_binary32(w) == 0x7F800000  # overflows to infinity


def test_roundtrip_through_binary32_is_identity_at_23_fraction_bits():
    # f=23 formats with full scale coverage convert normal binary32 exactly.
    rng = np.random.default_rng(99)
    bits = ((rng.integers(0, 2, 4000) << 31)
            | (rng.integers(1, 255, 4000) << 23)
            | rng.integers(0, 1 << 23, 4000))
    for fmt in (F3262, FixedPositFormat(32, 7, 1)):
        for pattern in bits:
            assert to_binary32(from_binary32(int(pattern), fmt)) == int(pattern)


# --- exhaustive word-level properties ----------------------------------------


@pytest.mark.parametrize("fmt", [f for f in all_fixed_formats(10) if f.rs <= 2])
def test_exhaustive_roundtrip_and_order_rs_le2(fmt):
    words = signed_word_order(fmt)
    check_roundtrip(fmt, words)
    check_monotone(fmt, words)
    check_negation_symmetry(fmt, words)


@pytest.mark.parametrize(
    "fmt", [FixedPositFormat(8, 1, 3), FixedPositFormat(10, 2, 4), FixedPositFormat(9, 0, 5)]
)
def test_reachable_words_bijective_rs_ge3(fmt):
    words = canonical_words(fmt)
    # one pattern per (sign, scale, fraction) plus zero, minus the one
    # (min_scale, fraction 0) combination that nudges off the zero pattern
    expected = 2 * ((2 * fmt.rs) * (1 << fmt.es) * (1 << fmt.fraction_bits) - 1) + 1
    assert len(words) == expected
    check_roundtrip(fmt, words)
    check_monotone(fmt, words)
    check_negation_symmetry(fmt, signed_word_order(fmt))


RS_GE3_FORMATS = [fmt for fmt in all_fixed_formats(10) if fmt.rs >= 3]  # 56 formats


def staircase_fields(rs: int) -> set[int]:
    """The 2*rs regime fields the encoder writes: a run padded with complement bits."""
    ones_first = {((1 << run) - 1) << (rs - run) for run in range(1, rs + 1)}
    zeros_first = {(1 << (rs - run)) - 1 for run in range(1, rs + 1)}
    return ones_first | zeros_first


@pytest.mark.parametrize("fmt", RS_GE3_FORMATS)
def test_rs_ge3_aliases_decode_to_their_staircase_form(fmt):
    # Regime fields wider than 2 bits are redundant: a word round-trips
    # exactly when its regime field is a staircase, and any other field
    # decodes to the value of a word that round-trips.
    n, es, rs, f = fmt.n, fmt.es, fmt.rs, fmt.fraction_bits
    staircase = staircase_fields(rs)
    assert len(staircase) == 2 * rs
    canonical = set()
    aliased = []
    for bits in range(1 << n):
        d = decode(PositWord(bits, fmt))
        if d.is_zero or d.is_nar:
            continue
        magnitude = (-bits) & ((1 << n) - 1) if d.sign < 0 else bits
        back = encode(d.sign, d.scale, d.significand, d.fraction_bits, fmt)
        assert (back.bits == bits) == ((magnitude >> (es + f)) in staircase), hex(bits)
        if back.bits == bits:
            canonical.add(bits)
        else:
            aliased.append((back.bits, d))
    for bits, d in aliased:
        assert bits in canonical and decode(PositWord(bits, fmt)) == d
    # With the zero word, a share 2rs/2**rs of the 2**(n-1) magnitudes.
    assert len(canonical) // 2 + 1 == (2 * rs) << (es + f)
    assert Fraction(len(canonical) // 2 + 1, 1 << (n - 1)) == Fraction(2 * rs, 1 << rs)


@pytest.mark.xfail(
    strict=True,
    reason="rs >= 3 regime fields alias non-staircase patterns onto staircase "
    "values (2*rs of 2**rs fields are reachable), so a round trip over all "
    "raw patterns is impossible by counting",
)
def test_roundtrip_every_raw_pattern_rs_ge3():
    fmt = FixedPositFormat(8, 1, 3)
    check_roundtrip(fmt, signed_word_order(fmt))


# --- randomized properties ----------------------------------------------------


@given(bits=st.integers(0, (1 << 32) - 1))
@settings(max_examples=300)
def test_roundtrip_random_words_32bit(bits):
    d = decode(PositWord(bits, F3262))
    if d.is_zero or d.is_nar:
        return
    assert encode(d.sign, d.scale, d.significand, d.fraction_bits, F3262).bits == bits


@given(
    sign=st.sampled_from([1, -1]),
    scale=st.integers(-200, 200),
    frac=st.integers(0, (1 << 30) - 1),
)
@settings(max_examples=300)
def test_encode_clamps_into_range(sign, scale, frac):
    w = encode(sign, scale, (1 << 30) | frac, 30, F822)
    d = decode(w)
    assert not d.is_zero and not d.is_nar
    assert -8 <= d.scale <= 7
    assert d.sign == sign


def test_conversion_error_half_ulp_bound_sampled():
    rng = np.random.default_rng(5)
    bits = ((rng.integers(1, 255, 50_000) << 23) | rng.integers(0, 1 << 23, 50_000))
    for fmt in (FixedPositFormat(32, 3, 16), FixedPositFormat(18, 6, 2)):
        f = fmt.fraction_bits
        bound = 2.0 ** -(f + 1) / (1 - 2.0 ** -(f + 1))
        ref = bits.astype(np.uint32).view(np.float32).astype(np.float64)
        back = batch.to_binary64_batch(batch.from_binary32_batch(bits, fmt), fmt)
        rel = np.abs(ref - back) / np.abs(ref)
        assert float(rel.max()) <= bound


# --- vectorized mirror --------------------------------------------------------


def test_batch_matches_scalar_exhaustively_small():
    # Every format with n <= 9 reaches regime aliases for rs >= 3; (11,7,2) spans
    # scales [-256, 255]: binary32 subnormals, underflow and overflow.
    for fmt in all_fixed_formats(9) + [FixedPositFormat(10, 3, 2), FixedPositFormat(11, 7, 2)]:
        patterns = np.arange(1 << fmt.n)
        words = [PositWord(int(b), fmt) for b in patterns]
        scalar64 = np.array([to_binary64(w) for w in words])
        batch64 = batch.to_binary64_batch(patterns, fmt)
        assert np.array_equal(np.isnan(scalar64), np.isnan(batch64))
        mask = ~np.isnan(scalar64)
        assert np.array_equal(scalar64[mask], batch64[mask])
        scalar32 = np.array([to_binary32(w) for w in words])
        assert np.array_equal(scalar32, batch.to_binary32_batch(patterns, fmt))


def test_batch_to_binary32_matches_scalar_beyond_binary64():
    # (14,10,2) spans scales [-2048, 2047], so the binary64 decode gives +-inf and
    # 0 for its extreme words, and the binary32 cast must still round them right.
    fmt = FixedPositFormat(14, 10, 2)
    patterns = np.arange(1 << fmt.n)
    words = [PositWord(int(b), fmt) for b in patterns]
    expected = [to_binary32(w) for w in words]
    assert np.array_equal(batch.to_binary32_batch(patterns, fmt), expected)
    expected64 = []
    for w in words:
        try:
            expected64.append(to_binary64(w))
        except ValueError:  # beyond binary64: the exact value, rounded, or +-inf
            d = decode(w)
            exact = d.sign * Fraction(d.significand) * Fraction(2) ** (d.scale - d.fraction_bits)
            try:
                expected64.append(float(exact))
            except OverflowError:
                expected64.append(math.copysign(math.inf, d.sign))
    got64 = batch.to_binary64_batch(patterns, fmt)
    assert np.array_equal(got64, expected64, equal_nan=True)
    assert np.array_equal(np.signbit(got64), np.signbit(expected64))


def rounding_fractions(f: int, drop: int) -> list[int]:
    """``f``-bit fractions that round at ``drop`` dropped bits.

    A carry (all ones), ties with an even and an odd kept bit, and a value
    just past a tie.
    """
    tie = 1 << (drop - 1)
    return [(1 << f) - 1, tie, (tie | (1 << drop)) & ((1 << f) - 1), tie + 1]


@pytest.mark.parametrize(
    "fmt",
    [FixedPositFormat(32, 0, 1), FixedPositFormat(32, 1, 1), FixedPositFormat(31, 0, 1),
     FixedPositFormat(32, 2, 3), FixedPositFormat(32, 4, 2)],
    ids=str,
)
def test_to_binary32_rounds_like_a_cast_past_23_fraction_bits(fmt):
    # These words are exact in binary64, so its cast to binary32 rounds once.
    n, f = fmt.n, fmt.fraction_bits
    mask = (1 << n) - 1
    mags = [
        (head << f) | frac
        for head in range(1 << (n - 1 - f))  # every raw regime/exponent field
        for frac in rounding_fractions(f, f - 23)
    ]
    rng = np.random.default_rng(23)
    patterns = np.array(
        [*rng.integers(0, 1 << n, 20_000), *mags, *((-m) & mask for m in mags)], np.int64
    )
    words = [PositWord(int(b), fmt) for b in patterns]
    want = np.array([to_binary64(w) for w in words]).astype(np.float32).view(np.uint32)
    want[patterns == 1 << (n - 1)] = 0x7FC00000
    assert [to_binary32(w) for w in words] == want.tolist()
    assert np.array_equal(batch.to_binary32_batch(patterns, fmt), want)


def test_to_binary32_rounds_subnormals_carries_and_overflow_like_a_cast():
    fmt = FixedPositFormat(40, 7, 2)  # f = 30, scales [-256, 255]: too wide for the batch path
    f = fmt.fraction_bits
    words = []
    for scale in [*range(-151, -123), *range(125, 130)]:
        drop = f - 23 + max(-126 - scale, 0)  # below 2**-126 the grid is 2**-149
        for frac in [0, 1, *(rounding_fractions(f, drop) if drop <= f else [])]:
            words += [encode(sign, scale, (1 << f) | frac, f, fmt) for sign in (1, -1)]
    with np.errstate(over="ignore"):
        want = np.array([to_binary64(w) for w in words]).astype(np.float32).view(np.uint32)
    got = [to_binary32(w) for w in words]
    assert got == want.tolist()
    assert any(0 < g & 0x7FFFFFFF < 0x00800000 for g in got)  # subnormal outputs
    assert to_binary32(encode(1, -127, (2 << f) - 1, f, fmt)) == 0x00800000  # carry onto 2**-126
    assert to_binary32(encode(-1, 127, (2 << f) - 1, f, fmt)) == 0xFF800000  # rounds up to 2**128


def test_batch_from_binary32_matches_scalar_sampled():
    rng = np.random.default_rng(11)
    pats = np.concatenate(
        [
            rng.integers(0, 1 << 32, 30_000, dtype=np.uint64).astype(np.int64),
            np.array(
                [0, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 1, 0x00800000, 0x7F7FFFFF],
                dtype=np.int64,
            ),
        ]
    )
    for fmt in (F3262, FixedPositFormat(18, 6, 2), FixedPositFormat(32, 3, 16)):
        got = batch.from_binary32_batch(pats, fmt)
        expected = np.array([from_binary32(int(p), fmt).bits for p in pats])
        assert np.array_equal(got, expected)
