import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedposit import (
    FixedPositFormat,
    NumberClass,
    PositWord,
    decode,
    encode,
    float_to_bits32,
    bits32_to_float,
    from_binary32,
    nar_word,
    to_binary32,
    to_binary64,
    zero_word,
)
from fixedposit import batch

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


def test_decode_negative_is_twos_complement():
    assert to_binary64(PositWord(0xC0, F822)) == -1.0
    assert from_binary32(float_to_bits32(1.0), F822).bits == 0x40


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


def test_to_binary64_examples():
    assert to_binary64(PositWord(0x4D, F822)) == 3.25
    assert to_binary64(zero_word(F822)) == 0.0
    assert to_binary64(PositWord(0x7F, F822)) == 240.0
    assert math.isnan(to_binary64(nar_word(F822)))


def test_to_binary64_precondition():
    fmt = FixedPositFormat(64, 10, 1)  # scale range reaches -1024
    w = encode(1, -1024, 1, 0, fmt)
    with pytest.raises(ValueError):
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


@pytest.mark.parametrize("fmt", [FixedPositFormat(8, 1, 3), FixedPositFormat(9, 0, 5)])
def test_rs_ge3_aliases_decode_to_their_staircase_form(fmt):
    # Regime fields wider than 2 bits are redundant: a non-staircase field
    # decodes to the same value as its staircase (complement-filled) form.
    reachable = set(canonical_words(fmt))
    aliased = 0
    for bits in range(1 << fmt.n):
        w = PositWord(bits, fmt)
        d = decode(w)
        if d.is_zero or d.is_nar:
            continue
        canonical = encode(d.sign, d.scale, d.significand, d.fraction_bits, fmt)
        if bits in reachable:
            assert canonical.bits == bits
        else:
            aliased += 1
            assert canonical.bits != bits
            assert decode(canonical) == d
    assert aliased == (1 << fmt.n) - len(reachable) - 1  # everything else, minus NaR


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
    # (11,7,2) spans scales [-256, 255]: binary32 subnormals, underflow and overflow.
    for fmt in (F822, FixedPositFormat(10, 3, 2), FixedPositFormat(11, 7, 2)):
        patterns = np.arange(1 << fmt.n)
        words = [PositWord(int(b), fmt) for b in patterns]
        scalar64 = np.array([to_binary64(w) for w in words])
        batch64 = batch.to_binary64_batch(patterns, fmt)
        assert np.array_equal(np.isnan(scalar64), np.isnan(batch64))
        mask = ~np.isnan(scalar64)
        assert np.array_equal(scalar64[mask], batch64[mask])
        scalar32 = np.array([to_binary32(w) for w in words])
        assert np.array_equal(scalar32, batch.to_binary32_batch(patterns, fmt))


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


def test_batch_rejects_wide_formats():
    with pytest.raises(ValueError):
        batch.from_binary32_batch(np.zeros(4, np.int64), FixedPositFormat(40, 6, 2))
