import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedposit import (
    DatapathTrace,
    FixedPositFormat,
    PositFormat,
    PositWord,
    bits32_to_float,
    decode,
    encode,
    float_to_bits32,
    from_binary32,
    mul_binary32_bits,
    mul_datapath,
    mul_datapath_traced,
    mul_reference,
    nar_word,
    to_binary64,
    zero_word,
)
from fixedposit import batch, codec, formats, multiplier
from fixedposit.codec import round_to_nearest_even

from support import all_fixed_formats

F822 = FixedPositFormat(8, 2, 2)
F3262 = FixedPositFormat(32, 6, 2)


def word_of(value: float, fmt=F822) -> PositWord:
    return from_binary32(float_to_bits32(value), fmt)


# --- worked examples ----------------------------------------------------------


def test_mul_small_integers():
    assert word_of(2.0).bits == 0x48
    assert word_of(3.0).bits == 0x4C
    assert mul_datapath(word_of(2.0), word_of(3.0)).bits == 0x54
    assert to_binary64(PositWord(0x54, F822)) == 6.0


def test_mul_saturates_at_the_top():
    top = PositWord(0x7F, F822)  # 240.0
    assert mul_datapath(top, top).bits == 0x7F


def test_mul_nar_propagates():
    assert mul_datapath(nar_word(F822), word_of(2.0)).is_nar
    assert mul_datapath(word_of(2.0), nar_word(F822)).is_nar
    assert mul_datapath(nar_word(F822), zero_word(F822)).is_nar


def test_mul_zero_absorbs():
    assert mul_datapath(zero_word(F822), word_of(240.0)).is_zero
    assert mul_datapath(word_of(2.0), zero_word(F822)).is_zero


def test_mul_negative_operand():
    got = mul_datapath(word_of(-1.0), PositWord(0x4D, F822))
    assert got.bits == 0xB3  # two's complement of 0x4D
    assert to_binary64(got) == -3.25


def test_mul_format_mismatch_rejected():
    with pytest.raises(ValueError):
        mul_datapath(word_of(1.0, F822), word_of(1.0, FixedPositFormat(10, 3, 2)))


@pytest.mark.parametrize("mul", [mul_datapath, mul_datapath_traced, mul_reference])
def test_format_check(mul):
    twin = FixedPositFormat(8, 2, 2)
    assert twin == F822 and twin is not F822
    got = mul(PositWord(0x48, F822), PositWord(0x4C, twin))
    assert (got[0] if isinstance(got, tuple) else got).bits == 0x54  # 2 * 3 = 6
    with pytest.raises(ValueError, match="operand formats differ"):
        mul(PositWord(0x48, F822), PositWord(0x48, FixedPositFormat(8, 3, 1)))
    with pytest.raises(ValueError, match="operand formats differ"):
        mul(PositWord(0x48, F822), PositWord(0x48, PositFormat(8, 2)))
    with pytest.raises(TypeError, match="expected fixed-posit operands"):
        mul(PositWord(0x48, PositFormat(8, 2)), PositWord(0x4C, PositFormat(8, 2)))


# --- datapath trace -----------------------------------------------------------


def test_trace_worked_example():
    _, trace = mul_datapath_traced(word_of(2.0), word_of(3.0))
    assert trace.result_sign == 0
    assert (trace.k_a, trace.k_b) == (0, 0)
    assert (trace.shifted_k_a, trace.shifted_k_b) == (0, 0)
    assert (trace.exp_a, trace.exp_b) == (1, 1)
    assert trace.carry == 0
    assert trace.raw_scale == 2
    assert trace.fraction_field == 0b100  # 6.0 = 2**2 * 1.5


def test_trace_normalization_carry():
    # 1.5 * 1.5 = 2.25 carries out of the fraction multiplier
    word, trace = mul_datapath_traced(word_of(1.5), word_of(1.5))
    assert trace.carry == 1
    assert trace.raw_scale == 1
    assert trace.fraction_field == 0b001
    assert to_binary64(word) == 2.25


def test_trace_rounding_carry_bumps_scale():
    # 1.125 * 1.75 = 1.96875 rounds up to 2.0 at three fraction bits
    word, trace = mul_datapath_traced(PositWord(0x41, F822), PositWord(0x46, F822))
    assert word.bits == 0x48
    assert to_binary64(word) == 2.0
    assert trace.carry == 0
    assert trace.raw_scale == 0  # the rounding carry lands after the adder


def test_trace_special_operands_have_no_trace():
    word, trace = mul_datapath_traced(zero_word(F822), word_of(2.0))
    assert word.is_zero and trace is None


@given(a=st.integers(0, 255), b=st.integers(0, 255))
@settings(max_examples=300)
def test_trace_adder_invariant(a, b):
    word_a, word_b = PositWord(a, F822), PositWord(b, F822)
    _, trace = mul_datapath_traced(word_a, word_b)
    if trace is None:
        return
    assert trace.raw_scale == (
        trace.shifted_k_a + trace.exp_a + trace.shifted_k_b + trace.exp_b + trace.carry
    )
    assert trace.shifted_k_a == trace.k_a << F822.es
    assert trace.shifted_k_b == trace.k_b << F822.es


SMALL_FORMATS = all_fixed_formats(7)


@pytest.mark.parametrize("fmt", SMALL_FORMATS, ids=str)
def test_traced_and_untraced_datapath_agree_exhaustive(fmt):
    words = [PositWord(bits, fmt) for bits in range(1 << fmt.n)]
    for wa in words:
        for wb in words:
            assert mul_datapath(wa, wb) == mul_datapath_traced(wa, wb)[0], (wa, wb)


def expected_trace(wa: PositWord, wb: PositWord) -> DatapathTrace | None:
    """The block values of one multiply, from ``decode`` and exact arithmetic alone."""
    da, db = decode(wa), decode(wb)
    if da.is_nar or db.is_nar or da.is_zero or db.is_zero:
        return None
    es, f = wa.fmt.es, wa.fmt.fraction_bits
    product = da.significand * db.significand
    carry = 1 if product >= 2 << (2 * f) else 0
    k_a, k_b = da.scale >> es, db.scale >> es
    return DatapathTrace(
        result_sign=1 if da.sign != db.sign else 0,
        k_a=k_a,
        k_b=k_b,
        shifted_k_a=k_a << es,
        shifted_k_b=k_b << es,
        exp_a=da.scale - (k_a << es),
        exp_b=db.scale - (k_b << es),
        carry=carry,
        raw_scale=da.scale + db.scale + carry,
        # A rounding carry to 2.0 leaves a zero fraction field either way.
        fraction_field=round_to_nearest_even(product, f + carry) & ((1 << f) - 1),
    )


@pytest.mark.parametrize("fmt", SMALL_FORMATS, ids=str)
def test_trace_fields_match_decoded_operands_exhaustive(fmt):
    words = [PositWord(bits, fmt) for bits in range(1 << fmt.n)]
    for wa in words:
        for wb in words:
            assert mul_datapath_traced(wa, wb)[1] == expected_trace(wa, wb), (wa, wb)


# --- oracle equivalence ---------------------------------------------------------


@pytest.mark.parametrize("triple", [(10, 3, 2), (12, 4, 2)])
def test_datapath_equals_reference_exhaustive_wider(triple):
    # All pairs, with the reference side memoized over its (sign, scale,
    # exact product) inputs so the full grid stays affordable.
    fmt = FixedPositFormat(*triple)
    n, f = fmt.n, fmt.fraction_bits
    count = 1 << n
    signs = np.ones(count, np.int64)
    scales = np.zeros(count, np.int64)
    sigs = np.full(count, 1 << f, np.int64)  # placeholder 1.0 for special words
    special = np.zeros(count, np.int64)  # 1 zero, 2 NaR
    for bits in range(count):
        d = decode(PositWord(bits, fmt))
        if d.is_zero:
            special[bits] = 1
        elif d.is_nar:
            special[bits] = 2
        else:
            signs[bits], scales[bits], sigs[bits] = d.sign, d.scale, d.significand

    memo: dict[int, int] = {}

    def reference_bits(key: int) -> int:
        cached = memo.get(key)
        if cached is None:
            sgn = 1 if key >> 62 else -1
            sc = ((key >> 40) & ((1 << 22) - 1)) - 4096
            prod = key & ((1 << 40) - 1)
            den = 2 * f + (1 if prod >= (2 << (2 * f)) else 0)
            cached = memo[key] = encode(sgn, sc + (den - 2 * f), prod, den, fmt).bits
        return cached

    probe_rng = np.random.default_rng(3)
    all_b = np.arange(count, dtype=np.int64)
    for a_start in range(0, count, 512):
        a_block = np.arange(a_start, min(a_start + 512, count), dtype=np.int64)
        aa = np.repeat(a_block, count)
        bb = np.tile(all_b, a_block.size)
        got = batch.mul_batch(aa, bb, fmt)
        product = sigs[aa] * sigs[bb]
        scale = scales[aa] + scales[bb]
        sign_bit = (signs[aa] * signs[bb] + 1) >> 1
        key = (sign_bit << 62) | ((scale + 4096) << 40) | product
        uniq, inverse = np.unique(key, return_inverse=True)
        table = np.fromiter((reference_bits(int(k)) for k in uniq), np.int64, uniq.size)
        expected = table[inverse]
        expected = np.where((special[aa] == 1) | (special[bb] == 1), 0, expected)
        expected = np.where(
            (special[aa] == 2) | (special[bb] == 2), 1 << (n - 1), expected
        )
        assert np.array_equal(got, expected)
        for i in probe_rng.integers(0, aa.size, 400):
            scalar = mul_datapath(PositWord(int(aa[i]), fmt), PositWord(int(bb[i]), fmt))
            assert got[i] == scalar.bits


# --- algebraic properties -------------------------------------------------------


def test_commutative_exhaustive_8bit():
    grid = np.arange(256)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    ab = batch.mul_batch(aa.ravel(), bb.ravel(), F822)
    ba = batch.mul_batch(bb.ravel(), aa.ravel(), F822)
    assert np.array_equal(ab, ba)


@given(a=st.integers(0, (1 << 32) - 1), b=st.integers(0, (1 << 32) - 1))
@settings(max_examples=200)
def test_commutative_sampled_32bit(a, b):
    wa, wb = PositWord(a, F3262), PositWord(b, F3262)
    assert mul_datapath(wa, wb).bits == mul_datapath(wb, wa).bits


def test_multiplicative_identity_exhaustive():
    one = word_of(1.0)
    for bits in range(256):
        w = PositWord(bits, F822)
        if w.is_zero or w.is_nar:
            continue
        assert mul_datapath(w, one).bits == bits


def test_sign_rule_exhaustive_8bit():
    for a in range(256):
        for b in range(0, 256, 7):
            wa, wb = PositWord(a, F822), PositWord(b, F822)
            da, db = decode(wa), decode(wb)
            if da.is_zero or da.is_nar or db.is_zero or db.is_nar:
                continue
            dc = decode(mul_datapath(wa, wb))
            assert dc.sign == da.sign * db.sign


# --- binary32 substitution -------------------------------------------------------


def mul_floats(fmt: FixedPositFormat, a: float, b: float) -> float:
    return bits32_to_float(mul_binary32_bits(fmt, float_to_bits32(a), float_to_bits32(b)))


def test_mul_binary32_exact_product():
    assert mul_floats(F3262, 1.5, 2.5) == 3.75


def test_mul_binary32_halfway_operand_rounds_to_even():
    # The operand rounds to 9 fraction bits.
    assert mul_floats(FixedPositFormat(18, 6, 2), 1.0, 1.0 + 2.0**-10) == 1.0


def test_mul_binary32_matches_native_on_normal_products():
    rng = np.random.default_rng(17)
    count = 100_000
    e_a = rng.integers(-60, 61, count)
    e_b = rng.integers(-60, 61, count)
    a_bits = (rng.integers(0, 2, count) << 31) | ((e_a + 127) << 23) | rng.integers(0, 1 << 23, count)
    b_bits = (rng.integers(0, 2, count) << 31) | ((e_b + 127) << 23) | rng.integers(0, 1 << 23, count)
    native = (
        a_bits.astype(np.uint32).view(np.float32) * b_bits.astype(np.uint32).view(np.float32)
    ).view(np.uint32).astype(np.int64)
    assert np.array_equal(batch.mul_binary32_batch(F3262, a_bits, b_bits), native)
    for i in np.random.default_rng(1).integers(0, count, 500):
        assert mul_binary32_bits(F3262, int(a_bits[i]), int(b_bits[i])) == int(native[i])


def test_mean_error_is_non_increasing_in_width():
    rng = np.random.default_rng(67)
    count = 100_000
    e_a = rng.integers(-20, 21, count)
    e_b = rng.integers(-20, 21, count)
    a_bits = ((e_a + 127) << 23) | rng.integers(0, 1 << 23, count)
    b_bits = ((e_b + 127) << 23) | rng.integers(0, 1 << 23, count)
    native = (
        a_bits.astype(np.uint32).view(np.float32) * b_bits.astype(np.uint32).view(np.float32)
    ).astype(np.float64)
    means = []
    for width in (18, 20, 22, 24, 26, 28, 30, 32):
        sub_bits = batch.mul_binary32_batch(FixedPositFormat(width, 6, 2), a_bits, b_bits)
        sub = sub_bits.astype(np.uint32).view(np.float32).astype(np.float64)
        means.append(float(np.mean(np.abs(native - sub) / np.abs(native))))
    assert all(means[i] >= means[i + 1] for i in range(len(means) - 1))
    assert means[-1] == 0.0


def test_reference_multiplier_saturation_and_sign():
    fmt = FixedPositFormat(10, 3, 2)
    top = encode(1, fmt.max_scale, (2 << fmt.fraction_bits) - 1, fmt.fraction_bits, fmt)
    assert mul_reference(top, top).bits == top.bits
    neg = encode(-1, fmt.max_scale, 1, 0, fmt)
    assert decode(mul_reference(neg, top)).sign == -1


# --- the two multipliers stay independent -------------------------------------


def forbid(monkeypatch, owner, name):
    """Make every binding of ``owner.name`` in a fixedposit module raise."""
    original = getattr(owner, name)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "fixedposit" or mod_name.startswith("fixedposit."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, forbidden)


INDEPENDENT_FORMATS = [F822, FixedPositFormat(7, 1, 4)]


def every_pair(fmt):
    words = [PositWord(bits, fmt) for bits in range(1 << fmt.n)]
    return [(a, b) for a in words for b in words]


@pytest.mark.parametrize("fmt", INDEPENDENT_FORMATS, ids=str)
def test_datapath_calls_no_codec_function(monkeypatch, fmt):
    pairs = every_pair(fmt)
    expected = [mul_datapath(a, b).bits for a, b in pairs]
    for owner, name in [(codec, "decode"), (codec, "encode"), (codec, "_regime_k"),
                        (codec, "_regime_field"), (formats, "scale_range")]:
        forbid(monkeypatch, owner, name)
    assert [mul_datapath(a, b).bits for a, b in pairs] == expected


@pytest.mark.parametrize("fmt", INDEPENDENT_FORMATS, ids=str)
def test_reference_does_not_call_the_datapath(monkeypatch, fmt):
    pairs = every_pair(fmt)
    expected = [mul_reference(a, b).bits for a, b in pairs]
    forbid(monkeypatch, multiplier, "_datapath")
    assert [mul_reference(a, b).bits for a, b in pairs] == expected
