from collections import defaultdict
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixedposit import (
    FixedPositFormat,
    PositFormat,
    enumerate_ieee_equivalent,
    parse_fixed_posit,
)
from fixedposit import batch
from fixedposit.formats import SWEEP_WIDTHS, ScaleRange, paper_formats, scale_range

from support import all_fixed_formats

# The 38 configurations whose scale range matches binary32: widths 22..32
# carry es 3..7, widths 18 and 20 lose the es=3 row to the fraction-bit rule.
EXPECTED_GRID = sorted(
    [(n, es, 128 >> es) for n in (22, 24, 26, 28, 30, 32) for es in (3, 4, 5, 6, 7)]
    + [(n, es, 128 >> es) for n in (18, 20) for es in (4, 5, 6, 7)]
)


def test_validate_examples():
    assert FixedPositFormat(32, 6, 2).fraction_bits == 23
    assert FixedPositFormat(32, 3, 16).fraction_bits == 12
    with pytest.raises(ValueError):
        FixedPositFormat(18, 3, 16)  # would leave -2 fraction bits


def test_validate_rejects_degenerate_fields():
    for triple, message in [
        ((3, 0, 1), "total width must be at least 4 bits, got 3"),
        ((8, -1, 2), "exponent field width cannot be negative, got -1"),
        ((8, 2, 0), "regime field needs at least 1 bit, got 0"),
        ((8, 4, 3), "(8,4,3) leaves 0 fraction bits"),
        ((18, 3, 16), "(18,3,16) leaves -2 fraction bits"),
    ]:
        with pytest.raises(ValueError) as info:
            FixedPositFormat(*triple)
        assert str(info.value) == message


def test_every_format_up_to_40_bits_carries_its_window_and_stays_a_value():
    formats = all_fixed_formats(40)
    for fmt in formats:
        n, es, rs = fmt.n, fmt.es, fmt.rs
        assert (fmt.fraction_bits, fmt.min_scale, fmt.max_scale) == (
            n - 1 - rs - es,
            -rs * 2**es,
            rs * 2**es - 1,
        )
        # The derived fields take no part in a format's identity or spelling.
        assert repr(fmt) == f"FixedPositFormat(n={n}, es={es}, rs={rs})"
        assert str(fmt) == f"({n},{es},{rs})"
        assert fmt == FixedPositFormat(n, es, rs) and hash(fmt) == hash((n, es, rs))
        for name in ("n", "fraction_bits", "min_scale", "max_scale"):
            with pytest.raises(FrozenInstanceError):
                setattr(fmt, name, 1)
    assert FixedPositFormat.__match_args__ == ("n", "es", "rs")
    assert len(set(formats)) == len(formats)
    # Every other triple of these widths leaves no fraction bit.
    for n in range(4, 41):
        for es in range(n):
            for rs in range(max(1, n - 1 - es), n):
                with pytest.raises(ValueError, match=r"^\(.*\) leaves -?\d+ fraction bits$"):
                    FixedPositFormat(n, es, rs)


def test_scale_range_examples():
    assert scale_range(FixedPositFormat(32, 6, 2)) == ScaleRange(-128, 127)
    assert scale_range(FixedPositFormat(32, 3, 16)) == ScaleRange(-128, 127)
    assert scale_range(FixedPositFormat(16, 2, 2)) == ScaleRange(-8, 7)


def test_enumerate_width_32():
    got = [(f.n, f.es, f.rs) for f in enumerate_ieee_equivalent(32)]
    assert got == [(32, 3, 16), (32, 4, 8), (32, 5, 4), (32, 6, 2), (32, 7, 1)]


def test_enumerate_width_18_and_20_drop_es3():
    assert [(f.n, f.es, f.rs) for f in enumerate_ieee_equivalent(18)] == [
        (18, 4, 8),
        (18, 5, 4),
        (18, 6, 2),
        (18, 7, 1),
    ]
    assert [(f.n, f.es, f.rs) for f in enumerate_ieee_equivalent(20)] == [
        (20, 4, 8),
        (20, 5, 4),
        (20, 6, 2),
        (20, 7, 1),
    ]


def test_enumerate_small_width_is_empty():
    assert enumerate_ieee_equivalent(5) == []
    with pytest.raises(ValueError):
        enumerate_ieee_equivalent(3)


def test_enumerate_full_grid():
    got = [(f.n, f.es, f.rs) for f in paper_formats()]
    assert got == EXPECTED_GRID  # in width, then es, order
    assert len(got) == 38


def test_enumerated_formats_cover_binary32_scales():
    for fmt in paper_formats():
        assert fmt.min_scale <= -126 and fmt.max_scale >= 127
        assert fmt.rs * (1 << fmt.es) == 128
        assert fmt.es > 0  # 128 is not reachable with es=0 inside these widths


@given(
    n=st.integers(4, 64),
    es=st.integers(0, 10),
    rs=st.integers(1, 20),
)
def test_field_widths_always_sum_to_n(n, es, rs):
    try:
        fmt = FixedPositFormat(n, es, rs)
    except ValueError:
        assert n - 1 - rs - es < 1
        return
    assert fmt.fraction_bits + fmt.es + fmt.rs + 1 == fmt.n
    assert fmt.fraction_bits >= 1


def test_posit_format_invariants():
    assert PositFormat(8, 2).es == 2
    with pytest.raises(ValueError):
        PositFormat(2, 0)
    with pytest.raises(ValueError):
        PositFormat(8, 7)


def test_parse_fixed_posit():
    assert parse_fixed_posit("32,6,2") == FixedPositFormat(32, 6, 2)
    with pytest.raises(ValueError):
        parse_fixed_posit("32,6")
    with pytest.raises(ValueError):
        parse_fixed_posit("a,b,c")


def test_formats_are_value_objects():
    assert FixedPositFormat(8, 2, 2) == FixedPositFormat(8, 2, 2)
    assert len({FixedPositFormat(8, 2, 2), FixedPositFormat(8, 2, 2)}) == 1


# --- format classes -------------------------------------------------------------
#
# A format's arithmetic is its fraction width f over the window of scales
# [-W, W-1], W = rs * 2**es; es and rs only choose how the scale is encoded.


def value_class(fmt: FixedPositFormat) -> tuple[int, int]:
    return fmt.fraction_bits, fmt.rs << fmt.es


def test_formats_of_one_class_decode_to_one_value_set():
    classes = defaultdict(list)
    for fmt in all_fixed_formats(12):
        classes[value_class(fmt)].append(fmt)
    shared = [members for members in classes.values() if len(members) > 1]
    assert (sum(map(len, classes.values())), len(classes)) == (219, 124)
    assert (len(shared), sum(map(len, shared))) == (61, 156)
    for members in shared:
        value_sets = []
        for fmt in members:
            values = batch.to_binary64_batch(np.arange(1 << fmt.n, dtype=np.int64), fmt)
            value_sets.append(np.unique(values[~np.isnan(values)]))  # NaR decodes to NaN
        for fmt, values in zip(members[1:], value_sets[1:]):
            assert np.array_equal(values, value_sets[0]), (members[0], fmt)


def test_paper_grid_is_21_arithmetics_over_one_window():
    grid = paper_formats()
    assert {fmt.rs << fmt.es for fmt in grid} == {128}
    assert len({value_class(fmt) for fmt in grid}) == 21
    for width in SWEEP_WIDTHS:
        f = {fmt.es: fmt.fraction_bits for fmt in enumerate_ieee_equivalent(width)}
        # (N,7,1) is (N,6,2)'s arithmetic; (N,5,4), (N,4,8) and (N,3,16), where
        # they fit, give up fraction bits for the same window.
        lost = {es: f[6] - f[es] for es in f if es != 6}
        assert lost == ({7: 0, 5: 1, 4: 4, 3: 11} if width >= 22 else {7: 0, 5: 1, 4: 4})


@pytest.mark.parametrize("width", SWEEP_WIDTHS)
def test_class_members_multiply_bit_identically(width):
    # Sampled bit patterns span every binary32 exponent, subnormals and
    # specials included; the specials are also crossed with each other.
    rng = np.random.default_rng(width)
    specials = np.array(
        [0x00000000, 0x00000001, 0x007FFFFF, 0x00800000, 0x3F800000, 0x7F7FFFFF,
         0x7F800000, 0x7FC00000, 0x7F800001],
        np.uint32,
    )
    specials = np.concatenate([specials, specials | 0x80000000])
    a = np.concatenate([rng.integers(0, 1 << 32, 200_000, dtype=np.uint32),
                        np.repeat(specials, specials.size)])
    b = np.concatenate([rng.integers(0, 1 << 32, 200_000, dtype=np.uint32),
                        np.tile(specials, specials.size)])
    a, b = a.view(np.float32), b.view(np.float32)
    f62, f71 = FixedPositFormat(width, 6, 2), FixedPositFormat(width, 7, 1)
    assert value_class(f62) == value_class(f71)
    got62 = batch.mul_float32_batch(f62, a, b).view(np.uint32)
    got71 = batch.mul_float32_batch(f71, a, b).view(np.uint32)
    assert np.array_equal(got62, got71), np.flatnonzero(got62 != got71)[:5]
