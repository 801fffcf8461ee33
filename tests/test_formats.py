import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixedposit import (
    SWEEP_WIDTHS,
    FixedPositFormat,
    PositFormat,
    ScaleRange,
    enumerate_ieee_equivalent,
    parse_fixed_posit,
    scale_range,
)

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
    with pytest.raises(ValueError):
        FixedPositFormat(3, 0, 1)
    with pytest.raises(ValueError):
        FixedPositFormat(8, -1, 2)
    with pytest.raises(ValueError):
        FixedPositFormat(8, 2, 0)
    with pytest.raises(ValueError):
        FixedPositFormat(8, 4, 3)  # zero fraction bits


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
    got = sorted(
        (f.n, f.es, f.rs) for width in SWEEP_WIDTHS for f in enumerate_ieee_equivalent(width)
    )
    assert got == EXPECTED_GRID
    assert len(got) == 38


def test_enumerated_formats_cover_binary32_scales():
    for width in SWEEP_WIDTHS:
        for fmt in enumerate_ieee_equivalent(width):
            rng = scale_range(fmt)
            assert rng.min_scale <= -126 and rng.max_scale >= 127
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
