"""Shared enumeration helpers for the exhaustive codec and multiplier suites."""

from __future__ import annotations

from fixedposit import FixedPositFormat, PositWord, decode, encode


def all_fixed_formats(max_n: int, min_n: int = 4) -> list[FixedPositFormat]:
    """Every valid fixed-posit format with min_n <= n <= max_n."""
    found = []
    for n in range(min_n, max_n + 1):
        for es in range(0, n - 2):
            for rs in range(1, n - 1 - es):
                found.append(FixedPositFormat(n, es, rs))
    return found


def signed_word_order(fmt: FixedPositFormat) -> list[int]:
    """All non-NaR bit patterns ordered by their two's-complement integer value."""
    n = fmt.n
    mask = (1 << n) - 1
    return [s & mask for s in range(-(1 << (n - 1)) + 1, 1 << (n - 1))]


def canonical_words(fmt: FixedPositFormat) -> list[int]:
    """Encoder-reachable patterns, in two's-complement order.

    Regime fields with rs >= 3 are redundant (2*rs staircase patterns out of
    2**rs), so not every raw pattern can come out of the encoder; these are
    the ones that can, plus the zero word.
    """
    f, es = fmt.fraction_bits, fmt.es
    positives = []
    for scale in range(fmt.min_scale, fmt.max_scale + 1):
        for frac in range(1 << f):
            word = encode(1, scale, (1 << f) | frac, f, fmt)
            positives.append(word.bits)
    positives = sorted(set(positives))
    mask = (1 << fmt.n) - 1
    negatives = sorted(((-p) & mask) - (1 << fmt.n) for p in positives)
    return [b & mask for b in negatives] + [0] + positives


def check_roundtrip(fmt: FixedPositFormat, words: list[int]) -> None:
    for bits in words:
        d = decode(PositWord(bits, fmt))
        if d.is_zero or d.is_nar:
            continue
        back = encode(d.sign, d.scale, d.significand, d.fraction_bits, fmt)
        assert back.bits == bits, f"{fmt} {bits:#x} -> {back}"


def check_monotone(fmt: FixedPositFormat, words_in_order: list[int]) -> None:
    previous = None
    for bits in words_in_order:
        d = decode(PositWord(bits, fmt))
        if d.is_nar:
            continue
        value = 0.0 if d.is_zero else float(d.exact_value())
        if previous is not None:
            assert previous < value, f"{fmt} order break at {bits:#x}: {previous} !< {value}"
        previous = value


def check_negation_symmetry(fmt: FixedPositFormat, words: list[int]) -> None:
    mask = (1 << fmt.n) - 1
    for bits in words:
        d = decode(PositWord(bits, fmt))
        if d.is_zero or d.is_nar:
            continue
        mirrored = decode(PositWord((-bits) & mask, fmt))
        assert mirrored.sign == -d.sign
        assert mirrored.scale == d.scale
        assert mirrored.significand == d.significand
