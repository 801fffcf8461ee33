"""Format descriptors and the binary32-range-equivalent configuration search.

A ``FixedPositFormat`` works out its fraction width and its window of
scales, ``[min_scale, max_scale]``, once when it is built; the codec and the
multiplier read them per word as plain attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# A regime/exponent budget of rs * 2**es = 128 gives the scale range
# [-128, 127], which covers the binary32 normal exponents -126..+127.
BINARY32_SCALE_SPAN = 128

# Bit widths used by the stock enumeration sweep (``--all-paper-widths``).
SWEEP_WIDTHS = (18, 20, 22, 24, 26, 28, 30, 32)


@dataclass(frozen=True, slots=True)
class ScaleRange:
    """Inclusive range of power-of-two scales a format can represent."""

    min_scale: int
    max_scale: int


@dataclass(frozen=True, slots=True)
class FixedPositFormat:
    """A fixed-posit layout: ``n`` total bits, ``es`` exponent bits, ``rs`` regime bits.

    The sign takes one bit and the fraction gets whatever remains, so a
    configuration is usable only when ``n - 1 - rs - es >= 1``.  The scales
    ``k * 2**es + e`` with ``k`` in ``[-rs, rs-1]`` and ``e`` in ``[0, 2**es)``
    make up the window ``[min_scale, max_scale]``.  The three derived fields
    take no part in ``==``, ``hash`` or ``repr``.
    """

    n: int
    es: int
    rs: int
    fraction_bits: int = field(init=False, repr=False, compare=False)
    min_scale: int = field(init=False, repr=False, compare=False)
    max_scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"total width must be at least 4 bits, got {self.n}")
        if self.es < 0:
            raise ValueError(f"exponent field width cannot be negative, got {self.es}")
        if self.rs < 1:
            raise ValueError(f"regime field needs at least 1 bit, got {self.rs}")
        f = self.n - 1 - self.rs - self.es
        if f < 1:
            raise ValueError(f"({self.n},{self.es},{self.rs}) leaves {f} fraction bits")
        span = self.rs << self.es
        object.__setattr__(self, "fraction_bits", f)
        object.__setattr__(self, "min_scale", -span)
        object.__setattr__(self, "max_scale", span - 1)

    def __str__(self) -> str:
        return f"({self.n},{self.es},{self.rs})"


@dataclass(frozen=True, slots=True)
class PositFormat:
    """A standard posit layout: ``n`` total bits, up to ``es`` exponent bits."""

    n: int
    es: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"posit width must be at least 3 bits, got {self.n}")
        if not 0 <= self.es <= self.n - 2:
            raise ValueError(f"exponent width {self.es} does not fit in {self.n} bits")

    def __str__(self) -> str:
        return f"({self.n},{self.es})"


def scale_range(fmt: FixedPositFormat) -> ScaleRange:
    """The window of scales ``fmt`` carries, as a ``ScaleRange``."""
    return ScaleRange(fmt.min_scale, fmt.max_scale)


def enumerate_ieee_equivalent(n: int) -> list[FixedPositFormat]:
    """All (n, es, rs) whose scale range equals [-128, 127], sorted by es.

    The criterion is the exact equality rs * 2**es = 128 rather than mere
    coverage of the binary32 exponents; coverage alone would admit wider
    configurations such as rs * 2**es = 256.
    """
    if n < 4:
        raise ValueError(f"bit width must be at least 4, got {n}")
    found = []
    for es in range(8):  # rs = 128 >> es must stay >= 1
        rs = BINARY32_SCALE_SPAN >> es
        if n - 1 - rs - es >= 1:
            found.append(FixedPositFormat(n, es, rs))
    return found


def paper_formats() -> list[FixedPositFormat]:
    """The paper's grid: every binary32-range format at each of ``SWEEP_WIDTHS``."""
    return [fmt for width in SWEEP_WIDTHS for fmt in enumerate_ieee_equivalent(width)]


def parse_fixed_posit(text: str) -> FixedPositFormat:
    """Parse 'N,es,rs' (as used on the command line) into a format."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected N,es,rs but got {text!r}")
    try:
        n, es, rs = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"expected three integers in {text!r}") from exc
    return FixedPositFormat(n, es, rs)
