"""Format descriptors and the binary32-range-equivalent configuration search."""

from __future__ import annotations

from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if self.min_scale > self.max_scale:
            raise ValueError(f"empty scale range [{self.min_scale}, {self.max_scale}]")


@dataclass(frozen=True, slots=True)
class FixedPositFormat:
    """A fixed-posit layout: ``n`` total bits, ``es`` exponent bits, ``rs`` regime bits.

    The sign takes one bit and the fraction gets whatever remains, so a
    configuration is usable only when ``n - 1 - rs - es >= 1``.
    """

    n: int
    es: int
    rs: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"total width must be at least 4 bits, got {self.n}")
        if self.es < 0:
            raise ValueError(f"exponent field width cannot be negative, got {self.es}")
        if self.rs < 1:
            raise ValueError(f"regime field needs at least 1 bit, got {self.rs}")
        if self.fraction_bits < 1:
            raise ValueError(
                f"({self.n},{self.es},{self.rs}) leaves {self.fraction_bits} fraction bits"
            )

    @property
    def fraction_bits(self) -> int:
        return self.n - 1 - self.rs - self.es

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
    """Scales k * 2**es + e reachable with k in [-rs, rs-1] and e in [0, 2**es)."""
    step = 1 << fmt.es
    return ScaleRange(-fmt.rs * step, fmt.rs * step - 1)


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
