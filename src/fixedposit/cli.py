"""Command-line workbench: enumeration, conversion, multiplication, sweeps, workloads.

Every command is deterministic given its flags.  Only ``sweep`` and ``workload``
draw inputs, from ``--seed`` (default 67); the other reports record a null seed.
``--json`` swaps the human-readable tables for a stable machine-readable report.
``workload --fmt`` takes a list of formats and reports one entry for each, in
order.  A command fills the report and returns its text lines, its tables built
by ``_table``; only ``main`` prints.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .codec import (
    QNAN32,
    PositWord,
    decode,
    float_to_bits32,
    from_binary32,
)
from .formats import (
    FixedPositFormat,
    enumerate_ieee_equivalent,
    paper_formats,
    parse_fixed_posit,
)
from .metrics import DISTRIBUTIONS, sweep_conversion_error
from .multiplier import mul_datapath_traced
from .workloads import DEFAULT_SEED, WORKLOAD_NAMES, read_pgm, run_workload


_MISSING_FLAG_ERRORS = ("the following arguments are required", "one of the arguments")


class _Parser(argparse.ArgumentParser):
    """Sends usage errors to ``main``'s one error path, not to a usage dump and exit.

    Long flags must be spelled in full: ``_join_value_tokens`` matches the
    value flags by their full names.  Subcommand parsers are built by this
    class too.  A missing flag is reported only when every token was
    recognised, so ``--val 1`` reads ``unrecognized arguments: --val 1``
    rather than a missing ``--value``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._missing: str | None = None

    def parse_known_args(self, args=None, namespace=None):
        self._missing = None
        namespace, extras = super().parse_known_args(args, namespace)
        if self._missing and not extras:
            raise ValueError(self._missing)
        return namespace, extras

    def error(self, message: str):
        # argparse checks for missing flags before it returns the unknown
        # tokens; keep the first such message until those are known.
        if message.startswith(_MISSING_FLAG_ERRORS):
            self._missing = self._missing or message
            return
        raise ValueError(message)


def _fmt_triple(fmt: FixedPositFormat) -> list[int]:
    return [fmt.n, fmt.es, fmt.rs]


def _binary32_arg(text: str) -> int:
    """A value flag as a binary32 pattern: decimal float, 0xHEX pattern, nan or inf."""
    lowered = text.lower()
    if lowered in ("nan", "+nan", "-nan"):
        return QNAN32
    try:
        bits = int(lowered, 16) if lowered.startswith("0x") else float_to_bits32(float(text))
    except ValueError:
        bits = -1
    if not 0 <= bits < 1 << 32:
        raise argparse.ArgumentTypeError(f"not a decimal value, 32-bit 0xHEX or nan: {text!r}")
    return bits


def _is_value(text: str) -> bool:
    try:
        _binary32_arg(text)
    except argparse.ArgumentTypeError:
        return False
    return True


_VALUE_FLAGS = ("--value", "--a", "--b")


def _join_value_tokens(argv: list[str]) -> list[str]:
    """Write ``--value -1.5e3`` as ``--value=-1.5e3``, so argparse keeps it a value.

    argparse reads a separate token that starts with ``-`` as an option unless
    it looks like ``-12`` or ``-1.5``, which loses ``-1e39``, ``-inf`` and
    ``-nan``.  A token is joined to its flag only when it parses as a value.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _VALUE_FLAGS and _is_value(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _int_arg(minimum: int, problem: str):
    """An integer flag of at least ``minimum``; ``problem`` opens the error for a smaller one."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{problem}, got {value}")
        return value

    return convert


_count_arg = _int_arg(1, "must be positive")
_seed_arg = _int_arg(0, "must be non-negative")


def _fmt_arg(text: str) -> FixedPositFormat:
    try:
        fmt = parse_fixed_posit(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    # A report writes significands, below 2**(f+1), in decimal, which Python
    # refuses past its digit limit (0: none; no limit before Python 3.10.7).
    # 10**limit has over 3*limit bits: a narrower format need not build it.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bits = fmt.fraction_bits + 1
    if limit and bits > 3 * limit and bits >= (10**limit).bit_length():
        raise argparse.ArgumentTypeError(f"{fmt} has significands of over {limit} decimal digits")
    return fmt


def _workload_fmt_arg(text: str) -> FixedPositFormat | None:
    """A format, or ``reference`` (``None``): the run with native binary32 multiplies."""
    return None if text == "reference" else _fmt_arg(text)


def _table(widths: tuple[int, ...], header: tuple[str, ...], rows: list[tuple]) -> list[str]:
    """Text table lines: each cell right-aligned in its column's width."""
    return [
        "".join(str(cell).rjust(width) for cell, width in zip(row, widths))
        for row in (header, *rows)
    ]


def cmd_enumerate(args: argparse.Namespace, report: dict) -> list[str]:
    formats = paper_formats() if args.all_paper_widths else enumerate_ieee_equivalent(args.width)
    rows = []
    for fmt in formats:
        report["results"].append(
            {
                "format": _fmt_triple(fmt),
                "fraction_bits": fmt.fraction_bits,
                "min_scale": fmt.min_scale,
                "max_scale": fmt.max_scale,
            }
        )
        rows.append((fmt, fmt.fraction_bits, f"[{fmt.min_scale}, {fmt.max_scale}]"))
    header = ("format", "fraction", "scale range")
    return _table((12, 10, 14), header, rows) + [f"{len(rows)} configuration(s)"]


def _describe_word(word: PositWord) -> dict:
    d = decode(word)
    entry = {
        "word_hex": str(word),
        "class": d.klass.value,
        # The nearest binary64: a word with more than 52 fraction bits may not be one.
        "value": None if d.is_nar else float(d.exact_value()),
    }
    if not (d.is_zero or d.is_nar):
        entry.update(
            sign=d.sign,
            scale=d.scale,
            significand=d.significand,
            fraction_bits=d.fraction_bits,
        )
    return entry


def cmd_convert(args: argparse.Namespace, report: dict) -> list[str]:
    entry = {"format": _fmt_triple(args.fmt), "input_bits": f"0x{args.value:08x}"}
    entry.update(_describe_word(from_binary32(args.value, args.fmt)))
    report["results"].append(entry)
    shown = "NaR" if entry["class"] == "nar" else entry["value"]
    lines = [f"{entry['input_bits']} -> {entry['word_hex']}  ({shown})"]
    if entry["class"] == "normal":
        lines.append(
            f"  sign={entry['sign']} scale={entry['scale']} "
            f"significand={entry['significand']}/2^{entry['fraction_bits']}"
        )
    return lines


def cmd_mul(args: argparse.Namespace, report: dict) -> list[str]:
    wa = from_binary32(args.a, args.fmt)
    wb = from_binary32(args.b, args.fmt)
    wc, trace = mul_datapath_traced(wa, wb)
    entry = {
        "format": _fmt_triple(args.fmt),
        "a_word": str(wa),
        "b_word": str(wb),
        "result": _describe_word(wc),
    }
    if args.trace_datapath and trace is not None:
        entry["datapath_trace"] = asdict(trace)
    report["results"].append(entry)
    shown = "NaR" if entry["result"]["class"] == "nar" else entry["result"]["value"]
    lines = [f"{entry['a_word']} * {entry['b_word']} -> {entry['result']['word_hex']}  ({shown})"]
    lines += [f"  {key} = {val}" for key, val in entry.get("datapath_trace", {}).items()]
    return lines


def cmd_sweep(args: argparse.Namespace, report: dict) -> list[str]:
    formats = paper_formats() if args.all_paper_widths else [args.fmt]
    report["samples"] = args.samples
    report["distribution"] = args.dist
    rows = []
    for fmt in formats:
        err = sweep_conversion_error(fmt, args.samples, args.seed, args.dist)
        entry = {"kind": "error_report", "format": _fmt_triple(fmt)}
        entry.update(asdict(err))
        report["results"].append(entry)
        rows.append((fmt, f"{err.max_rel_err_pct:.6g}", f"{err.mean_rel_err_pct:.6g}"))
    return _table((12, 17, 17), ("format", "max rel err %", "mean rel err %"), rows)


def cmd_workload(args: argparse.Namespace, report: dict) -> list[str]:
    # args.fmt lists the formats in order; None is the reference run, with native multiplies.
    image = read_pgm(args.image) if args.image else None
    report["workload"] = args.name
    rows = []
    for fmt in args.fmt:
        result, trace = run_workload(
            args.name,
            fmt,
            size=args.size,
            seed=args.seed,
            record_trace=bool(args.trace_out),
            image=image,
        )
        # Shallow: asdict would deep-copy every field, the format included.
        entry = {"kind": "workload_result"}
        entry.update((field.name, getattr(result, field.name)) for field in fields(result))
        entry["format"] = "reference" if fmt is None else _fmt_triple(fmt)
        report["results"].append(entry)
        if trace is not None:
            path = args.trace_out
            if len(args.fmt) > 1:  # one file per format, or each would overwrite the last
                label = "reference" if fmt is None else f"{fmt.n}_{fmt.es}_{fmt.rs}"
                out = Path(path)
                path = str(out.with_name(f"{out.stem}-{label}{out.suffix}"))
            trace.save(path)
            entry["trace_file"] = path
            entry["trace_len"] = len(trace)
        rows.append(
            (fmt or "reference", result.primary_metric, f"{result.quality:.6g}", result.mul_count)
        )
    return _table((12, 19, 15, 11), ("format", "metric", "quality", "muls"), rows)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fixedposit",
        description="Fixed-posit arithmetic workbench",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list formats matching the binary32 scale range")
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--width",
        type=_int_arg(4, "bit width must be at least 4"),
        help="total bit width to enumerate",
    )
    group.add_argument(
        "--all-paper-widths",
        action="store_true",
        help="enumerate the stock width sweep 18..32 (even widths)",
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_conv = sub.add_parser("convert", help="convert a binary32 value to a fixed-posit word")
    p_conv.add_argument("--fmt", required=True, type=_fmt_arg, help="format as N,es,rs")
    p_conv.add_argument("--value", required=True, type=_binary32_arg, help="decimal, 0xHEX or nan")
    p_conv.set_defaults(func=cmd_convert)

    p_mul = sub.add_parser("mul", help="multiply two values through the datapath")
    p_mul.add_argument("--fmt", required=True, type=_fmt_arg, help="format as N,es,rs")
    p_mul.add_argument("--a", required=True, type=_binary32_arg, help="left operand, like --value")
    p_mul.add_argument("--b", required=True, type=_binary32_arg, help="right operand, as --a")
    p_mul.add_argument(
        "--trace-datapath", action="store_true", help="dump the multiplier block values"
    )
    p_mul.set_defaults(func=cmd_mul)

    p_sweep = sub.add_parser("sweep", help="conversion error sweep over random binary32 samples")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--fmt", type=_fmt_arg, help="format as N,es,rs")
    group.add_argument(
        "--all-paper-widths",
        action="store_true",
        help="sweep every enumerated format for widths 18..32 (even)",
    )
    p_sweep.add_argument("--samples", type=_count_arg, default=100_000, help="sample count")
    p_sweep.add_argument("--dist", choices=DISTRIBUTIONS, default="log-uniform")
    p_sweep.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED, help="seed of the samples")
    p_sweep.set_defaults(func=cmd_sweep)

    p_work = sub.add_parser("workload", help="run a multiply-substitution workload")
    p_work.add_argument("--name", required=True, choices=WORKLOAD_NAMES)
    p_work.add_argument(
        "--fmt",
        required=True,
        nargs="+",
        action="extend",
        type=_workload_fmt_arg,
        help="one or more formats, each N,es,rs or 'reference'; a repeated --fmt adds more",
    )
    p_work.add_argument("--size", type=_count_arg, default=None, help="workload size parameter")
    p_work.add_argument(
        "--trace-out",
        help="write the operand trace to this file; several formats write STEM-LABEL.SUFFIX each",
    )
    p_work.add_argument("--image", help="8-bit PGM input image (sobel only)")
    p_work.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED, help="seed of the inputs")
    p_work.set_defaults(func=cmd_workload)
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; input errors print one ``error:`` line and return 2.

    The report or text is printed once the command has finished, so a failed
    command prints nothing on stdout.  The parser is built on the first call
    and reused by every later one; each parse starts afresh (``_Parser``).
    """
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(_join_value_tokens(argv))
        report = {
            "tool": "fixedposit",
            "version": __version__,
            "command": args.command,
            "argv": argv,
            "seed": getattr(args, "seed", None),  # None: the command draws nothing
            "results": [],
            "wall_time_s": None,
        }
        started = time.perf_counter()
        lines = args.func(args, report)
        report["wall_time_s"] = round(time.perf_counter() - started, 6)
        print(json.dumps(report, indent=2) if args.json else "\n".join(lines))
    # OSError includes a closed output pipe; MemoryError, an array too large to allocate.
    # Python's own MemoryError, from an int too large to build, carries no message.
    except (ValueError, OSError, MemoryError) as exc:
        blank = "out of memory" if isinstance(exc, MemoryError) else ""
        print(f"error: {str(exc) or blank}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
