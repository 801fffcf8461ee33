"""Command-line workbench: enumeration, conversion, multiplication, sweeps, workloads.

Every command is deterministic given its flags (seeds default to a fixed
constant), and ``--json`` swaps the human-readable tables for a stable
machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import __version__
from .codec import (
    PositWord,
    decode,
    float_to_bits32,
    from_binary32,
    to_binary64,
)
from .formats import (
    SWEEP_WIDTHS,
    FixedPositFormat,
    enumerate_ieee_equivalent,
    parse_fixed_posit,
    scale_range,
)
from .metrics import DISTRIBUTIONS, sweep_conversion_error
from .multiplier import mul_datapath_traced
from .workloads import DEFAULT_SEED, WORKLOAD_NAMES, read_pgm, run_workload


def _report_skeleton(args: argparse.Namespace, command: str) -> dict:
    return {
        "tool": "fixedposit",
        "version": __version__,
        "command": command,
        "argv": sys.argv[1:],
        "seed": getattr(args, "seed", None),
        "results": [],
        "wall_time_s": None,
    }


def _emit(report: dict, as_json: bool, started: float) -> None:
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    if as_json:
        print(json.dumps(report, indent=2))


def _fmt_triple(fmt: FixedPositFormat) -> list[int]:
    return [fmt.n, fmt.es, fmt.rs]


def _parse_value(text: str) -> int:
    """A command-line value: decimal float, 0x binary32 pattern, nan or inf."""
    lowered = text.lower()
    if lowered.startswith("0x"):
        bits = int(lowered, 16)
        if not 0 <= bits < 1 << 32:
            raise ValueError(f"{text} is not a 32-bit pattern")
        return bits
    if lowered in ("nan", "+nan", "-nan"):
        return 0x7FC00000
    return float_to_bits32(float(text))


def cmd_enumerate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    widths = SWEEP_WIDTHS if args.all_paper_widths else (args.width,)
    rows = []
    for width in widths:
        rows.extend(enumerate_ieee_equivalent(width))
    report = _report_skeleton(args, "enumerate")
    for fmt in rows:
        rng = scale_range(fmt)
        report["results"].append(
            {
                "format": _fmt_triple(fmt),
                "fraction_bits": fmt.fraction_bits,
                "min_scale": rng.min_scale,
                "max_scale": rng.max_scale,
            }
        )
    if not args.json:
        print(f"{'format':>12} {'fraction':>9} {'scale range':>14}")
        for row in report["results"]:
            n, es, rs = row["format"]
            print(
                f"({n},{es},{rs})".rjust(12)
                + f"{row['fraction_bits']:>10}"
                + f"  [{row['min_scale']}, {row['max_scale']}]".rjust(14)
            )
        print(f"{len(rows)} configuration(s)")
    _emit(report, args.json, started)
    return 0


def _describe_word(word: PositWord) -> dict:
    d = decode(word)
    entry = {
        "word_hex": str(word),
        "class": d.klass.value,
        "value": None if d.is_nar else to_binary64(word),
    }
    if not (d.is_zero or d.is_nar):
        entry.update(
            sign=d.sign,
            scale=d.scale,
            significand=d.significand,
            fraction_bits=d.fraction_bits,
        )
    return entry


def cmd_convert(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    word = from_binary32(args.value, args.fmt)
    report = _report_skeleton(args, "convert")
    entry = {"format": _fmt_triple(args.fmt), "input_bits": f"0x{args.value:08x}"}
    entry.update(_describe_word(word))
    report["results"].append(entry)
    if not args.json:
        shown = "NaR" if entry["class"] == "nar" else entry["value"]
        print(f"{entry['input_bits']} -> {entry['word_hex']}  ({shown})")
        if entry["class"] == "normal":
            print(
                f"  sign={entry['sign']} scale={entry['scale']} "
                f"significand={entry['significand']}/2^{entry['fraction_bits']}"
            )
    _emit(report, args.json, started)
    return 0


def cmd_mul(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    wa = from_binary32(args.a, args.fmt)
    wb = from_binary32(args.b, args.fmt)
    wc, trace = mul_datapath_traced(wa, wb)
    report = _report_skeleton(args, "mul")
    entry = {
        "format": _fmt_triple(args.fmt),
        "a_word": str(wa),
        "b_word": str(wb),
        "result": _describe_word(wc),
    }
    if args.trace_datapath and trace is not None:
        entry["datapath_trace"] = asdict(trace)
    report["results"].append(entry)
    if not args.json:
        shown = "NaR" if entry["result"]["class"] == "nar" else entry["result"]["value"]
        print(f"{entry['a_word']} * {entry['b_word']} -> {entry['result']['word_hex']}  ({shown})")
        if "datapath_trace" in entry:
            for key, val in entry["datapath_trace"].items():
                print(f"  {key} = {val}")
    _emit(report, args.json, started)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.all_paper_widths:
        formats = [fmt for width in SWEEP_WIDTHS for fmt in enumerate_ieee_equivalent(width)]
    else:
        formats = [args.fmt]
    report = _report_skeleton(args, "sweep")
    report["samples"] = args.samples
    report["distribution"] = args.dist
    for fmt in formats:
        err = sweep_conversion_error(fmt, args.samples, args.seed, args.dist)
        entry = {"kind": "error_report", "format": _fmt_triple(fmt)}
        entry.update(asdict(err))
        report["results"].append(entry)
    if not args.json:
        print(f"{'format':>12} {'max rel err %':>16} {'mean rel err %':>16}")
        for entry in report["results"]:
            n, es, rs = entry["format"]
            print(
                f"({n},{es},{rs})".rjust(12)
                + f"{entry['max_rel_err_pct']:>17.6g}"
                + f"{entry['mean_rel_err_pct']:>17.6g}"
            )
    _emit(report, args.json, started)
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.sweep_widths:
        formats: list[FixedPositFormat | None] = [
            FixedPositFormat(width, 6, 2) for width in SWEEP_WIDTHS
        ]
    elif args.fmt == "reference":
        formats = [None]
    else:
        formats = [parse_fixed_posit(args.fmt)]
    image = read_pgm(args.image) if args.image else None
    report = _report_skeleton(args, "workload")
    report["workload"] = args.name
    for fmt in formats:
        result, trace = run_workload(
            args.name,
            fmt,
            size=args.size,
            seed=args.seed,
            record_trace=bool(args.trace_out),
            image=image,
        )
        entry = {"kind": "workload_result"}
        entry.update(result.to_dict())
        report["results"].append(entry)
        if trace is not None:
            trace.save(args.trace_out)
            entry["trace_file"] = args.trace_out
            entry["trace_len"] = len(trace)
    if not args.json:
        print(f"{'format':>12} {'metric':>18} {'quality':>14} {'muls':>10}")
        for entry in report["results"]:
            fmt_text = (
                "reference"
                if entry["format"] == "reference"
                else "({},{},{})".format(*entry["format"])
            )
            print(
                fmt_text.rjust(12)
                + entry["primary_metric"].rjust(19)
                + f"{entry['quality']:>15.6g}"
                + f"{entry['mul_count']:>11}"
            )
    _emit(report, args.json, started)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="deterministic seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixedposit",
        description="Fixed-posit arithmetic workbench",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list formats matching the binary32 scale range")
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--width", type=int, help="total bit width to enumerate")
    group.add_argument(
        "--all-paper-widths",
        action="store_true",
        help="enumerate the stock width sweep 18..32 (even widths)",
    )
    _add_common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_conv = sub.add_parser("convert", help="convert a binary32 value to a fixed-posit word")
    p_conv.add_argument("--fmt", required=True, help="format as N,es,rs")
    p_conv.add_argument("--value", required=True, help="decimal value, 0xHEX pattern, or nan")
    _add_common(p_conv)
    p_conv.set_defaults(func=cmd_convert)

    p_mul = sub.add_parser("mul", help="multiply two values through the datapath")
    p_mul.add_argument("--fmt", required=True, help="format as N,es,rs")
    p_mul.add_argument("--a", required=True, help="left operand (decimal or 0xHEX)")
    p_mul.add_argument("--b", required=True, help="right operand (decimal or 0xHEX)")
    p_mul.add_argument(
        "--trace-datapath", action="store_true", help="dump the multiplier block values"
    )
    _add_common(p_mul)
    p_mul.set_defaults(func=cmd_mul)

    p_sweep = sub.add_parser("sweep", help="conversion error sweep over random binary32 samples")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--fmt", help="format as N,es,rs")
    group.add_argument(
        "--all-paper-widths",
        action="store_true",
        help="sweep every enumerated format for widths 18..32 (even)",
    )
    p_sweep.add_argument("--samples", type=int, default=100_000, help="sample count")
    p_sweep.add_argument("--dist", choices=DISTRIBUTIONS, default="log-uniform")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_work = sub.add_parser("workload", help="run a multiply-substitution workload")
    p_work.add_argument("--name", required=True, choices=WORKLOAD_NAMES)
    group = p_work.add_mutually_exclusive_group(required=True)
    group.add_argument("--fmt", help="format as N,es,rs, or 'reference'")
    group.add_argument(
        "--sweep-widths",
        action="store_true",
        help="run (N,6,2) for every width in 18..32 (even)",
    )
    p_work.add_argument("--size", type=int, default=None, help="workload size parameter")
    p_work.add_argument("--trace-out", help="write the operand trace to this file")
    p_work.add_argument("--image", help="8-bit PGM input image (sobel only)")
    _add_common(p_work)
    p_work.set_defaults(func=cmd_workload)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("convert", "mul") or (
            args.command == "sweep" and not args.all_paper_widths
        ):
            if getattr(args, "fmt", None):
                args.fmt = parse_fixed_posit(args.fmt)
        if args.command == "convert":
            args.value = _parse_value(args.value)
        if args.command == "mul":
            args.a = _parse_value(args.a)
            args.b = _parse_value(args.b)
        if args.command == "sweep" and args.samples < 1:
            parser.error(f"--samples must be positive, got {args.samples}")
        if args.command == "workload" and args.size is not None and args.size < 1:
            parser.error(f"--size must be positive, got {args.size}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
