import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from fixedposit import __version__, cli
from fixedposit.cli import main
from fixedposit.formats import SWEEP_WIDTHS, paper_formats
from fixedposit.workloads import WorkloadResult, run_workload, synthetic_image, write_pgm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def run_error(capsys, *argv):
    """Run a failing command: exit 2, no stdout, one ``error: `` line on stderr."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


ENVELOPE = ["tool", "version", "command", "argv", "seed", "results", "wall_time_s"]

# (N,6,2) at each width of the paper's grid, as workload --fmt arguments.
PAPER_GRID = [f"{width},6,2" for width in SWEEP_WIDTHS]


@pytest.mark.parametrize(
    "argv, seed, extra_keys",
    [
        (["enumerate", "--width", "32"], None, []),
        (["convert", "--fmt", "32,6,2", "--value", "1.0"], None, []),
        (["mul", "--fmt", "8,2,2", "--a", "2.0", "--b", "3.0"], None, []),
        (["sweep", "--fmt", "24,6,2", "--samples", "100"], 67, ["samples", "distribution"]),
        (["workload", "--name", "dot", "--fmt", "18,6,2", "--size", "8"], 67, ["workload"]),
    ],
    ids=["enumerate", "convert", "mul", "sweep", "workload"],
)
def test_report_envelope_records_the_parsed_argv(capsys, monkeypatch, argv, seed, extra_keys):
    # A command that draws nothing records a null seed, under the same key.
    monkeypatch.setattr(sys, "argv", ["host", "--not-fixedposit", "-q"])
    argv = argv + ["--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ENVELOPE + extra_keys
    assert report["argv"] == argv
    assert report["command"] == argv[0]
    assert report["seed"] == seed
    assert report["results"] and report["wall_time_s"] >= 0


def subcommand_parsers() -> dict:
    subparsers = next(action for action in cli._parser()._actions if action.dest == "command")
    return subparsers.choices


def test_only_the_commands_that_draw_take_seed():
    flags = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in subcommand_parsers().items()
    }
    assert set(flags) == {"enumerate", "convert", "mul", "sweep", "workload"}
    assert {name for name, names in flags.items() if "--seed" in names} == {"sweep", "workload"}
    assert all("--json" in names for names in flags.values())


def test_integer_flags_share_one_parse_rule():
    # Each integer flag converts through an _int_arg closure, none through a body of its own.
    converters = {
        (action.dest, action.type)
        for parser in subcommand_parsers().values()
        for action in parser._actions
        if action.dest in ("width", "samples", "size", "seed")
    }
    assert {dest for dest, _ in converters} == {"width", "samples", "size", "seed"}
    assert {convert.__qualname__ for _, convert in converters} == {"_int_arg.<locals>.convert"}


@pytest.mark.parametrize("text", ["+5", " 5 ", "0_5"])
@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--fmt", "18,6,2", "--samples", "10"),
        ("workload", "--name", "dot", "--fmt", "18,6,2", "--size", "8"),
    ],
    ids=lambda argv: argv[0],
)
def test_seed_reads_as_samples_does(capsys, argv, text):
    assert cli._seed_arg(text) == cli._count_arg(text) == 5
    report = run_json(capsys, *argv, "--seed", text)
    assert report["seed"] == 5
    assert untimed(report)["results"] == untimed(run_json(capsys, *argv, "--seed", "5"))["results"]


def test_main_without_argv_parses_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["fixedposit", "enumerate", "--width", "32", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["argv"] == sys.argv[1:]


def test_enumerate_width_32(capsys):
    report = run_json(capsys, "enumerate", "--width", "32")
    formats = [tuple(r["format"]) for r in report["results"]]
    assert formats == [(32, 3, 16), (32, 4, 8), (32, 5, 4), (32, 6, 2), (32, 7, 1)]


def test_enumerate_all_widths_has_38_rows(capsys):
    report = run_json(capsys, "enumerate", "--all-paper-widths")
    assert len(report["results"]) == 38


@pytest.mark.parametrize(
    "argv, footer",
    [
        (("enumerate", "--all-paper-widths"), 1),
        (("sweep", "--all-paper-widths", "--samples", "100"), 0),
        (("workload", "--name", "dot", "--fmt", "reference", *PAPER_GRID, "--size", "8"), 0),
    ],
    ids=["enumerate", "sweep", "workload"],
)
def test_text_table_lines_have_one_width(capsys, argv, footer):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    table = lines[: len(lines) - footer]
    assert len(table) > 1
    assert {len(line) for line in table} == {len(table[0])}, table[:2]


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--width", "32"),
        ("convert", "--fmt", "32,6,2", "--value", "1.5"),
        ("mul", "--fmt", "8,2,2", "--a", "2", "--b", "3", "--trace-datapath"),
        ("sweep", "--fmt", "24,6,2", "--samples", "100"),
        ("workload", "--name", "dot", "--fmt", "18,6,2", "reference", "--size", "8"),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_return_their_lines_and_main_prints_once(capsys, monkeypatch, argv):
    args = cli._parser().parse_args(list(argv))
    del args.json  # a command that read it would raise AttributeError
    report = {"results": []}
    lines = args.func(args, report)
    assert capsys.readouterr().out == ""
    assert lines and all(isinstance(line, str) and "\n" not in line for line in lines)
    assert report["results"]
    printed = []
    monkeypatch.setattr(cli, "print", lambda *a, **k: printed.append(a), raising=False)
    assert main(list(argv)) == 0
    assert printed == [("\n".join(lines),)]
    assert main([*argv, "--json"]) == 0
    assert len(printed) == 2 and json.loads(printed[1][0])["results"]


@pytest.mark.parametrize("tail", [(), ("--json",)], ids=["text", "json"])
def test_failed_command_prints_nothing_on_stdout(capsys, monkeypatch, tail):
    # The first format runs and fills its table row and report entry; the
    # second then trips the batch codec's width gate.
    ran = []
    monkeypatch.setattr(
        cli, "run_workload", lambda name, fmt, **kw: ran.append(fmt) or run_workload(name, fmt, **kw)
    )
    argv = ("workload", "--name", "dot", "--fmt", "18,6,2", "40,6,2", "--size", "8", *tail)
    error = run_error(capsys, *argv)
    assert error == "error: batch codec carries at most 32-bit words, got (40,6,2)"
    assert [str(fmt) for fmt in ran] == ["(18,6,2)", "(40,6,2)"]


def test_fmt_is_refused_exactly_where_a_significand_passes_the_digit_limit(capsys):
    # (n,0,1) has significands below 2**(n-1): up to 4,300 decimal digits at
    # n = 14285, Python's default limit, and up to 4,301 at n = 14286.
    entry = run_json(capsys, "convert", "--fmt", "14285,0,1", "--value", "1.9999999")["results"][0]
    assert len(str(entry["significand"])) == sys.get_int_max_str_digits() == 4300
    error = run_error(capsys, "convert", "--fmt", "14286,0,1", "--value", "1.9999999")
    assert error == "error: argument --fmt: (14286,0,1) has significands of over 4300 decimal digits"


def test_enumerate_width_5_is_empty_but_ok(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--width", "5")
    assert code == 0
    assert "0 configuration(s)" in out


def test_enumerate_invalid_width_fails(capsys):
    assert "at least 4" in run_error(capsys, "enumerate", "--width", "3")


def test_convert_examples(capsys):
    report = run_json(capsys, "convert", "--fmt", "32,6,2", "--value", "1.0")
    assert report["results"][0]["word_hex"] == "0x40000000"
    report = run_json(capsys, "convert", "--fmt", "32,6,2", "--value", "0x00800000")
    assert report["results"][0]["word_hex"] == "0x01000000"
    report = run_json(capsys, "convert", "--fmt", "32,6,2", "--value", "nan")
    assert report["results"][0]["class"] == "nar"
    assert report["results"][0]["word_hex"] == "0x80000000"
    report = run_json(capsys, "convert", "--fmt", "60,2,2", "--value", "1.0")  # 55 fraction bits
    assert report["results"][0]["value"] == 1.0


@pytest.mark.parametrize(
    "command, beyond, infinite",
    [
        (("convert", "--fmt", "32,6,2"), ("--value=1e39",), ("--value=inf",)),
        (("convert", "--fmt", "32,6,2"), ("--value=-1e39",), ("--value=-inf",)),
        (("mul", "--fmt", "32,6,2", "--b", "2"), ("--a=1e39",), ("--a=inf",)),
    ],
    ids=["convert", "convert-negative", "mul"],
)
def test_values_beyond_binary32_round_to_infinity(capsys, command, beyond, infinite):
    got = run_json(capsys, *command, *beyond)
    expected = run_json(capsys, *command, *infinite)
    assert got["results"] == expected["results"]


@pytest.mark.parametrize("token", ["-1.5e3", "-1e39", "-inf", "-nan"])
@pytest.mark.parametrize(
    "command, flag",
    [(("convert", "--fmt", "32,6,2"), "--value"), (("mul", "--fmt", "32,6,2", "--a", "2"), "--b")],
    ids=["convert", "mul"],
)
def test_negative_value_as_separate_token(capsys, command, flag, token):
    separate = run_json(capsys, *command, flag, token)
    joined = run_json(capsys, *command, f"{flag}={token}")
    assert separate["results"] == joined["results"]
    assert separate["argv"] == [*command, flag, token, "--json"]


def test_convert_rejects_bad_format(capsys):
    assert "fraction" in run_error(capsys, "convert", "--fmt", "18,3,16", "--value", "1.0")


def test_mul_with_datapath_trace(capsys):
    report = run_json(
        capsys, "mul", "--fmt", "8,2,2", "--a", "2.0", "--b", "3.0", "--trace-datapath"
    )
    entry = report["results"][0]
    assert entry["result"]["word_hex"] == "0x54"
    assert entry["result"]["value"] == 6.0
    trace = entry["datapath_trace"]
    assert trace["raw_scale"] == 2
    assert trace["carry"] == 0
    code, out, _ = run_cli(
        capsys, "mul", "--fmt", "8,2,2", "--a", "2.0", "--b", "3.0", "--trace-datapath"
    )
    assert code == 0
    assert out.splitlines() == ["0x48 * 0x4c -> 0x54  (6.0)"] + [
        f"  {key} = {value}" for key, value in trace.items()
    ]


def test_mul_nar_result(capsys):
    report = run_json(capsys, "mul", "--fmt", "8,2,2", "--a", "nan", "--b", "3.0")
    assert report["results"][0]["result"]["class"] == "nar"


def test_mul_saturates_at_format_maximum(capsys):
    report = run_json(capsys, "mul", "--fmt", "8,2,2", "--a", "240", "--b", "240")
    entry = report["results"][0]
    assert entry["result"]["word_hex"] == "0x7f"
    assert entry["result"]["value"] == 240.0


def test_sweep_report_is_reproducible_apart_from_wall_time(capsys):
    args = ("sweep", "--fmt", "24,6,2", "--samples", "5000", "--seed", "8")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_sweep_exact_format(capsys):
    report = run_json(capsys, "sweep", "--fmt", "32,6,2", "--samples", "20000")
    assert report["results"][0]["max_rel_err_pct"] == 0.0


def test_sweep_rejects_zero_samples(capsys):
    error = run_error(capsys, "sweep", "--fmt", "32,6,2", "--samples", "0")
    assert "must be positive, got 0" in error


@pytest.mark.parametrize(
    "argv, problem",
    [
        pytest.param(
            ("workload", "--name", "dot", "--fmt", "18,6,2", "--size", "0"),
            "must be positive, got 0",
            id="size-0",
        ),
        pytest.param(
            ("workload", "--name", "dot"),
            "the following arguments are required: --fmt",
            id="workload-missing-fmt",
        ),
        pytest.param(
            ("workload", "--name", "dot", "--fmt"),
            "argument --fmt: expected at least one argument",
            id="workload-bare-fmt",
        ),
        pytest.param(
            ("enumerate", "--width", "32", "--seed", "5"),
            "unrecognized arguments: --seed 5",
            id="enumerate-seed",
        ),
        pytest.param(
            ("convert", "--fmt", "32,6,2", "--value", "1.0", "--seed", "5", "--json"),
            "unrecognized arguments: --seed 5",
            id="convert-seed",
        ),
        pytest.param(
            ("mul", "--fmt", "8,2,2", "--a", "2", "--b", "3", "--seed", "5"),
            "unrecognized arguments: --seed 5",
            id="mul-seed",
        ),
        pytest.param(
            ("convert", "--value", "1.0"),
            "the following arguments are required: --fmt",
            id="missing-fmt",
        ),
        pytest.param(
            ("sweep", "--fmt", "18,6,2", "--all-paper-widths"),
            "argument --all-paper-widths: not allowed with argument --fmt",
            id="fmt-with-all-widths",
        ),
        pytest.param(
            ("sweep", "--fmt", "18,6,2", "--samples", "ten"),
            "invalid int value: 'ten'",
            id="non-int",
        ),
        pytest.param(
            ("sweep", "--fmt", "18,6,2", "--samples", "10", "--seed", "-1"),
            "argument --seed: must be non-negative, got -1",
            id="sweep-negative-seed",
        ),
        pytest.param(
            ("workload", "--name", "dot", "--fmt", "18,6,2", "--seed", "-1"),
            "argument --seed: must be non-negative, got -1",
            id="workload-negative-seed",
        ),
        pytest.param(
            ("sweep", "--fmt", "18,6,2", "--samples", "10", "--seed", "9" * 5000),
            "argument --seed: invalid int value: '999",  # past int()'s digit limit
            id="seed-5000-digits",
        ),
        pytest.param(
            ("convert", "--fmt", "32,6,2", "--value", "0x"),
            "argument --value: not a decimal value, 32-bit 0xHEX or nan: '0x'",
            id="value-0x",
        ),
        pytest.param(
            ("mul", "--fmt", "8,2,2", "--a", "2", "--b", "1x"),
            "argument --b: not a decimal value, 32-bit 0xHEX or nan: '1x'",
            id="b-1x",
        ),
        pytest.param(
            ("convert", "--fmt", "32,6", "--value", "1"),
            "argument --fmt: expected N,es,rs but got '32,6'",
            id="convert-fmt",
        ),
        pytest.param(
            ("mul", "--fmt", "8,2,x", "--a", "2", "--b", "3"),
            "argument --fmt: expected three integers in '8,2,x'",
            id="mul-fmt",
        ),
        pytest.param(
            ("convert", "--fmt", "15000,0,1", "--value", "1.5"),
            "argument --fmt: (15000,0,1) has significands of over 4300 decimal digits",
            id="convert-fmt-too-wide-to-print",
        ),
        pytest.param(
            ("mul", "--fmt", "15000,0,1", "--a", "1.5", "--b", "1.5", "--json"),
            "argument --fmt: (15000,0,1) has significands of over 4300 decimal digits",
            id="mul-fmt-too-wide-to-print",
        ),
        pytest.param(
            ("sweep", "--fmt", "18,3,16"),
            "argument --fmt: (18,3,16) leaves -2 fraction bits",
            id="sweep-fmt",
        ),
        pytest.param(
            ("workload", "--name", "dot", "--fmt", "refrence"),
            "argument --fmt: expected N,es,rs but got 'refrence'",
            id="workload-fmt",
        ),
        pytest.param(
            ("sweep", "--fmt", "18,6,2", "--samples", "0"),
            "argument --samples: must be positive, got 0",
            id="samples-0",
        ),
        pytest.param(
            ("workload", "--name", "dot", "--fmt", "18,6,2", "--size", "-3"),
            "argument --size: must be positive, got -3",
            id="size-negative",
        ),
        pytest.param(
            ("enumerate", "--width", "3"),
            "argument --width: bit width must be at least 4, got 3",
            id="width-3",
        ),
        pytest.param(
            ("convert", "--fmt", "32,6,2", "--val", "1"),
            "unrecognized arguments: --val 1",
            id="abbreviated-flag",
        ),
        pytest.param(
            ("convert", "--fmt", "32,6,2", "--val", "-1e39"),
            "unrecognized arguments: --val -1e39",
            id="abbreviated-flag-negative-value",
        ),
        pytest.param(
            ("enumerate", "--wid", "18"),
            "unrecognized arguments: --wid 18",
            id="abbreviated-group-flag",
        ),
        pytest.param(("transpose",), "invalid choice: 'transpose'", id="unknown-command"),
        pytest.param((), "the following arguments are required: command", id="no-command"),
    ],
)
def test_usage_errors_are_one_error_line(capsys, argv, problem):
    assert problem in run_error(capsys, *argv)


def untimed(report: dict) -> dict:
    report.pop("wall_time_s")
    for entry in report["results"]:
        entry.pop("elapsed_s", None)
    return report


def fresh_report(argv: list[str]) -> dict:
    """The untimed ``--json`` report of ``argv`` run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    command = [sys.executable, "-m", "fixedposit.cli", *argv]
    run = subprocess.run(command, capture_output=True, text=True, check=True, env=env)
    return untimed(json.loads(run.stdout))


def test_one_parser_serves_interleaved_commands(capsys):
    # main builds its parser once per process: no parse, failed or not, may
    # leave state that changes the next one.
    good = [
        ["workload", "--name", "dot", "--fmt", "18,6,2", "--size", "8", "--json"],
        ["sweep", "--fmt", "24,6,2", "--samples", "100", "--json"],
    ]
    fresh = [fresh_report(argv) for argv in good]
    errors = [
        (("workload", "--name", "dot"), "the following arguments are required: --fmt"),
        (("sweep", "--fmt", "24,6,2", "--sample", "10"), "unrecognized arguments: --sample 10"),
        (("convert", "--fmt", "32,6,2", "--value", "0x"), "argument --value: not a decimal value"),
    ]
    for _ in range(2):
        for argv, problem in errors:
            assert problem in run_error(capsys, *argv)
            with pytest.raises(SystemExit) as version:
                main(["--version"])
            assert version.value.code == 0
            assert capsys.readouterr().out == f"fixedposit {__version__}\n"
            for command, expected in zip(good, fresh):
                code, out, err = run_cli(capsys, *command)
                assert code == 0, err
                assert untimed(json.loads(out)) == expected


def test_sweep_all_widths(capsys):
    report = run_json(capsys, "sweep", "--all-paper-widths", "--samples", "2000")
    assert len(report["results"]) == 38


@pytest.mark.parametrize("command", [("enumerate",), ("sweep", "--samples", "10")], ids=" ".join)
def test_all_paper_widths_report_the_paper_grid_in_order(capsys, command):
    report = run_json(capsys, *command, "--all-paper-widths")
    got = [tuple(r["format"]) for r in report["results"]]
    assert got == [(f.n, f.es, f.rs) for f in paper_formats()]


def test_workload_reference_row(capsys):
    report = run_json(capsys, "workload", "--name", "dot", "--fmt", "reference", "--size", "16")
    entry = report["results"][0]
    assert entry["format"] == "reference"
    assert entry["quality"] == 0.0
    code, out, _ = run_cli(capsys, "workload", "--name", "dot", "--fmt", "reference", "--size", "16")
    assert code == 0 and out.splitlines()[1].split()[0] == "reference"


def test_workload_fmt_list_quality_is_monotone_in_width(capsys):
    report = run_json(
        capsys, "workload", "--name", "gemm", "--fmt", *PAPER_GRID, "--size", "48", "--seed", "67"
    )
    rows = report["results"]
    assert len(rows) == 8
    assert [r["format"][0] for r in rows] == [18, 20, 22, 24, 26, 28, 30, 32]
    errs = [r["quality"] for r in rows]
    assert all(errs[i] >= errs[i + 1] for i in range(len(errs) - 1))


def test_workload_trace_out(tmp_path, capsys):
    path = tmp_path / "ops.trace"
    report = run_json(
        capsys,
        "workload", "--name", "dot", "--fmt", "18,6,2", "--size", "8",
        "--trace-out", str(path),
    )
    entry = report["results"][0]
    assert path.stat().st_size == 8 * entry["trace_len"]
    assert entry["trace_len"] == entry["mul_count"]


def test_workload_fmt_list_trace_out_writes_one_file_per_format(tmp_path, capsys):
    report = run_json(
        capsys,
        "workload", "--name", "dot", "--fmt", *PAPER_GRID, "reference", "--size", "8",
        "--trace-out", str(tmp_path / "ops.trace"),
    )
    entries = report["results"]
    labels = [f"{width}_6_2" for width in SWEEP_WIDTHS] + ["reference"]
    for entry, label in zip(entries, labels, strict=True):
        assert entry["trace_file"] == str(tmp_path / f"ops-{label}.trace")
        assert Path(entry["trace_file"]).stat().st_size == 8 * entry["trace_len"]
    assert sorted(tmp_path.iterdir()) == sorted(Path(e["trace_file"]) for e in entries)


def test_workload_fmt_list_gives_what_one_call_per_format_gives(tmp_path, capsys):
    formats = ["reference", "18,6,2", "12,2,3"]
    listed = untimed(run_json(
        capsys, "workload", "--name", "dot", "--fmt", *formats, "--size", "16",
        "--trace-out", str(tmp_path / "all.trace"),
    ))["results"]
    assert [e["format"] for e in listed] == ["reference", [18, 6, 2], [12, 2, 3]]
    for fmt, entry in zip(formats, listed):
        alone = tmp_path / f"alone-{fmt}.trace"
        one = untimed(run_json(
            capsys, "workload", "--name", "dot", "--fmt", fmt, "--size", "16",
            "--trace-out", str(alone),
        ))["results"]
        assert one[0]["trace_file"] == str(alone)
        assert Path(entry["trace_file"]).read_bytes() == alone.read_bytes()
        assert [{**e, "trace_file": None} for e in one] == [{**entry, "trace_file": None}]


def test_workload_repeated_fmt_runs_every_format(capsys):
    report = run_json(capsys, "workload", "--name", "dot", "--fmt", "18,6,2", "--fmt", "20,6,2")
    assert [e["format"] for e in report["results"]] == [[18, 6, 2], [20, 6, 2]]


def test_workload_entry_keys_are_the_result_fields_in_order(tmp_path, capsys):
    report = run_json(
        capsys, "workload", "--name", "dot", "--fmt", "18,6,2", "--size", "8",
        "--trace-out", str(tmp_path / "ops.trace"),
    )
    names = [field.name for field in fields(WorkloadResult)]
    assert names == [
        "workload", "format", "size", "seed", "primary_metric",
        "quality", "metrics", "mul_count", "elapsed_s",
    ]
    assert list(report["results"][0]) == ["kind", *names, "trace_file", "trace_len"]


def test_workload_rejects_unknown_name(capsys):
    error = run_error(capsys, "workload", "--name", "jacobi", "--fmt", "32,6,2")
    assert "argument --name: invalid choice: 'jacobi'" in error


def test_workload_bad_size_fails(capsys):
    error = run_error(capsys, "workload", "--name", "fft", "--fmt", "32,6,2", "--size", "100")
    assert "power of two" in error


@pytest.mark.parametrize(
    "data, problem",
    [
        (b"P5\n4 4\n", "PGM header is truncated: 3 of 4 fields"),
        (b"P5\nx 4\n255\n" + bytes(16), "PGM width is not a decimal number: b'x'"),
        (b"P5\n4 4\n255\n" + bytes(10), "PGM body is truncated: 10 of 4x4 pixel bytes"),
        (b"P5\n# a comment\n4 4\n", "PGM header is truncated: 3 of 4 fields"),
        (b"P5\n4 4\n65535\n" + bytes(32), "only 8-bit PGM supported, got maxval 65535"),
    ],
    ids=["truncated-header", "non-numeric-width", "short-body", "comment", "16-bit"],
)
def test_workload_rejects_malformed_pgm(tmp_path, capsys, data, problem):
    path = tmp_path / "frame.pgm"
    path.write_bytes(data)
    error = run_error(
        capsys, "workload", "--name", "sobel", "--fmt", "18,6,2", "--image", str(path)
    )
    assert problem in error


def test_workload_sobel_needs_a_3x3_frame(capsys):
    error = run_error(capsys, "workload", "--name", "sobel", "--fmt", "18,6,2", "--size", "2")
    assert error == "error: sobel needs at least a 3x3 image, got 2x2"
    error = run_error(capsys, "workload", "--name", "sobel", "--fmt", "18,6,2", "--size", "1")
    assert error == "error: image side must be at least 2, got 1"


def test_workload_rejects_image_for_other_kernels(tmp_path, capsys):
    path = tmp_path / "frame.pgm"
    write_pgm(path, synthetic_image(8))
    error = run_error(
        capsys, "workload", "--name", "gemm", "--fmt", "18,6,2", "--image", str(path)
    )
    assert "sobel only, not gemm" in error


def test_closed_output_is_one_error_line(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["enumerate", "--width", "32", "--json"]) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_text_output_default(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--width", "32")
    assert code == 0
    assert "(32,6,2)" in out
    assert "5 configuration(s)" in out


@pytest.mark.parametrize(
    "argv, size",
    [
        (("sweep", "--fmt", "18,6,2", "--samples", str(10**15)), "7.11 PiB"),
        (("workload", "--name", "dot", "--fmt", "18,6,2", "--size", str(10**8)), "71.1 PiB"),
    ],
    ids=["sweep", "workload"],
)
def test_refused_allocation_is_one_error_line(capsys, argv, size):
    # Each request is far past a 64-bit user address space (128 TiB), so NumPy
    # is refused before it touches a page.
    error = run_error(capsys, *argv)
    assert error.startswith(f"error: Unable to allocate {size}")


@pytest.mark.parametrize(
    "argv",
    [
        ("convert", "--fmt", "8,2,2", "--value", "1"),
        ("mul", "--fmt", "8,2,2", "--a", "1", "--b", "1"),
    ],
    ids=["convert", "mul"],
)
def test_blank_memory_error_is_named(capsys, monkeypatch, argv):
    # Python's own MemoryError, as from an int of a 10**11-bit word, has no message.
    def out_of_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "from_binary32", out_of_memory)
    assert run_error(capsys, *argv) == "error: out of memory"


@pytest.mark.parametrize(
    "argv, word_hex, value",
    [
        (("convert", "--fmt", "64,0,1", "--value", "1e30"), "0x7fffffffffffffff", 2.0),
        (("mul", "--fmt", "64,0,1", "--a", "1.5", "--b", "1.5"), "0x7fffffffffffffff", 2.0),
        (("convert", "--fmt", "60,2,2", "--value", "0x3f800001"), "0x400000100000000", 1 + 2**-23),
    ],
    ids=["convert", "mul", "convert-exact"],
)
def test_value_is_the_nearest_binary64_past_52_fraction_bits(capsys, argv, word_hex, value):
    # (64,0,1)'s maxpos, 2 - 2**-62, is not a binary64 value; its nearest is 2.0.
    # A word that is one, such as binary32's 1 + 2**-23, keeps its exact value.
    entry = run_json(capsys, *argv)["results"][0]
    entry = entry.get("result", entry)
    assert (entry["word_hex"], entry["value"]) == (word_hex, value)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines()[0].endswith(f"{word_hex}  ({value})")
