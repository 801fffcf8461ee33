import io
import json
import sys
from pathlib import Path

import pytest

from fixedposit.cli import main
from fixedposit.workloads import synthetic_image, write_pgm


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


@pytest.mark.parametrize(
    "argv, extra_keys",
    [
        (["enumerate", "--width", "32"], []),
        (["convert", "--fmt", "32,6,2", "--value", "1.0"], []),
        (["mul", "--fmt", "8,2,2", "--a", "2.0", "--b", "3.0"], []),
        (["sweep", "--fmt", "24,6,2", "--samples", "100"], ["samples", "distribution"]),
        (["workload", "--name", "dot", "--fmt", "18,6,2", "--size", "8"], ["workload"]),
    ],
    ids=["enumerate", "convert", "mul", "sweep", "workload"],
)
def test_report_envelope_records_the_parsed_argv(capsys, monkeypatch, argv, extra_keys):
    monkeypatch.setattr(sys, "argv", ["host", "--not-fixedposit", "-q"])
    argv = argv + ["--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ENVELOPE + extra_keys
    assert report["argv"] == argv
    assert report["command"] == argv[0]
    assert report["seed"] == 67
    assert report["results"] and report["wall_time_s"] >= 0


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
        (("workload", "--name", "dot", "--sweep-widths", "--size", "8"), 0),
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
            "one of the arguments --fmt --sweep-widths is required",
            id="missing-fmt-group",
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
            "argument --seed: not a non-negative integer: '-1'",
            id="sweep-negative-seed",
        ),
        pytest.param(
            ("workload", "--name", "dot", "--fmt", "18,6,2", "--seed", "-1"),
            "argument --seed: not a non-negative integer: '-1'",
            id="workload-negative-seed",
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


def test_sweep_all_widths(capsys):
    report = run_json(capsys, "sweep", "--all-paper-widths", "--samples", "2000")
    assert len(report["results"]) == 38


def test_workload_reference_row(capsys):
    report = run_json(capsys, "workload", "--name", "dot", "--fmt", "reference", "--size", "16")
    entry = report["results"][0]
    assert entry["format"] == "reference"
    assert entry["quality"] == 0.0


def test_workload_sweep_widths_monotone(capsys):
    report = run_json(
        capsys, "workload", "--name", "gemm", "--sweep-widths", "--size", "48", "--seed", "67"
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


def test_workload_sweep_widths_trace_out_writes_one_file_per_format(tmp_path, capsys):
    report = run_json(
        capsys,
        "workload", "--name", "dot", "--sweep-widths", "--size", "8",
        "--trace-out", str(tmp_path / "ops.trace"),
    )
    entries = report["results"]
    assert len(entries) == 8
    for entry in entries:
        n, es, rs = entry["format"]
        assert entry["trace_file"] == str(tmp_path / f"ops-{n}_{es}_{rs}.trace")
        assert Path(entry["trace_file"]).stat().st_size == 8 * entry["trace_len"]
    assert sorted(tmp_path.iterdir()) == sorted(Path(e["trace_file"]) for e in entries)


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
    ],
    ids=["truncated-header", "non-numeric-width", "short-body"],
)
def test_workload_rejects_malformed_pgm(tmp_path, capsys, data, problem):
    path = tmp_path / "frame.pgm"
    path.write_bytes(data)
    error = run_error(
        capsys, "workload", "--name", "sobel", "--fmt", "18,6,2", "--image", str(path)
    )
    assert problem in error


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
