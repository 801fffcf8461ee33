import json

import pytest

from fixedposit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_enumerate_width_32(capsys):
    report = run_json(capsys, "enumerate", "--width", "32")
    formats = [tuple(r["format"]) for r in report["results"]]
    assert formats == [(32, 3, 16), (32, 4, 8), (32, 5, 4), (32, 6, 2), (32, 7, 1)]


def test_enumerate_all_widths_has_38_rows(capsys):
    report = run_json(capsys, "enumerate", "--all-paper-widths")
    assert len(report["results"]) == 38


def test_enumerate_width_5_is_empty_but_ok(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--width", "5")
    assert code == 0
    assert "0 configuration(s)" in out


def test_enumerate_invalid_width_fails(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--width", "3")
    assert code == 2
    assert "at least 4" in err


def test_convert_examples(capsys):
    report = run_json(capsys, "convert", "--fmt", "32,6,2", "--value", "1.0")
    assert report["results"][0]["word_hex"] == "0x40000000"
    report = run_json(capsys, "convert", "--fmt", "32,6,2", "--value", "0x00800000")
    assert report["results"][0]["word_hex"] == "0x01000000"
    report = run_json(capsys, "convert", "--fmt", "32,6,2", "--value", "nan")
    assert report["results"][0]["class"] == "nar"
    assert report["results"][0]["word_hex"] == "0x80000000"


def test_convert_rejects_bad_format(capsys):
    code, _, err = run_cli(capsys, "convert", "--fmt", "18,3,16", "--value", "1.0")
    assert code == 2
    assert "fraction" in err


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
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--fmt", "32,6,2", "--samples", "0"])
    assert exc.value.code == 2


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


def test_workload_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["workload", "--name", "jacobi", "--fmt", "32,6,2"])
    assert exc.value.code == 2


def test_workload_bad_size_fails(capsys):
    code, _, err = run_cli(capsys, "workload", "--name", "fft", "--fmt", "32,6,2", "--size", "100")
    assert code == 2
    assert "power of two" in err


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
    code, _, err = run_cli(
        capsys, "workload", "--name", "sobel", "--fmt", "18,6,2", "--image", str(path)
    )
    assert code == 2
    assert err.startswith("error: ") and problem in err


def test_text_output_default(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--width", "32")
    assert code == 0
    assert "(32,6,2)" in out
    assert "5 configuration(s)" in out
