"""The README's CLI examples and library quick start run as written."""

import shlex
from pathlib import Path

import pytest

from fixedposit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


CLI_EXAMPLES = [
    shlex.split(line, comments=True)[1:]
    for line in section_code("CLI", "sh").splitlines()
    if line.startswith("fixedposit ")
]


def test_readme_lists_cli_examples():
    assert {argv[0] for argv in CLI_EXAMPLES} == {"enumerate", "convert", "mul", "sweep", "workload"}


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=" ".join)
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --trace-out writes into the working directory
    code = main([*argv, "--json"])  # a repeated --json is harmless
    assert code == 0, capsys.readouterr().err


def test_readme_library_quick_start_runs(capsys):
    exec(compile(section_code("Library quick start", "python"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1.0"


def test_readme_example_sweep_output_is_the_cli_output(capsys):
    block = README.read_text().split("Example sweep output:\n\n```\n", 1)[1].split("```", 1)[0]
    assert main(["sweep", "--fmt", "32,3,16"]) == 0
    assert capsys.readouterr().out == block
