"""Write ``BENCH_<pr>.json``, one point of the benchmark trajectory.

Usage, from the root of a checkout:

    python3 tools/bench_trajectory.py --pr N --parent HEAD~1

Runs ``python3 perfbench/run.py --workload all --trace 0`` and then the same
command with ``--trace 1``, both unchanged and so at perfbench's default seed
and run length, in ``git archive`` exports of this checkout's ``HEAD`` (the
``change`` section) and of commit ``REV`` (the ``parent`` section); the two
sides alternate, parent first, within each trace mode.  Both sides start from
fresh exports, so neither imports bytecode the other lacks.  Every file comes
from the same two commands, so consecutive files are comparable.  Each section
holds the machine record, the end-to-end metrics of every workload from the
untraced run, and the per-layer figures of the traced run.

Each section's ``application`` part holds the figures a user of the CLI
sees, from the same exports and again alternating sides: the substituted
run's ``elapsed_s`` of each kernel at its default size and (18,6,2), and the
``wall_time_s`` of ``sweep --all-paper-widths``, each the minimum of
``REPEATS`` runs, with the runs behind it in run order
(``kernel_elapsed_runs_s``, ``sweep_all_paper_widths_runs_s``); each sweep
run's whole process, start-up included, also gives its minor page faults and
system CPU seconds (``sweep_all_paper_widths_runs_minflt``,
``sweep_all_paper_widths_runs_sys_s``, ``RUSAGE_CHILDREN`` deltas); and the wall
time and summary line of one tier-1 run
(``python3 -m pytest -q --continue-on-collection-errors``).  A single
kernel's figure is not evidence of a gain: a ~15 ms kernel's time can be
bimodal across processes on either side, and the minimum lands on either
mode.  Run it on committed work: uncommitted edits are not measured.  The
exit code is 0 only when every run exited 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("axpby", "gemm", "trsv", "dot", "blackscholes", "fft", "kmeans", "sobel", "mlp_forward")
SUBSTITUTED_FMT = "18,6,2"
REPEATS = 5  # runs per kernel and sweep figure; all are recorded, the minimum is the figure


def run_benchmark(checkout: Path, trace: int) -> dict:
    """One ``perfbench/run.py --workload all`` run: exit code, machine record, metrics."""
    command = [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise SystemExit(f"error: no result from {' '.join(command)} in {checkout}:\n{done.stderr}")
    by_workload: dict[str, dict] = {}
    for name, metric in lines[-1]["metrics"].items():
        workload, key = name.split(".", 1)
        by_workload.setdefault(workload, {})[key] = metric
    return {
        "exit_code": done.returncode,
        "record": next(line["record"] for line in lines if "record" in line),
        "correct": lines[-1]["correct"],
        "metrics": by_workload,
    }


def run_in(checkout: Path, args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python3 ARGS`` in ``checkout`` with its own ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, text=True)


def cli_report(checkout: Path, args: list[str]) -> dict:
    """The ``--json`` report of one ``fixedposit`` command."""
    done = run_in(checkout, ["-m", "fixedposit.cli", *args, "--json"])
    if done.returncode != 0:
        raise SystemExit(f"error: fixedposit {' '.join(args)} in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout)


def application_figures(sides: dict[str, Path]) -> dict[str, dict]:
    """Per side: kernel and sweep times, each the minimum of ``REPEATS`` runs, and tier-1.

    The sides take turns on every repeat, so a slow spell of the host hits both.
    """
    kernels = {side: {name: [] for name in KERNELS} for side in sides}
    sweep = {side: [] for side in sides}
    for _ in range(REPEATS):
        for side, checkout in sides.items():
            for name in KERNELS:
                argv = ["workload", "--name", name, "--fmt", SUBSTITUTED_FMT]
                kernels[side][name].append(cli_report(checkout, argv)["results"][0]["elapsed_s"])
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            wall_s = cli_report(checkout, ["sweep", "--all-paper-widths"])["wall_time_s"]
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            sweep[side].append((wall_s, after.ru_minflt - before.ru_minflt,
                                round(after.ru_stime - before.ru_stime, 3)))
    figures = {}
    for side, checkout in sides.items():
        walls, minflts, sys_s = (list(column) for column in zip(*sweep[side]))
        started = time.perf_counter()
        tier1 = run_in(checkout, ["-m", "pytest", "-q", "--continue-on-collection-errors"])
        lines = tier1.stdout.strip().splitlines()
        figures[side] = {
            "kernel_elapsed_s": {name: min(runs) for name, runs in kernels[side].items()},
            "kernel_elapsed_runs_s": kernels[side],
            "sweep_all_paper_widths_s": min(walls),
            "sweep_all_paper_widths_runs_s": walls,
            "sweep_all_paper_widths_runs_minflt": minflts,
            "sweep_all_paper_widths_runs_sys_s": sys_s,
            "tier1_wall_s": round(time.perf_counter() - started, 3),
            "tier1_exit_code": tier1.returncode,
            "tier1_summary": lines[-1] if lines else "",
        }
    return figures


def export(rev: str, into: Path) -> str:
    """Extract commit ``rev`` of this repository into ``into``; return its full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--parent", metavar="REV", required=True, help="commit to compare with")
    args = parser.parse_args(argv)

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as scratch:
        sides = {side: Path(scratch) / side for side in ("parent", "change")}
        commits = {side: export(rev, sides[side])
                   for side, rev in (("parent", args.parent), ("change", "HEAD"))}
        runs = {(side, trace): run_benchmark(checkout, trace)
                for trace in (0, 1) for side, checkout in sides.items()}
        application = application_figures(sides)

    report = {"pr": args.pr, "command": "python3 perfbench/run.py --workload all --trace {0,1}"}
    for side in sides:
        runs[side, 0]["record"]["git_commit"] = commits[side]  # an export has no .git
        untraced, traced = runs[side, 0], runs[side, 1]
        report[side] = {
            "record": untraced["record"],
            "exit_codes": {"trace0": untraced["exit_code"], "trace1": traced["exit_code"]},
            "correct": untraced["correct"] and traced["correct"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "application": application[side],
        }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(out)
    exit_codes = [run["exit_code"] for run in runs.values()]
    exit_codes += [figures["tier1_exit_code"] for figures in application.values()]
    return 0 if all(code == 0 for code in exit_codes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
