"""Benchmark of the fixedposit package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gemm --seed 67 --seconds 20 --trace 0

``--workload`` is one of gemm, kernel_mix, conv_sweep, scalar_check, or
``all`` to run the four in turn.  With ``--trace 0`` the last line of
stdout is the end-to-end result; with ``--trace 1`` it carries the
per-layer figures of a traced run.  The line before it records the machine,
seed, sample counts and any gate failures.  The exit code is 0 only when
every output check passed.  Spans of a traced run are written to
``.perfbench/spans-<workload>.npz``.

The package is imported from the checkout's ``src``; the benchmark refuses
to run against any other copy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# Single-threaded numeric libraries: the workloads use none of their threads,
# and the benchmark must not start any.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def load_fixedposit():
    """Import fixedposit from ``<root>/src`` and fail if it resolves anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fixedposit
    except ImportError as exc:
        raise SystemExit(f"error: cannot import fixedposit from {src}: {exc}")
    if src.resolve() not in Path(fixedposit.__file__).resolve().parents:
        raise SystemExit(f"error: fixedposit imported from {fixedposit.__file__}, not {src}")
    return fixedposit


def main(argv: list[str] | None = None) -> int:
    load_fixedposit()
    import cases
    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=67)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = cases.WORKLOADS if args.workload == "all" else (args.workload,)
    record = harness.machine_record(ROOT, args.seed)
    results = {}
    for name in names:
        case = cases.build(name, args.seed, OUT_DIR / "tmp")
        result, info = harness.measure(
            case, ROOT, args.seconds, bool(args.trace),
            spans_out=OUT_DIR / f"spans-{name}.npz",
        )
        print(json.dumps({"info": info, "record": record}), flush=True)
        if len(names) > 1:
            print(json.dumps(result), flush=True)
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
