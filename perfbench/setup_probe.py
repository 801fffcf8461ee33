"""Cold start of one workload: import fixedposit and make one minimal call per format it uses.

Usage: python3 setup_probe.py <src dir> <workload> <seed>

The benchmark times this whole process, from interpreter start to exit, as
``setup_s``.  Output goes to stdout, which the benchmark discards; a failed
call exits non-zero.
"""

import sys

SMALLEST_SIZES = (
    ("axpby", 1), ("trsv", 2), ("dot", 1), ("blackscholes", 1),
    ("fft", 2), ("kmeans", 9), ("sobel", 3), ("mlp_forward", 1),
)


def main(src: str, workload: str, seed: str) -> int:
    sys.path.insert(0, src)
    import fixedposit
    from fixedposit import cli

    common = ["--json", "--seed", seed]
    if workload == "gemm":
        argvs = [["workload", "--name", "gemm", "--fmt", "18,6,2", "--size", "1"]]
    elif workload == "kernel_mix":
        argvs = [
            ["workload", "--name", name, "--fmt", "18,6,2", "--size", str(size)]
            for name, size in SMALLEST_SIZES
        ]
    elif workload == "conv_sweep":
        argvs = [["sweep", "--all-paper-widths", "--samples", "1"]]
    elif workload == "scalar_check":
        for triple in ((8, 2, 2), (8, 3, 1)):
            fmt = fixedposit.FixedPositFormat(*triple)
            one = fixedposit.PositWord(0x40, fmt)
            if fixedposit.mul_datapath(one, one) != fixedposit.mul_reference(one, one):
                return 1
        one = 0x3F800000
        fixed = fixedposit.mul_binary32_bits(fixedposit.FixedPositFormat(32, 6, 2), one, one)
        posit = fixedposit.posit_mul_binary32_bits(fixedposit.PositFormat(32, 6), one, one)
        return 0 if fixed == posit == one else 1
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return max(cli.main(argv + common) for argv in argvs)


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
