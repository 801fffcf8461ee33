"""Fixed-posit arithmetic workbench.

A bit-accurate implementation of the fixed-posit number representation:
configuration enumeration, encode/decode, IEEE-754 binary32 and binary64
bridges, a hardware-style multiplier with an exact reference oracle, a
standard-posit comparison codec, error metrics, and multiply-substitution
workload kernels.
"""

__version__ = "0.1.0"

from .codec import (
    DecodedNumber,
    NumberClass,
    PositWord,
    bits32_to_float,
    decode,
    encode,
    float_to_bits32,
    from_binary32,
    nar_word,
    pack_binary32,
    to_binary32,
    to_binary64,
    zero_word,
)
from .formats import (
    SWEEP_WIDTHS,
    FixedPositFormat,
    PositFormat,
    ScaleRange,
    enumerate_ieee_equivalent,
    parse_fixed_posit,
    scale_range,
)
from .metrics import (
    ErrorReport,
    error_report,
    psnr_db,
    rmse,
    sweep_conversion_error,
)
from .multiplier import (
    DatapathTrace,
    mul_binary32_bits,
    mul_binary32_via,
    mul_datapath,
    mul_datapath_traced,
    mul_reference,
)
from .posit import (
    posit_decode,
    posit_encode,
    posit_from_binary32,
    posit_mul_binary32_bits,
    posit_mul_binary32_via,
    posit_to_binary32,
)
from .workloads import (
    DEFAULT_SEED,
    WORKLOAD_NAMES,
    OperandTrace,
    TracingMul,
    WorkloadResult,
    read_pgm,
    run_workload,
    synthetic_image,
    trace_sample,
    write_pgm,
)

__all__ = [
    "__version__",
    "DecodedNumber",
    "NumberClass",
    "PositWord",
    "bits32_to_float",
    "decode",
    "encode",
    "float_to_bits32",
    "from_binary32",
    "nar_word",
    "pack_binary32",
    "to_binary32",
    "to_binary64",
    "zero_word",
    "SWEEP_WIDTHS",
    "FixedPositFormat",
    "PositFormat",
    "ScaleRange",
    "enumerate_ieee_equivalent",
    "parse_fixed_posit",
    "scale_range",
    "ErrorReport",
    "error_report",
    "psnr_db",
    "rmse",
    "sweep_conversion_error",
    "DatapathTrace",
    "mul_binary32_bits",
    "mul_binary32_via",
    "mul_datapath",
    "mul_datapath_traced",
    "mul_reference",
    "posit_decode",
    "posit_encode",
    "posit_from_binary32",
    "posit_mul_binary32_bits",
    "posit_mul_binary32_via",
    "posit_to_binary32",
    "DEFAULT_SEED",
    "WORKLOAD_NAMES",
    "OperandTrace",
    "TracingMul",
    "WorkloadResult",
    "read_pgm",
    "run_workload",
    "synthetic_image",
    "trace_sample",
    "write_pgm",
]
