"""Reduced-precision floating-point emulation substrate.

The paper's compressor converts input data to one of ``bfloat16``, ``float16``,
``float32`` or ``float64`` before transforming it (§III-A(a)), and its shallow-water
study (§V-A) compares simulation runs carried out at different working precisions.
NumPy has no native ``bfloat16``, and we want the precision-lowering semantics to be
explicit and testable rather than an artifact of whatever dtype the backend happens
to support.  This subpackage therefore provides:

* :class:`FloatFormat` — a description of a binary floating-point format
  (significand bits, exponent bits, and the derived range/epsilon quantities).
* :data:`BFLOAT16`, :data:`FLOAT16`, :data:`FLOAT32`, :data:`FLOAT64` — the four
  formats PyBlaz supports.
* :func:`round_to_format` — round a float64 array to a format, reproducing the
  significand truncation, overflow-to-infinity and subnormal behaviour of a cast.
* :func:`quantize_model` / :class:`PrecisionEmulator` — convenience wrappers used by
  the shallow-water simulator to run an entire state update at an emulated precision.
* :func:`exact_sum` — the correctly rounded (``math.fsum``-identical) sum of float64
  vectors, vectorised with error-free extraction, and :func:`exact_parts` —
  the short list of floats that extraction leaves, which sums exactly to its
  vector.

All functions are pure and vectorized over numpy arrays.
"""

from .formats import (
    BFLOAT16,
    FLOAT16,
    FLOAT32,
    FLOAT64,
    FORMATS_BY_NAME,
    FloatFormat,
    resolve_format,
)
from .rounding import PrecisionEmulator, machine_epsilon, round_to_format, ulp
from .summation import exact_parts, exact_sum

__all__ = [
    "FloatFormat",
    "BFLOAT16",
    "FLOAT16",
    "FLOAT32",
    "FLOAT64",
    "FORMATS_BY_NAME",
    "resolve_format",
    "round_to_format",
    "machine_epsilon",
    "ulp",
    "PrecisionEmulator",
    "exact_sum",
    "exact_parts",
]
