"""Kernel backends: interchangeable execution strategies for the hot loop.

The compressor's cost is concentrated in two numeric kernels — the fused
forward transform→maxima→binning step of compression and the inverse transform
of decompression.  This subpackage makes the *implementation* of those kernels
a string-keyed, lazily-imported choice (mirroring :mod:`repro.codecs`), so the
same pipeline can run bit-exactly for reproducibility or at BLAS/JIT speed for
throughput:

* ``reference`` — the fixed-order float64 einsum path.  Bit-identical under any
  chunking of the block grid; the default everywhere, and the only backend the
  streaming :class:`repro.streaming.ChunkedCompressor` uses unless explicitly
  overridden.
* ``gemm`` — the whole separable transform collapsed into a single 2-D BLAS
  GEMM via the Kronecker operator, fused with binning through preallocated
  buffers, accumulating in float32 when the working format is ≤ 32 bits.
* ``numba`` — a fully-fused JIT per-block kernel; registered always, available
  only when the optional numba dependency is installed.

Selection is wired through :class:`repro.core.CompressionSettings` (the
``backend`` field), :class:`repro.core.Compressor` (the ``backend`` argument,
which overrides the field), :class:`repro.streaming.ChunkedCompressor`, the
pyblaz codec and the CLI (``--backend`` / the ``backends`` listing).  Third-party backends register via
:func:`register_backend`::

    from repro.kernels import KernelBackend, register_backend

    class MyKernel(KernelBackend):
        name = "mine"
        ...

    register_backend("mine", MyKernel)            # or "pkg.module:MyKernel"
    Compressor(settings, backend="mine")
"""

from .base import KernelBackend, parity_bound
from .registry import (
    available_backends,
    backend_is_available,
    get_backend,
    get_backend_class,
    register_backend,
)

__all__ = [
    "KernelBackend",
    "parity_bound",
    "register_backend",
    "get_backend",
    "get_backend_class",
    "available_backends",
    "backend_is_available",
    "DEFAULT_BACKEND",
]

#: The backend used when nothing selects one — the bit-exact reference path.
DEFAULT_BACKEND = "reference"

register_backend("reference", "repro.kernels.reference:ReferenceKernel")
register_backend("gemm", "repro.kernels.gemm:GemmKernel")
register_backend("numba", "repro.kernels.numba_backend:NumbaKernel")
