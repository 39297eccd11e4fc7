"""repro — reproduction of "What Operations can be Performed Directly on Compressed
Arrays, and with What Error?" (SC 2023 / DRBSD workshop; the PyBlaz compressor).

The package is organised as:

* :mod:`repro.core` — the PyBlaz-style compressor, compressed form, compressed-space
  operations, codec and error analysis (the paper's contribution).
* :mod:`repro.numerics` — reduced-precision floating-point emulation.
* :mod:`repro.codecs` — the uniform :class:`Codec` protocol + string-keyed
  registry every compressor (core and baselines alike) is reachable through.
* :mod:`repro.kernels` — the kernel-backend registry selecting how the
  transform+binning hot loop executes: bit-exact ``reference``, BLAS ``gemm``,
  or JIT ``numba``.
* :mod:`repro.baselines` — Blaz, ZFP-like and SZ-like comparison compressors.
* :mod:`repro.simulators` — shallow-water, MRI-like and fission-like data generators.
* :mod:`repro.analysis` — uncompressed reference operations and error metrics.
* :mod:`repro.streaming` — out-of-core slab streaming: :class:`ChunkedCompressor`,
  the chunk-table :class:`CompressedStore` format, and :mod:`repro.streaming.ops`,
  the compressed-domain operations that fold every Table I reduction (and
  the structural add/subtract/scale/negate) chunk-by-chunk over stores.
* :mod:`repro.engine` — the lazy expression/plan engine: build reductions as
  expressions (``engine.expr``) and fuse any number of them into shared decode
  sweeps (one decode per chunk per pass, bit-identical to the sequential
  calls) — see ``docs/engine.md``.
* :mod:`repro.serving` — the asyncio query service over a named catalog of
  stores: wire-form requests (``engine.wire``), windowed request coalescing
  into one fused plan, a byte-budgeted decoded-chunk cache and a stats
  endpoint — see ``docs/serving.md``.
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    import numpy as np
    from repro import CompressionSettings, Compressor, ops

    settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                   index_dtype="int16")
    compressor = Compressor(settings)
    x = compressor.compress(np.random.rand(64, 64))
    y = compressor.compress(np.random.rand(64, 64))
    print(ops.dot(x, y), ops.mean(x), ops.l2_norm(y))
"""

from .core import (
    CompressedArray,
    CompressionSettings,
    Compressor,
    asymptotic_compression_ratio,
    compression_ratio,
    deserialize,
    serialize,
)
from .core import ops
from .codecs import (
    Codec,
    CodecCapabilities,
    available_codecs,
    get_codec,
    register_codec,
)
from .core.exceptions import CodecError
from .kernels import (
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .streaming import ChunkedCompressor, CompressedStore

__version__ = "1.4.0"

__all__ = [
    "CompressionSettings",
    "Compressor",
    "CompressedArray",
    "ChunkedCompressor",
    "CompressedStore",
    "Codec",
    "CodecCapabilities",
    "CodecError",
    "register_codec",
    "get_codec",
    "available_codecs",
    "KernelBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "ops",
    "serialize",
    "deserialize",
    "compression_ratio",
    "asymptotic_compression_ratio",
    "__version__",
]
