"""Fig 7 — PyBlaz operation time on 3-dimensional arrays across compression settings.

Appendix VI-B of the paper times eleven operations — compress, decompress, negate,
add, multiply (by a scalar), dot product, L2 norm, cosine similarity, mean, variance
and SSIM — on cubic 3-D arrays from 4 to 1024 elements per side, with block size 4
and every combination of float type (bfloat16/float16/float32/float64) and bin index
type (int8/int16/int32).  The qualitative observations to reproduce:

* array-restructuring operations (compress, decompress) scale with array size;
* negate and multiply are nearly constant-time (they touch only the stored indices
  and maxima, not the coefficient space);
* the scalar reductions (dot, L2, mean, variance, cosine, SSIM) scale with the
  number of stored coefficients;
* the float/index type combinations shift the curves but not their shapes.

The default sweep uses a subset of sizes and setting combinations so the harness
finishes quickly; the full grid is a configuration away.

Beyond the paper, the sweep also times the **out-of-core** rows: the same
reductions (plus a structural add) evaluated by :mod:`repro.streaming.ops`
over chunked on-disk stores, so the table quantifies what chunk-at-a-time
evaluation costs relative to the in-memory compressed-space operations.  These
rows carry a ``store_`` prefix in the operation column and can be disabled with
``Fig7Config(out_of_core=False)``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import CompressionSettings, Compressor
from ..core import ops
from .common import ExperimentResult, median_time

__all__ = ["Fig7Config", "run", "format_result", "OPERATIONS", "STORE_OPERATIONS"]

#: The operations Fig 7 times, in the paper's panel order.
OPERATIONS: tuple[str, ...] = (
    "compress",
    "decompress",
    "negate",
    "add",
    "multiply",
    "dot",
    "l2_norm",
    "cosine_similarity",
    "mean",
    "variance",
    "ssim",
)

#: The out-of-core ablation rows: store-level counterparts via streaming.ops,
#: plus the fused-vs-sequential engine comparison on the six-reduction workload
#: (mean, variance, l2_norm, dot, covariance, cosine_similarity): the
#: ``store_6op_sequential`` row times six independent ``streaming.ops`` calls
#: (12 decode sweeps across the two stores), ``store_6op_fused`` times one
#: :mod:`repro.engine` plan (2 fused sweeps per store) producing bit-identical
#: scalars.  The per-store decode-pass counts land in the result metadata.
STORE_OPERATIONS: tuple[str, ...] = (
    "store_dot",
    "store_l2_norm",
    "store_cosine_similarity",
    "store_mean",
    "store_variance",
    "store_add",
    "store_6op_sequential",
    "store_6op_fused",
)


@dataclass(frozen=True)
class Fig7Config:
    """Configuration of the Fig 7 timing sweep."""

    sizes: tuple[int, ...] = (4, 8, 16, 32, 64)
    float_formats: tuple[str, ...] = ("float32", "float64")
    index_dtypes: tuple[str, ...] = ("int8", "int16", "int32")
    block_size: int = 4
    repeats: int = 3
    seed: int = 3
    #: Also time the store-level operations (the out-of-core ablation rows).
    out_of_core: bool = True
    #: Store slab height in rows; the default keeps several chunks per store.
    slab_rows: int = 16


def _six_op_expressions(store_a, store_b) -> dict:
    """The fused-benchmark workload: the six Table I reductions over two stores."""
    from ..engine import expr

    x, y = expr.source(store_a), expr.source(store_b)
    return {
        "mean": expr.mean(x),
        "variance": expr.variance(x),
        "l2_norm": expr.l2_norm(x),
        "dot": expr.dot(x, y),
        "covariance": expr.covariance(x, y),
        "cosine_similarity": expr.cosine_similarity(x, y),
    }


def _store_timings(store_a, store_b, out_path) -> dict:
    """The timed store-level operation closures over two open chunked stores."""
    from .. import engine
    from ..streaming import ops as stream_ops

    def timed_add():
        """One store-level add, closing (and then overwriting) the output store."""
        stream_ops.add(store_a, store_b, out_path).close()

    def timed_six_sequential():
        """The six-reduction workload as independent sweeps (one per op call)."""
        stream_ops.mean(store_a)
        stream_ops.variance(store_a)
        stream_ops.l2_norm(store_a)
        stream_ops.dot(store_a, store_b)
        stream_ops.covariance(store_a, store_b)
        stream_ops.cosine_similarity(store_a, store_b)

    def timed_six_fused():
        """The same six reductions through one fused engine plan (1 sweep)."""
        engine.evaluate(_six_op_expressions(store_a, store_b))

    return {
        "store_dot": lambda: stream_ops.dot(store_a, store_b),
        "store_l2_norm": lambda: stream_ops.l2_norm(store_a),
        "store_cosine_similarity": lambda: stream_ops.cosine_similarity(store_a, store_b),
        "store_mean": lambda: stream_ops.mean(store_a),
        "store_variance": lambda: stream_ops.variance(store_a),
        "store_add": timed_add,
        "store_6op_sequential": timed_six_sequential,
        "store_6op_fused": timed_six_fused,
    }


def _six_op_store_sweeps(store_a, store_b) -> dict:
    """Measured decode sweeps per store for the six-op workload, both schedules."""
    from .. import engine
    from ..streaming import ops as stream_ops

    counts = {}
    before = (store_a.chunks_read, store_b.chunks_read)
    stream_ops.mean(store_a)
    stream_ops.variance(store_a)
    stream_ops.l2_norm(store_a)
    stream_ops.dot(store_a, store_b)
    stream_ops.covariance(store_a, store_b)
    stream_ops.cosine_similarity(store_a, store_b)
    counts["sequential"] = {
        "store_a": (store_a.chunks_read - before[0]) // store_a.n_chunks,
        "store_b": (store_b.chunks_read - before[1]) // store_b.n_chunks,
    }
    before = (store_a.chunks_read, store_b.chunks_read)
    engine.evaluate(_six_op_expressions(store_a, store_b))
    counts["fused"] = {
        "store_a": (store_a.chunks_read - before[0]) // store_a.n_chunks,
        "store_b": (store_b.chunks_read - before[1]) // store_b.n_chunks,
    }
    return counts


def run(config: Fig7Config = Fig7Config()) -> ExperimentResult:
    """Time every Fig 7 operation across sizes and setting combinations."""
    rng = np.random.default_rng(config.seed)
    rows: list[tuple] = []
    six_op_sweeps: dict | None = None
    with tempfile.TemporaryDirectory(prefix="fig7_stores_") as tmp:
        workdir = Path(tmp)
        for float_format in config.float_formats:
            for index_dtype in config.index_dtypes:
                settings = CompressionSettings(
                    block_shape=(config.block_size,) * 3,
                    float_format=float_format,
                    index_dtype=index_dtype,
                )
                compressor = Compressor(settings)
                for size in config.sizes:
                    a = rng.random((size, size, size))
                    b = rng.random((size, size, size))
                    ca, cb = compressor.compress(a), compressor.compress(b)

                    timed = {
                        "compress": lambda: compressor.compress(a),
                        "decompress": lambda: compressor.decompress(ca),
                        "negate": lambda: ops.negate(ca),
                        "add": lambda: ops.add(ca, cb),
                        "multiply": lambda: ops.multiply_scalar(ca, 1.5),
                        "dot": lambda: ops.dot(ca, cb),
                        "l2_norm": lambda: ops.l2_norm(ca),
                        "cosine_similarity": lambda: ops.cosine_similarity(ca, cb),
                        "mean": lambda: ops.mean(ca),
                        "variance": lambda: ops.variance(ca),
                        "ssim": lambda: ops.structural_similarity(ca, cb),
                    }
                    stores = []
                    if config.out_of_core:
                        from ..streaming import ChunkedCompressor

                        chunked = ChunkedCompressor(
                            settings, slab_rows=config.slab_rows
                        )
                        stores = [
                            chunked.compress_to_store(a, workdir / "a.pblzc"),
                            chunked.compress_to_store(b, workdir / "b.pblzc"),
                        ]
                        timed.update(
                            _store_timings(*stores, workdir / "out.pblzc")
                        )
                        if six_op_sweeps is None:
                            six_op_sweeps = _six_op_store_sweeps(*stores)
                    try:
                        for operation, function in timed.items():
                            seconds = median_time(function, config.repeats)
                            rows.append(
                                (size, float_format, index_dtype, operation, seconds)
                            )
                    finally:
                        for store in stores:
                            store.close()

    return ExperimentResult(
        name="Fig 7 — PyBlaz operation time (3-D arrays, block size 4)",
        columns=("array size", "float", "index", "operation", "seconds"),
        rows=rows,
        metadata={
            "block_size": config.block_size,
            "sizes": config.sizes,
            "out_of_core": config.out_of_core,
            "slab_rows": config.slab_rows,
            # measured decode sweeps per store for the six-reduction workload:
            # sequential op-by-op calls vs one fused engine plan
            "six_op_store_sweeps": six_op_sweeps,
        },
    )


def format_result(result: ExperimentResult) -> str:
    return result.to_text()


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(format_result(run()))
