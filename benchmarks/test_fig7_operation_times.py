"""Fig 7 — PyBlaz operation time on 3-D arrays, block size 4, across settings."""

import numpy as np
import pytest

from repro.core import CompressionSettings, Compressor, ops
from repro.experiments import fig7_op_times

from conftest import write_result

SIZES = (16, 32, 64)
FLOATS = ("float32", "float64")
INDICES = ("int8", "int16", "int32")


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(3)
    return {size: (rng.random((size, size, size)), rng.random((size, size, size)))
            for size in SIZES}


def _compressor(float_format: str, index_dtype: str) -> Compressor:
    return Compressor(
        CompressionSettings(block_shape=(4, 4, 4), float_format=float_format,
                            index_dtype=index_dtype)
    )


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("float_format", FLOATS)
@pytest.mark.parametrize("index_dtype", INDICES)
class TestCompressDecompress:
    def test_compress(self, benchmark, arrays, size, float_format, index_dtype):
        compressor = _compressor(float_format, index_dtype)
        benchmark(compressor.compress, arrays[size][0])

    def test_decompress(self, benchmark, arrays, size, float_format, index_dtype):
        compressor = _compressor(float_format, index_dtype)
        compressed = compressor.compress(arrays[size][0])
        benchmark(compressor.decompress, compressed)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize(
    "operation",
    ["negate", "add", "multiply", "dot", "l2_norm", "cosine_similarity", "mean",
     "variance", "ssim"],
)
def test_compressed_space_operation(benchmark, arrays, size, operation):
    """Per-operation timing at the paper's default float32/int16 setting."""
    compressor = _compressor("float32", "int16")
    ca = compressor.compress(arrays[size][0])
    cb = compressor.compress(arrays[size][1])
    functions = {
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
    benchmark(functions[operation])


def test_fig7_series(benchmark, timings_dir):
    """Regenerate the Fig 7 sweep (sizes × float × index × operation)."""
    config = fig7_op_times.Fig7Config(sizes=(4, 8, 16, 32, 64), repeats=3)
    result = benchmark.pedantic(fig7_op_times.run, args=(config,), rounds=1, iterations=1)
    write_result(timings_dir, "fig7", fig7_op_times.format_result(result))
    # compression time grows with array size; negate stays roughly flat relative to it
    compress = {r[0]: r[4] for r in result.rows
                if r[3] == "compress" and r[1] == "float32" and r[2] == "int16"}
    negate = {r[0]: r[4] for r in result.rows
              if r[3] == "negate" and r[1] == "float32" and r[2] == "int16"}
    assert compress[64] > compress[4]
    assert negate[64] < compress[64]
