"""Fig 2 — PyBlaz vs Blaz operation time on square 2-D arrays.

Each (system, operation, size) point of the figure is one pytest-benchmark entry;
the summary series (and the headline speedups at the largest size) are written to
``benchmarks/results/timings/fig2.txt``, gitignored because the timings differ on
every run.
"""

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.core import CompressionSettings, Compressor, ops
from repro.experiments import fig2_blaz

from conftest import write_result

SIZES = (8, 32, 128, 512)
SETTINGS = CompressionSettings(block_shape=(8, 8), float_format="float64", index_dtype="int8")


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(0)
    return {size: (rng.random((size, size)), rng.random((size, size))) for size in SIZES}


@pytest.mark.parametrize("size", SIZES)
class TestPyBlazTimes:
    def test_pyblaz_compress(self, benchmark, arrays, size):
        compressor = Compressor(SETTINGS)
        benchmark(compressor.compress, arrays[size][0])

    def test_pyblaz_decompress(self, benchmark, arrays, size):
        compressor = Compressor(SETTINGS)
        compressed = compressor.compress(arrays[size][0])
        benchmark(compressor.decompress, compressed)

    def test_pyblaz_add(self, benchmark, arrays, size):
        compressor = Compressor(SETTINGS)
        ca = compressor.compress(arrays[size][0])
        cb = compressor.compress(arrays[size][1])
        benchmark(ops.add, ca, cb)

    def test_pyblaz_multiply(self, benchmark, arrays, size):
        compressor = Compressor(SETTINGS)
        ca = compressor.compress(arrays[size][0])
        benchmark(ops.multiply_scalar, ca, 1.5)


@pytest.mark.parametrize("size", SIZES[:-1])  # Blaz is the slow per-block loop
class TestBlazTimes:
    def test_blaz_compress(self, benchmark, arrays, size):
        benchmark(get_codec("blaz").compress, arrays[size][0])

    def test_blaz_decompress(self, benchmark, arrays, size):
        blaz = get_codec("blaz")
        compressed = blaz.compress(arrays[size][0])
        benchmark(blaz.decompress, compressed)

    def test_blaz_add(self, benchmark, arrays, size):
        blaz = get_codec("blaz")
        ca, cb = blaz.compress(arrays[size][0]), blaz.compress(arrays[size][1])
        benchmark(blaz.add, ca, cb)

    def test_blaz_multiply(self, benchmark, arrays, size):
        blaz = get_codec("blaz")
        ca = blaz.compress(arrays[size][0])
        benchmark(blaz.multiply_scalar, ca, 1.5)


def test_fig2_series(benchmark, timings_dir):
    """Regenerate the full Fig 2 series and check the headline comparison."""
    config = fig2_blaz.Fig2Config(sizes=(8, 16, 32, 64, 128, 256), repeats=3)
    result = benchmark.pedantic(fig2_blaz.run, args=(config,), rounds=1, iterations=1)
    write_result(timings_dir, "fig2", fig2_blaz.format_result(result))
    speedups = result.metadata["speedup_at_largest_size"]
    # the paper's observation: vectorized bulk execution wins by orders of magnitude
    # over the per-block loop at large sizes (GPU vs single-thread there; vectorized
    # numpy vs Python loop here)
    assert speedups["compress"] > 5
    assert speedups["add"] > 5
    assert speedups["decompress"] > 5
