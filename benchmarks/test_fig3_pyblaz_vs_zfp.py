"""Fig 3 — PyBlaz vs the ZFP-like codec: compression/decompression time, 2-D and 3-D."""

import pytest

from repro.codecs import get_codec
from repro.core import CompressionSettings, Compressor
from repro.experiments import fig3_zfp
from repro.simulators import gradient_array

from conftest import write_result

SIZES_2D = (64, 256, 512)
SIZES_3D = (16, 32, 64)
ZFP_BITS = (8, 16, 32)
PYBLAZ_INDEX = ("int8", "int16")


@pytest.mark.parametrize("size", SIZES_2D)
@pytest.mark.parametrize("bits", ZFP_BITS)
class TestZFP2D:
    def test_zfp_compress_2d(self, benchmark, size, bits):
        array = gradient_array((size, size))
        benchmark(get_codec("zfp", bits_per_value=bits).compress, array)

    def test_zfp_decompress_2d(self, benchmark, size, bits):
        codec = get_codec("zfp", bits_per_value=bits)
        compressed = codec.compress(gradient_array((size, size)))
        benchmark(codec.decompress, compressed)


@pytest.mark.parametrize("size", SIZES_3D)
@pytest.mark.parametrize("bits", ZFP_BITS)
class TestZFP3D:
    def test_zfp_compress_3d(self, benchmark, size, bits):
        array = gradient_array((size, size, size))
        benchmark(get_codec("zfp", bits_per_value=bits).compress, array)

    def test_zfp_decompress_3d(self, benchmark, size, bits):
        codec = get_codec("zfp", bits_per_value=bits)
        compressed = codec.compress(gradient_array((size, size, size)))
        benchmark(codec.decompress, compressed)


@pytest.mark.parametrize("size", SIZES_2D)
@pytest.mark.parametrize("index_dtype", PYBLAZ_INDEX)
class TestPyBlaz2D:
    def test_pyblaz_compress_2d(self, benchmark, size, index_dtype):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype=index_dtype)
        benchmark(Compressor(settings).compress, gradient_array((size, size)))

    def test_pyblaz_decompress_2d(self, benchmark, size, index_dtype):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype=index_dtype)
        compressor = Compressor(settings)
        compressed = compressor.compress(gradient_array((size, size)))
        benchmark(compressor.decompress, compressed)


@pytest.mark.parametrize("size", SIZES_3D)
@pytest.mark.parametrize("index_dtype", PYBLAZ_INDEX)
class TestPyBlaz3D:
    def test_pyblaz_compress_3d(self, benchmark, size, index_dtype):
        settings = CompressionSettings(block_shape=(4, 4, 4), float_format="float32",
                                       index_dtype=index_dtype)
        benchmark(Compressor(settings).compress, gradient_array((size, size, size)))

    def test_pyblaz_decompress_3d(self, benchmark, size, index_dtype):
        settings = CompressionSettings(block_shape=(4, 4, 4), float_format="float32",
                                       index_dtype=index_dtype)
        compressor = Compressor(settings)
        compressed = compressor.compress(gradient_array((size, size, size)))
        benchmark(compressor.decompress, compressed)


def test_fig3_series(benchmark, timings_dir):
    """Regenerate the Fig 3 series across both dimensionalities."""
    config = fig3_zfp.Fig3Config(sizes_2d=(8, 16, 32, 64, 128, 256),
                                 sizes_3d=(8, 16, 32, 64), repeats=3)
    result = benchmark.pedantic(fig3_zfp.run, args=(config,), rounds=1, iterations=1)
    write_result(timings_dir, "fig3", fig3_zfp.format_result(result))
    # times grow with size for every system (the polynomial scaling of the figure)
    for system in ("zfp ratio 8", "pyblaz ratio 8"):
        series = [r for r in result.rows if r[0] == 2 and r[2] == system and r[3] == "compress"]
        series.sort(key=lambda r: r[1])
        assert series[-1][4] >= series[0][4]
