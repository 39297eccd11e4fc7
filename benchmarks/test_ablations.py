"""Design-choice ablation benches (DESIGN.md §4).

Five studies: the differentiation step PyBlaz drops relative to Blaz, the
orthonormal transform choice, the kernel backend, the bin-index width, and
the cross-codec sweep through the registry (ratio/error/throughput of every
registered codec in one table).
"""

import numpy as np
import pytest

from repro.codecs import available_codecs
from repro.core import CompressionSettings, Compressor
from repro.experiments import ablations

from conftest import write_result


def test_ablation_differentiation(benchmark, results_dir):
    """Skipping Blaz's differentiation step keeps compressed-space addition accurate."""
    result = benchmark.pedantic(ablations.run_differentiation, rounds=1, iterations=1)
    write_result(results_dir, "ablation_differentiation", ablations.format_result(result))
    values = dict(result.rows)
    assert values["pyblaz compressed-space add"] <= values["blaz compressed-space add"]


def test_ablation_transforms(benchmark, results_dir):
    """DCT vs Haar vs identity at equal storage cost."""
    result = benchmark.pedantic(ablations.run_transforms, rounds=1, iterations=1)
    write_result(results_dir, "ablation_transforms", ablations.format_result(result))
    by_transform = {row[0]: row for row in result.rows}
    # decorrelating transforms keep the mean-family operations available; identity
    # has no DC property, which the table records as NaN
    assert np.isnan(by_transform["identity"][3])
    assert by_transform["dct"][3] < 1e-2


def test_ablation_backends(benchmark, timings_dir):
    """The default vectorized call and every kernel backend within its parity bound."""
    result = benchmark.pedantic(ablations.run_backends, rounds=1, iterations=1)
    write_result(timings_dir, "ablation_backends", ablations.format_result(result))
    assert all(row[1] for row in result.rows)


def test_ablation_index_width(benchmark, results_dir):
    """int8 … int64 against round-trip error and compression ratio."""
    result = benchmark.pedantic(ablations.run_index_width, rounds=1, iterations=1)
    write_result(results_dir, "ablation_index_width", ablations.format_result(result))
    errors = [row[1] for row in result.rows]
    ratios = [row[2] for row in result.rows]
    assert errors == sorted(errors, reverse=True)  # wider indices → monotonically lower error
    assert ratios == sorted(ratios, reverse=True)  # and lower ratio


def test_ablation_codecs(benchmark, timings_dir):
    """One registry-driven table replaces the per-baseline ratio/error loops."""
    result = benchmark.pedantic(ablations.run_codecs, rounds=1, iterations=1)
    write_result(timings_dir, "ablation_codecs", ablations.format_result(result))
    by_codec = {row[0]: row for row in result.rows}
    # every registered 2-D-capable codec appears — third-party registrations too
    # (the sweep probes a 2-D field, so codecs without 2-D support are skipped)
    from repro.codecs import get_codec

    expected = {n for n in available_codecs() if 2 in get_codec(n).capabilities.ndims}
    assert set(by_codec) == expected
    for name, (_, ratio, error, bound, t_compress, t_decompress) in by_codec.items():
        assert ratio > 0 and t_compress > 0 and t_decompress > 0, name
        assert error <= bound + 1e-12, name  # the documented round-trip bound holds
    assert by_codec["huffman"][2] == 0.0  # lossless
    assert by_codec["sz"][2] <= by_codec["sz"][3]  # the SZ error-bound guarantee


@pytest.mark.parametrize("backend", ["vectorized"])
def test_backend_compress_cost(benchmark, backend):
    """Wall-clock cost of the default vectorized compression on a mid-size 3-D array."""
    settings = CompressionSettings(block_shape=(4, 4, 4), float_format="float32",
                                   index_dtype="int16")
    compressor = Compressor(settings)
    rng = np.random.default_rng(0)
    array = rng.random((48, 48, 48))
    benchmark(compressor.compress, array)
