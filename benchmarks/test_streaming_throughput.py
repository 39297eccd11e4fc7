"""Streaming-compression throughput: the slab-size ablation.

Sweeps the ``ChunkedCompressor`` slab height over a fixed 3-D field and reports
throughput against the one-shot compressor, plus a process-fan-out row.  Two
things are being demonstrated:

* exactness — every slab size must reproduce the one-shot ``maxima``/``indices``
  bit for bit (asserted, not just reported);
* the throughput shape — tiny slabs pay per-slab overhead, huge slabs converge to
  the one-shot path, and the sweet spot in between is what the CLI defaults to.

The formatted table lands in
``benchmarks/results/timings/streaming_throughput.txt`` (gitignored: the
timings differ on every run).
"""

import numpy as np

from repro.core import CompressionSettings, Compressor
from repro.experiments.common import ExperimentResult, median_time
from repro.streaming import ChunkedCompressor

from conftest import write_result

_SHAPE = (256, 48, 32)
_SLAB_ROWS = (8, 32, 64, 128, 256)


def _field() -> np.ndarray:
    rng = np.random.default_rng(2023)
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, s) for s in _SHAPE], indexing="ij")
    field = sum(np.sin(2 * np.pi * (k + 1) * g) for k, g in enumerate(grids))
    return field + 0.02 * rng.standard_normal(_SHAPE)


def run_streaming_throughput() -> ExperimentResult:
    settings = CompressionSettings(
        block_shape=(4, 4, 4), float_format="float32", index_dtype="int16"
    )
    array = _field()
    megabytes = array.nbytes / 1e6
    reference = Compressor(settings).compress(array)

    rows = []
    one_shot_seconds = median_time(lambda: Compressor(settings).compress(array))
    rows.append(("one-shot", "-", True, one_shot_seconds, megabytes / one_shot_seconds))

    for slab_rows in _SLAB_ROWS:
        chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
        result = chunked.compress(array)
        identical = bool(
            np.array_equal(result.maxima, reference.maxima)
            and np.array_equal(result.indices, reference.indices)
        )
        seconds = median_time(lambda: chunked.compress(array))
        rows.append(
            (f"streamed slab={slab_rows}", slab_rows, identical, seconds,
             megabytes / seconds)
        )

    fanout = ChunkedCompressor(settings, slab_rows=32, n_workers=2)
    fanout_result = fanout.compress(array)
    fanout_identical = bool(
        np.array_equal(fanout_result.maxima, reference.maxima)
        and np.array_equal(fanout_result.indices, reference.indices)
    )
    fanout_seconds = median_time(lambda: fanout.compress(array), repeats=1)
    rows.append(
        ("streamed slab=32 ×2 procs", 32, fanout_identical, fanout_seconds,
         megabytes / fanout_seconds)
    )

    return ExperimentResult(
        name="Streaming throughput — slab-size ablation",
        columns=("path", "slab rows", "identical to one-shot", "seconds", "MB/s"),
        rows=rows,
        metadata={"shape": _SHAPE, "input MB": round(megabytes, 2)},
    )


def test_streaming_throughput(benchmark, timings_dir):
    """Every slab size is bit-identical to one-shot; the table records throughput."""
    result = benchmark.pedantic(run_streaming_throughput, rounds=1, iterations=1)
    write_result(timings_dir, "streaming_throughput", result.to_text())
    assert all(row[2] for row in result.rows)
    # streamed throughput stays within an order of magnitude of one-shot
    one_shot = result.rows[0][4]
    best_streamed = max(row[4] for row in result.rows[1:])
    assert best_streamed > one_shot / 10
