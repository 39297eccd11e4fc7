"""Out-of-core compressed-domain ops: store-level vs in-memory.

Times the :mod:`repro.streaming.ops` engine over a chunked store of a 3-D field
against the in-memory :mod:`repro.core.ops` on the assembled compressed array,
for each scalar reduction and a structural add.  Two things are being
demonstrated:

* correctness — every store-level scalar must equal the in-memory value **bit
  for bit** (asserted, not just reported): the partial-fold invariant;
* the cost shape — store-level ops pay chunk decode per pass, so their overhead
  is roughly the store read time.

The formatted table lands in ``benchmarks/results/timings/streaming_ops.txt``
(gitignored: the timings differ on every run).
"""

import numpy as np
import pytest

from repro.core import CompressionSettings, ops
from repro.experiments.common import ExperimentResult, median_time
from repro.streaming import ChunkedCompressor
from repro.streaming import ops as stream_ops

from conftest import write_result

_SHAPE = (256, 48, 32)
_SLAB_ROWS = 32


def _field(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, s) for s in _SHAPE], indexing="ij")
    field = sum(np.sin(2 * np.pi * (k + 1) * g) for k, g in enumerate(grids))
    return field + 0.02 * rng.standard_normal(_SHAPE)


def run_streaming_ops(tmp_path) -> ExperimentResult:
    """Time each op in-memory and store-level."""
    settings = CompressionSettings(
        block_shape=(4, 4, 4), float_format="float32", index_dtype="int16"
    )
    chunked = ChunkedCompressor(settings, slab_rows=_SLAB_ROWS)
    a, b = _field(1), _field(2)
    store_a = chunked.compress_to_store(a, tmp_path / "a.pblzc")
    store_b = chunked.compress_to_store(b, tmp_path / "b.pblzc")
    ca, cb = store_a.load_compressed(), store_b.load_compressed()

    cases = {
        "dot": (lambda: ops.dot(ca, cb),
                lambda: stream_ops.dot(store_a, store_b)),
        "mean": (lambda: ops.mean(ca),
                 lambda: stream_ops.mean(store_a)),
        "variance": (lambda: ops.variance(ca),
                     lambda: stream_ops.variance(store_a)),
        "l2_norm": (lambda: ops.l2_norm(ca),
                    lambda: stream_ops.l2_norm(store_a)),
        "cosine_similarity": (
            lambda: ops.cosine_similarity(ca, cb),
            lambda: stream_ops.cosine_similarity(store_a, store_b),
        ),
    }

    rows = []
    for name, (in_memory, streamed) in cases.items():
        # the partial-fold invariant, asserted on the benchmark workload itself
        assert streamed() == in_memory(), name
        rows.append((name, "in-memory", median_time(in_memory, repeats=3)))
        rows.append((name, "store", median_time(streamed, repeats=3)))

    def structural_add():
        """One chunk-by-chunk store-level add (output overwritten each repeat)."""
        stream_ops.add(store_a, store_b, tmp_path / "sum.pblzc").close()

    rows.append(("add", "in-memory", median_time(lambda: ops.add(ca, cb), repeats=3)))
    rows.append(("add", "store", median_time(structural_add, repeats=3)))

    store_a.close()
    store_b.close()
    return ExperimentResult(
        name="Out-of-core compressed-domain ops (store-level vs in-memory)",
        columns=("operation", "path", "seconds"),
        rows=rows,
        metadata={"shape": _SHAPE, "slab_rows": _SLAB_ROWS,
                  "chunks": len(range(0, _SHAPE[0], _SLAB_ROWS))},
    )


@pytest.mark.benchmark(group="streaming-ops")
def test_streaming_ops_table(benchmark, tmp_path, timings_dir):
    """Regenerate the streaming-ops ablation table (and assert bit-identity)."""
    result = benchmark.pedantic(
        run_streaming_ops, args=(tmp_path,), rounds=1, iterations=1
    )
    write_result(timings_dir, "streaming_ops", result.to_text())
    operations = {row[0] for row in result.rows}
    assert operations == {"dot", "mean", "variance", "l2_norm",
                          "cosine_similarity", "add"}
    assert all(row[2] >= 0 for row in result.rows)
