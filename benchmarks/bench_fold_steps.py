"""Fold-step size sweep: one fused scan-shaped plan at several step budgets.

The plan engine stacks consecutive chunks into fold steps of at most
``repro.streaming.steps.STEP_COEFFICIENTS`` kept coefficients per source.
This sweep times one fused plan of every Table I reduction plus
``mean(a − b)`` over two 8192×256 float32 stores (4×4 blocks, int16 indices,
32-row slabs: 256 chunks of 512 blocks each) at budgets of 1 block (one step
per chunk), 1024, 4096, 8192 and 16384 blocks, and the whole store.  Every
budget must return the 1-block answers bit for bit.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_fold_steps.py --repeats 7
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import engine
from repro.core import CompressionSettings
from repro.core.ops import folds
from repro.engine import expr
from repro.streaming import ChunkedCompressor, steps

SHAPE = (8192, 256)
SLAB_ROWS = 32
BUDGETS_IN_BLOCKS = (1, 1024, 4096, 8192, 16384, None)  # None: the whole store


def _field(rng: np.random.Generator, offset: float) -> np.ndarray:
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, n) for n in SHAPE], indexing="ij")
    values = np.full(SHAPE, offset)
    for k, grid in enumerate(grids, start=1):
        values += np.sin(2 * np.pi * k * grid + rng.uniform(0, np.pi))
    return (values + 0.02 * rng.standard_normal(SHAPE)).astype(np.float32)


def _request(x, y) -> dict:
    request = {name: getattr(expr, name)(*(x, y)[:spec.arity])
               for name, spec in folds.REDUCTION_SPECS.items()}
    request["mean_a_minus_b"] = expr.mean(expr.subtract(x, y))
    return request


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed plans per budget (after one warm-up)")
    args = parser.parse_args()

    settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                   index_dtype="int16")
    rng = np.random.default_rng(1)
    kept = settings.kept_per_block
    with tempfile.TemporaryDirectory(prefix="fold_steps_") as tmp:
        chunked = ChunkedCompressor(settings, slab_rows=SLAB_ROWS)
        stores = [chunked.compress_to_store(_field(rng, offset), Path(tmp) / name)
                  for name, offset in (("a.pblzc", 290.0), ("b.pblzc", 285.0))]
        whole = settings.n_blocks(SHAPE)
        chunk_blocks = whole // stores[0].n_chunks
        print(f"{stores[0].n_chunks} chunks of {chunk_blocks} blocks per store")
        print(f"{'budget (blocks)':>16} {'steps':>6} {'median ms':>10} {'quartiles ms':>16}")
        baseline = None
        for blocks in BUDGETS_IN_BLOCKS:
            budget = (whole if blocks is None else blocks) * kept
            steps.STEP_COEFFICIENTS = budget
            plan = engine.plan(_request(*stores))
            answers = plan.execute()  # warm-up
            if baseline is None:
                baseline = answers
            assert answers == baseline, f"budget {blocks} changed an answer"
            seconds = []
            for _ in range(args.repeats):
                started = time.perf_counter()
                plan.execute()
                seconds.append(time.perf_counter() - started)
            q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
            n_steps = -(-stores[0].n_chunks // max(1, budget // (chunk_blocks * kept)))
            label = "whole store" if blocks is None else str(blocks)
            quartiles = f"{q1 * 1e3:.1f}–{q3 * 1e3:.1f}"
            print(f"{label:>16} {n_steps:>6} {median * 1e3:>10.1f} {quartiles:>16}")
        for store in stores:
            store.close()


if __name__ == "__main__":
    main()
