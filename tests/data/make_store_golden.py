"""Regenerate the fixtures of the chunked-store format-compatibility test.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_store_golden.py

It writes ``golden_store_a.pblzc`` and ``golden_store_b.pblzc`` (two
format-v3 stores of the fixed inputs below, as the store writer emits them)
and ``golden_store.json``, which records:

* the SHA-256 of every file that the single-store writer
  (``ChunkedCompressor.compress_to_store``) and the sharded writer
  (``init_sharded_store`` plus four ``append_shard`` calls, in the shape,
  settings and slab height of the perfbench ``serve`` workload) produce;
* the SHA-256 of each store's decompressed array bytes;
* every ``REDUCTION_SPECS`` plan result over the two stores, as float hex.

Rerun it only when the store format is deliberately changed:
``tests/integration/test_store_golden.py`` fails whenever an ordinary change
alters what the writer emits or what the reader returns.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from repro import engine
from repro.core import CompressionSettings
from repro.core.ops.folds import REDUCTION_SPECS
from repro.engine import expr
from repro.streaming import (ChunkedCompressor, CompressedStore, append_shard,
                             init_sharded_store)

DATA_DIR = Path(__file__).parent
STORES = {"a": DATA_DIR / "golden_store_a.pblzc", "b": DATA_DIR / "golden_store_b.pblzc"}
EXPECTED = DATA_DIR / "golden_store.json"

#: Single stores: three 16-row chunks.
STORE_SHAPE = (48, 20)
STORE_SLAB_ROWS = 16
#: The perfbench ``serve`` layout: a 1024-row base shard, then four
#: 256-row appends, 64-row chunks.
SHARDED_SHAPE = (2048, 128)
SHARDED_BASE_ROWS = 1024
SHARDED_APPENDS = 4
SHARDED_SLAB_ROWS = 64


def golden_settings() -> CompressionSettings:
    """The perfbench workloads' 2-D settings."""
    return CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")


def golden_input(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Integers over 256: exactly representable, so identical on every machine."""
    return np.random.default_rng(seed).integers(-4096, 4096, size=shape) / 256.0


def store_inputs() -> dict[str, np.ndarray]:
    return {"a": golden_input(STORE_SHAPE, 1), "b": golden_input(STORE_SHAPE, 2)}


def write_store(name: str, path: Path) -> None:
    """Write store ``name`` of :func:`store_inputs` to ``path``."""
    chunked = ChunkedCompressor(golden_settings(), slab_rows=STORE_SLAB_ROWS)
    chunked.compress_to_store(store_inputs()[name], path).close()


def write_sharded(path: Path) -> None:
    """Write the sharded store: a base shard, then the appends."""
    array = golden_input(SHARDED_SHAPE, 3)
    init_sharded_store(path, array[:SHARDED_BASE_ROWS], golden_settings(),
                       slab_rows=SHARDED_SLAB_ROWS).close()
    step = (SHARDED_SHAPE[0] - SHARDED_BASE_ROWS) // SHARDED_APPENDS
    for low in range(SHARDED_BASE_ROWS, SHARDED_SHAPE[0], step):
        append_shard(path, array[low: low + step], slab_rows=SHARDED_SLAB_ROWS).close()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    return {str(path.relative_to(directory)): digest(path.read_bytes())
            for path in sorted(directory.rglob("*")) if path.is_file()}


def plan_results(stores: dict) -> dict[str, str]:
    """Every reduction (binary ones over ``a`` and ``b``) in one plan, as hex."""
    operands = (expr.source(stores["a"]), expr.source(stores["b"]))
    outputs = {name: getattr(expr, name)(*operands[:spec.arity])
               for name, spec in REDUCTION_SPECS.items()}
    return {name: float(value).hex()
            for name, value in engine.plan(outputs).execute().items()}


def main() -> None:
    for name, path in STORES.items():
        write_store(name, path)
    stores = {name: CompressedStore(path) for name, path in STORES.items()}
    try:
        arrays = {name: digest(store.load().tobytes()) for name, store in stores.items()}
        plans = plan_results(stores)
    finally:
        for store in stores.values():
            store.close()
    with tempfile.TemporaryDirectory() as scratch:
        sharded = Path(scratch) / "serve.shards"
        write_sharded(sharded)
        sharded_files = file_digests(sharded)
    expected = {
        "store_files": {name: digest(path.read_bytes()) for name, path in STORES.items()},
        "arrays": arrays,
        "plans": plans,
        "sharded_files": sharded_files,
    }
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {', '.join(path.name for path in STORES.values())} and {EXPECTED.name}")


if __name__ == "__main__":
    main()
