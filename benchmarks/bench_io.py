"""Pipelined chunk I/O harness: readahead prefetcher vs the serial loop.

Emits a *machine-readable* record — ``BENCH_io.json`` at the repository
root — measuring what the bounded-window span prefetcher
(:mod:`repro.streaming.prefetch`) buys over the serial chunk loop.  The same
fused reduction workload (``mean`` + ``l2_norm``, one plan) runs two ways over
freshly opened store handles:

* **serial** — ``Plan.execute(prefetch=False)``: the plan's sweep calls
  ``read_chunk`` per chunk, one positional pread each, decode strictly after
  its read.
* **pipelined** — ``prefetch=True`` (the default): coalesced record spans
  are read inline until one span's read outlasts the decoding and folding of
  its chunks; from then on a small thread pool fetches the remaining spans a
  bounded window ahead while the consumer thread decodes and folds, so read
  latency hides behind decode work.

Both answers are asserted bit-identical before any timing is trusted, and the
pipelined run must show fewer physical preads (the coalescing proof).

Two cache regimes per cell:

* **warm** — the store file sits in the OS page cache, so preads are memcpy
  fast and no read blocks: the sweep stays inline and never starts the pool.
  What it gains over serial is the coalescing (fewer preads, no per-chunk
  ``read_chunk`` overhead); the bar is only that it does not regress.
* **cold** — preads cost real latency, so the first span's read hands the
  rest of the sweep to the pool.  A container cannot reliably drop the
  host page cache, so cold storage is *modeled* with the repo's deterministic
  fault harness: a ``latency`` rule sleeps ``delay_seconds`` before every
  chunk read, inside the same GIL-releasing fetch path a cold read would
  block in.  The model is declared in the payload under ``io_model``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_io.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_io.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_io.py --check    # enforce the bar

The acceptance bar (enforced by ``--check``) is pipelined ≤ 0.8× serial wall
time on the cold-cache 64-chunk workload.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import engine
from repro.core import CompressionSettings
from repro.engine import expr
from repro.reliability import faults
from repro.reliability.faults import FaultPlan, FaultRule
from repro.streaming import ChunkedCompressor, CompressedStore

#: Chunk counts swept (rows = chunks * SLAB_ROWS); --quick keeps the first.
CHUNK_COUNTS = [64, 256]

#: Rows per chunk: one slab (and so one chunk record) per SLAB_ROWS rows.
SLAB_ROWS = 16

#: Columns of the benchmark field: sized so decode work per chunk is real.
COLUMNS = 96

#: Modeled cold-storage latency per chunk read (the ``io_model``).
COLD_DELAY_SECONDS = 0.0003

#: Pipelined must cost at most this fraction of serial on the gated cell.
MAX_PIPELINED_RATIO = 0.8

#: The --check bar applies to this (chunks, cache) cell.
CHECK_CELL = (64, "cold")


def _field(n_chunks: int) -> np.ndarray:
    """Deterministic smooth field (same generator family as the other benches)."""
    rng = np.random.default_rng(4242 + n_chunks)
    shape = (n_chunks * SLAB_ROWS, COLUMNS)
    return (np.cumsum(rng.standard_normal(shape), axis=0) * 0.05).astype(
        np.float64
    )


def _workload(store) -> "engine.Plan":
    """One fused plan over ``store``: a sweep that decodes every chunk."""
    x = expr.source(store)
    return engine.plan({"mean": expr.mean(x), "l2_norm": expr.l2_norm(x)})


def _timed_sweep(path: Path, *, prefetch: bool,
                 repeats: int) -> tuple[dict, float, int, int]:
    """Best-of-``repeats`` wall time for the workload on a fresh handle.

    Returns ``(values, seconds, chunks_read, preads)``.  A fresh handle per
    repeat keeps the chunk cache out of the comparison; counters come from
    the best repeat's handle (they are identical across repeats).
    """
    best = float("inf")
    values: dict = {}
    chunks_read = preads = 0
    for _ in range(repeats):
        with CompressedStore(path) as store:
            fused = _workload(store)  # plan build untimed: same both modes
            start = time.perf_counter()
            values = fused.execute(prefetch=prefetch)
            seconds = time.perf_counter() - start
            if seconds < best:
                best = seconds
                chunks_read = store.chunks_read
                preads = store.preads
    return values, best, chunks_read, preads


def bench_cell(path: Path, n_chunks: int, cache: str, repeats: int) -> dict:
    """Time serial vs pipelined for one (chunks, cache) cell."""
    plan = None
    if cache == "cold":
        plan = FaultPlan(FaultRule(
            kind="latency", path=str(path),
            delay_seconds=COLD_DELAY_SECONDS, times=10 ** 9,
        ))
        faults.install(plan)
    try:
        serial_values, serial_seconds, serial_chunks, serial_preads = \
            _timed_sweep(path, prefetch=False, repeats=repeats)
        pipe_values, pipe_seconds, pipe_chunks, pipe_preads = \
            _timed_sweep(path, prefetch=True, repeats=repeats)
    finally:
        if plan is not None:
            faults.uninstall()
    if serial_values != pipe_values:
        raise AssertionError(
            f"pipelined answers diverged from serial at {n_chunks} chunks "
            f"({cache}): {pipe_values} != {serial_values}"
        )
    if serial_chunks != pipe_chunks:
        raise AssertionError(
            f"pipelined sweep decoded {pipe_chunks} chunks, serial "
            f"{serial_chunks} — the pipeline must not change coverage"
        )
    if pipe_preads >= serial_preads:
        raise AssertionError(
            f"coalescing did not reduce preads ({pipe_preads} vs "
            f"{serial_preads}) at {n_chunks} chunks"
        )
    return {
        "chunks": n_chunks,
        "cache": cache,
        "serial_seconds": serial_seconds,
        "pipelined_seconds": pipe_seconds,
        "pipelined_over_serial": pipe_seconds / serial_seconds,
        "serial_preads": serial_preads,
        "pipelined_preads": pipe_preads,
        "chunks_read": serial_chunks,
        "bit_identical": True,  # asserted above
    }


def format_table(results: list[dict]) -> str:
    header = (
        f"{'chunks':>7s} {'cache':>6s} {'serial ms':>10s} "
        f"{'piped ms':>9s} {'piped/serial':>13s} {'preads':>13s}"
    )
    lines = [header, "-" * len(header)]
    for record in results:
        preads = f"{record['serial_preads']}->{record['pipelined_preads']}"
        lines.append(
            f"{record['chunks']:7d} {record['cache']:>6s} "
            f"{record['serial_seconds'] * 1000:10.2f} "
            f"{record['pipelined_seconds'] * 1000:9.2f} "
            f"{record['pipelined_over_serial']:13.3f} {preads:>13s}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: BENCH_io.json at the "
                             "repo root)")
    parser.add_argument("--quick", action="store_true",
                        help="smallest store and fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per mode, best-of (default: 5, "
                             "quick: 3)")
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless pipelined ≤ {MAX_PIPELINED_RATIO}x "
                             f"serial on the cold-cache "
                             f"{CHECK_CELL[0]}-chunk cell")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    output = Path(args.output) if args.output else repo_root / "BENCH_io.json"
    chunk_counts = CHUNK_COUNTS[:1] if args.quick else CHUNK_COUNTS
    repeats = args.repeats or (3 if args.quick else 5)

    settings = CompressionSettings(
        block_shape=(4, 4), float_format="float32", index_dtype="int16"
    )
    results: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_io_") as tmp:
        for n_chunks in chunk_counts:
            path = Path(tmp) / f"io_{n_chunks}.rcs"
            compressor = ChunkedCompressor(settings, slab_rows=SLAB_ROWS)
            compressor.compress_to_store(_field(n_chunks), path).close()
            for cache in ("warm", "cold"):
                print(f"benchmarking {n_chunks} chunks ({cache}) ...",
                      flush=True)
                results.append(bench_cell(path, n_chunks, cache, repeats))

    payload = {
        "harness": "benchmarks/bench_io.py",
        "units": {
            "seconds": "best-of-repeats wall seconds on a fresh store handle",
            "preads": "physical positional reads during the timed sweep",
        },
        "workload": {
            "chunk_counts": chunk_counts,
            "slab_rows": SLAB_ROWS,
            "columns": COLUMNS,
            "repeats": repeats,
            "operations": ["mean", "l2_norm"],
        },
        "io_model": {
            "warm": "store file in the OS page cache; preads are memcpy-fast",
            "cold": f"latency fault rule sleeps {COLD_DELAY_SECONDS}s before "
                    "every chunk read (deterministic model of uncached "
                    "storage; containers cannot drop the host page cache)",
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    table = format_table(results)
    print()
    print(table)
    # the committed table follows the committed record; --output keeps both out
    text = (output.with_suffix(".txt") if args.output
            else repo_root / "benchmarks" / "results" / "bench_io.txt")
    text.write_text(table + "\n")
    print(f"\nwrote {output} and {text}")

    if args.check:
        gated = [record for record in results
                 if (record["chunks"], record["cache"]) == CHECK_CELL]
        if not gated:
            print(f"check failed: gated cell {CHECK_CELL} was not measured",
                  file=sys.stderr)
            return 1
        ratio = gated[0]["pipelined_over_serial"]
        if ratio > MAX_PIPELINED_RATIO:
            print(f"check failed: pipelined/serial {ratio:.3f} > "
                  f"{MAX_PIPELINED_RATIO} on the cold {CHECK_CELL[0]}-chunk "
                  f"cell", file=sys.stderr)
            return 1
        print(f"check passed: pipelined/serial {ratio:.3f} ≤ "
              f"{MAX_PIPELINED_RATIO} on the cold {CHECK_CELL[0]}-chunk cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
