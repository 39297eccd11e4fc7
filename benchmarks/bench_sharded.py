"""Sharded-store harness: incremental partial-served queries vs full sweeps.

Emits a *machine-readable* record — ``BENCH_sharded.json`` at the repository
root — measuring what persisted per-shard fold partials
(:mod:`repro.streaming.sharded`) buy over a growing store.  A base store is
sharded once, then grown by appending fractions of its size; after each growth
step the same reduction workload (``mean`` + ``l2_norm`` + ``dot(x, x)``, one
fused plan) runs two ways over freshly opened handles:

* **full** — ``ShardedStore(use_partials=False)``: the plan sweeps and decodes
  every chunk of every shard, the cost an unsharded store pays per query.
* **incremental** — partials enabled: the plan serves each fold from the
  persisted per-shard vectors, decoding nothing; only the *append* paid a
  sweep of the new shard (O(new chunks)).

Both answers are asserted bit-identical before any timing is trusted.  The
harness also records the append cost itself (compress + partial update) next
to the cost of re-sharding from scratch, the O(new)-vs-O(all) ingest story.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_sharded.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_sharded.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_sharded.py --check    # enforce the bar

The acceptance bar (enforced by ``--check``) is incremental query time ≤ 0.3×
the full-sweep time at every growth fraction ≤ 10%.
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
from repro.streaming import ShardedStore, append_shard, init_sharded_store

#: Growth fractions swept: appended rows as a fraction of the base rows.
GROWTH_FRACTIONS = [0.05, 0.10, 0.25]

#: Incremental must cost at most this fraction of a full sweep at ≤10% growth.
MAX_INCREMENTAL_RATIO = 0.3

#: Growth fractions the --check bar applies to.
CHECK_MAX_GROWTH = 0.10


def _base_array(shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic smooth field (same generator family as the other benches)."""
    rng = np.random.default_rng(2023)
    return (np.cumsum(rng.standard_normal(shape), axis=0) * 0.05).astype(
        np.float64
    )


def _growth_array(shape: tuple[int, ...], step: int) -> np.ndarray:
    """Deterministic appended rows, distinct per growth step."""
    rng = np.random.default_rng(7000 + step)
    return (np.cumsum(rng.standard_normal(shape), axis=0) * 0.05).astype(
        np.float64
    )


def _workload(store) -> "engine.Plan":
    """One fused plan of the incremental-servable reductions over ``store``."""
    x = expr.source(store)
    return engine.plan({
        "mean": expr.mean(x),
        "l2_norm": expr.l2_norm(x),
        "dot_self": expr.dot(x, x),
    })


def _timed_query(path: Path, *, use_partials: bool,
                 repeats: int) -> tuple[dict, float, int, int]:
    """Best-of-``repeats`` wall time for the workload on a fresh handle.

    Returns ``(values, seconds, chunks_read, incremental_groups)``.  A fresh
    handle per repeat keeps the comparison honest: nothing is served from a
    warm in-process object, so "full" really decodes every chunk again.
    """
    best = float("inf")
    values: dict = {}
    chunks_read = incremental = 0
    for _ in range(repeats):
        with ShardedStore(path, use_partials=use_partials) as store:
            fused = _workload(store)  # plan build is untimed: same both modes
            start = time.perf_counter()
            values = fused.execute()
            seconds = time.perf_counter() - start
            chunks_read = store.chunks_read
            incremental = fused.last_execution["incremental_groups"]
        best = min(best, seconds)
    return values, best, chunks_read, incremental


def bench_growth(path: Path, base_rows: int, tail_shape: tuple[int, ...],
                 fraction: float, step: int, slab_rows: int,
                 repeats: int) -> dict:
    """Append ``fraction`` of the base rows, then time both query modes."""
    block_rows = 4  # appended rows stay block-aligned so further appends work
    grown_rows = max(block_rows,
                     int(round(base_rows * fraction / block_rows)) * block_rows)
    grown = _growth_array((grown_rows,) + tail_shape, step)

    start = time.perf_counter()
    append_shard(path, grown, slab_rows=slab_rows).close()
    append_seconds = time.perf_counter() - start

    full_values, full_seconds, full_chunks, full_inc = _timed_query(
        path, use_partials=False, repeats=repeats
    )
    inc_values, inc_seconds, inc_chunks, inc_groups = _timed_query(
        path, use_partials=True, repeats=repeats
    )
    if full_values != inc_values:
        raise AssertionError(
            f"incremental answers diverged from the full sweep at growth "
            f"{fraction}: {inc_values} != {full_values}"
        )
    if inc_groups == 0:
        raise AssertionError(
            "incremental mode fell back to sweeping (stale partials?)"
        )
    with ShardedStore(path) as store:
        n_shards, n_chunks, total_rows = (store.n_shards, store.n_chunks,
                                          store.shape[0])
    return {
        "growth_fraction": fraction,
        "appended_rows": grown_rows,
        "total_rows": total_rows,
        "shards": n_shards,
        "chunks": n_chunks,
        "append_seconds": append_seconds,
        "full_seconds": full_seconds,
        "full_chunks_read": full_chunks,
        "incremental_seconds": inc_seconds,
        "incremental_chunks_read": inc_chunks,
        "incremental_over_full": inc_seconds / full_seconds,
        "bit_identical": True,  # asserted above
    }


def format_table(results: list[dict]) -> str:
    header = (
        f"{'growth':>7s} {'rows':>7s} {'chunks':>7s} {'append ms':>10s} "
        f"{'full ms':>9s} {'incr ms':>9s} {'incr/full':>10s} {'decodes':>8s}"
    )
    lines = [header, "-" * len(header)]
    for record in results:
        lines.append(
            f"{record['growth_fraction'] * 100:6.0f}% {record['total_rows']:7d} "
            f"{record['chunks']:7d} {record['append_seconds'] * 1000:10.2f} "
            f"{record['full_seconds'] * 1000:9.2f} "
            f"{record['incremental_seconds'] * 1000:9.2f} "
            f"{record['incremental_over_full']:10.3f} "
            f"{record['incremental_chunks_read']:8d}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: BENCH_sharded.json at "
                             "the repo root)")
    parser.add_argument("--quick", action="store_true",
                        help="small store and fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per cell, best-of (default: 5, "
                             "quick: 3)")
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless incremental ≤ "
                             f"{MAX_INCREMENTAL_RATIO}x full-sweep time at "
                             f"every growth ≤ {CHECK_MAX_GROWTH:.0%}")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    output = Path(args.output) if args.output else repo_root / "BENCH_sharded.json"
    shape, slab_rows = ((1024, 96), 16) if args.quick else ((2048, 128), 32)
    repeats = args.repeats or (3 if args.quick else 5)

    settings = CompressionSettings(
        block_shape=(4, 4), float_format="float32", index_dtype="int16"
    )
    results: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_sharded_") as tmp:
        path = Path(tmp) / "grown.shards"
        base = _base_array(shape)
        start = time.perf_counter()
        init_sharded_store(path, base, settings, slab_rows=slab_rows).close()
        init_seconds = time.perf_counter() - start
        for step, fraction in enumerate(GROWTH_FRACTIONS):
            print(f"benchmarking growth {fraction:.0%} ...", flush=True)
            results.append(
                bench_growth(path, shape[0], shape[1:], fraction, step,
                             slab_rows, repeats)
            )

    payload = {
        "harness": "benchmarks/bench_sharded.py",
        "units": {
            "seconds": "best-of-repeats wall seconds on a fresh store handle",
            "decodes": "chunks decoded during the timed query",
        },
        "workload": {
            "base_shape": list(shape),
            "slab_rows": slab_rows,
            "repeats": repeats,
            "init_seconds": init_seconds,
            "operations": ["mean", "l2_norm", "dot_self"],
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
            else repo_root / "benchmarks" / "results" / "bench_sharded.txt")
    text.write_text(table + "\n")
    print(f"\nwrote {output} and {text}")

    if args.check:
        gated = [record for record in results
                 if record["growth_fraction"] <= CHECK_MAX_GROWTH]
        worst = max(gated, key=lambda record: record["incremental_over_full"])
        ratio = worst["incremental_over_full"]
        if ratio > MAX_INCREMENTAL_RATIO:
            print(f"check failed: incremental/full {ratio:.3f} > "
                  f"{MAX_INCREMENTAL_RATIO} at growth "
                  f"{worst['growth_fraction']:.0%}", file=sys.stderr)
            return 1
        print(f"check passed: incremental/full {ratio:.3f} ≤ "
              f"{MAX_INCREMENTAL_RATIO} at every growth ≤ "
              f"{CHECK_MAX_GROWTH:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
