"""Engine fusion harness: fused plan vs sequential ops, wall-clock and decode passes.

Emits a *machine-readable* record — ``BENCH_engine.json`` at the repository
root — tracking what the lazy plan engine (:mod:`repro.engine`) buys over
op-by-op :mod:`repro.streaming.ops` calls on the six-reduction workload the
acceptance bar centres on: ``mean``, ``variance``, ``l2_norm``, ``dot``,
``covariance`` and ``cosine_similarity`` over two identically chunked stores.
Sequential evaluation sweeps the stores once per op (9 decode passes across
the pair); the fused plan schedules the same folds into exactly 1 pass per
store and produces bit-identical scalars (verified per run).  Each workload
also records the best-of-repeats time of the one-output plan ``mean(a − b)``,
whose ``subtract`` node only the ``dc`` fold reads and so is re-binned only to
its DC column; its value is checked against the mean of the fully re-binned
node (the same plan with an ``l2_norm`` of the node added), and it stays
outside the ``--check`` ratio.
A formatted table
is printed to stdout and written next to the JSON record: by default
``benchmarks/results/bench_engine.txt``, else ``--output`` with a ``.txt``
suffix, so a run into a scratch path leaves the committed records alone.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # small stores only
    PYTHONPATH=src python benchmarks/bench_engine.py --check    # enforce the bar

The acceptance bar (enforced by ``--check``): fused wall-clock ≤ 0.6× the
sequential wall-clock on the 2-D headline workload.
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
from repro.streaming import ChunkedCompressor
from repro.streaming import ops as stream_ops

#: (label, shape, slab_rows, quick)
WORKLOADS = [
    ("128x64 f32 slab16", (128, 64), 16, True),
    ("512x192 f32 slab32", (512, 192), 32, True),
    ("1024x384 f32 slab16", (1024, 384), 16, False),
    ("256x256x256 f32 slab32", (256, 256, 256), 32, False),
]

#: The acceptance workload and bar checked by ``--check``.
HEADLINE = "1024x384 f32 slab16"
MAX_FUSED_RATIO = 0.6

#: The six-reduction acceptance workload.
SIX_OPS = ("mean", "variance", "l2_norm", "dot", "covariance", "cosine_similarity")


def _store_pair(workdir: Path, shape: tuple[int, ...], slab_rows: int):
    """Two deterministic, identically chunked stores for one workload."""
    rng = np.random.default_rng(2023)
    settings = CompressionSettings(
        block_shape=(4,) * len(shape), float_format="float32", index_dtype="int16"
    )
    # gemm-backed *compression* only speeds store creation (untimed); the
    # reopened stores carry reference settings, so every timed sweep below
    # still reads the same bits regardless of this choice.
    chunked = ChunkedCompressor(settings, slab_rows=slab_rows, backend="gemm")
    a = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    b = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    return (
        chunked.compress_to_store(a, workdir / "a.pblzc"),
        chunked.compress_to_store(b, workdir / "b.pblzc"),
    )


def _sequential(store_a, store_b) -> dict:
    """The six reductions as independent streaming.ops calls (one sweep each)."""
    return {
        "mean": stream_ops.mean(store_a),
        "variance": stream_ops.variance(store_a),
        "l2_norm": stream_ops.l2_norm(store_a),
        "dot": stream_ops.dot(store_a, store_b),
        "covariance": stream_ops.covariance(store_a, store_b),
        "cosine_similarity": stream_ops.cosine_similarity(store_a, store_b),
    }


def _fused_plan(store_a, store_b):
    """The same six reductions as one fused engine plan."""
    x, y = expr.source(store_a), expr.source(store_b)
    return engine.plan({
        "mean": expr.mean(x),
        "variance": expr.variance(x),
        "l2_norm": expr.l2_norm(x),
        "dot": expr.dot(x, y),
        "covariance": expr.covariance(x, y),
        "cosine_similarity": expr.cosine_similarity(x, y),
    })


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_workload(label: str, shape: tuple[int, ...], slab_rows: int,
                   repeats: int) -> dict:
    """Time sequential vs fused on one store pair; verify bit-identity."""
    with tempfile.TemporaryDirectory(prefix="bench_engine_") as tmp:
        workdir = Path(tmp)
        store_a, store_b = _store_pair(workdir, shape, slab_rows)
        with store_a, store_b:
            plan = _fused_plan(store_a, store_b)

            # decode-pass accounting straight off the stores' read counters
            before = (store_a.chunks_read, store_b.chunks_read)
            sequential_values = _sequential(store_a, store_b)
            sequential_passes = (
                (store_a.chunks_read - before[0]) // store_a.n_chunks,
                (store_b.chunks_read - before[1]) // store_b.n_chunks,
            )
            before = (store_a.chunks_read, store_b.chunks_read)
            fused_values = plan.execute()
            fused_passes = (
                (store_a.chunks_read - before[0]) // store_a.n_chunks,
                (store_b.chunks_read - before[1]) // store_b.n_chunks,
            )
            mismatched = [op for op in SIX_OPS
                          if sequential_values[op] != fused_values[op]]
            if mismatched:
                raise AssertionError(
                    f"fused results diverged from sequential on {mismatched}"
                )

            sequential_seconds = _best_seconds(
                lambda: _sequential(store_a, store_b), repeats
            )
            fused_seconds = _best_seconds(plan.execute, repeats)

            node = expr.subtract(store_a, store_b)
            difference = engine.plan(expr.mean(node))
            # an l2_norm reader makes the planner re-bin the node in full
            full = engine.plan({"mean": expr.mean(node), "l2": expr.l2_norm(node)})
            if difference.execute() != full.execute()["mean"]:
                raise AssertionError("mean(a - b) diverged from the mean of the "
                                     "fully re-binned difference")
            mean_difference_seconds = _best_seconds(difference.execute, repeats)
            return {
                "workload": label,
                "shape": list(shape),
                "slab_rows": slab_rows,
                "n_chunks": store_a.n_chunks,
                "operations": list(SIX_OPS),
                "sequential_seconds": sequential_seconds,
                "fused_seconds": fused_seconds,
                "fused_over_sequential": fused_seconds / sequential_seconds,
                "sequential_decode_passes": list(sequential_passes),
                "fused_decode_passes": list(fused_passes),
                "mean_difference_seconds": mean_difference_seconds,
                "bit_identical": True,
            }


def format_table(results: list[dict]) -> str:
    header = (
        f"{'workload':22s} {'chunks':>6s} {'sequential s':>13s} {'fused s':>9s} "
        f"{'ratio':>6s} {'decode passes (a,b)':>21s} {'mean(a-b) s':>12s}"
    )
    lines = [header, "-" * len(header)]
    for record in results:
        passes = (f"{record['sequential_decode_passes']}"
                  f"->{record['fused_decode_passes']}")
        lines.append(
            f"{record['workload']:22s} {record['n_chunks']:6d} "
            f"{record['sequential_seconds']:13.4f} {record['fused_seconds']:9.4f} "
            f"{record['fused_over_sequential']:6.2f} {passes:>21s} "
            f"{record['mean_difference_seconds']:12.4f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: BENCH_engine.json at the repo root)")
    parser.add_argument("--quick", action="store_true",
                        help="small stores only (for CI smoke; skips the headline workload)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per timing; the best is recorded (default 3)")
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless fused wall-clock ≤ {MAX_FUSED_RATIO}x "
                             f"sequential on the 6-op headline workload")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    output = Path(args.output) if args.output else repo_root / "BENCH_engine.json"

    results: list[dict] = []
    for label, shape, slab_rows, quick in WORKLOADS:
        if args.quick and not quick:
            continue
        print(f"benchmarking {label} ...", flush=True)
        results.append(bench_workload(label, shape, slab_rows, args.repeats))

    payload = {
        "harness": "benchmarks/bench_engine.py",
        "units": {"seconds": "best of --repeats wall-clock",
                  "decode_passes": "store sweeps per (store_a, store_b)"},
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
    text = (output.with_suffix(".txt") if args.output
            else repo_root / "benchmarks" / "results" / "bench_engine.txt")
    text.write_text(table + "\n")
    print(f"\nwrote {output} and {text}")

    if args.check:
        headline = [r for r in results if r["workload"] == HEADLINE]
        if not headline:
            print(f"check failed: headline workload {HEADLINE!r} was not run "
                  "(did you pass --quick?)", file=sys.stderr)
            return 1
        ratio = headline[0]["fused_over_sequential"]
        if ratio > MAX_FUSED_RATIO:
            print(f"check failed: fused/sequential {ratio:.2f} > {MAX_FUSED_RATIO}",
                  file=sys.stderr)
            return 1
        print(f"check passed: fused/sequential {ratio:.2f} ≤ {MAX_FUSED_RATIO}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
