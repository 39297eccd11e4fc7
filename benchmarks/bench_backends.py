"""Kernel-backend throughput harness: shapes × backends × compress/decompress.

Unlike the pytest-benchmark figures, this harness emits a *machine-readable*
record — ``BENCH_backends.json`` at the repository root — so the throughput
trajectory of the kernel backends can be tracked across commits (and uploaded
as a CI artifact).  A formatted table is printed to stdout and mirrored to
``benchmarks/results/bench_backends.txt`` alongside the text ablations (next to
the ``--output`` path instead when one is given).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_backends.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_backends.py --quick    # small shapes only

The headline workload is the 256³ float32 DCT 4³-block compression the paper's
GPU argument centres on; the acceptance bar (enforced by ``--check``) is the
``gemm`` backend compressing it ≥ 3× faster than ``reference``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import CompressionSettings, Compressor
from repro.kernels import available_backends, backend_is_available, get_backend_class

#: (label, shape, block, transform, float_format, index_dtype, quick)
WORKLOADS = [
    ("64^3 float32 dct 4^3", (64, 64, 64), (4, 4, 4), "dct", "float32", "int16", True),
    ("1024^2 float32 dct 8^2", (1024, 1024), (8, 8), "dct", "float32", "int16", True),
    ("128^3 float64 dct 4^3", (128, 128, 128), (4, 4, 4), "dct", "float64", "int16", False),
    ("256^3 float32 dct 4^3", (256, 256, 256), (4, 4, 4), "dct", "float32", "int16", False),
]

#: The acceptance workload and bar checked by ``--check``.
HEADLINE = "256^3 float32 dct 4^3"
HEADLINE_MIN_SPEEDUP = 3.0


def _workload_array(shape: tuple[int, ...], float_format: str) -> np.ndarray:
    """Deterministic compressible input at the workload's native dtype."""
    rng = np.random.default_rng(2023)
    array = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    dtype = np.float32 if float_format in ("bfloat16", "float16", "float32") else np.float64
    return np.ascontiguousarray(array, dtype=dtype)


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_workload(label, shape, block, transform, float_format, index_dtype, repeats):
    """Time every available backend on one workload; one dict per backend."""
    settings = CompressionSettings(
        block_shape=block, float_format=float_format,
        index_dtype=index_dtype, transform=transform,
    )
    array = _workload_array(shape, float_format)
    megabytes = array.nbytes / 1e6
    records = []
    for backend in available_backends():
        base = {
            "workload": label,
            "shape": list(shape),
            "block": list(block),
            "transform": transform,
            "float_format": float_format,
            "index_dtype": index_dtype,
            "backend": backend,
            "input_megabytes": megabytes,
        }
        if not backend_is_available(backend):
            records.append(
                {**base, "available": False,
                 "reason": get_backend_class(backend).unavailable_reason()}
            )
            continue
        compressor = Compressor(settings, backend=backend)
        warm = compressor.compress(array[: block[0] * 2])  # noqa: F841 — JIT/cache warm-up
        compressed = compressor.compress(array)
        compress_seconds = _best_seconds(lambda: compressor.compress(array), repeats)
        decompress_seconds = _best_seconds(lambda: compressor.decompress(compressed), repeats)
        records.append(
            {
                **base,
                "available": True,
                "compress_seconds": compress_seconds,
                "decompress_seconds": decompress_seconds,
                "compress_mb_per_s": megabytes / compress_seconds,
                "decompress_mb_per_s": megabytes / decompress_seconds,
            }
        )
    reference = next(r for r in records if r["backend"] == "reference")
    for record in records:
        if record.get("available"):
            record["compress_speedup_vs_reference"] = (
                reference["compress_seconds"] / record["compress_seconds"]
            )
            record["decompress_speedup_vs_reference"] = (
                reference["decompress_seconds"] / record["decompress_seconds"]
            )
    return records


def format_table(results: list[dict]) -> str:
    header = (
        f"{'workload':24s} {'backend':10s} {'compress MB/s':>14s} "
        f"{'decompress MB/s':>16s} {'speedup':>8s}"
    )
    lines = [header, "-" * len(header)]
    for record in results:
        if not record.get("available", False):
            lines.append(
                f"{record['workload']:24s} {record['backend']:10s} "
                f"{'skipped (' + (record.get('reason') or 'unavailable') + ')':>40s}"
            )
            continue
        lines.append(
            f"{record['workload']:24s} {record['backend']:10s} "
            f"{record['compress_mb_per_s']:14.1f} {record['decompress_mb_per_s']:16.1f} "
            f"{record['compress_speedup_vs_reference']:7.2f}x"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: BENCH_backends.json at the repo root)")
    parser.add_argument("--quick", action="store_true",
                        help="small shapes only (for CI smoke; skips the headline workload)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per timing; the best is recorded (default 3)")
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless gemm compresses the headline workload "
                             f"≥{HEADLINE_MIN_SPEEDUP}x faster than reference")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    output = Path(args.output) if args.output else repo_root / "BENCH_backends.json"

    results: list[dict] = []
    for label, shape, block, transform, float_format, index_dtype, quick in WORKLOADS:
        if args.quick and not quick:
            continue
        print(f"benchmarking {label} ...", flush=True)
        results.extend(
            bench_workload(label, shape, block, transform, float_format, index_dtype,
                           args.repeats)
        )

    payload = {
        "harness": "benchmarks/bench_backends.py",
        "units": {"throughput": "MB/s of input at its native dtype",
                  "seconds": "best of --repeats wall-clock"},
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
            else repo_root / "benchmarks" / "results" / "bench_backends.txt")
    text.write_text(table + "\n")
    print(f"\nwrote {output} and {text}")

    if args.check:
        headline = [r for r in results if r["workload"] == HEADLINE and r["backend"] == "gemm"]
        if not headline:
            print(f"check failed: headline workload {HEADLINE!r} was not run "
                  "(did you pass --quick?)", file=sys.stderr)
            return 1
        speedup = headline[0]["compress_speedup_vs_reference"]
        if speedup < HEADLINE_MIN_SPEEDUP:
            print(f"check failed: gemm speedup {speedup:.2f}x < {HEADLINE_MIN_SPEEDUP}x",
                  file=sys.stderr)
            return 1
        print(f"check passed: gemm speedup {speedup:.2f}x ≥ {HEADLINE_MIN_SPEEDUP}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
