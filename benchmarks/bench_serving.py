"""Serving harness: coalesced fused-plan serving vs naive per-request plans.

Emits a *machine-readable* record — ``BENCH_serving.json`` at the repository
root — measuring what the query service's windowed request coalescing
(:mod:`repro.serving`) buys under concurrent load.  For each client count the
same workload runs against two servers over the same two-store catalog: the
**coalesced** server compiles every request queued within one coalescing window
into a single fused plan (the planner dedups overlapping folds across
requests), while the **naive** server executes one plan per request.  Each
client thread fires a fixed number of requests back-to-back through its own
connection; the harness records queries/sec plus client-side p50/p99 latency,
and verifies served results are bit-identical to local engine evaluation.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_serving.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_serving.py --check    # enforce the bar

The acceptance bar (enforced by ``--check``) is coalesced throughput ≥ 1.5×
naive throughput at the highest client count run.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import engine
from repro.core import CompressionSettings
from repro.engine import expr
from repro.serving import ChunkCache, QueryClient, StoreCatalog, ThreadedQueryService
from repro.streaming import ChunkedCompressor

#: Client counts swept per mode (quick is the CI smoke sweep).
CLIENT_COUNTS = {"quick": [2, 6], "full": [2, 4, 8]}

#: Coalesced must beat naive by at least this factor at the top client count.
MIN_COALESCED_SPEEDUP = 1.5

#: Longest coalescing window used by both servers (naive closes its windows
#: by the same rule, so the comparison isolates plan fusion, not scheduling).
TICK_SECONDS = 0.005

#: Per-client request mix: overlapping statistics over the catalog pair, the
#: many-users-shared-dashboards shape coalescing is built for.
REQUEST_MIX = [
    {"mean_a": expr.mean(expr.source("a")),
     "var_a": expr.variance(expr.source("a"))},
    {"dot": expr.dot(expr.source("a"), expr.source("b")),
     "mean_a": expr.mean(expr.source("a"))},
    {"cos": expr.cosine_similarity(expr.source("a"), expr.source("b"))},
    {"l2_b": expr.l2_norm(expr.source("b")),
     "cov": expr.covariance(expr.source("a"), expr.source("b"))},
]


def _build_catalog_paths(workdir: Path, shape: tuple[int, ...],
                         slab_rows: int) -> dict[str, Path]:
    """Two deterministic, identically chunked stores for the catalog."""
    rng = np.random.default_rng(2023)
    settings = CompressionSettings(
        block_shape=(4, 4), float_format="float32", index_dtype="int16"
    )
    chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
    paths = {}
    for name in ("a", "b"):
        data = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
        chunked.compress_to_store(data, workdir / f"{name}.pblzc").close()
        paths[name] = workdir / f"{name}.pblzc"
    return paths


def _local_reference(catalog: StoreCatalog) -> list[dict]:
    """Every request in the mix evaluated locally (the bit-identity oracle)."""
    references = []
    for outputs in REQUEST_MIX:
        resolved = {
            name: expr.Reduction(
                node.op,
                tuple(expr.source(catalog.get(operand.wrapped))
                      for operand in node.operands),
                node.options,
            )
            for name, node in outputs.items()
        }
        references.append(engine.evaluate(resolved))
    return references


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of a sorted, non-empty sample."""
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _run_clients(host: str, port: int, n_clients: int,
                 requests_per_client: int, references: list[dict]) -> dict:
    """Fire the workload from ``n_clients`` threads; returns timing + latencies."""
    barrier = threading.Barrier(n_clients + 1)
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            with QueryClient(host, port) as client:
                barrier.wait(timeout=30)
                for step in range(requests_per_client):
                    which = (index + step) % len(REQUEST_MIX)
                    start = time.perf_counter()
                    results = client.evaluate(REQUEST_MIX[which])
                    latencies[index].append(time.perf_counter() - start)
                    for name, value in results.items():
                        if value != references[which][name]:
                            raise AssertionError(
                                f"served {name} diverged from local evaluation"
                            )
        except BaseException as exc:  # noqa: BLE001 - surfaced to the harness
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:  # pragma: no cover
                pass

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(n_clients)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    seconds = time.perf_counter() - start
    if errors:
        raise errors[0]
    flat = sorted(second for per_client in latencies for second in per_client)
    return {
        "seconds": seconds,
        "qps": len(flat) / seconds,
        "p50_seconds": _quantile(flat, 0.50),
        "p99_seconds": _quantile(flat, 0.99),
        "n_requests": len(flat),
    }


def bench_mode(paths: dict[str, Path], coalesce: bool, n_clients: int,
               requests_per_client: int) -> dict:
    """One (mode, client count) cell: fresh server + cache, warmed, then timed."""
    with StoreCatalog(paths, cache=ChunkCache()) as catalog:
        references = _local_reference(catalog)
        with ThreadedQueryService(catalog, tick=TICK_SECONDS,
                                  coalesce=coalesce) as served:
            # warm-up: open stores, populate the chunk cache, JIT nothing
            _run_clients(served.host, served.port, n_clients=2,
                         requests_per_client=2, references=references)
            timing = _run_clients(served.host, served.port, n_clients,
                                  requests_per_client, references)
            with QueryClient(served.host, served.port) as client:
                plans = client.stats()["plans"]
    timing["plans_executed"] = plans["executed"]
    timing["mean_batch"] = plans["mean_batch"]
    timing["max_batch"] = plans["max_batch"]
    return timing


def bench_client_count(paths: dict[str, Path], n_clients: int,
                       requests_per_client: int) -> dict:
    """Coalesced vs naive at one concurrency level."""
    coalesced = bench_mode(paths, True, n_clients, requests_per_client)
    naive = bench_mode(paths, False, n_clients, requests_per_client)
    return {
        "clients": n_clients,
        "requests_per_client": requests_per_client,
        "coalesced": coalesced,
        "naive": naive,
        "coalesced_over_naive_qps": coalesced["qps"] / naive["qps"],
        "bit_identical": True,  # _run_clients raises on any divergence
    }


def format_table(results: list[dict]) -> str:
    header = (
        f"{'clients':>7s} {'mode':>9s} {'qps':>8s} {'p50 ms':>8s} {'p99 ms':>8s} "
        f"{'plans':>6s} {'mean batch':>10s} {'speedup':>8s}"
    )
    lines = [header, "-" * len(header)]
    for record in results:
        for mode in ("coalesced", "naive"):
            cell = record[mode]
            speedup = (f"{record['coalesced_over_naive_qps']:8.2f}"
                       if mode == "coalesced" else f"{'':>8s}")
            lines.append(
                f"{record['clients']:7d} {mode:>9s} {cell['qps']:8.1f} "
                f"{cell['p50_seconds'] * 1000:8.2f} "
                f"{cell['p99_seconds'] * 1000:8.2f} "
                f"{cell['plans_executed']:6d} {cell['mean_batch']:10.2f} {speedup}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: BENCH_serving.json at "
                             "the repo root)")
    parser.add_argument("--quick", action="store_true",
                        help="small stores and low client counts (CI smoke)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per client (default: 24, quick: 10)")
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless coalesced qps ≥ "
                             f"{MIN_COALESCED_SPEEDUP}x naive at the highest "
                             "client count")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    output = Path(args.output) if args.output else repo_root / "BENCH_serving.json"
    shape, slab_rows = ((320, 96), 8) if args.quick else ((768, 128), 16)
    requests_per_client = args.requests or (10 if args.quick else 24)

    results: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_serving_") as tmp:
        paths = _build_catalog_paths(Path(tmp), shape, slab_rows)
        for n_clients in CLIENT_COUNTS["quick" if args.quick else "full"]:
            print(f"benchmarking {n_clients} clients ...", flush=True)
            results.append(
                bench_client_count(paths, n_clients, requests_per_client)
            )

    payload = {
        "harness": "benchmarks/bench_serving.py",
        "units": {"qps": "client requests completed per wall-clock second",
                  "latency": "client-side seconds per request (nearest-rank)"},
        "workload": {
            "store_shape": list(shape),
            "slab_rows": slab_rows,
            "tick_seconds": TICK_SECONDS,
            "request_mix": [sorted(request) for request in REQUEST_MIX],
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
            else repo_root / "benchmarks" / "results" / "bench_serving.txt")
    text.write_text(table + "\n")
    print(f"\nwrote {output} and {text}")

    if args.check:
        top = max(results, key=lambda record: record["clients"])
        speedup = top["coalesced_over_naive_qps"]
        if speedup < MIN_COALESCED_SPEEDUP:
            print(f"check failed: coalesced/naive qps {speedup:.2f} < "
                  f"{MIN_COALESCED_SPEEDUP} at {top['clients']} clients",
                  file=sys.stderr)
            return 1
        print(f"check passed: coalesced/naive qps {speedup:.2f} ≥ "
              f"{MIN_COALESCED_SPEEDUP} at {top['clients']} clients")
    return 0


if __name__ == "__main__":
    sys.exit(main())
