"""Command-line interface: ``python -m repro`` / the ``repro`` console script.

Subcommands
-----------

``compress``          Compress a ``.npy`` array file with any registered codec.
``decompress``        Reconstruct a ``.npy`` array from a codec stream (the
                      codec is detected from the stream's magic).
``stream-compress``   Compress a ``.npy`` file slab-by-slab (memmapped — the file
                      is never fully loaded) into a chunked store of PyBlaz
                      chunks (stores hold no other codec).
``stream-decompress`` Reconstruct a ``.npy`` array — or just a region of it —
                      from a chunked store, one chunk at a time.
``shard-init``        Create a sharded store directory (manifest + shard 0)
                      from a ``.npy`` file; appends grow it shard by shard
                      (``docs/sharding.md``).
``shard-append``      Append a ``.npy`` file's rows to a sharded store as a
                      new shard, updating the persisted fold partials so
                      reductions stay O(new chunks).
``stream-ops``        Run compressed-domain operation(s) over chunked or
                      sharded store(s)
                      out-of-core: scalar reductions print their value, the
                      array-valued operations write a new store chunk-by-chunk
                      (see ``docs/ops.md`` for the operation contracts).  The
                      ``evaluate`` operation fuses several ``--op`` reductions
                      into one planned sweep set (``docs/engine.md``); ``--json``
                      emits a machine-readable result with timing and the fused
                      pass count.
``serve``             Run the asyncio query service over a named catalog of
                      chunked stores: clients submit wire-form reduction
                      requests, and all requests arriving within one scheduler
                      tick are compiled into a single fused plan
                      (``docs/serving.md``).
``query``             Send reduction requests (or stats/catalog probes) to a
                      running ``serve`` instance — ``--op mean:a --op dot:a,b``
                      names reductions over the server's catalog names.
``verify-store``      Scan every chunk of a chunked store against its recorded
                      checksums (format v3) and report per-chunk status;
                      ``--repair-from MIRROR`` rebuilds corrupt chunks from a
                      replica (``docs/reliability.md``).  Sharded stores are
                      verified recursively — the report names the corrupt
                      shard *and* chunk, and repair takes a mirror directory.
``codecs``            List every registered codec with its capabilities and its
                      compression ratio on a standard 256×256 float64 probe.
``backends``          List every registered kernel backend (the execution
                      strategy of the transform+binning hot loop) with its
                      availability and exactness contract.
``info``              Print the header, settings and ratio of a codec stream or
                      chunked store.
``experiment``        Run one of the paper-reproduction experiments and print its
                      table.

Exit codes: 0 success, 2 usage errors (mismatched block dimensionality, invalid
region), 3 codec errors (:class:`repro.core.errors.CodecError` — unsupported
dtype/shape/parameters, unknown codec, corrupt stream).

Examples
--------

::

    repro compress input.npy output.pblz --block 4,4,4 --float float32 --index int16
    repro compress input.npy output.pblz --backend gemm
    repro compress input.npy output.zfp --codec zfp --bits 16
    repro decompress output.zfp roundtrip.npy
    repro stream-compress input.npy output.pblzc --block 4,4,4 --slab-rows 64
    repro stream-decompress output.pblzc roundtrip.npy --region 0:32,:,:
    repro shard-init day0.npy climate.shards --block 4,4 --slab-rows 64
    repro shard-append climate.shards day1.npy
    repro stream-ops mean climate.shards
    repro stream-ops dot a.pblzc b.pblzc
    repro stream-ops evaluate a.pblzc b.pblzc --op mean --op variance --op dot --json
    repro stream-ops add a.pblzc b.pblzc --out sum.pblzc
    repro stream-ops scale a.pblzc --scalar 2.5 --out scaled.pblzc
    repro serve temps=temps.pblzc wind=wind.pblzc --port 7777
    repro serve temps=temps.pblzc --port 7777 --deadline 5 --max-in-flight 64
    repro query --port 7777 --op mean:temps --op covariance:temps,wind --json
    repro query --port 7777 --op mean:temps --retries 3 --deadline 10
    repro query --port 7777 --stats
    repro verify-store temps.pblzc
    repro verify-store temps.pblzc --repair-from mirror/temps.pblzc
    repro verify-store climate.shards --repair-from mirror.shards
    repro codecs
    repro backends
    repro info output.pblz
    repro experiment table1
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import experiments
from .codecs import available_codecs, detect_codec, get_codec, get_codec_class
from .codecs.serialization import DECODE_ERRORS
from .core import CompressionSettings
from .core.codec import compressed_size_bits, compression_ratio
from .core.exceptions import CodecError
from .core.ops.folds import REDUCTION_SPECS
from .kernels import (
    DEFAULT_BACKEND,
    available_backends,
    backend_is_available,
    get_backend_class,
)
from .serving import DEFAULT_TICK_SECONDS
from .streaming import ChunkedCompressor
from .streaming.sharded import (append_shard, init_sharded_store,
                                is_sharded_store, open_store)
from .streaming.store import STORE_MAGIC

__all__ = ["main", "build_parser"]

#: Exit code for :class:`CodecError` (bad dtype/shape/params, unknown codec, ...).
CODEC_ERROR_EXIT = 3

_EXPERIMENTS = {
    "table1": experiments.table1_operations,
    "ratio": experiments.compression_ratio,
    "fig2": experiments.fig2_blaz,
    "fig3": experiments.fig3_zfp,
    "fig4": experiments.fig4_shallow_water,
    "fig5": experiments.fig5_lgg,
    "fig6": experiments.fig6_fission,
    "fig7": experiments.fig7_op_times,
    "error-bounds": experiments.error_bounds,
}


def _parse_block(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid block shape {text!r}") from exc


def _positive_int(text: str) -> int:
    """Parse a count that must be at least 1 (``--workers``, ``--slab-rows``)."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """Parse a budget that may be 0 but not negative (``--cache-bytes``)."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _seconds(text: str, *, zero_ok: bool) -> float:
    """Parse a finite, non-negative (or with ``zero_ok=False`` positive) duration."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value {text!r}") from exc
    if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
        bound = "non-negative" if zero_ok else "positive"
        raise argparse.ArgumentTypeError(
            f"must be a finite {bound} number of seconds, got {text}")
    return value


def _non_negative_seconds(text: str) -> float:
    """Parse a duration that may be 0 (``serve --tick``)."""
    return _seconds(text, zero_ok=True)


def _positive_seconds(text: str) -> float:
    """Parse a duration that must exceed 0 (``--deadline``, ``query --timeout``)."""
    return _seconds(text, zero_ok=False)


def _parse_region(text: str) -> tuple:
    """Parse a numpy-style region like ``0:32,:,4`` into a tuple of slices/ints."""
    region = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ":" in part:
                pieces = [int(p) if p.strip() else None for p in part.split(":")]
                if len(pieces) > 3:
                    raise ValueError(part)
                region.append(slice(*pieces))
            else:
                region.append(int(part))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid region {text!r}") from exc
    return tuple(region)


def _add_codec_options(parser: argparse.ArgumentParser) -> None:
    """The codec selector plus every codec's tuning knobs (each applies only to
    its codec)."""
    parser.add_argument("--codec", default="pyblaz", choices=list(available_codecs()),
                        help="registered codec to compress with (default: pyblaz)")
    _add_pyblaz_options(parser)
    parser.add_argument("--bits", type=int, default=16,
                        help="zfp fixed rate in bits per value")
    parser.add_argument("--error-bound", type=float, default=1e-6,
                        help="sz absolute error bound")
    parser.add_argument("--levels", type=int, default=8,
                        help="sz interpolation levels")


def _add_pyblaz_options(parser: argparse.ArgumentParser) -> None:
    """The pyblaz pipeline knobs (the historical defaults)."""
    parser.add_argument("--block", type=_parse_block, default=(4, 4, 4),
                        help="pyblaz block shape, e.g. 4,4,4")
    parser.add_argument("--float", dest="float_format", default="float32",
                        choices=["bfloat16", "float16", "float32", "float64"],
                        help="pyblaz working float format")
    parser.add_argument("--index", dest="index_dtype", default="int16",
                        choices=["int8", "int16", "int32", "int64"],
                        help="pyblaz bin-index type")
    parser.add_argument("--transform", default="dct", choices=["dct", "haar", "identity"],
                        help="pyblaz orthonormal transform")
    parser.add_argument("--backend", default=None, choices=list(available_backends()),
                        help="pyblaz kernel backend for the transform+binning hot loop "
                             "(default: reference, the bit-exact path; see `repro backends`)")


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PyBlaz reproduction: compressed arrays with compressed-space operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compress = sub.add_parser("compress", help="compress a .npy file")
    p_compress.add_argument("input", help="input .npy file")
    p_compress.add_argument("output", help="output compressed stream")
    _add_codec_options(p_compress)

    p_decompress = sub.add_parser("decompress", help="decompress a stream to .npy")
    p_decompress.add_argument("input", help="compressed stream")
    p_decompress.add_argument("output", help="output .npy file")
    p_decompress.add_argument("--codec", default=None, choices=list(available_codecs()),
                              help="override the codec detected from the stream magic")
    p_decompress.add_argument("--backend", default=None, choices=list(available_backends()),
                              help="kernel backend for the inverse transform (pyblaz only)")

    p_stream = sub.add_parser(
        "stream-compress",
        help="compress a .npy file slab-by-slab into a chunked store (out-of-core)",
    )
    p_stream.add_argument("input", help="input .npy file (memmapped, never fully loaded)")
    p_stream.add_argument("output", help="output chunked store")
    _add_pyblaz_options(p_stream)
    p_stream.add_argument("--slab-rows", type=_positive_int, default=None,
                          help="rows per slab (rounded up to a block-row multiple)")
    p_stream.add_argument("--workers", type=_positive_int, default=1,
                          help="worker processes compressing slabs concurrently")

    p_unstream = sub.add_parser(
        "stream-decompress",
        help="decompress a chunked store (or a region of it) to .npy",
    )
    p_unstream.add_argument("input", help="chunked store")
    p_unstream.add_argument("output", help="output .npy file")
    p_unstream.add_argument("--region", type=_parse_region, default=None,
                            help="numpy-style region, e.g. 0:32,:,4 "
                                 "(only intersecting chunks are read)")
    p_unstream.add_argument("--backend", default=None, choices=list(available_backends()),
                            help="kernel backend for chunk decompression")

    p_shard_init = sub.add_parser(
        "shard-init",
        help="create a sharded store directory from a .npy file (shard 0)",
    )
    p_shard_init.add_argument("input", help="input .npy file (memmapped)")
    p_shard_init.add_argument("output", help="sharded store directory to create")
    _add_pyblaz_options(p_shard_init)
    p_shard_init.add_argument("--slab-rows", type=_positive_int, default=None,
                              help="rows per chunk (rounded up to a block-row "
                                   "multiple)")
    p_shard_init.add_argument("--no-partials", action="store_true",
                              help="skip persisting per-shard fold partials "
                                   "(queries then always full-sweep)")

    p_shard_append = sub.add_parser(
        "shard-append",
        help="append a .npy file's rows to a sharded store as a new shard",
    )
    p_shard_append.add_argument("store", help="sharded store directory")
    p_shard_append.add_argument("input", help="input .npy file (memmapped)")
    p_shard_append.add_argument("--slab-rows", type=_positive_int, default=None,
                                help="rows per chunk within the new shard")
    p_shard_append.add_argument("--no-partials", action="store_true",
                                help="skip updating the persisted fold "
                                     "partials (marks them stale; queries "
                                     "fall back to full sweeps)")

    p_ops = sub.add_parser(
        "stream-ops",
        help="run compressed-domain operation(s) over chunked store(s) out-of-core",
    )
    p_ops.add_argument("operation",
                       help="compressed-domain operation (see docs/ops.md), or "
                            "`evaluate` to fuse several scalar reductions given "
                            "via --op into one planned sweep (docs/engine.md)")
    p_ops.add_argument("store_a", help="chunked store file or sharded store "
                                       "directory")
    p_ops.add_argument("store_b", nargs="?", default=None,
                       help="second store for the binary operations "
                            "(must be chunked identically to the first)")
    p_ops.add_argument("--op", dest="ops", action="append", default=None,
                       metavar="OPERATION",
                       help="scalar reduction to include in an `evaluate` plan "
                            "(repeatable; all requested reductions share fused "
                            "decode sweeps)")
    p_ops.add_argument("--out", default=None,
                       help="output store path (required by the array-valued "
                            "operations add/subtract/scale/negate)")
    p_ops.add_argument("--scalar", type=float, default=None,
                       help="scale factor (required by `scale`)")
    p_ops.add_argument("--true-mean", action="store_true",
                       help="rescale `mean` to the original element count instead "
                            "of the zero-padded block domain")
    p_ops.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON object (values, "
                            "timing, fused pass count, sweep statistics) "
                            "instead of text lines")

    p_serve = sub.add_parser(
        "serve",
        help="serve fused-plan reductions over a named catalog of chunked stores",
    )
    p_serve.add_argument("stores", nargs="+", metavar="NAME=PATH",
                         help="catalog entries mapping client-visible names to "
                              "chunked store files or sharded store "
                              "directories")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default: 0 = ephemeral; the bound "
                              "port is printed on startup)")
    p_serve.add_argument("--tick", type=_non_negative_seconds,
                         default=DEFAULT_TICK_SECONDS,
                         help="coalescing window in seconds: requests arriving "
                              "within one tick share a single fused plan "
                              f"(default: {DEFAULT_TICK_SECONDS:g})")
    p_serve.add_argument("--no-coalesce", action="store_true",
                         help="execute one plan per request instead of fusing "
                              "each tick's batch (the benchmark baseline)")
    p_serve.add_argument("--cache-bytes", type=_non_negative_int, default=None,
                         help="decoded-chunk LRU cache budget in bytes "
                              "(default: 256 MiB; 0 disables the cache)")
    p_serve.add_argument("--deadline", type=_positive_seconds, default=None,
                         help="per-request wall-clock budget in seconds; a "
                              "request whose batch overruns it gets an explicit "
                              "deadline_exceeded response (default: none)")
    p_serve.add_argument("--max-in-flight", type=_positive_int, default=None,
                         help="admission cap: requests beyond this many "
                              "concurrently queued/executing get an explicit "
                              "overloaded response instead of queueing "
                              "(default: unbounded)")

    p_query = sub.add_parser(
        "query",
        help="send reduction requests to a running `repro serve` instance",
    )
    p_query.add_argument("--host", default="127.0.0.1",
                         help="server host (default: 127.0.0.1)")
    p_query.add_argument("--port", type=int, required=True, help="server port")
    p_query.add_argument("--op", dest="ops", action="append", default=None,
                         metavar="OPERATION:STORES",
                         help="reduction over catalog names, e.g. mean:temps or "
                              "dot:temps,wind (repeatable; all ops ride one "
                              "request)")
    p_query.add_argument("--true-mean", action="store_true",
                         help="rescale `mean` to the original element count "
                              "instead of the zero-padded block domain")
    p_query.add_argument("--stats", action="store_true",
                         help="print the server's metrics snapshot and exit")
    p_query.add_argument("--catalog", action="store_true",
                         help="print the server's catalog listing and exit")
    p_query.add_argument("--json", action="store_true",
                         help="emit the full machine-readable response (values, "
                              "batch coalescing info, server latency)")
    p_query.add_argument("--timeout", type=_positive_seconds, default=30.0,
                         help="socket timeout in seconds (default: 30)")
    p_query.add_argument("--retries", type=int, default=None, metavar="N",
                         help="retry transport failures (connect refused, "
                              "reset, malformed response) up to N attempts "
                              "with decorrelated-jitter backoff, reconnecting "
                              "between attempts (default: fail on the first)")
    p_query.add_argument("--deadline", type=_positive_seconds, default=None,
                         help="client-side wall-clock budget in seconds for "
                              "the whole call including retries (default: "
                              "none)")

    p_verify = sub.add_parser(
        "verify-store",
        help="check every chunk of a chunked store against its checksums",
    )
    p_verify.add_argument("store", help="chunked store file or sharded store "
                                        "directory to scan")
    p_verify.add_argument("--repair-from", metavar="MIRROR", default=None,
                          help="replica store (or sharded mirror directory) to "
                               "copy verified-good chunk payloads from, "
                               "rewriting the store in place (both must be the "
                               "same shape/chunking)")
    p_verify.add_argument("--json", action="store_true",
                          help="emit the machine-readable per-chunk report")

    p_codecs = sub.add_parser("codecs", help="list registered codecs and their capabilities")
    p_codecs.add_argument("--no-probe", action="store_true",
                          help="skip measuring ratios on the 256x256 float64 probe")

    sub.add_parser("backends", help="list registered kernel backends and their contracts")

    p_info = sub.add_parser("info", help="describe a compressed stream or chunked store")
    p_info.add_argument("input", help="compressed stream or chunked store")

    p_exp = sub.add_parser("experiment", help="run a paper-reproduction experiment")
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS))

    return parser


def _pyblaz_settings(args: argparse.Namespace, ndim: int):
    """The pyblaz settings from the CLI knobs.

    Returns ``None`` (after printing to stderr) when the block shape does not
    match the array dimensionality: a usage error (exit 2), not a codec error.
    """
    block = args.block
    if len(block) != ndim:
        print(
            f"error: block shape {block} does not match array dimensionality {ndim}",
            file=sys.stderr,
        )
        return None
    return CompressionSettings(
        block_shape=block,
        float_format=args.float_format,
        index_dtype=args.index_dtype,
        transform=args.transform,
        backend=args.backend or DEFAULT_BACKEND,
    )


def _build_codec(args: argparse.Namespace, ndim: int):
    """Instantiate the requested codec from its CLI knobs.

    Returns ``None`` (after printing to stderr) for usage errors (exit 2, not
    a codec error): the pyblaz block/array dimensionality mismatch, or
    ``--backend`` combined with a codec that has no kernel backends.
    """
    if args.codec != "pyblaz" and args.backend is not None:
        print(f"error: --backend applies to the pyblaz codec, not {args.codec!r}",
              file=sys.stderr)
        return None
    if args.codec == "pyblaz":
        settings = _pyblaz_settings(args, ndim)
        if settings is None:
            return None
        return get_codec("pyblaz", settings=settings, backend=args.backend)
    if args.codec == "zfp":
        return get_codec("zfp", bits_per_value=args.bits)
    if args.codec == "sz":
        return get_codec("sz", error_bound=args.error_bound, levels=args.levels)
    return get_codec(args.codec)


def _cmd_compress(args: argparse.Namespace) -> int:
    array = np.load(args.input)
    codec = _build_codec(args, array.ndim)
    if codec is None:
        return 2
    blob = codec.to_bytes(codec.compress(array))
    with open(args.output, "wb") as handle:
        handle.write(blob)
    print(f"compressed {args.input} {array.shape} -> {args.output} (codec {codec.name})")
    if args.codec == "pyblaz":
        settings = codec.settings
        ratio = compression_ratio(
            settings, array.shape, input_bits_per_element=array.dtype.itemsize * 8
        )
        print(f"settings: {settings.describe()}")
        print(f"accounting ratio vs {array.dtype}: {ratio:.3f}")
    else:
        measured = array.nbytes / len(blob)
        print(f"measured ratio vs {array.dtype}: {measured:.3f}")
    return 0


def _decode_stream(name: str, data: bytes):
    """``from_bytes`` with the exit-code contract enforced: decoding failures on
    truncated/corrupt payloads surface as :class:`CodecError` (exit 3), not as
    raw numpy/struct tracebacks."""
    try:
        return get_codec_class(name).from_bytes(data)
    except CodecError:
        raise
    except DECODE_ERRORS as exc:
        raise CodecError(f"corrupt or truncated {name} stream: {exc}") from exc


def _cmd_decompress(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as handle:
        data = handle.read()
    name = args.codec or detect_codec(data)
    if args.backend is not None and name != "pyblaz":
        print(f"error: --backend applies to the pyblaz codec, not {name!r}", file=sys.stderr)
        return 2
    params = {"backend": args.backend} if args.backend is not None else {}
    array = get_codec(name, **params).decompress(_decode_stream(name, data))
    np.save(args.output, array)
    print(f"decompressed {args.input} -> {args.output} {array.shape} (codec {name})")
    return 0


def _cmd_compress_to_store(args: argparse.Namespace) -> int:
    array = np.load(args.input, mmap_mode="r")
    settings = _pyblaz_settings(args, array.ndim)
    if settings is None:
        return 2
    # bit-identical to one-shot under the default reference backend, with
    # an optional slab process pool; --backend opts into the faster kernels
    chunked = ChunkedCompressor(
        settings, slab_rows=args.slab_rows, n_workers=args.workers, backend=args.backend,
    )
    with chunked.compress_to_store(array, args.output) as store:
        ratio = compression_ratio(
            settings, array.shape, input_bits_per_element=array.dtype.itemsize * 8
        )
        print(f"stream-compressed {args.input} {array.shape} -> {args.output} "
              f"(codec {store.codec_name})")
        print(f"settings: {settings.describe()}")
        print(f"chunks: {store.n_chunks} (slab rows {chunked.slab_rows}, "
              f"workers {chunked.n_workers})")
        print(f"accounting ratio vs {array.dtype}: {ratio:.3f}")
    return 0


def _cmd_stream_decompress(args: argparse.Namespace) -> int:
    with open_store(args.input) as store:
        if args.backend is not None:
            store.backend = args.backend
        if args.region is not None:
            try:
                array = store.load_region(args.region)
            except CodecError:
                raise  # corrupt store/chunk: exit 3, not a usage error
            except (ValueError, IndexError) as exc:
                print(f"error: invalid region for {store.shape}: {exc}", file=sys.stderr)
                return 2
            np.save(args.output, array)
        else:
            # chunk-at-a-time into a memmapped output: never materialises the array
            out = None
            row = 0
            for chunk in store.iter_chunks():
                decompressed = store.decompress_chunk(chunk)
                if out is None:
                    out = np.lib.format.open_memmap(
                        args.output, mode="w+", dtype=decompressed.dtype, shape=store.shape
                    )
                out[row : row + decompressed.shape[0]] = decompressed
                row += decompressed.shape[0]
            out.flush()
            array = out
        print(f"stream-decompressed {args.input} -> {args.output} {array.shape}")
    return 0


def _cmd_shard_init(args: argparse.Namespace) -> int:
    """Create a sharded store directory with the input array as shard 0."""
    array = np.load(args.input, mmap_mode="r")
    settings = _pyblaz_settings(args, array.ndim)
    if settings is None:
        return 2
    with init_sharded_store(args.output, array, settings,
                            slab_rows=args.slab_rows,
                            update_partials=not args.no_partials) as store:
        print(f"shard-init {args.input} {array.shape} -> {args.output} "
              f"(codec {store.codec_name})")
        print(f"shards: {store.n_shards}, chunks: {store.n_chunks}, "
              f"revision {store.revision}")
        print(f"fold partials: "
              f"{'persisted' if store.partials_fresh() else 'disabled'}")
    return 0


def _cmd_shard_append(args: argparse.Namespace) -> int:
    """Append the input array's rows to a sharded store as a new shard."""
    array = np.load(args.input, mmap_mode="r")
    with append_shard(args.store, array, slab_rows=args.slab_rows,
                      update_partials=not args.no_partials) as store:
        print(f"shard-append {args.input} {array.shape} -> {args.store}")
        print(f"shards: {store.n_shards}, rows: {store.shape[0]}, "
              f"chunks: {store.n_chunks}, revision {store.revision}")
        print(f"fold partials: "
              f"{'fresh (queries stay O(new chunks))' if store.partials_fresh() else 'stale (queries full-sweep)'}")
    return 0


#: The scalar reductions by CLI name (``l2_norm`` is spelled ``l2-norm``).
_SCALAR_OPS = {name.replace("_", "-"): spec
               for name, spec in REDUCTION_SPECS.items()}
#: The array-valued stream-ops operations and their arity.
_ARRAY_OPS = {"negate": 1, "scale": 1, "add": 2, "subtract": 2}
#: Operand count of every stream-ops operation.
_ARITY = {**{name: spec.arity for name, spec in _SCALAR_OPS.items()}, **_ARRAY_OPS}
#: Everything the positional `operation` argument accepts.
_OPERATIONS = sorted([*_ARITY, "evaluate"])


def _scalar_expression(name: str, operands, true_mean: bool):
    """The engine expression for CLI reduction ``name`` over stores or names.

    ``true_mean`` (``--true-mean``) sets the ``padded`` option of the
    reductions whose table row takes one.
    """
    from .engine import expr

    spec = _SCALAR_OPS[name]
    options = (("padded", not true_mean),) if "padded" in dict(spec.options) else ()
    return expr.Reduction(spec.name, tuple(map(expr.source, operands)), options)


def _cmd_stream_ops(args: argparse.Namespace) -> int:
    """Evaluate out-of-core compressed-domain operation(s) over store(s).

    Scalar reductions print ``<operation> = <value>`` (full repr precision);
    ``evaluate`` runs every ``--op`` reduction through one fused engine plan;
    array-valued operations write ``--out`` chunk-by-chunk and report its chunk
    count.  ``--json`` swaps the text for one machine-readable object with the
    values, the wall-clock seconds and the fused decode-pass count.  Usage
    errors (unknown operation, wrong arity, missing ``--out``/``--scalar``,
    incompatible chunking) exit 2 and name the valid operation set where
    relevant; codec errors (unreadable store, corrupt chunks) exit 3 via the
    shared :class:`CodecError` mapping.
    """
    import json
    import time

    from . import engine
    from .streaming import ops as stream_ops

    operation = args.operation
    if operation not in _OPERATIONS:
        print(f"error: unknown operation {operation!r}; valid operations: "
              f"{', '.join(_OPERATIONS)}", file=sys.stderr)
        return 2
    if args.ops and operation != "evaluate":
        print("error: --op applies to the `evaluate` operation; run "
              f"`stream-ops evaluate ... --op {operation}` to fuse reductions",
              file=sys.stderr)
        return 2
    if operation == "evaluate":
        requested = list(dict.fromkeys(args.ops or ()))
        if not requested:
            print("error: evaluate needs at least one --op reduction",
                  file=sys.stderr)
            return 2
        unknown = [name for name in requested if name not in _SCALAR_OPS]
        if unknown:
            print(f"error: unknown operation {unknown[0]!r}; valid --op "
                  f"operations: {', '.join(sorted(_SCALAR_OPS))}",
                  file=sys.stderr)
            return 2
    else:
        requested = [operation]
    binary = any(_ARITY[name] == 2 for name in requested)
    if binary and args.store_b is None:
        needing = operation if operation != "evaluate" else ", ".join(
            name for name in requested if _ARITY[name] == 2
        )
        print(f"error: {needing} needs two stores", file=sys.stderr)
        return 2
    if not binary and args.store_b is not None:
        print(f"error: {operation} takes a single store", file=sys.stderr)
        return 2
    if operation in _ARRAY_OPS and args.out is None:
        print(f"error: {operation} writes a store; pass --out", file=sys.stderr)
        return 2
    if operation == "scale" and args.scalar is None:
        print("error: scale needs --scalar", file=sys.stderr)
        return 2
    def run_scalars(store_a, store_b) -> int:
        """Plan + execute the requested reductions as one fused sweep set."""
        operands = [store_a] if store_b is None else [store_a, store_b]
        fused = engine.plan({
            name: _scalar_expression(name, operands[:_ARITY[name]], args.true_mean)
            for name in requested
        })
        start = time.perf_counter()
        values = fused.execute()
        seconds = time.perf_counter() - start
        executed = fused.last_execution or {}
        if args.json:
            stores = [args.store_a] + ([args.store_b] if store_b is not None else [])
            print(json.dumps({
                "operations": values,
                "seconds": seconds,
                "stores": stores,
                "interpreted_groups": executed.get("interpreted_groups"),
                "incremental_groups": executed.get("incremental_groups"),
                "io_seconds": executed.get("io_seconds"),
                "readahead_sweeps": executed.get("readahead_sweeps"),
                "describe": fused.describe(),
            }))
        else:
            for name in requested:
                print(f"{name} = {values[name]!r}")
        return 0

    def report_store(out) -> None:
        """Describe a freshly written array-valued result store."""
        if args.json:
            print(json.dumps({
                "operation": operation,
                "out": args.out,
                "shape": list(out.shape),
                "chunks": out.n_chunks,
            }))
        else:
            print(f"{operation}: wrote {args.out} "
                  f"(shape {out.shape}, chunks {out.n_chunks})")

    try:
        with open_store(args.store_a) as store_a:
            if not binary:
                if operation not in _ARRAY_OPS:
                    return run_scalars(store_a, None)
                if operation == "negate":
                    out = stream_ops.negate(store_a, args.out)
                else:
                    out = stream_ops.scale(store_a, args.scalar, args.out)
                with out:
                    report_store(out)
                return 0
            with open_store(args.store_b) as store_b:
                if operation not in _ARRAY_OPS:
                    return run_scalars(store_a, store_b)
                mapped = stream_ops.add if operation == "add" else stream_ops.subtract
                with mapped(store_a, store_b, args.out) as out:
                    report_store(out)
                return 0
    except CodecError:
        raise  # unreadable or corrupt store: exit 3 via the shared mapping
    except (ValueError, ZeroDivisionError) as exc:
        # mismatched chunking/shapes, pruned DC coefficients, zero norms:
        # usage-level errors, distinct from the CodecError exit-3 contract
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the query service until interrupted (Ctrl-C stops it cleanly)."""
    import asyncio

    from .serving import ChunkCache, QueryService, StoreCatalog

    mapping: dict[str, str] = {}
    for entry in args.stores:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            print(f"error: catalog entries look like NAME=PATH, got {entry!r}",
                  file=sys.stderr)
            return 2
        try:
            if not _is_store(path):
                print(f"error: {path!r} is not a chunked store", file=sys.stderr)
                return 2
        except OSError as exc:
            print(f"error: cannot read store {path!r}: {exc}", file=sys.stderr)
            return 2
        mapping[name] = path
    if args.cache_bytes == 0:
        cache = None
    elif args.cache_bytes is None:
        cache = ChunkCache()
    else:
        cache = ChunkCache(args.cache_bytes)
    with StoreCatalog(mapping, cache=cache) as catalog:
        service = QueryService(catalog, tick=args.tick,
                               coalesce=not args.no_coalesce,
                               deadline=args.deadline,
                               max_in_flight=args.max_in_flight)

        async def run() -> None:
            host, port = await service.start(args.host, args.port)
            print(f"serving {len(catalog)} store(s) on {host}:{port} "
                  f"(tick {service.tick * 1000:g} ms, coalescing "
                  f"{'on' if service.coalesce else 'off'})", flush=True)
            await service.serve_forever()

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            print("stopped")
    return 0


def _parse_op_spec(text: str):
    """Parse ``operation:storeA[,storeB]`` into ``(op, [names])`` or a message."""
    op, sep, stores = text.partition(":")
    names = [name.strip() for name in stores.split(",") if name.strip()]
    if not sep or not names:
        return None, (f"ops look like OPERATION:STORES, e.g. mean:temps or "
                      f"dot:temps,wind — got {text!r}")
    if op not in _SCALAR_OPS:
        return None, (f"unknown operation {op!r}; valid operations: "
                      f"{', '.join(sorted(_SCALAR_OPS))}")
    arity = _ARITY[op]
    if len(names) != arity:
        return None, f"{op} takes {arity} store name(s), got {len(names)}"
    return (op, names), None


def _cmd_query(args: argparse.Namespace) -> int:
    """One client round trip: evaluate ``--op`` reductions, or probe the server."""
    import json

    from .reliability import DeadlineError, RetryPolicy
    from .serving import QueryClient, ServerError

    if args.stats or args.catalog:
        if args.ops:
            print("error: --stats/--catalog are probes; drop the --op flags",
                  file=sys.stderr)
            return 2
    elif not args.ops:
        print("error: query needs --op reductions (or --stats/--catalog)",
              file=sys.stderr)
        return 2
    outputs = {}
    for spec in args.ops or ():
        parsed, message = _parse_op_spec(spec)
        if parsed is None:
            print(f"error: {message}", file=sys.stderr)
            return 2
        op, names = parsed
        outputs[spec] = _scalar_expression(op, names, args.true_mean)
    if args.retries is not None and args.retries < 1:
        print("error: --retries must be at least 1", file=sys.stderr)
        return 2
    retry = RetryPolicy(attempts=args.retries) if args.retries else None
    try:
        with QueryClient(args.host, args.port, timeout=args.timeout,
                         retry=retry, deadline=args.deadline) as client:
            if args.stats:
                print(json.dumps(client.stats(), indent=2))
                return 0
            if args.catalog:
                print(json.dumps(client.catalog(), indent=2))
                return 0
            full = client.evaluate_full(outputs)
    except ServerError as exc:
        print(f"error: server rejected the request: {exc}", file=sys.stderr)
        return 2
    except DeadlineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(full))
    else:
        for spec in outputs:
            print(f"{spec} = {full['results'][spec]!r}")
        batch = full["batch"]
        print(f"(batch: {batch['requests']} request(s) -> {batch['plans']} plan(s))")
    return 0


def _cmd_verify_store(args: argparse.Namespace) -> int:
    """Scan a store's chunks against their checksums; optionally repair.

    Exit 0 when every chunk verifies (including after a successful repair),
    ``CODEC_ERROR_EXIT`` when corruption remains — so scripts can gate on
    ``repro verify-store`` before trusting a store.
    """
    import json

    from .reliability import (repair_sharded_store, repair_store,
                              verify_sharded_store, verify_store)

    try:
        if not _is_store(args.store):
            print(f"error: {args.store!r} is not a chunked store", file=sys.stderr)
            return 2
    except OSError as exc:
        print(f"error: cannot read store {args.store!r}: {exc}", file=sys.stderr)
        return 2
    if is_sharded_store(args.store):
        report = verify_sharded_store(args.store)
        if args.repair_from is not None and not report.ok:
            repaired = repair_sharded_store(args.store, args.repair_from)
            spliced = [
                f"shard {shard.index} chunk {chunk.index}"
                for shard in repaired.shards if shard.report is not None
                for chunk in shard.report.chunks if chunk.source == "mirror"
            ]
            print(f"repaired {len(spliced)} chunk(s) from {args.repair_from}: "
                  f"{', '.join(spliced)}", file=sys.stderr)
            report = repaired
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.describe())
        return 0 if report.ok else CODEC_ERROR_EXIT
    report = verify_store(args.store)
    if args.repair_from is not None and not report.ok:
        repaired = repair_store(args.store, args.repair_from)
        spliced = [c.index for c in repaired.chunks if c.source == "mirror"]
        print(f"repaired {len(spliced)} chunk(s) from {args.repair_from}: "
              f"{', '.join(map(str, spliced))}", file=sys.stderr)
        report = verify_store(args.store)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    return 0 if report.ok else CODEC_ERROR_EXIT


def _probe_field() -> np.ndarray:
    """The standard 256×256 float64 probe the ``codecs`` listing measures on
    (the same generator the cross-codec ablation sweeps)."""
    return experiments.smooth_field((256, 256), seed=2023)


def _cmd_codecs(args: argparse.Namespace) -> int:
    probe = None if args.no_probe else _probe_field()
    header = f"{'codec':10s} {'ndims':8s} {'lossless':9s} {'probe ratio':>12s}  compressed-space ops"
    print(header)
    print("-" * len(header))
    for name in available_codecs():
        codec = get_codec(name)
        caps = codec.capabilities
        if probe is not None and 2 in caps.ndims:
            ratio = f"{codec.measured_ratio(probe):12.3f}"
        else:
            ratio = f"{'-':>12s}"
        ops = ",".join(caps.compressed_ops) if caps.compressed_ops else "-"
        ndims = ",".join(map(str, caps.ndims))
        print(f"{name:10s} {ndims:8s} {'yes' if caps.lossless else 'no':9s} {ratio}  {ops}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    header = f"{'backend':10s} {'available':10s} {'bit-exact':10s} description"
    print(header)
    print("-" * len(header))
    for name in available_backends():
        cls = get_backend_class(name)
        if backend_is_available(name):
            availability = "yes"
        else:
            availability = f"no ({cls.unavailable_reason()})"
        exact = "yes" if cls.bit_exact else "no"
        print(f"{name:10s} {availability:10s} {exact:10s} {cls.summary}")
    return 0


def _is_store(path) -> bool:
    """True for a chunked store file or a sharded store directory."""
    if is_sharded_store(path):
        return True
    import os
    if os.path.isdir(path):
        return False
    with open(path, "rb") as handle:
        return handle.read(len(STORE_MAGIC)) == STORE_MAGIC


def _cmd_info(args: argparse.Namespace) -> int:
    if _is_store(args.input):
        with open_store(args.input) as store:
            print(f"shape: {store.shape}")
            if is_sharded_store(args.input):
                print(f"codec: {store.codec_name} "
                      f"(sharded store v{store.version}, revision {store.revision})")
                print(f"shards: {store.n_shards} (fold partials "
                      f"{'fresh' if store.partials_fresh() else 'stale/absent'})")
            else:
                print(f"codec: {store.codec_name} (store format v{store.version})")
            print(f"chunks: {store.n_chunks} (rows per chunk: "
                  f"{', '.join(map(str, store.chunk_rows))})")
            settings = store.settings
            print(f"settings: {settings.describe()}")
            print(f"stored bits (accounting): {compressed_size_bits(settings, store.shape)}")
            print(
                "compression ratio vs float64: "
                f"{compression_ratio(settings, store.shape, input_bits_per_element=64):.3f}"
            )
        return 0
    with open(args.input, "rb") as handle:
        data = handle.read()
    name = detect_codec(data)
    compressed = _decode_stream(name, data)
    print(f"shape: {tuple(compressed.shape)}")
    print(f"codec: {name}")
    if name == "pyblaz":
        settings = compressed.settings
        print(f"settings: {settings.describe()}")
        print(f"blocks: {compressed.n_blocks} (grid {compressed.grid_shape})")
        print(f"stored bits (accounting): {compressed_size_bits(settings, compressed.shape)}")
        print(
            "compression ratio vs float64: "
            f"{compression_ratio(settings, compressed.shape, input_bits_per_element=64):.3f}"
        )
    else:
        # the huffman stream records the original dtype; the lossy baseline
        # streams don't, so their ratio is labelled against the float64
        # reconstruction rather than presented as the (unknown) source dtype's
        dtype = getattr(compressed, "dtype", None)
        itemsize = np.dtype(dtype).itemsize if dtype is not None else 8
        label = np.dtype(dtype).name if dtype is not None else "float64 reconstruction"
        original = int(np.prod(compressed.shape)) * itemsize
        print(f"serialized bytes: {len(data)}")
        print(f"measured ratio vs {label}: {original / len(data):.3f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    module = _EXPERIMENTS[args.name]
    result = module.run()
    print(module.format_result(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compress": _cmd_compress,
        "decompress": _cmd_decompress,
        "stream-compress": _cmd_compress_to_store,
        "stream-decompress": _cmd_stream_decompress,
        "shard-init": _cmd_shard_init,
        "shard-append": _cmd_shard_append,
        "stream-ops": _cmd_stream_ops,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "verify-store": _cmd_verify_store,
        "codecs": _cmd_codecs,
        "backends": _cmd_backends,
        "info": _cmd_info,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except CodecError as exc:
        print(f"codec error: {exc}", file=sys.stderr)
        return CODEC_ERROR_EXIT


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
