"""Design-choice ablations called out in DESIGN.md §4.

Four studies quantify the design decisions the paper makes (or inherits and changes
relative to Blaz):

* **Differentiation ablation** — PyBlaz deliberately *skips* Blaz's differentiation
  ("normalization") step because operating on differentiated coefficients breaks the
  linear relationship compressed-space addition/dot/mean rely on (Fig 1 caption,
  §IV-A).  The study compares PyBlaz's compressed-space addition error against a
  Blaz-style add (which must re-bin differentiated coefficients) and against the
  decompress→add→recompress upper bound.
* **Transform ablation** — DCT vs Haar vs identity: round-trip error and the error of
  the compressed-space mean/L2 under each transform at equal storage cost.
* **Backend ablation** — the bit-exact ``reference`` kernel against the other
  registered kernel backends (``gemm``/``numba``, verified against their
  documented parity bound).  The per-block Blaz-style baseline of the paper's
  GPU-vs-single-thread argument is timed by Fig 2
  (:mod:`repro.experiments.fig2_blaz`).  ``benchmarks/bench_backends.py``
  records the full shape×backend throughput trajectory as machine-readable
  ``BENCH_backends.json``.
* **Index-width ablation** — int8/int16/int32/int64 vs round-trip error and ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs import available_codecs, get_codec
from ..core import CompressionSettings, Compressor
from ..core import ops
from ..core.codec import asymptotic_compression_ratio
from ..kernels import available_backends, backend_is_available, get_backend, parity_bound
from .common import ExperimentResult, median_time, smooth_field

__all__ = [
    "AblationConfig",
    "run_differentiation",
    "run_transforms",
    "run_backends",
    "run_index_width",
    "run_codecs",
    "format_result",
]


@dataclass(frozen=True)
class AblationConfig:
    """Shared configuration of the ablation studies."""

    shape_2d: tuple[int, int] = (128, 128)
    shape_3d: tuple[int, int, int] = (32, 32, 32)
    seed: int = 17
    repeats: int = 3


# the shared probe generator (what both Blaz and PyBlaz are designed for)
_smooth_field = smooth_field


def run_differentiation(config: AblationConfig = AblationConfig()) -> ExperimentResult:
    """Compressed-space addition error: PyBlaz (no differentiation) vs Blaz (with)."""
    a = _smooth_field(config.shape_2d, config.seed)
    b = _smooth_field(config.shape_2d, config.seed + 1)
    truth = a + b

    settings = CompressionSettings(block_shape=(8, 8), float_format="float64", index_dtype="int8")
    pyblaz = Compressor(settings)
    pa, pb = pyblaz.compress(a), pyblaz.compress(b)
    pyblaz_add = pyblaz.decompress(ops.add(pa, pb))
    pyblaz_roundtrip = pyblaz.decompress(pyblaz.compress(truth))

    blaz = get_codec("blaz")
    ba, bb = blaz.compress(a), blaz.compress(b)
    blaz_add = blaz.decompress(blaz.add(ba, bb))
    blaz_roundtrip = blaz.decompress(blaz.compress(truth))

    def mae(x):
        return float(np.mean(np.abs(x - truth)))

    rows = [
        ("pyblaz compressed-space add", mae(pyblaz_add)),
        ("pyblaz recompress(a+b) reference", mae(pyblaz_roundtrip)),
        ("blaz compressed-space add", mae(blaz_add)),
        ("blaz recompress(a+b) reference", mae(blaz_roundtrip)),
    ]
    return ExperimentResult(
        name="Ablation — differentiation step vs compressed-space addition error (MAE)",
        columns=("pipeline", "mean abs error of a+b"),
        rows=rows,
        metadata={"shape": config.shape_2d, "block": "8x8", "index": "int8"},
    )


def run_transforms(config: AblationConfig = AblationConfig()) -> ExperimentResult:
    """Round-trip and compressed-space statistic error per transform."""
    array = _smooth_field(config.shape_3d, config.seed)
    rows: list[tuple] = []
    for transform in ("dct", "haar", "identity"):
        settings = CompressionSettings(
            block_shape=(4, 4, 4), float_format="float32", index_dtype="int16",
            transform=transform,
        )
        compressor = Compressor(settings)
        compressed = compressor.compress(array)
        decompressed = compressor.decompress(compressed)
        roundtrip_mae = float(np.mean(np.abs(decompressed - array)))
        l2_error = abs(ops.l2_norm(compressed) - float(np.linalg.norm(array)))
        if transform == "identity":
            mean_error = float("nan")  # identity has no DC-coefficient property
        else:
            mean_error = abs(ops.mean(compressed) - float(array.mean()))
        rows.append((transform, roundtrip_mae, l2_error, mean_error))
    return ExperimentResult(
        name="Ablation — orthonormal transform choice",
        columns=("transform", "round-trip MAE", "L2-norm abs error", "mean abs error"),
        rows=rows,
        metadata={"shape": config.shape_3d, "block": "4x4x4", "index": "int16"},
    )


def run_backends(config: AblationConfig = AblationConfig()) -> ExperimentResult:
    """Kernel-backend ablation: each registered backend vs wall-clock.

    The first row is the default vectorized call under the bit-exact
    ``reference`` kernel.  The *kernel backend* rows vary the numeric strategy
    (see :mod:`repro.kernels`); they are not bit-exact, so "matches reference"
    asserts the documented parity bound (:func:`repro.kernels.parity_bound`).
    Unavailable backends (e.g. ``numba`` without numba installed) are listed in
    the metadata, not the rows.  The per-block loop the paper contrasts bulk
    execution with is Fig 2's Blaz baseline.
    """
    array = _smooth_field(config.shape_3d, config.seed)
    settings = CompressionSettings(block_shape=(4, 4, 4), float_format="float32",
                                   index_dtype="int16")
    compressor = Compressor(settings)
    reference = compressor.compress(array)
    seconds = median_time(lambda: compressor.compress(array), config.repeats)
    rows: list[tuple] = [("vectorized (default)", True, seconds)]

    reference_decompressed = Compressor(settings).decompress(reference)
    skipped: list[str] = []
    for backend_name in available_backends():
        if backend_name == "reference":
            continue  # the "vectorized (default)" row above is the reference kernel
        if not backend_is_available(backend_name):
            skipped.append(backend_name)
            continue
        compressor = Compressor(settings, backend=backend_name)
        compressed = compressor.compress(array)
        bound = parity_bound(get_backend(backend_name), settings, reference.maxima)
        error = float(np.max(np.abs(compressor.decompress(compressed) - reference_decompressed)))
        seconds = median_time(lambda: compressor.compress(array), config.repeats)
        rows.append((f"kernel backend: {backend_name}", error <= bound, seconds))
    return ExperimentResult(
        name="Ablation — kernel backend",
        columns=("backend", "matches reference", "compress seconds"),
        rows=rows,
        metadata={"shape": config.shape_3d, "skipped_backends": skipped},
    )


def run_index_width(config: AblationConfig = AblationConfig()) -> ExperimentResult:
    """Bin-index width vs round-trip error and asymptotic ratio."""
    array = _smooth_field(config.shape_3d, config.seed)
    rows: list[tuple] = []
    for index_dtype in ("int8", "int16", "int32", "int64"):
        settings = CompressionSettings(
            block_shape=(4, 4, 4), float_format="float64", index_dtype=index_dtype
        )
        compressor = Compressor(settings)
        decompressed = compressor.decompress(compressor.compress(array))
        rows.append(
            (
                index_dtype,
                float(np.max(np.abs(decompressed - array))),
                asymptotic_compression_ratio(settings, config.shape_3d),
            )
        )
    return ExperimentResult(
        name="Ablation — bin-index width vs error and ratio",
        columns=("index type", "round-trip max error", "asymptotic ratio"),
        rows=rows,
        metadata={"shape": config.shape_3d, "block": "4x4x4", "float": "float64"},
    )


def run_codecs(config: AblationConfig = AblationConfig()) -> ExperimentResult:
    """Cross-codec sweep through the registry: ratio, error, throughput.

    Iterates :func:`repro.codecs.available_codecs` (so third-party registrations
    are swept automatically) on one 2-D probe field, and measures for each codec
    the serialized (``to_bytes``) ratio, the bytes-round-trip L∞ error against
    the codec's documented bound, and compression/decompression wall-clock.
    Replaces the hand-written per-baseline loops this table used to need.
    """
    array = _smooth_field(config.shape_2d, config.seed)
    rows: list[tuple] = []
    for name in available_codecs():
        codec = get_codec(name)
        if 2 not in codec.capabilities.ndims:  # pragma: no cover - all built-ins do 2-D
            continue
        compressed = codec.compress(array)
        blob = codec.to_bytes(compressed)
        decompressed = codec.decompress(codec.from_bytes(blob))
        rows.append(
            (
                name,
                array.nbytes / len(blob),
                float(np.max(np.abs(decompressed - array))),
                codec.roundtrip_bound(array),
                median_time(lambda: codec.compress(array), config.repeats),
                median_time(lambda: codec.decompress(compressed), config.repeats),
            )
        )
    return ExperimentResult(
        name="Ablation — cross-codec sweep (every registered codec, one probe)",
        columns=(
            "codec", "serialized ratio", "round-trip max error", "documented bound",
            "compress seconds", "decompress seconds",
        ),
        rows=rows,
        metadata={"shape": config.shape_2d, "codecs": list(available_codecs())},
    )


def format_result(result: ExperimentResult) -> str:
    return result.to_text()


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    for runner in (
        run_differentiation, run_transforms, run_backends, run_index_width, run_codecs
    ):
        print(format_result(runner()))
        print()
