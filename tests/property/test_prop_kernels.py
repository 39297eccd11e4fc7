"""Registry-parametrized kernel-backend parity suite (Hypothesis).

Mirrors the codec roundtrip suite: every registered backend is checked against
``reference`` across 1-D/2-D/3-D arrays, all three transforms and all four
float formats.  The contract being verified is the one documented in
:mod:`repro.kernels.base`:

* ``reference`` is *bit-identical* to itself under any chunking of the work —
  the streaming slab compressor reproduces the one-shot result exactly
  (``np.array_equal`` on maxima and indices).
* The fast backends (``gemm``, and ``numba`` where installed) reproduce the
  reference decompression within :func:`repro.kernels.parity_bound`, and their
  bin indices land within one bin of reference plus the bound's index-space
  slack.

Backends that are registered but unavailable (numba without numba) are skipped,
not failed — the same contract the CI smoke job applies.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core import CompressionSettings, Compressor
from repro.kernels import (
    available_backends,
    backend_is_available,
    get_backend,
    get_backend_class,
    parity_bound,
)
from repro.streaming import ChunkedCompressor

FLOAT_FORMATS = ["bfloat16", "float16", "float32", "float64"]
TRANSFORMS = ["dct", "haar", "identity"]


def _require_backend(name: str):
    if not backend_is_available(name):
        reason = get_backend_class(name).unavailable_reason() or "missing dependency"
        pytest.skip(f"backend {name!r} unavailable: {reason}")


@st.composite
def parity_case(draw):
    """An array of 1-3 dimensions plus settings drawn from the full grid."""
    ndim = draw(st.integers(1, 3))
    transform = draw(st.sampled_from(TRANSFORMS))
    float_format = draw(st.sampled_from(FLOAT_FORMATS))
    index_dtype = draw(st.sampled_from(["int8", "int16", "int32"]))
    extents = draw(st.lists(st.sampled_from([2, 4, 8]), min_size=ndim, max_size=ndim))
    settings = CompressionSettings(
        block_shape=tuple(extents),
        float_format=float_format,
        index_dtype=index_dtype,
        transform=transform,
    )
    # odd shapes force padding; cumsum makes the data smooth enough that the
    # working-format rounding doesn't dominate the comparison
    shape = tuple(draw(st.integers(e, 3 * e + 1)) for e in extents)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    array = rng.standard_normal(shape)
    array = np.cumsum(array, axis=0) * 0.05
    return array, settings


@pytest.mark.parametrize(
    "backend_name", [n for n in available_backends() if n != "reference"]
)
class TestFastBackendParity:
    @given(case=parity_case())
    @hyp_settings(max_examples=40, deadline=None)
    def test_decompression_within_documented_bound(self, backend_name, case):
        _require_backend(backend_name)
        array, settings = case
        reference = Compressor(settings)
        fast = Compressor(settings, backend=backend_name)
        compressed_ref = reference.compress(array)
        compressed_fast = fast.compress(array)

        assert compressed_fast.indices.dtype == settings.index_dtype
        assert compressed_fast.maxima.shape == compressed_ref.maxima.shape

        bound = parity_bound(get_backend(backend_name), settings, compressed_ref.maxima)
        dec_ref = reference.decompress(compressed_ref)
        dec_fast = reference.decompress(compressed_fast)
        assert np.max(np.abs(dec_ref - dec_fast)) <= bound

        # decompressing with the fast backend's inverse stays inside the same
        # contract (its inverse-transform error is covered by the tolerance)
        dec_fast_inverse = fast.decompress(compressed_fast)
        assert np.max(np.abs(dec_ref - dec_fast_inverse)) <= 2 * bound

    @given(case=parity_case())
    @hyp_settings(max_examples=25, deadline=None)
    def test_indices_within_tolerance_bins(self, backend_name, case):
        _require_backend(backend_name)
        array, settings = case
        compressed_ref = Compressor(settings).compress(array)
        compressed_fast = Compressor(settings, backend=backend_name).compress(array)
        tol = get_backend(backend_name).accumulation_tolerance(settings)
        # a tol·N coefficient perturbation moves the scaled value by tol·r;
        # +1 covers the rounding boundary (and round-half conventions)
        max_bins = tol * settings.index_radius + 1.0
        delta = np.abs(
            compressed_fast.indices.astype(np.int64)
            - compressed_ref.indices.astype(np.int64)
        )
        assert delta.max() <= max_bins


class TestReferenceBitIdentityUnderChunking:
    @given(case=parity_case(), slab_blocks=st.integers(1, 4))
    @hyp_settings(max_examples=25, deadline=None)
    def test_streaming_slabs_bit_identical(self, case, slab_blocks):
        array, settings = case
        one_shot = Compressor(settings).compress(array)
        slab_rows = slab_blocks * settings.block_shape[0]
        streamed = ChunkedCompressor(settings, slab_rows=slab_rows).compress(array)
        assert np.array_equal(one_shot.maxima, streamed.maxima)
        assert np.array_equal(one_shot.indices, streamed.indices)
