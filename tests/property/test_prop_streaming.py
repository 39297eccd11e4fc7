"""Property: streaming compression is bit-identical to one-shot compression.

This is the load-bearing invariant of :mod:`repro.streaming` — every slab size
(dividing the block grid or not), every input style (array, memmap-like slices,
ragged generator pieces), and the on-disk chunk store must all reproduce the
exact ``maxima`` and ``indices`` of ``Compressor.compress`` on the whole array.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core import CompressionSettings, Compressor, ops
from repro.streaming import ChunkedCompressor
from repro.streaming import ops as stream_ops


@st.composite
def streaming_case(draw):
    """A 2-D array, settings, and a slab size that may or may not divide the grid."""
    block = draw(st.sampled_from([(2, 2), (4, 4), (4, 8)]))
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 17))
    slab_rows = draw(st.integers(1, 48))
    index_dtype = draw(st.sampled_from(["int8", "int16", "int32", "int64"]))
    float_format = draw(st.sampled_from(["bfloat16", "float32", "float64"]))
    transform = draw(st.sampled_from(["dct", "haar"]))
    settings = CompressionSettings(
        block_shape=block,
        float_format=float_format,
        index_dtype=index_dtype,
        transform=transform,
    )
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    array = np.cumsum(rng.standard_normal((rows, cols)), axis=0) * 0.05
    return array, settings, slab_rows


class TestStreamingBitIdentical:
    @given(case=streaming_case())
    @hyp_settings(max_examples=60, deadline=None)
    def test_chunked_equals_one_shot_exactly(self, case):
        array, settings, slab_rows = case
        reference = Compressor(settings).compress(array)
        result = ChunkedCompressor(settings, slab_rows=slab_rows).compress(array)
        assert result.shape == reference.shape
        assert np.array_equal(result.maxima, reference.maxima)
        assert np.array_equal(result.indices, reference.indices)

    @given(case=streaming_case(), pieces=st.lists(st.integers(1, 7), min_size=1, max_size=8))
    @hyp_settings(max_examples=30, deadline=None)
    def test_ragged_generator_input_equals_one_shot(self, case, pieces):
        """Input slab boundaries need not be block-aligned; re-buffering fixes them."""
        array, settings, slab_rows = case

        def generate():
            start = 0
            index = 0
            while start < array.shape[0]:
                step = pieces[index % len(pieces)]
                yield array[start : start + step]
                start += step
                index += 1

        reference = Compressor(settings).compress(array)
        result = ChunkedCompressor(settings, slab_rows=slab_rows).compress(generate())
        assert np.array_equal(result.maxima, reference.maxima)
        assert np.array_equal(result.indices, reference.indices)

    @given(case=streaming_case())
    @hyp_settings(max_examples=25, deadline=None)
    def test_store_roundtrip_equals_one_shot(self, case):
        array, settings, slab_rows = case
        reference = Compressor(settings).compress(array)
        handle, path = tempfile.mkstemp(suffix=".pblzc")
        os.close(handle)
        try:
            chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
            with chunked.compress_to_store(array, path) as store:
                assembled = store.load_compressed()
                assert np.array_equal(assembled.maxima, reference.maxima)
                assert np.array_equal(assembled.indices, reference.indices)
                # full decompression also matches the one-shot path bit for bit
                assert np.array_equal(
                    store.load(), Compressor(settings).decompress(reference)
                )
        finally:
            os.unlink(path)


class TestStreamingReductionsMatchOps:
    @given(case=streaming_case())
    @hyp_settings(max_examples=25, deadline=None)
    def test_reductions_match_one_shot_ops(self, case):
        array, settings, slab_rows = case
        reference = Compressor(settings).compress(array)
        chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
        chunks = list(chunked._compressed_slabs(array))
        assert np.isclose(stream_ops.mean(chunks), ops.mean(reference), rtol=1e-9, atol=1e-12)
        assert np.isclose(
            stream_ops.l2_norm(chunks), ops.l2_norm(reference), rtol=1e-9, atol=1e-12
        )
        assert np.isclose(
            stream_ops.dot(chunks, chunks), ops.dot(reference, reference), rtol=1e-9, atol=1e-12
        )
