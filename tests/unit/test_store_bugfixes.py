"""Regression tests for the store bugfixes that serving's hot path exposed.

Three latent :mod:`repro.streaming.store` bugs became first-class failures once
a long-lived server started hammering stores concurrently:

* empty ``load_region`` selections disagreed with non-empty ones on dtype
  (they must be float64 with the requested trailing region, and cost no
  chunk read),
* chunk records were read through one shared ``seek()``+``read()`` file handle,
  so concurrent readers could interleave and decode each other's bytes,
* ``finalize()``/``append()`` on a writer whose ``with`` block exited on an
  error raised a raw ``ValueError`` from the closed handle instead of the
  documented :class:`CodecError`.
"""

import threading

import numpy as np
import pytest

from repro.core import CompressionSettings
from repro.core.exceptions import CodecError
from repro.streaming import ChunkedCompressor, CompressedStore, CompressedStoreWriter
from tests.conftest import smooth_field


@pytest.fixture
def settings() -> CompressionSettings:
    return CompressionSettings(block_shape=(4, 4), float_format="float32", index_dtype="int16")


class TestEmptyRegionDtype:
    """Empty and non-empty ``load_region`` selections must agree on dtype."""

    def test_pyblaz_store_empty_selection_stays_float64(self, tmp_path, settings):
        field = smooth_field((32, 8), seed=3)
        chunked = ChunkedCompressor(settings, slab_rows=8)
        with chunked.compress_to_store(field, tmp_path / "p.st") as store:
            # the pyblaz pipeline reconstructs float64 by contract, and the
            # dtype probe must not cost a chunk decode (settings are enough)
            assert store.load_region(slice(5, 5)).dtype == np.float64
            assert store.chunks_read == 0
            assert store.load_region(slice(0, 8)).dtype == np.float64

    def test_empty_selection_trailing_region_applies(self, tmp_path, settings):
        field = np.linspace(0.0, 1.0, 32 * 8, dtype=np.float32).reshape(32, 8)
        chunked = ChunkedCompressor(settings, slab_rows=8)
        with chunked.compress_to_store(field, tmp_path / "t.st") as store:
            empty = store.load_region((slice(5, 5), slice(0, 3)))
            assert empty.shape == (0, 3)
            assert empty.dtype == np.float64


class TestConcurrentChunkReads:
    """Concurrent readers must never interleave each other's record reads."""

    N_THREADS = 8
    ROUNDS = 12

    def test_threaded_readers_decode_identical_chunks(self, tmp_path, settings):
        field = smooth_field((64, 16), seed=11)
        chunked = ChunkedCompressor(settings, slab_rows=8)
        with chunked.compress_to_store(field, tmp_path / "c.st") as store:
            expected = [store.read_chunk(index) for index in range(store.n_chunks)]
            store.chunks_read = 0
            errors: list[Exception] = []
            barrier = threading.Barrier(self.N_THREADS)

            def reader() -> None:
                try:
                    barrier.wait()
                    for _ in range(self.ROUNDS):
                        for index in range(store.n_chunks):
                            chunk = store.read_chunk(index)
                            reference = expected[index]
                            assert np.array_equal(chunk.maxima, reference.maxima)
                            assert np.array_equal(chunk.indices, reference.indices)
                except Exception as exc:  # surfaced after the join
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(self.N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            # the counter is lock-guarded: no increment may be lost to a race
            assert store.chunks_read == self.N_THREADS * self.ROUNDS * store.n_chunks

    def test_threaded_region_loads_match_serial(self, tmp_path, settings):
        field = smooth_field((64, 16), seed=13)
        chunked = ChunkedCompressor(settings, slab_rows=8)
        with chunked.compress_to_store(field, tmp_path / "r.st") as store:
            regions = [slice(0, 16), slice(8, 40), slice(32, 64), slice(20, 28)]
            expected = {region.start: store.load_region(region) for region in regions}
            errors: list[Exception] = []
            barrier = threading.Barrier(len(regions))

            def loader(region: slice) -> None:
                try:
                    barrier.wait()
                    for _ in range(self.ROUNDS):
                        loaded = store.load_region(region)
                        assert np.array_equal(loaded, expected[region.start])
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=loader, args=(region,))
                       for region in regions]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []


class TestClosedWriterErrors:
    """Operating on a writer closed by an in-``with`` error raises CodecError."""

    def _broken_writer(self, tmp_path, settings) -> CompressedStoreWriter:
        with pytest.raises(RuntimeError, match="boom"):
            with CompressedStoreWriter(tmp_path / "w.st", settings) as writer:
                raise RuntimeError("boom")
        return writer

    def test_finalize_after_error_exit_raises_codec_error(self, tmp_path, settings):
        writer = self._broken_writer(tmp_path, settings)
        with pytest.raises(CodecError, match="closed writer"):
            writer.finalize()

    def test_append_after_error_exit_raises_codec_error(self, tmp_path, settings):
        writer = self._broken_writer(tmp_path, settings)
        compressed = ChunkedCompressor(settings, slab_rows=8).compress(
            smooth_field((8, 8), seed=5)
        )
        with pytest.raises(CodecError, match="closed writer"):
            writer.append(compressed)

    def test_nothing_published_and_partial_left_for_diagnosis(self, tmp_path, settings):
        writer = self._broken_writer(tmp_path, settings)
        assert not (tmp_path / "w.st").exists()
        assert writer._temp_path.exists()

    def test_normal_finalize_still_idempotent(self, tmp_path, settings):
        with CompressedStoreWriter(tmp_path / "ok.st", settings) as writer:
            writer.append(ChunkedCompressor(settings, slab_rows=8).compress(
                smooth_field((8, 8), seed=6)
            ))
        writer.finalize()  # second finalize stays a no-op, not an error
        with CompressedStore(tmp_path / "ok.st") as store:
            assert store.shape == (8, 8)


class TestDtypeNeedsNoProbe:
    """``CompressedStore.dtype`` is float64 by contract: no chunk is read."""

    def test_pyblaz_dtype_never_reads_a_chunk(self, tmp_path, settings):
        field = smooth_field((32, 8), seed=17)
        chunked = ChunkedCompressor(settings, slab_rows=8)
        with chunked.compress_to_store(field, tmp_path / "p.st") as store:
            for _ in range(3):
                assert store.dtype == np.float64
            assert store.chunks_read == 0 and store.preads == 0
