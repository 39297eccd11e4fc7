"""Store format v3 integrity: per-chunk checksums, typed corruption errors,
read retries, and the scan/repair engine behind ``repro verify-store``."""

from __future__ import annotations

import shutil
import struct

import numpy as np
import pytest

from repro.core import CompressionSettings
from repro.core.exceptions import CodecError
from repro.reliability import (
    FaultRule,
    IntegrityError,
    RetryPolicy,
    inject,
    repair_store,
    verify_store,
)
from repro.streaming import ChunkedCompressor, CompressedStore
from tests.conftest import smooth_field


def _chunked() -> ChunkedCompressor:
    """8-row slabs under the pyblaz codec's default 2-D settings."""
    settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                   index_dtype="int16", transform="dct")
    return ChunkedCompressor(settings, slab_rows=8)


@pytest.fixture
def field() -> np.ndarray:
    return smooth_field((24, 16), seed=11)


@pytest.fixture
def store_path(tmp_path, field):
    path = tmp_path / "v3.pblzc"
    _chunked().compress_to_store(field, path).close()
    return path


def _chunk_span(path, index) -> tuple[int, int]:
    """(offset, n_bytes) of chunk ``index``'s record in the store file."""
    with CompressedStore(path) as store:
        offset, n_bytes, _, _, _ = store._chunks[index]
    return offset, n_bytes


def _flip_byte(path, position) -> None:
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)[0]
        handle.seek(position)
        handle.write(bytes([byte ^ 0xFF]))


class TestChecksummedReads:
    def test_writer_emits_version_3(self, store_path):
        with CompressedStore(store_path) as store:
            assert store.version == 3
            assert all(crc is not None for *_, crc in store._chunks)

    def test_clean_store_loads_bit_identically(self, store_path, field):
        from repro.codecs import get_codec

        codec = get_codec("pyblaz")
        expected = codec.decompress(codec.compress(field))
        with CompressedStore(store_path) as store:
            assert np.array_equal(store.load(), expected)

    def test_corrupt_chunk_raises_integrity_error_naming_it(self, store_path):
        offset, n_bytes = _chunk_span(store_path, 1)
        _flip_byte(store_path, offset + n_bytes // 2)
        with CompressedStore(store_path, retry_policy=None) as store:
            store._decode_chunk(0)  # neighbours still decode
            store._decode_chunk(2)
            with pytest.raises(IntegrityError, match="chunk 1") as info:
                store._decode_chunk(1)
            assert info.value.chunk_index == 1
            assert str(store_path) in info.value.path
            assert "failed its checksum" in str(info.value)

    def test_persistent_corruption_survives_the_retry_policy(self, store_path):
        offset, n_bytes = _chunk_span(store_path, 0)
        _flip_byte(store_path, offset + n_bytes // 2)
        policy = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0, seed=0)
        with CompressedStore(store_path, retry_policy=policy) as store:
            with pytest.raises(IntegrityError, match="chunk 0"):
                store.read_payload(0)
            assert store.read_retries == 2  # both re-reads saw the same bad bytes

    @pytest.mark.parametrize("table_byte, failure", [
        (12, "failed its checksum"),  # a chunk entry: parses, CRC mismatches
        (4, "garbled|failed its checksum"),  # the chunk count: may not parse
    ])
    def test_corrupt_chunk_table_fails_at_open(self, store_path, table_byte,
                                               failure):
        size = store_path.stat().st_size
        with open(store_path, "rb") as handle:
            handle.seek(size - 13)
            (footer_offset,) = struct.unpack("<Q", handle.read(8))
        _flip_byte(store_path, footer_offset + table_byte)
        with pytest.raises(IntegrityError, match=failure):
            CompressedStore(store_path)

    def test_transient_os_error_is_retried_and_counted(self, store_path, field):
        from repro.codecs import get_codec

        codec = get_codec("pyblaz")
        expected = codec.decompress(codec.compress(field))
        with inject(FaultRule("os_error", chunk_index=1)) as plan:
            with CompressedStore(store_path) as store:
                assert np.array_equal(store.load(), expected)
                assert store.read_retries == 1
        assert plan.fired["os_error"] == 1


class TestVerifyStore:
    def test_clean_store_reports_ok(self, store_path):
        report = verify_store(store_path)
        assert report.ok
        assert report.version == 3
        assert report.corrupt_chunks == []
        assert report.describe().endswith("store OK")

    def test_scan_names_exactly_the_corrupt_chunks(self, store_path):
        for index in (0, 2):
            offset, n_bytes = _chunk_span(store_path, index)
            _flip_byte(store_path, offset + n_bytes // 2)
        report = verify_store(store_path)
        assert not report.ok
        assert report.corrupt_chunks == [0, 2]
        described = report.describe()
        assert "chunk 0: CORRUPT" in described
        assert "chunk 1: OK" in described
        assert "store CORRUPT (2 bad chunk(s))" in described

    def test_truncated_store_reports_a_table_error(self, tmp_path, store_path):
        stub = tmp_path / "stub.pblzc"
        stub.write_bytes(store_path.read_bytes()[:40])
        report = verify_store(stub)
        assert not report.ok
        assert report.table_error is not None

    def test_report_round_trips_to_json_dict(self, store_path):
        report = verify_store(store_path)
        as_dict = report.to_dict()
        assert as_dict["ok"] is True
        assert [c["status"] for c in as_dict["chunks"]] == ["ok"] * len(report.chunks)


class TestVerifyStoreCLI:
    def test_clean_store_exits_0(self, store_path, capsys):
        from repro.cli import main

        assert main(["verify-store", str(store_path)]) == 0
        assert "store OK" in capsys.readouterr().out

    def test_corrupt_store_exits_3_naming_the_chunk(self, store_path, capsys):
        from repro.cli import main

        offset, n_bytes = _chunk_span(store_path, 1)
        _flip_byte(store_path, offset + n_bytes // 2)
        assert main(["verify-store", str(store_path)]) == 3
        out = capsys.readouterr().out
        assert "chunk 1: CORRUPT" in out
        assert "chunk 0: OK" in out and "chunk 2: OK" in out

    def test_repair_from_mirror_round_trip(self, tmp_path, store_path, capsys):
        from repro.cli import main

        mirror = tmp_path / "mirror.pblzc"
        shutil.copy(store_path, mirror)
        offset, n_bytes = _chunk_span(store_path, 2)
        _flip_byte(store_path, offset + n_bytes // 2)
        code = main(["verify-store", str(store_path),
                     "--repair-from", str(mirror)])
        captured = capsys.readouterr()
        assert code == 0
        assert "repaired 1 chunk(s)" in captured.err
        assert "store OK" in captured.out

    def test_json_report(self, store_path, capsys):
        import json

        from repro.cli import main

        assert main(["verify-store", str(store_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert len(report["chunks"]) == 3

    def test_non_store_input_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        bogus = tmp_path / "notastore.bin"
        bogus.write_bytes(b"hello world, definitely not a store")
        assert main(["verify-store", str(bogus)]) == 2
        assert "not a chunked store" in capsys.readouterr().err


class TestRepairStore:
    def test_repair_splices_good_chunks_from_the_mirror(self, tmp_path, store_path):
        mirror = tmp_path / "mirror.pblzc"
        shutil.copy(store_path, mirror)
        good = CompressedStore(store_path)
        expected = good.load()
        good.close()
        offset, n_bytes = _chunk_span(store_path, 1)
        _flip_byte(store_path, offset + n_bytes // 2)

        report = repair_store(store_path, mirror)
        assert [c.source for c in report.chunks] == ["store", "mirror", "store"]
        fixed = verify_store(store_path)
        assert fixed.ok
        with CompressedStore(store_path) as store:
            assert np.array_equal(store.load(), expected)

    def test_chunk_corrupt_in_both_copies_cannot_repair(self, tmp_path, store_path):
        mirror = tmp_path / "mirror.pblzc"
        shutil.copy(store_path, mirror)
        for path in (store_path, mirror):
            offset, n_bytes = _chunk_span(path, 1)
            _flip_byte(path, offset + n_bytes // 2)
        with pytest.raises(CodecError, match="chunk 1 is corrupt in both"):
            repair_store(store_path, mirror)

    def test_non_replica_mirror_is_rejected(self, tmp_path, store_path):
        other = tmp_path / "other.pblzc"
        _chunked().compress_to_store(smooth_field((32, 16), seed=3), other).close()
        offset, n_bytes = _chunk_span(store_path, 0)
        _flip_byte(store_path, offset + n_bytes // 2)
        with pytest.raises(CodecError, match="not replicas"):
            repair_store(store_path, other)
