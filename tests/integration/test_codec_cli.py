"""End-to-end ``--codec`` coverage: every registered codec through the one-shot
CLI, the pyblaz store through the streaming CLI, the ``codecs`` listing, the
CodecError exit code, and the rejection of every store file this reader does
not read (format v1 and v2 files, stores of another codec)."""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.codecs import available_codecs, get_codec
from repro.core import CompressionSettings, Compressor
from repro.core.codec import pack_block_geometry, pack_floats, pack_type_codes
from repro.core.exceptions import CodecError
from repro.streaming import ChunkedCompressor, init_sharded_store, open_store
from repro.streaming.sharded import MANIFEST_NAME
from tests.conftest import smooth_field

EXTRA_FLAGS = {
    "pyblaz": ["--block", "4,4"],
    "zfp": ["--bits", "16"],
    "sz": ["--error-bound", "1e-7"],
}


@pytest.fixture
def field() -> np.ndarray:
    return smooth_field((24, 20), seed=9)


@pytest.fixture
def npy_in(tmp_path, field):
    path = tmp_path / "in.npy"
    np.save(path, field)
    return path


@pytest.fixture
def settings() -> CompressionSettings:
    return CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")


@pytest.mark.parametrize("codec_name", available_codecs())
class TestEveryCodecThroughTheCLI:
    def test_compress_decompress_roundtrip(self, tmp_path, npy_in, field, codec_name,
                                           capsys):
        stream = tmp_path / f"out.{codec_name}"
        npy_out = tmp_path / "back.npy"
        flags = ["--codec", codec_name] + EXTRA_FLAGS.get(codec_name, [])

        assert main(["compress", str(npy_in), str(stream), *flags]) == 0
        out = capsys.readouterr().out
        assert f"codec {codec_name}" in out and "ratio" in out

        assert main(["info", str(stream)]) == 0
        assert f"codec: {codec_name}" in capsys.readouterr().out

        assert main(["decompress", str(stream), str(npy_out)]) == 0
        restored = np.load(npy_out)
        assert restored.shape == field.shape
        error = np.abs(restored - field).max()
        assert error <= get_codec(codec_name).roundtrip_bound(field) + 1e-9


class TestPyblazStoreThroughTheCLI:
    def test_stream_roundtrip(self, tmp_path, npy_in, field, capsys):
        store = tmp_path / "out.pblzc"
        npy_out = tmp_path / "back.npy"

        assert main(["stream-compress", str(npy_in), str(store), "--block", "4,4",
                     "--slab-rows", "8"]) == 0
        assert "chunks: 3" in capsys.readouterr().out  # ceil(24 / 8)

        assert main(["info", str(store)]) == 0
        info_out = capsys.readouterr().out
        assert "codec: pyblaz (store format v3)" in info_out
        assert "rows per chunk: 8, 8, 8" in info_out

        assert main(["stream-decompress", str(store), str(npy_out)]) == 0
        restored = np.load(npy_out)
        assert restored.shape == field.shape
        error = np.abs(restored - field).max()
        assert error <= get_codec("pyblaz").roundtrip_bound(field) + 1e-9

    def test_region_decompress(self, tmp_path, npy_in, field, capsys):
        store = tmp_path / "out.pblzc"
        region_out = tmp_path / "region.npy"
        assert main(["stream-compress", str(npy_in), str(store), "--block", "4,4",
                     "--slab-rows", "8"]) == 0
        assert main(["stream-decompress", str(store), str(region_out),
                     "--region", "9:15,2:11"]) == 0
        capsys.readouterr()
        region = np.load(region_out)
        assert region.shape == (6, 9)
        error = np.abs(region - field[9:15, 2:11]).max()
        assert error <= get_codec("pyblaz").roundtrip_bound(field) + 1e-9


class TestCodecsListing:
    def test_lists_every_registered_codec(self, capsys):
        assert main(["codecs", "--no-probe"]) == 0
        out = capsys.readouterr().out
        for name in available_codecs():
            assert name in out
        assert "lossless" in out and "ndims" in out

    def test_probe_ratio_column(self, capsys):
        assert main(["codecs"]) == 0
        out = capsys.readouterr().out
        # at least the fixed-rate codec reports a measured ratio on the probe
        zfp_line = next(line for line in out.splitlines() if line.startswith("zfp"))
        assert any(char.isdigit() for char in zfp_line)


class TestCodecErrorExitCode:
    def test_unsupported_dimensionality_exits_3(self, tmp_path, capsys):
        np.save(tmp_path / "cube.npy", np.zeros((4, 4, 4)))
        code = main(["compress", str(tmp_path / "cube.npy"), str(tmp_path / "o"),
                     "--codec", "blaz"])
        assert code == 3
        assert "codec error" in capsys.readouterr().err

    def test_non_finite_input_exits_3(self, tmp_path, capsys):
        np.save(tmp_path / "bad.npy", np.array([[np.nan, 1.0], [2.0, 3.0]]))
        code = main(["compress", str(tmp_path / "bad.npy"), str(tmp_path / "o"),
                     "--codec", "zfp"])
        assert code == 3
        assert "codec error" in capsys.readouterr().err

    def test_unrecognized_stream_exits_3(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"\x07not any codec's magic")
        code = main(["decompress", str(garbage), str(tmp_path / "o.npy")])
        assert code == 3
        assert "codec error" in capsys.readouterr().err

    def test_usage_errors_still_exit_2(self, tmp_path, npy_in, capsys):
        code = main(["compress", str(npy_in), str(tmp_path / "o"), "--block", "4,4,4"])
        assert code == 2
        assert "dimensionality" in capsys.readouterr().err

    def test_truncated_one_shot_stream_exits_3(self, tmp_path, npy_in, capsys):
        stream = tmp_path / "out.sz"
        assert main(["compress", str(npy_in), str(stream), "--codec", "sz"]) == 0
        capsys.readouterr()
        stream.write_bytes(stream.read_bytes()[:40])
        code = main(["decompress", str(stream), str(tmp_path / "o.npy")])
        assert code == 3
        assert "corrupt or truncated" in capsys.readouterr().err

    def test_corrupt_store_chunk_exits_3(self, tmp_path, npy_in, capsys):
        store = tmp_path / "out.pblzc"
        assert main(["stream-compress", str(npy_in), str(store), "--block", "4,4"]) == 0
        capsys.readouterr()
        data = bytearray(store.read_bytes())
        for i in range(30, 60):  # flip bytes inside the first chunk payload
            data[i] ^= 0xFF
        store.write_bytes(bytes(data))
        code = main(["stream-decompress", str(store), str(tmp_path / "o.npy")])
        assert code == 3
        assert "chunk 0" in capsys.readouterr().err
        # the region path classifies it the same way, not as an invalid region
        code = main(["stream-decompress", str(store), str(tmp_path / "o.npy"),
                     "--region", "0:8"])
        assert code == 3
        assert "chunk 0" in capsys.readouterr().err


def _write_v1_store(path, settings: CompressionSettings, chunks) -> None:
    """Emit the retired version-1 store layout byte for byte (settings
    header, raw maxima/indices records, (offset, n_rows) chunk table)."""
    with open(path, "wb") as handle:
        handle.write(b"PBLZC" + struct.pack("<B", 1))
        handle.write(pack_type_codes(settings, settings.ndim))
        handle.write(pack_block_geometry(settings))
        table = []
        for chunk in chunks:
            offset = handle.tell()
            handle.write(pack_floats(chunk.maxima, settings.float_format))
            handle.write(
                np.ascontiguousarray(
                    chunk.indices, dtype=settings.index_dtype.newbyteorder("<")
                ).tobytes()
            )
            table.append((offset, chunk.shape[0]))
        footer_offset = handle.tell()
        footer = struct.pack("<Q", len(table))
        for offset, n_rows in table:
            footer += struct.pack("<QQ", offset, n_rows)
        shape = (sum(rows for _, rows in table),) + chunks[0].shape[1:]
        footer += struct.pack(f"<{len(shape)}Q", *shape)
        footer += struct.pack("<Q", footer_offset)
        footer += b"PBLZE"
        handle.write(footer)


def _write_v2_store(path, codec, chunks) -> None:
    """Emit the retired version-2 store layout byte for byte (codec name
    header, self-describing records, (offset, n_bytes, n_rows) chunk table)."""
    name = codec.name.encode("ascii")
    with open(path, "wb") as handle:
        handle.write(b"PBLZC" + struct.pack("<BB", 2, len(name)) + name)
        table = []
        for chunk in chunks:
            offset = handle.tell()
            payload = codec.to_bytes(chunk)
            handle.write(payload)
            table.append((offset, len(payload), chunk.shape[0]))
        footer_offset = handle.tell()
        footer = struct.pack("<Q", len(table))
        for offset, n_bytes, n_rows in table:
            footer += struct.pack("<QQQ", offset, n_bytes, n_rows)
        shape = (sum(rows for _, _, rows in table),) + chunks[0].shape[1:]
        footer += struct.pack("<Q", len(shape))
        footer += struct.pack(f"<{len(shape)}Q", *shape)
        footer += struct.pack("<Q", footer_offset)
        footer += b"PBLZE"
        handle.write(footer)


def _write_v3_store(path, codec, chunks) -> None:
    """Emit the version-3 store layout byte for byte under ``codec``'s name
    (codec name header, self-describing records, (offset, n_bytes, n_rows,
    crc32) chunk table, table CRC over header and footer body)."""
    name = codec.name.encode("ascii")
    header = b"PBLZC" + struct.pack("<BB", 3, len(name)) + name
    with open(path, "wb") as handle:
        handle.write(header)
        table = []
        for chunk in chunks:
            offset = handle.tell()
            payload = codec.to_bytes(chunk)
            handle.write(payload)
            table.append((offset, len(payload), chunk.shape[0], zlib.crc32(payload)))
        footer_offset = handle.tell()
        footer = struct.pack("<Q", len(table))
        for entry in table:
            footer += struct.pack("<QQQI", *entry)
        shape = (sum(entry[2] for entry in table),) + tuple(chunks[0].shape[1:])
        footer += struct.pack(f"<Q{len(shape)}Q", len(shape), *shape)
        footer += struct.pack("<I", zlib.crc32(footer, zlib.crc32(header)))
        footer += struct.pack("<Q", footer_offset) + b"PBLZE"
        handle.write(footer)


def _slabs(field):
    return [field[i : i + 8] for i in (0, 8, 16)]


def _outside_store(kind, tmp_path, field, settings):
    """A store this reader must refuse, and the pattern its error names."""
    if kind == "v1":
        path = tmp_path / "v1.pblzc"
        _write_v1_store(path, settings, [Compressor(settings).compress(slab)
                                         for slab in _slabs(field)])
        return path, "format v1"
    if kind == "v2":
        codec = get_codec("pyblaz", settings=settings)
        path = tmp_path / "v2.pblzc"
        _write_v2_store(path, codec, [codec.compress(slab) for slab in _slabs(field)])
        return path, "format v2"
    if kind == "v3-huffman":
        codec = get_codec("huffman")
        path = tmp_path / "huffman.pblzc"
        _write_v3_store(path, codec, [codec.compress(slab) for slab in _slabs(field)])
        return path, "'huffman'"
    path = tmp_path / "huffman.shards"
    init_sharded_store(path, field, settings, slab_rows=8).close()
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["codec"] = "huffman"
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    return path, "'huffman'"


OUTSIDE_KINDS = ("v1", "v2", "v3-huffman", "sharded-huffman")


class TestStoreFormat:
    def test_current_store_records_codec_name(self, tmp_path, field, settings):
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "v3.pblzc"
        ) as store:
            assert store.version == 3
            assert store.codec_name == "pyblaz"
            assert store.settings.describe() == settings.describe()

    def test_writer_emits_the_v3_layout_byte_for_byte(self, tmp_path, field, settings):
        written = tmp_path / "written.pblzc"
        ChunkedCompressor(settings, slab_rows=8).compress_to_store(field, written).close()
        laid_out = tmp_path / "laid_out.pblzc"
        codec = get_codec("pyblaz", settings=settings)
        _write_v3_store(laid_out, codec, [Compressor(settings).compress(slab)
                                          for slab in _slabs(field)])
        assert written.read_bytes() == laid_out.read_bytes()


@pytest.mark.parametrize("kind", OUTSIDE_KINDS)
class TestOutsideStoresAreRejected:
    """Stores hold pyblaz chunks in format v3 only; anything else is refused
    with a :class:`CodecError` naming the version or codec it found."""

    def test_opening_raises_naming_what_was_found(self, tmp_path, field, settings,
                                                  kind):
        path, found = _outside_store(kind, tmp_path, field, settings)
        with pytest.raises(CodecError, match=found):
            open_store(path)

    @pytest.mark.parametrize("command", [
        ["stream-decompress", "{path}", "{out}"],
        ["stream-decompress", "{path}", "{out}", "--region", "0:8"],
        ["info", "{path}"],
        ["verify-store", "{path}"],
        ["stream-ops", "mean", "{path}"],
    ])
    def test_cli_exits_3_naming_what_was_found(self, tmp_path, field, settings,
                                               capsys, kind, command):
        path, found = _outside_store(kind, tmp_path, field, settings)
        out = tmp_path / "out.npy"
        argv = [part.format(path=path, out=out) for part in command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert found.strip("'") in captured.out + captured.err
        assert not out.exists()
