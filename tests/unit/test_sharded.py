"""Unit tests for the sharded store layer (:mod:`repro.streaming.sharded`).

Covers the manifest contract (round trip, atomic publish, versioning, foreign
formats and codecs, corrupt manifests), init/append validation (non-empty
targets, trailing shapes, settings, empty/non-finite input, ragged-shard
appends), ``open_store`` dispatch, lazy shard opening and backend inheritance,
the staleness ladder (``update_partials=False`` → sidecar loss → size drift)
with :func:`refresh_partials` as the recovery path, the ``.f64`` sidecar
format (older ``.npz`` sidecars, other fold revisions, truncated or damaged
files are swept, never served), fold-state assembly details (relabelled
self-pair folds, counts, unknown folds, a pruned DC), and the API-level verify/repair
recursion that names the corrupt shard *and* chunk.
"""

import numpy as np
import pytest

from repro import engine
from repro.core import CompressionSettings
from repro.core.exceptions import CodecError
from repro.engine import expr
from repro.reliability import repair_sharded_store, verify_sharded_store
from repro.streaming import (
    ChunkedCompressor,
    CompressedStore,
    ShardedStore,
    append_shard,
    init_sharded_store,
    is_sharded_store,
    open_store,
    refresh_partials,
)
from repro.streaming.sharded import (
    MANIFEST_NAME,
    load_manifest,
    partials_filename,
    save_manifest,
    shard_filename,
)
from tests.conftest import smooth_field


@pytest.fixture
def settings() -> CompressionSettings:
    return CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")


def _grown(tmp_path, settings, shapes=((16, 8), (8, 8)), slab_rows=8):
    """A sharded store with one shard per shape, distinct deterministic data."""
    path = tmp_path / "grown.shards"
    init_sharded_store(path, smooth_field(shapes[0], seed=100), settings,
                       slab_rows=slab_rows).close()
    for step, shape in enumerate(shapes[1:], start=1):
        append_shard(path, smooth_field(shape, seed=100 + step),
                     slab_rows=slab_rows).close()
    return path


class TestManifest:
    def test_init_round_trip(self, tmp_path, settings):
        path = _grown(tmp_path, settings, shapes=((16, 8),))
        manifest = load_manifest(path)
        assert manifest["format"] == "repro-sharded-store"
        assert manifest["version"] == 1
        assert manifest["codec"] == "pyblaz"
        assert manifest["shape"] == [16, 8]
        assert manifest["revision"] == 1
        (entry,) = manifest["shards"]
        assert entry["file"] == shard_filename(0)
        assert entry["rows"] == 16
        assert entry["chunk_rows"] == [8, 8]
        assert entry["partials"] is True
        assert entry["n_bytes"] == (path / entry["file"]).stat().st_size

    def test_append_accumulates_shape_and_revision(self, tmp_path, settings):
        path = _grown(tmp_path, settings, shapes=((16, 8), (8, 8), (4, 8)))
        manifest = load_manifest(path)
        assert manifest["shape"] == [28, 8]
        assert manifest["revision"] == 3
        assert [entry["file"] for entry in manifest["shards"]] == [
            shard_filename(0), shard_filename(1), shard_filename(2),
        ]
        with ShardedStore(path) as store:
            assert store.shape == (28, 8)
            assert store.n_shards == 3
            assert store.revision == 3
            assert store.chunk_rows == (8, 8, 8, 4)

    def test_atomic_publish_leaves_no_temp(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        assert not (path / (MANIFEST_NAME + ".tmp")).exists()

    def test_newer_layout_version_rejected(self, tmp_path, settings):
        path = _grown(tmp_path, settings, shapes=((16, 8),))
        manifest = load_manifest(path)
        manifest["version"] = 2
        save_manifest(path, manifest)
        with pytest.raises(CodecError, match="layout version 2"):
            ShardedStore(path)

    def test_foreign_format_rejected(self, tmp_path):
        target = tmp_path / "foreign.shards"
        target.mkdir()
        (target / MANIFEST_NAME).write_text('{"format": "something-else"}')
        assert is_sharded_store(target)  # the file exists; loading rejects it
        with pytest.raises(CodecError, match="not a sharded store"):
            load_manifest(target)

    def test_foreign_codec_rejected_naming_it(self, tmp_path, settings):
        """A manifest whose shards hold another codec's chunks never opens."""
        path = _grown(tmp_path, settings, shapes=((16, 8),))
        manifest = load_manifest(path)
        manifest["codec"] = "huffman"
        save_manifest(path, manifest)
        for attempt in (load_manifest, ShardedStore, open_store,
                        lambda p: append_shard(p, smooth_field((8, 8), seed=5))):
            with pytest.raises(CodecError, match="'huffman'"):
                attempt(path)
        report = verify_sharded_store(path)
        assert not report.ok and "'huffman'" in report.manifest_error

    def test_garbled_manifest_rejected(self, tmp_path):
        target = tmp_path / "garbled.shards"
        target.mkdir()
        (target / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CodecError, match="cannot read"):
            load_manifest(target)

    def test_inconsistent_chunk_rows_rejected(self, tmp_path, settings):
        path = _grown(tmp_path, settings, shapes=((16, 8),))
        manifest = load_manifest(path)
        manifest["shards"][0]["chunk_rows"] = [8, 4]  # no longer sums to shape
        save_manifest(path, manifest)
        with pytest.raises(CodecError, match="corrupt sharded manifest"):
            ShardedStore(path)

    def test_plain_paths_are_not_sharded_stores(self, tmp_path):
        assert not is_sharded_store(tmp_path)  # dir without a manifest
        probe = tmp_path / "file.pblzc"
        probe.write_bytes(b"x")
        assert not is_sharded_store(probe)


class TestInitAppendValidation:
    def test_init_refuses_non_empty_directory(self, tmp_path, settings):
        target = tmp_path / "busy"
        target.mkdir()
        (target / "stray").write_text("x")
        with pytest.raises(CodecError, match="not an .?empty"):
            init_sharded_store(target, smooth_field((8, 8)), settings)

    def test_init_refuses_existing_file(self, tmp_path, settings):
        target = tmp_path / "taken"
        target.write_text("x")
        with pytest.raises(CodecError):
            init_sharded_store(target, smooth_field((8, 8)), settings)

    def test_append_trailing_shape_mismatch(self, tmp_path, settings):
        path = _grown(tmp_path, settings, shapes=((16, 8),))
        with pytest.raises(CodecError, match="trailing shape"):
            append_shard(path, smooth_field((8, 12), seed=5))

    def test_append_takes_settings_from_shard_zero(self, tmp_path):
        wide = CompressionSettings(block_shape=(8, 4), float_format="float64",
                                   index_dtype="int8")
        path = _grown(tmp_path, wide, shapes=((16, 8), (16, 8)))
        with ShardedStore(path) as store:
            assert store.shard(1).settings.describe() == wide.describe()
        with pytest.raises(TypeError, match="codec"):
            append_shard(path, smooth_field((8, 8), seed=5), codec="pyblaz")

    @pytest.mark.parametrize("array, slab_rows, message", [
        (np.empty((0, 8)), None, "empty"),
        (smooth_field((8, 8), seed=5), 0, "slab_rows"),
        (np.full((8, 8), np.nan), None, "non-finite"),
    ])
    def test_bad_input_is_a_codec_error(self, tmp_path, settings, array,
                                        slab_rows, message):
        with pytest.raises(CodecError, match=message):
            init_sharded_store(tmp_path / "fresh", array, settings,
                               slab_rows=slab_rows)
        path = _grown(tmp_path, settings, shapes=((16, 8),))
        with pytest.raises(CodecError, match=message):
            append_shard(path, array, slab_rows=slab_rows)
        assert load_manifest(path)["revision"] == 1  # nothing published

    def test_init_dimensionality_mismatch_is_a_codec_error(self, tmp_path, settings):
        with pytest.raises(CodecError, match="dimensionality 3"):
            init_sharded_store(tmp_path / "cube", np.ones((8, 8, 8)), settings)

    def test_append_after_ragged_shard_is_rejected(self, tmp_path, settings):
        # 10 rows with block extent 4: the shard's tail chunk is ragged, so it
        # must stay the globally last chunk — appending would bury it
        path = tmp_path / "ragged.shards"
        init_sharded_store(path, smooth_field((10, 8)), settings,
                           slab_rows=8).close()
        with pytest.raises(CodecError, match="partial block row"):
            append_shard(path, smooth_field((8, 8), seed=5))

    def test_failed_init_leaves_nothing_and_a_retry_succeeds(self, tmp_path, settings):
        target = tmp_path / "retry.shards"
        poisoned = smooth_field((16, 8), seed=3)
        poisoned[5, 2] = np.nan
        with pytest.raises(CodecError, match="non-finite"):
            init_sharded_store(target, poisoned, settings)
        assert list(target.iterdir()) == []
        clean = smooth_field((16, 8), seed=3)
        init_sharded_store(target, clean, settings).close()
        init_sharded_store(tmp_path / "first.shards", clean, settings).close()
        for name in (shard_filename(0), partials_filename(0), MANIFEST_NAME):
            assert (target / name).read_bytes() == (
                tmp_path / "first.shards" / name).read_bytes()

    def test_failed_append_leaves_nothing_behind(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        before = {entry.name: entry.read_bytes() for entry in path.iterdir()}
        poisoned = smooth_field((8, 8), seed=9)
        poisoned[-1, -1] = np.inf
        with pytest.raises(CodecError, match="non-finite"):
            append_shard(path, poisoned)
        assert {entry.name: entry.read_bytes() for entry in path.iterdir()} == before
        append_shard(path, smooth_field((8, 8), seed=9)).close()
        assert load_manifest(path)["revision"] == 3

    def test_a_failed_sidecar_write_unwinds_the_new_shard(self, tmp_path, settings,
                                                           monkeypatch):
        from repro.streaming import sharded

        path = _grown(tmp_path, settings)
        before = {entry.name: entry.read_bytes() for entry in path.iterdir()}

        def failing(directory, index, store):
            (directory / (partials_filename(index) + ".tmp")).write_bytes(b"torn")
            raise OSError("disk full")

        monkeypatch.setattr(sharded, "_write_partials", failing)
        with pytest.raises(OSError, match="disk full"):
            append_shard(path, smooth_field((8, 8), seed=9))
        assert {entry.name: entry.read_bytes() for entry in path.iterdir()} == before

    @pytest.mark.parametrize("settings_argument", [42, "huffman", "pyblaz"])
    def test_init_takes_settings_only(self, tmp_path, settings_argument):
        with pytest.raises(CodecError, match="CompressionSettings"):
            init_sharded_store(tmp_path / "s", smooth_field((8, 8)),
                               settings_argument)


class TestOpenStoreDispatch:
    def test_dispatch_by_layout(self, tmp_path, settings):
        sharded_path = _grown(tmp_path, settings, shapes=((16, 8),))
        single_path = tmp_path / "single.pblzc"
        ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            smooth_field((16, 8)), single_path).close()
        with open_store(sharded_path) as sharded:
            assert isinstance(sharded, ShardedStore)
        with open_store(single_path) as single:
            assert isinstance(single, CompressedStore)


class TestLazyShardsAndGeometry:
    def test_region_reads_open_only_intersecting_shards(self, tmp_path, settings):
        path = _grown(tmp_path, settings, shapes=((16, 8), (8, 8), (8, 8)))
        with ShardedStore(path) as store:
            head = store.load_region(slice(0, 8))
            assert head.shape == (8, 8)
            assert set(store._shards) == {0}  # shards 1 and 2 never opened
            store.load_region(slice(24, 32))  # rows owned by shard 2
            assert set(store._shards) == {0, 2}

    def test_load_matches_source_arrays(self, tmp_path, settings):
        parts = [smooth_field((16, 8), seed=100), smooth_field((8, 8), seed=101)]
        path = _grown(tmp_path, settings)
        whole = np.concatenate(parts, axis=0)
        with ShardedStore(path) as store:
            assert store.dtype == np.float64
            assert store.settings is not None
            loaded = store.load()
            assert loaded.shape == whole.shape
            # lossy codec: close to the source, exactly equal per-region reads
            assert np.allclose(loaded, whole, atol=0.05)
            assert np.array_equal(store.load_region(slice(4, 20)), loaded[4:20])
            assert np.array_equal(store.load_region(17), loaded[17])
            empty = store.load_region(slice(5, 5))
            assert empty.shape == (0, 8) and empty.dtype == np.float64

    def test_chunks_read_sums_over_shards(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        with ShardedStore(path) as store:
            assert store.chunks_read == 0
            store.load()
            assert store.chunks_read == store.n_chunks
            assert store.locate(0) == (0, 0)
            assert store.locate(store.n_chunks - 1) == (1, 0)


class TestStalenessLadder:
    def _mean_plan(self, store):
        return engine.plan({"m": expr.mean(expr.source(store))})

    def test_no_partials_append_marks_stale_then_refresh(self, tmp_path, settings):
        path = tmp_path / "stale.shards"
        init_sharded_store(path, smooth_field((16, 8), seed=1), settings,
                           slab_rows=8).close()
        append_shard(path, smooth_field((8, 8), seed=2), slab_rows=8,
                     update_partials=False).close()
        assert not (path / partials_filename(1)).exists()

        with ShardedStore(path, use_partials=False) as swept:
            cold = self._mean_plan(swept).execute()
        with ShardedStore(path) as stale:
            assert not stale.partials_fresh()
            assert stale.fold_state("dc") is None
            plan = self._mean_plan(stale)
            assert plan.execute() == cold  # clean fallback to a full sweep
            assert plan.last_execution["incremental_groups"] == 0
            revision = stale.revision

        assert refresh_partials(path) == 1
        assert refresh_partials(path) == 0  # idempotent: nothing left stale
        with ShardedStore(path) as fresh:
            assert fresh.partials_fresh()
            assert fresh.revision == revision  # refresh never bumps revision
            plan = self._mean_plan(fresh)
            assert plan.execute() == cold
            assert plan.last_execution["incremental_groups"] == 1

    def test_missing_sidecar_is_stale(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        (path / partials_filename(1)).unlink()
        with ShardedStore(path) as store:
            assert not store.partials_fresh()
            assert store.fold_state("square") is None
        assert refresh_partials(path) == 1
        with ShardedStore(path) as store:
            assert store.partials_fresh()

    def test_size_drift_is_stale(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        with open(path / shard_filename(0), "ab") as handle:
            handle.write(b"\0")  # in-place rewrite changed the byte size
        with ShardedStore(path) as store:
            assert not store.partials_fresh()
            assert store.fold_state("dc") is None

    def test_use_partials_false_disables_serving(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        with ShardedStore(path, use_partials=False) as store:
            assert not store.partials_fresh()
            assert store.fold_state("dc") is None


def _bits(values: dict) -> dict:
    return {key: np.float64(value).tobytes() for key, value in values.items()}


#: The sidecar header's fields, in file order.
_HEADER_FIELDS = ("magic", "version", "fold_revision", "n_blocks", "n_elements",
                  "n_padded_elements", "dc_scale", "dc_length", "dc_total_length",
                  "square_length", "ac_square_length", "crc32")


def _read_header(sidecar) -> dict:
    from repro.streaming import sharded

    return dict(zip(_HEADER_FIELDS,
                    sharded._SIDECAR_HEADER.unpack_from(sidecar.read_bytes())))


def _rewrite_header(sidecar, **fields) -> None:
    """Overwrite header fields of a ``.f64`` sidecar in place (body untouched)."""
    from repro.streaming import sharded

    header = {**_read_header(sidecar), **fields}
    raw = sidecar.read_bytes()
    sidecar.write_bytes(sharded._SIDECAR_HEADER.pack(*header.values())
                        + raw[sharded._SIDECAR_HEADER.size:])


class TestFoldRevision:
    """Sidecars persisted under another fold arithmetic or format are stale."""

    @staticmethod
    def _query(store) -> dict:
        x = expr.source(store)
        return {"m": expr.mean(x), "l2": expr.l2_norm(x), "dot": expr.dot(x, x),
                "v": expr.variance(x), "cov": expr.covariance(x, x)}

    @staticmethod
    def _write_npz_sidecar(path, index, revision) -> None:
        """The ``.npz`` sidecar an older release wrote in place of the ``.f64``.

        Revision 0 (no ``fold_revision`` key, or 0) held blocked-array square
        sums; revision 2 held this arithmetic's per-block vectors.
        """
        from repro.core.ops import folds, specified_coefficients

        with CompressedStore(path / shard_filename(index)) as shard:
            chunks = list(shard.iter_chunks())
            settings = shard.settings
        if revision == 2:
            square = [folds.square_partial(chunk).sums["square"][0] for chunk in chunks]
        else:
            square = [(specified_coefficients(chunk) ** 2).sum(axis=(-2, -1)).ravel()
                      for chunk in chunks]
        payload = {
            "dc": np.concatenate([folds.dc_partial(c).sums["dc"][0] for c in chunks]),
            "square": np.concatenate(square),
            "n_blocks": np.int64(sum(c.n_blocks for c in chunks)),
            "n_elements": np.int64(sum(c.n_elements for c in chunks)),
            "n_padded_elements": np.int64(sum(c.n_padded_elements for c in chunks)),
            "dc_scale": np.float64(settings.dc_scale),
        }
        if revision is not None:
            payload["fold_revision"] = np.int64(revision)
        (path / partials_filename(index)).unlink()
        with open((path / partials_filename(index)).with_suffix(".npz"), "wb") as handle:
            np.savez(handle, **payload)

    def test_sidecars_record_the_fold_revision(self, tmp_path, settings):
        from repro.core.ops import folds

        path = _grown(tmp_path, settings)
        for index in range(2):
            header = _read_header(path / partials_filename(index))
            assert header["magic"] == b"PBLZPART"
            assert header["version"] == 1
            assert header["fold_revision"] == folds.FOLD_REVISION
        assert not list(path.glob("*.npz"))

    @pytest.mark.parametrize("revision", [None, 0, 2])
    def test_old_sidecar_is_not_served_until_refreshed(self, tmp_path, settings,
                                                       revision):
        path = _grown(tmp_path, settings)
        with ShardedStore(path, use_partials=False) as swept:
            cold = engine.plan(self._query(swept)).execute()
        for index in range(2):
            self._write_npz_sidecar(path, index, revision)
        with ShardedStore(path) as stale:
            assert not stale.partials_fresh()
            assert stale.fold_state("square") is None
            assert stale.fold_state("dc") is None
            plan = engine.plan(self._query(stale))
            assert plan.execute() == cold
            assert plan.last_execution["incremental_groups"] == 0
            assert stale.chunks_read == stale.n_chunks

        assert refresh_partials(path) == 2
        assert sorted(entry.name for entry in path.glob("partials-*")) == [
            partials_filename(0), partials_filename(1)]  # the .npz orphans are gone
        assert refresh_partials(path) == 0
        with ShardedStore(path) as fresh:
            assert fresh.partials_fresh()
            plan = engine.plan(self._query(fresh))
            served = plan.execute()
            assert plan.last_execution["incremental_groups"] == 1
            assert fresh.chunks_read == 0
        assert _bits(served) == _bits(cold)

    def test_revision_one_int32_sidecar_is_refreshed(self, tmp_path):
        """int32 ``square`` moved with the fixed-order row dot of revision 2.

        A revision-1 sidecar holds the exact parts of what that release
        computed: ``einsum`` over the block-major scaled kept matrix, whose
        per-row order differs from the column-by-column sum a sweep now takes.
        """
        from repro.core.ops import folds
        from repro.core.ops.coefficients import block_scales
        from repro.numerics import exact_parts
        from repro.streaming import sharded

        settings = CompressionSettings(block_shape=(4, 4), index_dtype="int32")
        path = _grown(tmp_path, settings, shapes=((32, 16), (16, 16)))
        with ShardedStore(path, use_partials=False) as swept:
            cold = engine.plan(self._query(swept)).execute()
        moved = 0
        for index in range(2):
            with CompressedStore(path / shard_filename(index)) as shard:
                partials = sharded._compute_partials(shard)
                kept = [chunk.indices.astype(np.float64) * block_scales(chunk)[:, None]
                        for chunk in shard.iter_chunks()]
                new = np.concatenate([folds.square_partial(chunk).sums["square"][0]
                                      for chunk in shard.iter_chunks()])
            old = np.concatenate([np.einsum("ij,ij->i", k, k) for k in kept])
            moved += int(np.count_nonzero(old != new))
            partials["square"] = np.array(exact_parts(old))
            sidecar = path / partials_filename(index)
            sidecar.write_bytes(sharded._sidecar_bytes(partials))
            _rewrite_header(sidecar, fold_revision=1)
        assert folds.FOLD_REVISION == 2 and moved > 0
        with ShardedStore(path) as stale:
            assert not stale.partials_fresh()
            assert stale.fold_state("square") is None
            plan = engine.plan(self._query(stale))
            assert plan.execute() == cold
            assert plan.last_execution["incremental_groups"] == 0
        assert refresh_partials(path) == 2
        with ShardedStore(path) as fresh:
            assert fresh.partials_fresh()
            plan = engine.plan(self._query(fresh))
            served = plan.execute()
            assert plan.last_execution["incremental_groups"] == 1
        assert _bits(served) == _bits(cold)


class TestSidecarIntegrity:
    """A truncated, damaged or foreign ``.f64`` sidecar is never served."""

    @staticmethod
    def _query(store) -> dict:
        x = expr.source(store)
        return {"m": expr.mean(x), "v": expr.variance(x), "l2": expr.l2_norm(x)}

    @staticmethod
    def _truncate(sidecar, keep) -> None:
        sidecar.write_bytes(sidecar.read_bytes()[:keep(sidecar.stat().st_size)])

    @staticmethod
    def _flip(sidecar, position) -> None:
        raw = bytearray(sidecar.read_bytes())
        raw[position(len(raw))] ^= 0x10
        sidecar.write_bytes(bytes(raw))

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda s: TestSidecarIntegrity._truncate(s, lambda n: n - 8),
                     id="truncated-body"),
        pytest.param(lambda s: TestSidecarIntegrity._truncate(s, lambda n: 40),
                     id="truncated-header"),
        pytest.param(lambda s: TestSidecarIntegrity._truncate(s, lambda n: 0),
                     id="empty"),
        pytest.param(lambda s: s.write_bytes(s.read_bytes() + b"\0" * 8),
                     id="extended"),
        pytest.param(lambda s: TestSidecarIntegrity._flip(s, lambda n: n - 3),
                     id="flipped-body-bit"),
        pytest.param(lambda s: TestSidecarIntegrity._flip(s, lambda n: 100),
                     id="flipped-dc-bit"),
        pytest.param(lambda s: TestSidecarIntegrity._flip(s, lambda n: 0),
                     id="flipped-magic-bit"),
        pytest.param(lambda s: _rewrite_header(s, version=2), id="newer-version"),
        pytest.param(lambda s: _rewrite_header(s, crc32=0), id="wrong-crc"),
    ])
    def test_damaged_sidecar_sweeps_until_refreshed(self, tmp_path, settings, damage):
        path = _grown(tmp_path, settings, shapes=((64, 32), (16, 32)))
        with ShardedStore(path, use_partials=False) as swept:
            cold = engine.plan(self._query(swept)).execute()
        sidecar = path / partials_filename(0)
        damage(sidecar)
        with ShardedStore(path) as stale:
            assert not stale.partials_fresh()
            assert stale.fold_state("centered_square") is None
            plan = engine.plan(self._query(stale))
            assert _bits(plan.execute()) == _bits(cold)
            assert plan.last_execution["incremental_groups"] == 0
            assert stale.chunks_read == stale.n_chunks
        assert refresh_partials(path) == 1
        with ShardedStore(path) as fresh:
            plan = engine.plan(self._query(fresh))
            assert _bits(plan.execute()) == _bits(cold)
            assert plan.last_execution["incremental_groups"] == 1

    def test_sidecar_layout(self, tmp_path, settings):
        """Header, then the ``dc`` vector and the exact parts, as float64."""
        from repro.core.ops import folds
        from repro.numerics import exact_parts

        path = _grown(tmp_path, settings, shapes=((64, 32),))
        sidecar = path / partials_filename(0)
        header = _read_header(sidecar)
        n_blocks = 16 * 8
        assert header["n_blocks"] == n_blocks
        dc, dc_total, square, ac_square = (
            header[f"{name}_length"] for name in ("dc", "dc_total", "square", "ac_square"))
        assert dc == n_blocks
        assert all(1 <= length <= 4 for length in (dc_total, square, ac_square))
        assert sidecar.stat().st_size == 96 + 8 * (dc + dc_total + square + ac_square)
        body = np.frombuffer(sidecar.read_bytes()[96:], dtype="<f8")
        with CompressedStore(path / shard_filename(0)) as shard:
            chunks = list(shard.iter_chunks())
            expected_dc = np.concatenate([folds.dc_partial(c).sums["dc"][0]
                                          for c in chunks])
            expected_square = np.concatenate([folds.square_partial(c).sums["square"][0]
                                              for c in chunks])
        assert np.array_equal(body[:dc], expected_dc)
        assert body[dc:dc + dc_total].tolist() == exact_parts(expected_dc)
        start = dc + dc_total
        assert body[start:start + square].tolist() == exact_parts(expected_square)


class TestFoldStateAssembly:
    def test_rename_and_counts(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        with ShardedStore(path) as store:
            state = store.fold_state("product")
            assert state is not None
            assert set(state.sums) == {"product"}
            assert len(state.sums["product"]) == store.n_shards
            assert state.n_elements == 24 * 8
            dc = store.fold_state("dc")
            assert dc.dc_scale is not None
            assert len(dc.sums["dc"]) == store.n_shards
            # the mean reads only the DC total; the centered folds, the vector
            centered = store.fold_state("centered_product")
            assert set(centered.sums) == {"dc_a", "dc_b", "ac_product"}
            assert centered.dc_scale is None
            assert [len(a) for a in centered.sums["dc_a"]] == [8, 4]  # blocks per shard

    def test_unknown_fold_returns_none(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        with ShardedStore(path) as store:
            assert store.fold_state("diff_square") is None
            assert set(store.fold_state("centered_square").sums) == {"dc", "ac_square"}

    def test_pruned_dc_persists_square_only(self, tmp_path):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        settings = CompressionSettings(block_shape=(4, 4), pruning_mask=mask)
        path = _grown(tmp_path, settings)
        with ShardedStore(path) as store:
            assert store.partials_fresh()
            assert store.fold_state("square") is not None
            for name in ("dc", "centered_square", "centered_product"):
                assert store.fold_state(name) is None
            with pytest.raises(ValueError, match="unpruned"):
                engine.evaluate(expr.variance(expr.source(store)))
            assert store.chunks_read == 0


class TestPerTermServing:
    def test_servable_terms_are_served_next_to_a_sweeping_distance(
        self, tmp_path, settings, monkeypatch
    ):
        """mean/l2/variance in a group with a Euclidean distance come from the
        partials; only ``diff_square`` sweeps, once per fold step, and every
        scalar equals a cold sweep."""
        import dataclasses

        from repro.core.ops import folds
        from repro.streaming import steps

        path = _grown(tmp_path, settings)

        def request(store):
            x = expr.source(store)
            return {"m": expr.mean(x), "n": expr.l2_norm(x), "v": expr.variance(x),
                    "e": expr.euclidean_distance(x, x)}

        with ShardedStore(path, use_partials=False) as swept:
            cold = engine.evaluate(request(swept))
        swept_folds = []
        for name, spec in list(folds.FOLD_SPECS.items()):
            def counted(*chunks, _name=name, _partial=spec.partial):
                swept_folds.append(_name)
                return _partial(*chunks)
            monkeypatch.setitem(folds.FOLD_SPECS, name,
                                dataclasses.replace(spec, partial=counted))
        # three 8-row chunks of 4 blocks; a step holds two of them
        monkeypatch.setattr(steps, "STEP_COEFFICIENTS", 2 * 4 * 16)
        with ShardedStore(path) as store:
            plan = engine.plan(request(store))
            assert plan.execute() == cold
            assert set(swept_folds) == {"diff_square"}
            assert store.chunk_rows == (8, 8, 8)
            assert len(swept_folds) == 2  # steps: chunks 0-1, then chunk 2
            assert store.chunks_read == store.n_chunks
            assert plan.last_execution["incremental_groups"] == 0
            assert plan.last_execution["interpreted_groups"] == 1

    def test_freshness_is_probed_once_per_source_per_plan(self, tmp_path, settings,
                                                          monkeypatch):
        """Every servable term of a sharded source shares one probe; served
        scalars equal swept ones bit for bit."""
        paths = [_grown(tmp_path / name, settings, shapes=((16, 8), (8, 8), (8, 8)))
                 for name in ("x", "y")]

        def request(x, y):
            x, y = expr.source(x), expr.source(y)
            return {"mx": expr.mean(x), "nx": expr.l2_norm(x), "dx": expr.dot(x, x),
                    "vx": expr.variance(x), "cx": expr.covariance(x, x),
                    "my": expr.mean(y), "ny": expr.l2_norm(y),
                    "sy": expr.standard_deviation(y)}

        stores = [ShardedStore(path, use_partials=False) for path in paths]
        swept = engine.evaluate(request(*stores))
        for store in stores:
            store.close()

        probes: list = []
        probe = ShardedStore.partials_fresh

        def counted(self):
            probes.append(self.path)
            return probe(self)

        monkeypatch.setattr(ShardedStore, "partials_fresh", counted)
        with ShardedStore(paths[0]) as x, ShardedStore(paths[1]) as y:
            plan = engine.plan(request(x, y))
            for executions in (1, 2):
                served = plan.execute()
                assert sorted(map(str, probes)) == sorted(map(str, paths * executions))
                assert plan.last_execution["incremental_groups"] == 2
                assert x.chunks_read == y.chunks_read == 0
                assert {key: value.hex() for key, value in served.items()} == {
                    key: value.hex() for key, value in swept.items()}


class TestBackendInheritance:
    def test_shards_inherit_the_decompression_backend(self, tmp_path, settings):
        path = _grown(tmp_path, settings, shapes=((16, 8), (8, 8)))
        with ShardedStore(path) as store:
            reference = store.load()
            store.shard(0)  # opened before the backend is set
            store.backend = "gemm"
            assert [store.shard(index).backend for index in (0, 1)] == ["gemm"] * 2
            assert np.allclose(store.load(), reference, rtol=0, atol=1e-5)
            store.backend = None
            assert np.array_equal(store.load(), reference)


class TestVerifyRepairRecursion:
    def _corrupt(self, path, shard_index: int) -> None:
        target = path / shard_filename(shard_index)
        size = target.stat().st_size
        with open(target, "r+b") as handle:
            handle.seek(size // 2)
            handle.write(b"\xff" * 8)

    def test_clean_store_verifies(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        report = verify_sharded_store(path)
        assert report.ok and report.corrupt_shards == []
        assert "store OK" in report.describe()
        assert report.to_dict()["sharded"] is True

    def test_corruption_names_shard_and_chunk(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        self._corrupt(path, 1)
        report = verify_sharded_store(path)
        assert not report.ok
        assert report.corrupt_shards == [1]
        text = report.describe()
        assert f"shard 1 ({shard_filename(1)})" in text
        assert "CORRUPT" in text and "shard 0" not in text.split("shard 1")[1]

    def test_repair_from_mirror_restores_and_keeps_partials(self, tmp_path, settings):
        import shutil

        path = _grown(tmp_path, settings)
        mirror = tmp_path / "mirror.shards"
        shutil.copytree(path, mirror)
        with ShardedStore(path) as store:
            expected = engine.plan({"m": expr.mean(expr.source(store))}).execute()
        self._corrupt(path, 1)

        report = repair_sharded_store(path, mirror)
        assert report.ok
        manifest = load_manifest(path)
        assert manifest["revision"] == 2  # logical content unchanged: no bump
        with ShardedStore(path) as repaired:
            assert repaired.partials_fresh()  # sizes/CRCs refreshed in place
            plan = engine.plan({"m": expr.mean(expr.source(repaired))})
            assert plan.execute() == expected
            assert plan.last_execution["incremental_groups"] == 1

    def test_repair_with_unreadable_manifest_refuses(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        (path / MANIFEST_NAME).write_text("{broken")
        with pytest.raises(CodecError, match="restore the manifest"):
            repair_sharded_store(path, tmp_path)
