"""Unit tests for the sharded store layer (:mod:`repro.streaming.sharded`).

Covers the manifest contract (round trip, atomic publish, versioning, foreign
formats and codecs, corrupt manifests), init/append validation (non-empty
targets, trailing shapes, settings, empty/non-finite input, ragged-shard
appends), ``open_store`` dispatch, lazy shard opening and backend inheritance,
the staleness ladder (``update_partials=False`` → sidecar loss → size drift)
with :func:`refresh_partials` as the recovery path, fold-state assembly
details (renaming, counts, unknown folds), and the API-level verify/repair
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


class TestFoldRevision:
    """Sidecars persisted under another fold arithmetic are stale."""

    @staticmethod
    def _query(store) -> dict:
        x = expr.source(store)
        return {"m": expr.mean(x), "l2": expr.l2_norm(x), "dot": expr.dot(x, x)}

    @staticmethod
    def _rewrite_old_sidecar(path, index, revision) -> None:
        """The sidecar an older release wrote: blocked-array square sums."""
        from repro.core.ops import specified_coefficients

        sidecar = path / partials_filename(index)
        with np.load(sidecar) as data:
            payload = {key: data[key] for key in data.files}
        with CompressedStore(path / shard_filename(index)) as shard:
            payload["square"] = np.concatenate([
                (specified_coefficients(chunk) ** 2).sum(axis=(-2, -1)).ravel()
                for chunk in shard.iter_chunks()])
        del payload["fold_revision"]
        if revision is not None:
            payload["fold_revision"] = np.int64(revision)
        with open(sidecar, "wb") as handle:
            np.savez(handle, **payload)

    def test_sidecars_record_the_fold_revision(self, tmp_path, settings):
        from repro.core.ops import folds

        path = _grown(tmp_path, settings)
        for index in range(2):
            with np.load(path / partials_filename(index)) as data:
                assert int(data["fold_revision"]) == folds.FOLD_REVISION

    @pytest.mark.parametrize("revision", [None, 0])
    def test_old_sidecar_is_not_served_until_refreshed(self, tmp_path, settings,
                                                       revision):
        path = _grown(tmp_path, settings)
        with ShardedStore(path, use_partials=False) as swept:
            cold = engine.plan(self._query(swept)).execute()
        for index in range(2):
            self._rewrite_old_sidecar(path, index, revision)
        with ShardedStore(path) as stale:
            assert not stale.partials_fresh()
            assert stale.fold_state("square") is None
            assert stale.fold_state("dc") is None
            plan = engine.plan(self._query(stale))
            assert plan.execute() == cold
            assert plan.last_execution["incremental_groups"] == 0

        assert refresh_partials(path) == 2
        assert refresh_partials(path) == 0
        with ShardedStore(path) as fresh:
            assert fresh.partials_fresh()
            plan = engine.plan(self._query(fresh))
            served = plan.execute()
            assert plan.last_execution["incremental_groups"] == 1
        assert {key: np.float64(value).tobytes() for key, value in served.items()} \
            == {key: np.float64(value).tobytes() for key, value in cold.items()}

    def test_revision_one_int32_sidecar_is_refreshed(self, tmp_path):
        """int32 ``square`` moved with the fixed-order row dot of revision 2.

        The revision-1 sidecar holds what that release computed: ``einsum``
        over the block-major scaled kept matrix, whose per-row order differs
        from the column-by-column sum a sweep now takes.
        """
        from repro.core.ops import folds
        from repro.core.ops.coefficients import block_scales

        settings = CompressionSettings(block_shape=(4, 4), index_dtype="int32")
        path = _grown(tmp_path, settings, shapes=((32, 16), (16, 16)))
        with ShardedStore(path, use_partials=False) as swept:
            cold = engine.plan(self._query(swept)).execute()
        moved = 0
        for index in range(2):
            sidecar = path / partials_filename(index)
            with np.load(sidecar) as data:
                payload = {key: data[key] for key in data.files}
            with CompressedStore(path / shard_filename(index)) as shard:
                kept = [chunk.indices.astype(np.float64) * block_scales(chunk)[:, None]
                        for chunk in shard.iter_chunks()]
            old = np.concatenate([np.einsum("ij,ij->i", k, k) for k in kept])
            moved += int(np.count_nonzero(old != payload["square"]))
            payload["square"], payload["fold_revision"] = old, np.int64(1)
            with open(sidecar, "wb") as handle:
                np.savez(handle, **payload)
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
        assert {key: np.float64(value).tobytes() for key, value in served.items()} \
            == {key: np.float64(value).tobytes() for key, value in cold.items()}


class TestFoldStateAssembly:
    def test_rename_and_counts(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        with ShardedStore(path) as store:
            state = store.fold_state("square", rename="product")
            assert state is not None
            assert set(state.sums) == {"product"}
            assert len(state.sums["product"]) == store.n_shards
            assert state.n_elements == 24 * 8
            dc = store.fold_state("dc")
            assert dc.dc_scale is not None

    def test_unknown_fold_returns_none(self, tmp_path, settings):
        path = _grown(tmp_path, settings)
        with ShardedStore(path) as store:
            assert store.fold_state("diff_square") is None
            assert store.fold_state("centered_square") is None


class TestPerTermServing:
    def test_servable_terms_are_served_next_to_a_sweeping_variance(
        self, tmp_path, settings, monkeypatch
    ):
        """mean/l2 in a group with variance come from the partials; only the
        centered fold sweeps, once per fold step, and every scalar equals a
        cold sweep."""
        import dataclasses

        from repro.core.ops import folds
        from repro.streaming import steps

        path = _grown(tmp_path, settings)
        with ShardedStore(path, use_partials=False) as swept:
            x = expr.source(swept)
            cold = engine.evaluate({"m": expr.mean(x), "n": expr.l2_norm(x),
                                    "v": expr.variance(x)})
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
            x = expr.source(store)
            plan = engine.plan({"m": expr.mean(x), "n": expr.l2_norm(x),
                                "v": expr.variance(x)})
            assert plan.execute() == cold
            assert set(swept_folds) == {"centered_square"}
            assert store.chunk_rows == (8, 8, 8)
            assert len(swept_folds) == 2  # steps: chunks 0-1, then chunk 2
            assert store.chunks_read == store.n_chunks
            assert plan.last_execution["incremental_groups"] == 0
            assert plan.last_execution["interpreted_groups"] == 1


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
