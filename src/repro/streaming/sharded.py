"""Sharded append-mode stores with persisted incremental fold partials.

A *sharded store* is a directory holding a versioned JSON ``manifest.json``
over N immutable :class:`~repro.streaming.store.CompressedStore` shard files::

    my_data/
        manifest.json          per-shard geometry, sizes, CRC-32s, revision
        shard-000000.pblzc     ordinary chunked store (rows 0..r0)
        partials-000000.npz    persisted fold partials for shard 0
        shard-000001.pblzc     appended later (rows r0..r0+r1)
        partials-000001.npz

:class:`ShardedStore` presents the same geometry / ``read_chunk`` /
``load_region`` / ``chunks_read`` surface as a single store — the global chunk
index is the concatenation of every shard's chunks in shard order — so the
source plumbing (:mod:`repro.streaming.sources`), the plan engine and the
serving catalog accept one interchangeably with a :class:`CompressedStore`
(open either via :func:`open_store`).  Shards open lazily: reading a region
touches only the shards whose rows intersect it.

**Append** (:func:`append_shard`) never rewrites published bytes: each append
compresses the new rows into a *new* shard file, computes that shard's fold
partials, and atomically republishes the manifest with a bumped ``revision``.
Recorded per-shard CRCs therefore stay valid forever, and a reader holding the
previous manifest simply keeps its (consistent) older view.

**Incremental fold maintenance.**  The append path persists, per shard, the
concatenated per-chunk per-block partial vectors of two folds (``dc`` and
``square`` — ``square`` also serves ``product(x, x)``, whose per-block
arithmetic is identical) plus the counts a
:class:`~repro.core.ops.folds.FoldState` carries.  :meth:`ShardedStore.fold_state`
reassembles the accumulated state without decoding any chunk, and the plan
engine serves ``mean`` / ``l2_norm`` / ``dot(x, x)`` straight from it
(``variance``/``covariance`` sweep: their AC sums are not persisted) — so a query over a growing store costs O(new
chunks) at append time and O(shards) at query time.  The result is **bit
identical** to a cold sweep: the correctly rounded sum
:func:`repro.core.ops.folds.total` (bit-identical to ``math.fsum``) sums the
same float64 per-block values in the same chunk order whether they come from a
live sweep's per-chunk vectors or from the persisted per-shard concatenations
of those same vectors.

**Staleness detection** is deliberately cheap: a shard entry whose partials
were never written (``append_shard(..., update_partials=False)``), whose
sidecar file is missing, or whose shard file size no longer matches the
manifest makes :meth:`ShardedStore.fold_state` return ``None``, and callers
fall back to a full sweep.  So does a sidecar whose ``fold_revision`` is
missing or differs from :data:`repro.core.ops.folds.FOLD_REVISION`: its
vectors hold another fold arithmetic's bits, which a sweep would no longer
reproduce; :func:`refresh_partials` rewrites it.  Deep integrity (per-chunk
checksums) remains ``repro verify-store``'s job, which recurses into shards.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from ..core.exceptions import CodecError
from ..core.ops import folds
from ..core.settings import CompressionSettings
from ..reliability.retry import DEFAULT_READ_RETRY, RetryPolicy
from .chunked import ChunkedCompressor
from .store import CompressedStore, ReadSurface

__all__ = [
    "ShardedStore",
    "init_sharded_store",
    "append_shard",
    "refresh_partials",
    "open_store",
    "is_sharded_store",
    "load_manifest",
    "save_manifest",
    "shard_filename",
    "partials_filename",
    "MANIFEST_NAME",
    "PARTIAL_FOLDS",
]

#: Name of the manifest file inside a sharded-store directory.
MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-sharded-store"
_MANIFEST_VERSION = 1
#: Folds whose per-shard partial vectors are persisted at append time.  The
#: ``square`` vectors double as ``product(x, x)`` (bitwise-identical per-block
#: arithmetic), so dot-with-self and cosine-with-self are incremental too.
PARTIAL_FOLDS = ("dc", "square")


# ------------------------------------------------------------------ layout
def shard_filename(index: int) -> str:
    """File name of shard ``index`` inside the store directory."""
    return f"shard-{index:06d}.pblzc"


def partials_filename(index: int) -> str:
    """File name of shard ``index``'s fold-partial sidecar."""
    return f"partials-{index:06d}.npz"


def is_sharded_store(path) -> bool:
    """True when ``path`` is a directory holding a sharded-store manifest."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def load_manifest(path) -> dict:
    """Read and validate the manifest of the sharded store directory ``path``.

    Raises :class:`CodecError` for a missing/garbled manifest, a foreign
    ``format`` marker, a manifest written by a newer layout version than
    this reader understands, or one whose shards hold another codec's chunks.
    """
    path = Path(path)
    try:
        with open(path / MANIFEST_NAME, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CodecError(
            f"cannot read sharded-store manifest at {path}: {exc}"
        ) from exc
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise CodecError(
            f"{path} is not a sharded store (manifest format "
            f"{manifest.get('format')!r})"
        )
    version = int(manifest.get("version", 0))
    if version < 1 or version > _MANIFEST_VERSION:
        raise CodecError(
            f"sharded-store manifest at {path} is layout version {version}; "
            f"this reader supports versions 1..{_MANIFEST_VERSION}"
        )
    if manifest.get("codec") != ReadSurface.codec_name:
        raise CodecError(
            f"sharded store {path} holds {manifest.get('codec')!r} shards; "
            f"stores hold {ReadSurface.codec_name} chunks only"
        )
    return manifest


def save_manifest(path, manifest: dict) -> None:
    """Atomically publish ``manifest`` as ``path``'s manifest file.

    The JSON lands in a temp sibling first and is renamed over the final name,
    so a crash mid-write never leaves a torn manifest — readers see either the
    previous revision or the new one, both internally consistent.
    """
    path = Path(path)
    temp = path / (MANIFEST_NAME + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    temp.replace(path / MANIFEST_NAME)


def _file_crc32(path) -> int:
    """CRC-32 of a whole file, streamed in 1 MiB blocks."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            crc = zlib.crc32(block, crc)
    return crc


# ------------------------------------------------------------------ partials
def _compute_partials(store: CompressedStore) -> "dict[str, np.ndarray]":
    """One shard's persisted fold state: concatenated per-chunk vectors + counts.

    Iterates the shard's chunks once, folding each through the persisted
    partials (:data:`PARTIAL_FOLDS`).  Per-chunk per-block vectors are
    concatenated *in chunk order*, so summing them later with the correctly
    rounded sum :func:`repro.core.ops.folds.total` (bit-identical to
    ``math.fsum``) sees exactly the float64 values a live sweep would, in the
    same order — the bit-identity invariant.  Omits ``dc`` when the first
    coefficient was pruned.
    """
    settings = store.settings
    dc_parts: "list[np.ndarray] | None" = (
        [] if settings.first_coefficient_kept else None
    )
    square_parts: list[np.ndarray] = []
    n_blocks = n_elements = n_padded = 0
    for chunk in store.iter_chunks():
        if dc_parts is not None:
            dc_parts.append(folds.dc_partial(chunk).sums["dc"][0])
        state = folds.square_partial(chunk)
        square_parts.append(state.sums["square"][0])
        n_blocks += state.n_blocks
        n_elements += state.n_elements
        n_padded += state.n_padded_elements
    payload = {
        "square": np.concatenate(square_parts),
        "n_blocks": np.int64(n_blocks),
        "n_elements": np.int64(n_elements),
        "n_padded_elements": np.int64(n_padded),
        "dc_scale": np.float64(settings.dc_scale),
        "fold_revision": np.int64(folds.FOLD_REVISION),
    }
    if dc_parts is not None:
        payload["dc"] = np.concatenate(dc_parts)
    return payload


def _write_partials(directory: Path, index: int, store: CompressedStore) -> None:
    """Persist shard ``index``'s fold partials as an ``.npz`` sidecar.

    Written to a temp sibling and renamed into place (same atomic-publish
    discipline as the stores and the manifest).
    """
    payload = _compute_partials(store)
    target = directory / partials_filename(index)
    temp = directory / (partials_filename(index) + ".tmp")
    with open(temp, "wb") as handle:
        np.savez(handle, **payload)
    temp.replace(target)


# ------------------------------------------------------------------ init / append
def init_sharded_store(
    path, array, settings: CompressionSettings, *,
    slab_rows: int | None = None, update_partials: bool = True,
) -> "ShardedStore":
    """Create a sharded store at directory ``path`` with ``array`` as shard 0.

    The directory must not exist (or be empty); the array is compressed
    slab-by-slab under ``settings`` into ``shard-000000.pblzc``, the shard's
    fold partials are persisted (unless ``update_partials=False``), and the
    manifest is published atomically.
    Returns the store opened for reading.
    """
    path = Path(path)
    if not isinstance(settings, CompressionSettings):
        raise CodecError(f"sharded stores need CompressionSettings, got {settings!r}")
    if path.exists():
        if not path.is_dir() or any(path.iterdir()):
            raise CodecError(
                f"shard-init target {path} already exists and is not an "
                "empty directory"
            )
    else:
        path.mkdir(parents=True)
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "codec": ReadSurface.codec_name,
        "shape": [],
        "revision": 0,
        "shards": [],
    }
    return _append(path, manifest, np.asarray(array), settings, slab_rows,
                   update_partials)


def append_shard(
    path, array, *, slab_rows: int | None = None, update_partials: bool = True,
) -> "ShardedStore":
    """Append ``array``'s rows to the sharded store at ``path`` as a new shard.

    The new rows are compressed into the next ``shard-NNNNNN.pblzc`` file
    (existing shards are immutable — their recorded CRCs stay valid), the
    shard's fold partials are computed — O(new chunks), the whole point —
    and the manifest is republished with ``revision`` bumped by one.  The
    compression settings are shard 0's.

    Constraints mirror :class:`CompressedStoreWriter.append`: the trailing
    shape must match the store's, and every *existing* chunk must cover
    whole block rows — only the globally last chunk may be ragged, so
    appending after a ragged shard is an error.
    ``update_partials=False`` skips the sidecar (the entry is marked stale and
    queries fall back to full sweeps until :func:`refresh_partials` runs).
    Returns the store reopened with the new manifest.
    """
    path = Path(path)
    manifest = load_manifest(path)
    array = np.asarray(array)
    if not manifest["shards"]:
        raise CodecError(f"sharded store {path} has no shards")
    with CompressedStore(path / manifest["shards"][0]["file"]) as first:
        settings = first.settings
    tail = tuple(int(extent) for extent in manifest["shape"][1:])
    if tuple(array.shape[1:]) != tail:
        raise CodecError(
            f"appended trailing shape {tuple(array.shape[1:])} does not match "
            f"the store's trailing shape {tail}"
        )
    multiple = settings.block_shape[0]
    for entry in manifest["shards"]:
        if any(rows % multiple for rows in entry["chunk_rows"]):
            raise CodecError(
                "a chunk with a partial block row was already appended; "
                "only the final chunk may have a row count that is not a "
                f"multiple of the block extent {multiple}"
            )
    return _append(path, manifest, array, settings, slab_rows, update_partials)


def _append(path: Path, manifest: dict, array: np.ndarray,
            settings: CompressionSettings, slab_rows: int | None,
            update_partials: bool) -> "ShardedStore":
    """Write one new shard + sidecar, then atomically republish the manifest.

    The shard is compressed by :meth:`ChunkedCompressor.compress_to_store`
    under ``settings``' own kernel backend.  An empty array, a
    dimensionality other than the settings', ``slab_rows < 1`` and
    non-finite input raise :class:`CodecError` before any manifest change.
    """
    if array.size == 0:
        raise CodecError("cannot compress an empty array")
    if array.ndim != settings.ndim:
        raise CodecError(f"array of dimensionality {array.ndim} cannot be compressed "
                         f"with {settings.ndim}-dimensional settings")
    if slab_rows is not None and int(slab_rows) < 1:
        raise CodecError("slab_rows must be positive")
    index = len(manifest["shards"])
    shard_path = path / shard_filename(index)
    chunked = ChunkedCompressor(settings, slab_rows=slab_rows, backend=settings.backend)
    with chunked.compress_to_store(array, shard_path) as store:
        entry: dict = {
            "file": shard_filename(index),
            "rows": int(store.shape[0]),
            "chunk_rows": [int(rows) for rows in store.chunk_rows],
            "partials": bool(update_partials),
        }
        if update_partials:
            _write_partials(path, index, store)
    entry["n_bytes"] = os.path.getsize(shard_path)
    entry["crc32"] = _file_crc32(shard_path)
    if not manifest["shards"]:
        manifest["shape"] = [entry["rows"]] + [int(e) for e in array.shape[1:]]
    else:
        manifest["shape"][0] = int(manifest["shape"][0]) + entry["rows"]
    manifest["shards"].append(entry)
    manifest["revision"] = int(manifest.get("revision", 0)) + 1
    save_manifest(path, manifest)
    return ShardedStore(path)


def _current_revision(data) -> bool:
    """Whether sidecar arrays were computed under this fold arithmetic.

    A sidecar without ``fold_revision`` predates it (revision 0).
    """
    return "fold_revision" in data and int(data["fold_revision"]) == folds.FOLD_REVISION


def _sidecar_current(sidecar: Path) -> bool:
    """Whether a sidecar exists and holds this fold arithmetic's vectors."""
    try:
        with np.load(sidecar) as data:
            return _current_revision(data)
    except (OSError, KeyError, ValueError, zlib.error):
        return False


def refresh_partials(path) -> int:
    """(Re)compute every missing or stale per-shard partial sidecar; return the count.

    The repair path for stores appended with ``update_partials=False``, whose
    sidecars were lost, or whose sidecars predate the current
    :data:`~repro.core.ops.folds.FOLD_REVISION`: each such shard is swept
    once, its sidecar rewritten, and the manifest republished with the
    entries marked fresh.  The revision is *not* bumped — the logical
    contents are unchanged.
    """
    path = Path(path)
    manifest = load_manifest(path)
    written = 0
    for index, entry in enumerate(manifest["shards"]):
        if entry.get("partials") and _sidecar_current(path / partials_filename(index)):
            continue
        with CompressedStore(path / entry["file"]) as store:
            _write_partials(path, index, store)
        entry["partials"] = True
        written += 1
    if written:
        save_manifest(path, manifest)
    return written


# ------------------------------------------------------------------ the store
class ShardedStore(ReadSurface):
    """Read-only view of a sharded store directory, shaped like one big store.

    The global chunk index concatenates every shard's chunks in shard order;
    ``read_chunk``/``iter_chunks``/``load_region``/``load`` behave exactly as
    on a single :class:`CompressedStore` over the assembled rows.  Shards open
    lazily (and stay open, shared) the first time one of their chunks is
    touched, so manifest-only operations — geometry, planning, partial-served
    queries — never open a shard file beyond the settings probe.

    Parameters
    ----------
    path:
        Sharded store directory (must hold a ``manifest.json``).
    retry_policy:
        Per-shard record-read retry policy, as for :class:`CompressedStore`.
    use_partials:
        When False, :meth:`fold_state` always returns ``None`` — the engine
        then sweeps chunks exactly as for a single store.  The benchmark's
        full-sweep baseline uses this.

    Attributes
    ----------
    shape, revision:
        Straight from the manifest (no shard file is opened).
    chunks_read, chunks_prefetched, preads, read_retries:
        Sums over the shards opened so far — the same instrumentation
        contract tests rely on for single stores.
    chunk_cache:
        Optional decoded-chunk cache, propagated to every shard; entries key
        by each *shard's* path, so invalidation stays per shard.
    backend:
        Kernel backend name for chunk decompression, propagated to every
        shard the same way.
    """

    def __init__(self, path, *, retry_policy: RetryPolicy | None = DEFAULT_READ_RETRY,
                 use_partials: bool = True):
        self.path = Path(path)
        self.manifest = load_manifest(self.path)
        self.version = int(self.manifest["version"])
        self.revision = int(self.manifest.get("revision", 0))
        self.use_partials = use_partials
        self.retry_policy = retry_policy
        self.shape = tuple(int(extent) for extent in self.manifest["shape"])
        self._entries = list(self.manifest["shards"])
        if not self._entries:
            raise CodecError(f"sharded store {self.path} has no shards")
        self._chunk_cache = None
        self._backend = None
        self._shards: dict[int, CompressedStore] = {}
        self._partials: dict[int, dict] = {}
        # global chunk index: (shard index, local chunk index, n_rows)
        self._index: list[tuple[int, int, int]] = [
            (shard_index, local, int(rows))
            for shard_index, entry in enumerate(self._entries)
            for local, rows in enumerate(entry["chunk_rows"])
        ]
        total_rows = sum(rows for _, _, rows in self._index)
        if total_rows != self.shape[0]:
            raise CodecError(
                f"corrupt sharded manifest: shard chunk rows sum to "
                f"{total_rows}, stored shape is {self.shape}"
            )

    # -------------------------------------------------------------- geometry
    @property
    def n_shards(self) -> int:
        """Number of shard files the manifest describes."""
        return len(self._entries)

    @property
    def n_chunks(self) -> int:
        """Total chunk records across every shard."""
        return len(self._index)

    @property
    def chunk_rows(self) -> tuple[int, ...]:
        """Row count of every chunk, global (shard-concatenated) order."""
        return tuple(rows for _, _, rows in self._index)

    @property
    def chunks_read(self) -> int:
        """Logical chunk reads so far, summed over the opened shards."""
        return sum(shard.chunks_read for shard in self._shards.values())

    @property
    def chunks_prefetched(self) -> int:
        """Payloads fetched ahead by the readahead pipeline, over opened shards."""
        return sum(shard.chunks_prefetched for shard in self._shards.values())

    @property
    def preads(self) -> int:
        """Physical record reads issued, summed over the opened shards."""
        return sum(shard.preads for shard in self._shards.values())

    @property
    def read_retries(self) -> int:
        """Record-read retries so far, summed over the opened shards."""
        return sum(shard.read_retries for shard in self._shards.values())

    @property
    def settings(self) -> CompressionSettings:
        """The shared settings (from shard 0)."""
        return self.shard(0).settings

    @property
    def chunk_cache(self):
        """The decoded-chunk cache attached to this store's shards (or None)."""
        return self._chunk_cache

    @chunk_cache.setter
    def chunk_cache(self, cache) -> None:
        """Attach ``cache`` to every current and future shard (keys stay per shard)."""
        self._chunk_cache = cache
        for shard in self._shards.values():
            shard.chunk_cache = cache

    @property
    def backend(self) -> str | None:
        """The decompression kernel backend of this store's shards (or None)."""
        return self._backend

    @backend.setter
    def backend(self, name: str | None) -> None:
        """Set the decompression backend of every current and future shard."""
        self._backend = name
        for shard in self._shards.values():
            shard.backend = name

    # -------------------------------------------------------------- shards
    def shard(self, index: int) -> CompressedStore:
        """The open :class:`CompressedStore` for shard ``index`` (lazy, shared)."""
        store = self._shards.get(index)
        if store is None:
            store = CompressedStore(self.path / self._entries[index]["file"],
                                    retry_policy=self.retry_policy)
            store.chunk_cache = self._chunk_cache
            store.backend = self._backend
            self._shards[index] = store
        return store

    def shard_paths(self) -> tuple[str, ...]:
        """Every shard file path, in shard order (cache keys use these)."""
        return tuple(str(self.path / entry["file"]) for entry in self._entries)

    def locate(self, index: int) -> tuple[int, int]:
        """Map a global chunk index to ``(shard index, local chunk index)``."""
        shard_index, local, _ = self._index[index]
        return shard_index, local

    # -------------------------------------------------------------- chunk access
    def read_chunk(self, index: int):
        """Decode global chunk ``index`` (lazily opening its shard)."""
        shard_index, local = self.locate(index)
        return self.shard(shard_index).read_chunk(local)

    # bound per class (not only inherited): per-class instrumentation, such
    # as perfbench/tracing.py, patches this attribute on the class itself
    load_region = ReadSurface.load_region

    # -------------------------------------------------------------- partials
    def partials_fresh(self) -> bool:
        """Cheap staleness probe for the persisted fold partials.

        Fresh means: partials are enabled for this handle, every manifest
        entry is marked as having them, every sidecar file exists and holds
        the current :data:`~repro.core.ops.folds.FOLD_REVISION` (its arrays
        are loaded once per handle, as :meth:`fold_state` needs them anyway),
        and every shard file still has its recorded byte size (an in-place
        rewrite — e.g. a repair that changed bytes — invalidates).  Deep
        per-chunk verification is ``verify-store``'s job, not this probe's.
        """
        if not self.use_partials:
            return False
        for index, entry in enumerate(self._entries):
            if not entry.get("partials"):
                return False
            try:
                if os.path.getsize(self.path / entry["file"]) != int(entry["n_bytes"]):
                    return False
            except OSError:
                return False
            if not (self.path / partials_filename(index)).is_file():
                return False
            try:
                if not _current_revision(self._shard_partials(index)):
                    return False
            except (OSError, KeyError, ValueError, zlib.error):
                return False
        return True

    def _shard_partials(self, index: int) -> dict:
        """Load (and memoize) shard ``index``'s sidecar arrays."""
        loaded = self._partials.get(index)
        if loaded is None:
            with np.load(self.path / partials_filename(index)) as data:
                loaded = {key: data[key] for key in data.files}
            self._partials[index] = loaded
        return loaded

    def fold_state(self, name: str, *, rename: str | None = None
                   ) -> "folds.FoldState | None":
        """The accumulated :class:`FoldState` of fold ``name``, decode-free.

        Reassembles the persisted per-shard partial vectors (one float64
        vector per shard, in shard order) into a state whose finalization is
        bit-identical to a cold sweep's — the correctly rounded sum
        :func:`~repro.core.ops.folds.total` sees the same values in the same
        order.  ``rename`` relabels the sums key (the engine serves
        ``product(x, x)`` from the ``square`` vectors this way).  Returns
        ``None`` — callers fall back to a full sweep — when the fold has no
        persisted form or :meth:`partials_fresh` fails.
        """
        if name not in PARTIAL_FOLDS or not self.partials_fresh():
            return None
        key = rename or name
        parts: list[np.ndarray] = []
        n_blocks = n_elements = n_padded = 0
        dc_scale: float | None = None
        try:
            for index in range(self.n_shards):
                data = self._shard_partials(index)
                if name not in data:
                    return None
                parts.append(np.asarray(data[name], dtype=np.float64))
                n_blocks += int(data["n_blocks"])
                n_elements += int(data["n_elements"])
                n_padded += int(data["n_padded_elements"])
                if name == "dc":
                    dc_scale = float(data["dc_scale"])
        except (OSError, KeyError, ValueError, zlib.error):
            return None
        return folds.FoldState(
            sums={key: parts}, n_blocks=n_blocks, n_elements=n_elements,
            n_padded_elements=n_padded, dc_scale=dc_scale,
        )

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close every shard opened so far (reads fail afterwards)."""
        for shard in self._shards.values():
            shard.close()
        self._shards.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedStore(shape={self.shape}, shards={self.n_shards}, "
            f"chunks={self.n_chunks}, revision={self.revision})"
        )


def open_store(path, *, retry_policy: RetryPolicy | None = DEFAULT_READ_RETRY,
               use_partials: bool = True) -> "CompressedStore | ShardedStore":
    """Open ``path`` as whichever store kind it is.

    A directory holding a sharded-store manifest opens as a
    :class:`ShardedStore`; anything else opens as a single
    :class:`CompressedStore`.  The one seam the serving catalog and the CLI
    open stores through, so every layer accepts sharded paths wherever it
    accepted store files.
    """
    path = Path(path)
    if is_sharded_store(path):
        return ShardedStore(path, retry_policy=retry_policy,
                            use_partials=use_partials)
    return CompressedStore(path, retry_policy=retry_policy)
