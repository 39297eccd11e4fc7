"""Sharded append-mode stores with persisted incremental fold partials.

A *sharded store* is a directory holding a versioned JSON ``manifest.json``
over N immutable :class:`~repro.streaming.store.CompressedStore` shard files::

    my_data/
        manifest.json          per-shard geometry, sizes, CRC-32s, revision
        shard-000000.pblzc     ordinary chunked store (rows 0..r0)
        partials-000000.f64    persisted fold partials for shard 0
        shard-000001.pblzc     appended later (rows r0..r0+r1)
        partials-000001.f64

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

**Incremental fold maintenance.**  The append path persists, per shard, what
the folds of :data:`PARTIAL_FOLDS` need, plus the counts a
:class:`~repro.core.ops.folds.FoldState` carries:

* ``dc`` — every block's DC coefficient, in chunk order.  Variance and
  covariance centre each block's DC on the global mean at finalize time, so
  this one stays a per-block vector;
* ``dc_total``, ``square`` and ``ac_square`` — the DC sum, every block's
  square sum and every block's AC square sum, stored as their
  :func:`~repro.numerics.exact_parts`: a few float64 whose exact sum is the
  exact sum of the per-block vector.

:meth:`ShardedStore.fold_state` reassembles the accumulated state without
decoding any chunk, and the plan engine serves ``mean``, ``l2_norm``,
``dot(x, x)``, ``variance``, ``standard_deviation`` and ``covariance(x, x)``
straight from it (``product(x, x)`` and ``centered_product(x, x)`` have the
per-block arithmetic of ``square(x)`` and ``centered_square(x)``) — so a query
over a growing store costs O(new chunks) at append time, and at query time
O(shards) for ``mean``, ``l2_norm`` and ``dot(x, x)`` and one pass over the
DC vector for the centered statistics.  The result is **bit identical** to a
cold sweep: finalizers sum these arrays only through the correctly rounded
sum :func:`repro.numerics.exact_sum` (bit-identical to ``math.fsum``), and
the persisted parts sum exactly to the per-block values a live sweep
computes.

**Sidecar file** (``partials-NNNNNN.f64``): a fixed little-endian header —
magic, sidecar format version, :data:`~repro.core.ops.folds.FOLD_REVISION`,
the three counts, ``dc_scale``, the four array lengths and a CRC-32 of the
body — followed by the float64 arrays, read with one ``np.fromfile``.

**Staleness detection** is deliberately cheap: a shard entry whose partials
were never written (``append_shard(..., update_partials=False)``), whose
sidecar file is missing, or whose shard file size no longer matches the
manifest makes :meth:`ShardedStore.fold_state` return ``None``, and callers
fall back to a full sweep.  So does a sidecar whose size, magic, version,
fold revision or CRC is wrong — a truncated or damaged file, an older
``.npz`` sidecar, or parts computed under another fold arithmetic, which a
sweep would no longer reproduce; :func:`refresh_partials` rewrites it.  Deep
integrity (per-chunk checksums) remains ``repro verify-store``'s job, which
recurses into shards.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from ..core.exceptions import CodecError
from ..core.ops import folds
from ..core.ops.coefficients import fold_step
from ..core.settings import CompressionSettings
from ..numerics import exact_parts
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
#: Folds a store's sidecars answer: fold → {state key: persisted array}.  The
#: mean reads only the DC total, so ``dc`` is served from its exact parts; the
#: centered folds centre every block's DC, so they read the vector.  A
#: two-operand fold is taken with the store as both operands, whose per-block
#: arithmetic is the one-operand fold's (``_row_products(a, a)``), so
#: ``product(x, x)`` is relabelled ``square`` and ``centered_product(x, x)``
#: relabelled ``centered_square``.
PARTIAL_FOLDS = {
    "dc": {"dc": "dc_total"},
    "square": {"square": "square"},
    "product": {"product": "square"},
    "centered_square": {"dc": "dc", "ac_square": "ac_square"},
    "centered_product": {"dc_a": "dc", "dc_b": "dc", "ac_product": "ac_square"},
}

_SIDECAR_MAGIC = b"PBLZPART"
#: Layout version of the sidecar file; a sidecar of any other version is stale.
_SIDECAR_VERSION = 1
#: The persisted float64 arrays, in body order.
_SIDECAR_ARRAYS = ("dc", "dc_total", "square", "ac_square")
#: Fixed little-endian sidecar header: magic, format version, fold revision,
#: ``n_blocks``, ``n_elements``, ``n_padded_elements``, ``dc_scale``, the
#: lengths of the arrays and the CRC-32 of the body, which holds the arrays
#: back to back.
_SIDECAR_HEADER = struct.Struct(f"<8s5Qd{len(_SIDECAR_ARRAYS)}QQ")


# ------------------------------------------------------------------ layout
def shard_filename(index: int) -> str:
    """File name of shard ``index`` inside the store directory."""
    return f"shard-{index:06d}.pblzc"


def partials_filename(index: int) -> str:
    """File name of shard ``index``'s fold-partial sidecar."""
    return f"partials-{index:06d}.f64"


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
def _compute_partials(store: CompressedStore) -> dict:
    """One shard's persisted fold state: the ``dc`` vector, exact parts, counts.

    Iterates the shard's chunks once, folding each through the ``square`` and
    ``centered_square`` partials.  The per-block ``dc`` values are kept in
    chunk order; they, the ``square`` and the ``ac_square`` vectors are also
    reduced to their :func:`~repro.numerics.exact_parts` (``dc_total``,
    ``square``, ``ac_square``), which sum exactly to the same per-block
    values a live sweep computes.  Omits the DC arrays and ``ac_square`` when
    the first coefficient was pruned.
    """
    settings = store.settings
    with_dc = settings.first_coefficient_kept
    vectors: dict[str, list[np.ndarray]] = {"dc": [], "square": [], "ac_square": []}
    n_blocks = n_elements = n_padded = 0
    for chunk in store.iter_chunks():
        with fold_step():  # square and ac_square share one Σ i·j
            vectors["square"].append(folds.square_partial(chunk).sums["square"][0])
            if with_dc:
                state = folds.centered_square_partial(chunk)
                vectors["dc"].append(state.sums["dc"][0])
                vectors["ac_square"].append(state.sums["ac_square"][0])
        n_blocks += chunk.n_blocks
        n_elements += chunk.n_elements
        n_padded += chunk.n_padded_elements
    partials: dict = {"n_blocks": n_blocks, "n_elements": n_elements,
                      "n_padded_elements": n_padded,
                      "dc_scale": float(settings.dc_scale)}
    if with_dc:
        partials["dc"] = np.concatenate(vectors["dc"])
        partials["dc_total"] = np.array(exact_parts(partials["dc"]))
        partials["ac_square"] = np.array(exact_parts(np.concatenate(vectors["ac_square"])))
    partials["square"] = np.array(exact_parts(np.concatenate(vectors["square"])))
    return partials


def _sidecar_bytes(partials: dict) -> bytes:
    """The sidecar file holding ``partials`` (header, then the float64 body)."""
    arrays = [np.asarray(partials.get(name, ()), dtype="<f8")
              for name in _SIDECAR_ARRAYS]
    body = b"".join(array.tobytes() for array in arrays)
    return _SIDECAR_HEADER.pack(
        _SIDECAR_MAGIC, _SIDECAR_VERSION, folds.FOLD_REVISION,
        partials["n_blocks"], partials["n_elements"],
        partials["n_padded_elements"], partials["dc_scale"],
        *(array.size for array in arrays), zlib.crc32(body),
    ) + body


def _read_sidecar(sidecar: Path) -> dict:
    """Parse one sidecar file, read in one ``np.fromfile``.

    Raises ``OSError`` when it cannot be read and ``ValueError`` when it is
    stale or damaged: a wrong size, magic, version, fold revision or CRC.
    """
    raw = np.fromfile(sidecar, dtype=np.uint8)
    size = _SIDECAR_HEADER.size
    if raw.size < size:
        raise ValueError(f"{sidecar} is shorter than a sidecar header")
    (magic, version, revision, n_blocks, n_elements, n_padded, dc_scale,
     *lengths, crc) = _SIDECAR_HEADER.unpack_from(raw)
    if (magic != _SIDECAR_MAGIC or version != _SIDECAR_VERSION
            or revision != folds.FOLD_REVISION):
        raise ValueError(f"{sidecar} is not a current partials sidecar")
    body = raw[size:]
    if body.size != 8 * sum(lengths) or zlib.crc32(body) != crc:
        raise ValueError(f"{sidecar} is truncated or damaged")
    partials: dict = {"n_blocks": n_blocks, "n_elements": n_elements,
                      "n_padded_elements": n_padded, "dc_scale": dc_scale}
    values = body.view("<f8")
    offset = 0
    for name, length in zip(_SIDECAR_ARRAYS, lengths):
        if length:  # every shard holds a block, so an empty array is an absent one
            partials[name] = values[offset:offset + length]
        offset += length
    return partials


def _write_partials(directory: Path, index: int, store: CompressedStore) -> None:
    """Persist shard ``index``'s fold partials as its ``.f64`` sidecar.

    Written to a temp sibling and renamed into place (same atomic-publish
    discipline as the stores and the manifest).
    """
    payload = _sidecar_bytes(_compute_partials(store))
    target = directory / partials_filename(index)
    temp = directory / (partials_filename(index) + ".tmp")
    temp.write_bytes(payload)
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
    try:
        chunked = ChunkedCompressor(settings, slab_rows=slab_rows,
                                    backend=settings.backend)
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
    except BaseException:
        # the manifest does not name the new shard: remove everything its
        # failed write left, so a retry of the same call starts clean
        for name in (shard_filename(index) + ".partial", shard_filename(index),
                     partials_filename(index) + ".tmp", partials_filename(index),
                     MANIFEST_NAME + ".tmp"):
            (path / name).unlink(missing_ok=True)
        raise
    return ShardedStore(path)


def _sidecar_current(sidecar: Path) -> bool:
    """Whether a sidecar exists, is intact and holds this fold arithmetic's parts."""
    try:
        _read_sidecar(sidecar)
    except (OSError, ValueError):
        return False
    return True


def refresh_partials(path) -> int:
    """(Re)compute every missing or stale per-shard partial sidecar; return the count.

    The repair path for stores appended with ``update_partials=False``, whose
    sidecars were lost or damaged, or whose sidecars predate the current
    sidecar format or :data:`~repro.core.ops.folds.FOLD_REVISION`: each such
    shard is swept once, its sidecar rewritten, and the manifest republished
    with the entries marked fresh.  An older release's ``.npz`` sidecar,
    orphaned by the ``.f64`` one, is deleted.  The revision is *not* bumped —
    the logical contents are unchanged.
    """
    path = Path(path)
    manifest = load_manifest(path)
    written = 0
    for index, entry in enumerate(manifest["shards"]):
        (path / partials_filename(index)).with_suffix(".npz").unlink(missing_ok=True)
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
        entry is marked as having them, every sidecar reads back intact under
        the current format and :data:`~repro.core.ops.folds.FOLD_REVISION`
        (each is read once per handle, as :meth:`fold_state` needs it anyway),
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
                self._shard_partials(index)
            except (OSError, ValueError):
                return False
        return True

    def _shard_partials(self, index: int) -> dict:
        """Read (and memoize) shard ``index``'s sidecar."""
        loaded = self._partials.get(index)
        if loaded is None:
            loaded = self._partials[index] = _read_sidecar(
                self.path / partials_filename(index))
        return loaded

    def fold_state(self, name: str) -> "folds.FoldState | None":
        """The accumulated :class:`FoldState` of fold ``name``, decode-free.

        Reassembles the persisted per-shard arrays (one per shard and state
        key, in shard order) into a state whose finalization is bit-identical
        to a cold sweep's.  A two-operand fold is taken with this store as both
        operands (:data:`PARTIAL_FOLDS`).  Returns ``None`` — callers fall back
        to a full sweep — when the fold has no persisted form, its arrays were
        not persisted (a pruned DC coefficient) or :meth:`partials_fresh`
        fails.
        """
        if not self.partials_fresh():
            return None
        return self._persisted_state(name)

    def _persisted_state(self, name: str) -> "folds.FoldState | None":
        """:meth:`fold_state` for a caller that has just seen
        :meth:`partials_fresh` pass (a plan probes each source once, however
        many folds it serves)."""
        keys = PARTIAL_FOLDS.get(name)
        if keys is None:
            return None
        shards = [self._shard_partials(index) for index in range(self.n_shards)]
        if any(array not in shard for shard in shards for array in keys.values()):
            return None
        return folds.FoldState(
            sums={key: [shard[array] for shard in shards] for key, array in keys.items()},
            n_blocks=sum(shard["n_blocks"] for shard in shards),
            n_elements=sum(shard["n_elements"] for shard in shards),
            n_padded_elements=sum(shard["n_padded_elements"] for shard in shards),
            dc_scale=shards[0]["dc_scale"] if name == "dc" else None,
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
