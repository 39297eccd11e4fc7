"""Store scanning and repair: the engine behind ``repro verify-store``.

:func:`verify_store` walks every chunk record of a store — reading, checksum-
verifying and decoding each — and returns a :class:`StoreReport`
naming exactly which chunks are corrupt.  :func:`repair_store` rebuilds a
store by splicing, chunk by chunk, the first good record found in the target
or a mirror replica, publishing the result atomically.

Imported lazily from :mod:`repro.reliability` (these functions need
:mod:`repro.streaming`, which itself imports the retry/fault modules — a cycle
if this module loaded eagerly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from ..core.exceptions import CodecError, IntegrityError

__all__ = [
    "ChunkReport",
    "StoreReport",
    "ShardReport",
    "ShardedStoreReport",
    "verify_store",
    "repair_store",
    "verify_sharded_store",
    "repair_sharded_store",
]


@dataclass
class ChunkReport:
    """Verification outcome for one chunk record."""

    index: int
    n_rows: int
    status: str  # "ok" or "corrupt"
    error: Optional[str] = None
    #: set by repair: where the good bytes came from ("store" or "mirror")
    source: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when this chunk read, checksum-verified and decoded."""
        return self.status == "ok"

    def describe(self) -> str:
        """One greppable report line, e.g. ``chunk 1: CORRUPT — ...``."""
        line = f"chunk {self.index}: {'OK' if self.ok else 'CORRUPT'}"
        if self.source == "mirror":
            line += " (repaired from mirror)"
        if self.error:
            line += f" — {self.error}"
        return line


@dataclass
class StoreReport:
    """Verification outcome for a whole store file."""

    path: str
    version: int
    codec_name: str
    shape: tuple
    chunks: List[ChunkReport] = field(default_factory=list)
    #: non-None when the header/table itself failed verification
    table_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the table and every chunk verified."""
        return self.table_error is None and all(chunk.ok for chunk in self.chunks)

    @property
    def corrupt_chunks(self) -> List[int]:
        """Indices of every chunk that failed verification, in file order."""
        return [chunk.index for chunk in self.chunks if not chunk.ok]

    def describe(self) -> str:
        """The multi-line human report ``repro verify-store`` prints."""
        lines = [
            f"{self.path}: store format v{self.version}, codec {self.codec_name}, "
            f"shape {self.shape}, {len(self.chunks)} chunks"
        ]
        if self.table_error:
            lines.append(f"chunk table: CORRUPT — {self.table_error}")
        lines.extend(chunk.describe() for chunk in self.chunks)
        n_bad = len(self.corrupt_chunks)
        lines.append(
            "store OK" if self.ok else f"store CORRUPT ({n_bad} bad chunk(s))"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The JSON-ready form behind ``repro verify-store --json``."""
        return {
            "path": self.path,
            "version": self.version,
            "codec": self.codec_name,
            "shape": list(self.shape),
            "ok": self.ok,
            "table_error": self.table_error,
            "chunks": [
                {
                    "index": chunk.index,
                    "n_rows": chunk.n_rows,
                    "status": chunk.status,
                    "error": chunk.error,
                    "source": chunk.source,
                }
                for chunk in self.chunks
            ],
        }


def _open_unretried(path):
    """Open a store with retries off: a scan must see every failure, once."""
    from ..streaming.store import CompressedStore

    return CompressedStore(path, retry_policy=None)


def verify_store(path) -> StoreReport:
    """Scan every chunk of the store at ``path`` and report per-chunk status.

    Each chunk record is read, checksum-verified and decoded; a failure
    of any stage marks that chunk corrupt with the error message, and the
    scan continues so the report names *all* bad chunks.  A corrupt header or
    chunk table is reported as ``table_error`` with no per-chunk entries
    (nothing after it can be trusted).
    """
    path = Path(path)
    try:
        store = _open_unretried(path)
    except (CodecError, OSError) as exc:
        return StoreReport(
            path=str(path), version=0, codec_name="?", shape=(),
            table_error=str(exc),
        )
    with store:
        report = StoreReport(
            path=str(path), version=store.version,
            codec_name=store.codec_name, shape=tuple(store.shape),
        )
        for index, n_rows in enumerate(store.chunk_rows):
            try:
                chunk = store._decode_chunk(index)
                store.decompress_chunk(chunk)
                report.chunks.append(ChunkReport(index=index, n_rows=n_rows, status="ok"))
            except (CodecError, OSError) as exc:
                report.chunks.append(
                    ChunkReport(index=index, n_rows=n_rows, status="corrupt", error=str(exc))
                )
    return report


def _good_record(store, index: int):
    """Chunk ``index``'s raw record bytes and decoded chunk (raises on corrupt)."""
    payload = store.read_payload(index)  # checksum-verified
    return payload, store._chunk_from_payload(index, payload)  # decode-verified


def repair_store(path, mirror) -> StoreReport:
    """Rebuild the store at ``path``, taking bad chunks from ``mirror``.

    For every chunk the first good record wins: the target's own bytes when
    they verify, the mirror replica's otherwise.  The result is written as a
    store and atomically replaces ``path``; the mirror is never modified.
    Good records are self-describing chunk streams, copied verbatim.  Raises
    :class:`CodecError` when a chunk is corrupt in *both* copies (nothing
    trustworthy to splice), or when the two stores are not replicas of the
    same array (shape or chunking differ).
    """
    from ..streaming.store import CompressedStoreWriter

    path = Path(path)
    with _open_unretried(path) as store, _open_unretried(mirror) as replica:
        if tuple(store.shape) != tuple(replica.shape) or (
            store.chunk_rows != replica.chunk_rows
        ):
            raise CodecError(
                f"mirror shape/chunking {replica.shape}/{replica.chunk_rows} does "
                f"not match store {store.shape}/{store.chunk_rows}; not replicas"
            )
        report = StoreReport(
            path=str(path), version=store.version, codec_name=store.codec_name,
            shape=tuple(store.shape),
        )
        records: list[tuple[bytes, int]] = []
        settings = None
        for index, n_rows in enumerate(store.chunk_rows):
            try:
                payload, chunk = _good_record(store, index)
                source, error = "store", None
            except (CodecError, OSError) as first:
                try:
                    payload, chunk = _good_record(replica, index)
                    source, error = "mirror", str(first)
                except (CodecError, OSError) as second:
                    raise CodecError(
                        f"chunk {index} is corrupt in both the store "
                        f"({first}) and the mirror ({second}); cannot repair"
                    ) from second
            records.append((payload, n_rows))
            if settings is None:
                settings = chunk.settings
            report.chunks.append(
                ChunkReport(index=index, n_rows=n_rows, status="ok",
                            error=error, source=source)
            )
        tail_shape = tuple(store.shape[1:])
    with CompressedStoreWriter(path, settings) as writer:
        for payload, n_rows in records:
            writer.append_record(payload, n_rows, tail_shape=tail_shape)
    return report


# ------------------------------------------------------------------ sharded
@dataclass
class ShardReport:
    """Verification outcome for one shard of a sharded store."""

    index: int
    file: str
    #: the shard's chunk-level report (None only when the file is missing)
    report: Optional[StoreReport] = None
    #: manifest-level failure: missing file, or size/CRC drift vs the manifest
    manifest_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the manifest entry and every chunk of the shard verified."""
        return (self.manifest_error is None
                and self.report is not None and self.report.ok)

    def describe(self) -> str:
        """Greppable per-shard lines: each names the shard *and* the chunk."""
        prefix = f"shard {self.index} ({self.file})"
        lines = []
        if self.manifest_error:
            lines.append(f"{prefix}: MANIFEST MISMATCH — {self.manifest_error}")
        if self.report is not None:
            if self.report.table_error:
                lines.append(
                    f"{prefix} chunk table: CORRUPT — {self.report.table_error}"
                )
            lines.extend(f"{prefix} {chunk.describe()}"
                         for chunk in self.report.chunks)
        if not lines:
            lines.append(f"{prefix}: MISSING")
        return "\n".join(lines)


@dataclass
class ShardedStoreReport:
    """Verification outcome for a whole sharded store directory."""

    path: str
    version: int
    codec_name: str
    shape: tuple
    shards: List[ShardReport] = field(default_factory=list)
    #: non-None when the manifest itself failed to load/validate
    manifest_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the manifest and every shard verified."""
        return self.manifest_error is None and all(s.ok for s in self.shards)

    @property
    def corrupt_shards(self) -> List[int]:
        """Indices of every shard that failed verification, in shard order."""
        return [shard.index for shard in self.shards if not shard.ok]

    def describe(self) -> str:
        """The multi-line human report ``repro verify-store`` prints."""
        lines = [
            f"{self.path}: sharded store v{self.version}, codec "
            f"{self.codec_name}, shape {self.shape}, {len(self.shards)} shard(s)"
        ]
        if self.manifest_error:
            lines.append(f"manifest: CORRUPT — {self.manifest_error}")
        lines.extend(shard.describe() for shard in self.shards)
        n_bad = len(self.corrupt_shards)
        lines.append(
            "store OK" if self.ok else f"store CORRUPT ({n_bad} bad shard(s))"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The JSON-ready form behind ``repro verify-store --json``."""
        return {
            "path": self.path,
            "sharded": True,
            "version": self.version,
            "codec": self.codec_name,
            "shape": list(self.shape),
            "ok": self.ok,
            "manifest_error": self.manifest_error,
            "shards": [
                {
                    "index": shard.index,
                    "file": shard.file,
                    "ok": shard.ok,
                    "manifest_error": shard.manifest_error,
                    "report": (shard.report.to_dict()
                               if shard.report is not None else None),
                }
                for shard in self.shards
            ],
        }


def _check_shard_entry(directory: Path, entry: dict) -> Optional[str]:
    """Compare one shard file against its manifest record (size, CRC-32)."""
    from ..streaming.sharded import _file_crc32

    shard_path = directory / entry["file"]
    if not shard_path.is_file():
        return "shard file is missing"
    actual = shard_path.stat().st_size
    if actual != int(entry["n_bytes"]):
        return f"size {actual} != manifest {entry['n_bytes']}"
    crc = _file_crc32(shard_path)
    if crc != int(entry["crc32"]):
        return f"CRC-32 {crc:#010x} != manifest {int(entry['crc32']):#010x}"
    return None


def verify_sharded_store(path) -> ShardedStoreReport:
    """Recursively verify a sharded store: manifest entries, then every chunk.

    Each shard is first checked against its manifest record (existence, byte
    size, whole-file CRC-32) and then scanned chunk by chunk with
    :func:`verify_store`, so the report names the corrupt *shard and chunk*.
    A missing or garbled manifest short-circuits into ``manifest_error``.
    """
    from ..streaming.sharded import load_manifest

    path = Path(path)
    try:
        manifest = load_manifest(path)
    except CodecError as exc:
        return ShardedStoreReport(
            path=str(path), version=0, codec_name="?", shape=(),
            manifest_error=str(exc),
        )
    report = ShardedStoreReport(
        path=str(path), version=int(manifest["version"]),
        codec_name=str(manifest["codec"]),
        shape=tuple(int(extent) for extent in manifest["shape"]),
    )
    for index, entry in enumerate(manifest["shards"]):
        shard = ShardReport(index=index, file=entry["file"],
                            manifest_error=_check_shard_entry(path, entry))
        if (path / entry["file"]).is_file():
            shard.report = verify_store(path / entry["file"])
        report.shards.append(shard)
    return report


def repair_sharded_store(path, mirror) -> ShardedStoreReport:
    """Repair every corrupt shard of a sharded store from a mirror directory.

    The mirror must be a sharded store replica (same shard layout); each shard
    that fails verification is rebuilt in place with :func:`repair_store`
    against the mirror's same-named shard, and the manifest's size/CRC entries
    are refreshed to the repaired bytes — the ``revision`` is *not* bumped,
    because the logical chunk contents (and hence any persisted fold partials)
    are unchanged.  Returns the post-repair :func:`verify_sharded_store`
    report, with per-chunk ``source`` markers merged in from the repairs.
    Raises :class:`CodecError` when any chunk is corrupt in both copies.
    """
    from ..streaming.sharded import _file_crc32, load_manifest, save_manifest

    path = Path(path)
    mirror = Path(mirror)
    before = verify_sharded_store(path)
    if before.manifest_error is not None:
        raise CodecError(
            f"cannot repair {path}: manifest unreadable "
            f"({before.manifest_error}); restore the manifest first"
        )
    repaired: dict[int, StoreReport] = {}
    manifest = load_manifest(path)
    for shard in before.shards:
        if shard.ok:
            continue
        entry = manifest["shards"][shard.index]
        repaired[shard.index] = repair_store(
            path / entry["file"], mirror / entry["file"]
        )
        shard_path = path / entry["file"]
        entry["n_bytes"] = shard_path.stat().st_size
        entry["crc32"] = _file_crc32(shard_path)
    if repaired:
        save_manifest(path, manifest)
    after = verify_sharded_store(path)
    for shard in after.shards:
        fixed = repaired.get(shard.index)
        if fixed is None or shard.report is None:
            continue
        for chunk, spliced in zip(shard.report.chunks, fixed.chunks):
            chunk.source = spliced.source
            chunk.error = spliced.error
    return after
