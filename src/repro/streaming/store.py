"""The chunked on-disk store: append slabs incrementally, decompress selectively.

The one-shot formats serialize a whole compressed array at once, which forces
both the writer and the reader to materialise everything.  The store format
splits the payload into *chunk records* — one per slab along axis 0 — and ends
the file with a chunk table, so that

* a writer can append slabs as they are produced, never holding more than one
  slab's compressed form in memory, and
* a reader can seek straight to the chunks intersecting a requested region and
  decode only those (:meth:`CompressedStore.load_region`), never allocating the
  full index array.

A store holds PyBlaz chunks only, in format version 3: the header names the
``pyblaz`` codec, every chunk record is that codec's self-describing
``to_bytes`` stream, and **integrity checksums** cover everything: a CRC-32
(``zlib.crc32``) of every chunk record in its table entry, plus one table CRC
covering the header and the footer body, so a flipped bit anywhere — payload,
table, or header — is detected at read time and reported as a typed
:class:`IntegrityError` naming the chunk and the store path rather than
decoded into a silently wrong array.  Layout (all little-endian)::

    "PBLZC"  u8 version=3
    u8 name length, codec name "pyblaz" (ascii)
    chunk 0 record: the pyblaz to_bytes stream for slab 0
    chunk 1 record: ...
    ...
    footer: u64 n_chunks,
            n_chunks × (u64 offset, u64 n_bytes, u64 n_rows, u32 crc32),
            u64 ndim, ndim × u64 full shape,
            u32 table crc32 (over header bytes + footer bytes up to here),
            u64 footer offset, "PBLZE"

This module is the one place that knows the on-disk format.  Opening any
other file — an older format version, or a header naming another codec —
raises :class:`CodecError` naming what was found.

Every chunk except the last must cover a whole number of block rows, so chunk
block grids stack exactly along grid axis 0 and
:meth:`CompressedStore.load_compressed` reproduces the one-shot compressed
array bit for bit.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from ..codecs.pyblaz import PyBlazCodec
from ..codecs.serialization import DECODE_ERRORS
from ..core.compressed import CompressedArray
from ..core.compressor import Compressor
from ..core.exceptions import CodecError, IntegrityError
from ..core.settings import CompressionSettings
from ..reliability import faults
from ..reliability.retry import DEFAULT_READ_RETRY, RetryPolicy, retry_call
from .prefetch import ChunkPrefetcher, coalesce_spans, read_inline
from .steps import fold_steps

__all__ = ["CompressedStore", "CompressedStoreWriter", "ReadSurface", "load_region",
           "STORE_MAGIC"]

STORE_MAGIC = b"PBLZC"
_END_MAGIC = b"PBLZE"
_STORE_VERSION = 3
#: Trailer = footer offset (u64) + end magic; read first to locate the chunk table.
_TRAILER_BYTES = 8 + len(_END_MAGIC)

#: Positional reads (``os.pread``) keep concurrent chunk reads safe without a
#: lock; platforms without it (non-POSIX) fall back to a per-store read lock.
_HAVE_PREAD = hasattr(os, "pread")


def _check_chunk_settings(store_settings: CompressionSettings, chunk: CompressedArray) -> None:
    """Reject chunks whose settings diverge from the store's shared settings."""
    if not store_settings.is_compatible_with(chunk.settings) or (
        store_settings.float_format.name != chunk.settings.float_format.name
    ):
        raise CodecError(
            f"chunk settings ({chunk.settings.describe()}) do not match store "
            f"settings ({store_settings.describe()})"
        )


class CompressedStoreWriter:
    """Incrementally writes compressed slabs into a chunked store file.

    Parameters
    ----------
    path:
        Output file path.
    settings:
        The :class:`CompressionSettings` every appended chunk must share.

    Usable as a context manager; :meth:`finalize` (or leaving the ``with``
    block) writes the chunk table and makes the file readable.

    Writes land in a ``<name>.partial`` sibling and :meth:`finalize` atomically
    renames it over ``path``, so a crash never leaves a torn file at the final
    path (the diagnosable partial stays under the ``.partial`` name).  On POSIX
    systems this also makes writing a store *over a path currently being read*
    safe — the reader's open handle keeps the old contents until it reopens
    (on Windows, where replacing an open file is forbidden, close readers
    before finalizing onto their path).
    """

    def __init__(self, path, settings: CompressionSettings):
        if not isinstance(settings, CompressionSettings):
            raise CodecError(f"writer needs CompressionSettings, got {settings!r}")
        self.settings = settings
        self._codec = PyBlazCodec(settings=settings)
        self.path = Path(path)
        self._temp_path = self.path.with_name(self.path.name + ".partial")
        self._handle = open(self._temp_path, "wb")
        # (offset, n_bytes, n_rows, crc32) per appended chunk record
        self._chunks: list[tuple[int, int, int, int]] = []
        self._tail_shape: tuple[int, ...] | None = None
        self._ragged = False
        self._finalized = False
        name = PyBlazCodec.name.encode("ascii")
        header = STORE_MAGIC + struct.pack("<B", _STORE_VERSION)
        header += struct.pack("<B", len(name)) + name
        self._header = header  # seeds the v3 table checksum in finalize()
        self._handle.write(header)

    # ------------------------------------------------------------------ writing
    def append(self, chunk) -> None:
        """Append one compressed slab (rows along axis 0 of the eventual array).

        ``chunk`` is a :class:`CompressedArray` with the writer's settings.
        Every chunk but the last must span a whole number of block rows;
        appending after a ragged (non-multiple) chunk is therefore an error.
        """
        if self._finalized:
            raise CodecError("cannot append to a finalized store")
        self._check_open("append to")
        _check_chunk_settings(self.settings, chunk)
        multiple = self.settings.block_shape[0]
        if self._ragged:
            raise CodecError(
                "a chunk with a partial block row was already appended; only the "
                "final chunk may have a row count that is not a multiple of the "
                f"block extent {multiple}"
            )
        shape = tuple(chunk.shape)
        if self._tail_shape is None:
            self._tail_shape = shape[1:]
        elif shape[1:] != self._tail_shape:
            raise CodecError(
                f"chunk trailing shape {shape[1:]} does not match the "
                f"store's trailing shape {self._tail_shape}"
            )
        n_rows = shape[0]
        if n_rows % multiple != 0:
            self._ragged = True
        payload = self._codec.to_bytes(chunk)
        offset = self._handle.tell()
        self._handle.write(payload)
        self._chunks.append((offset, len(payload), n_rows, zlib.crc32(payload)))

    def append_record(
        self, payload: bytes, n_rows: int, *, tail_shape: tuple[int, ...] | None = None
    ) -> None:
        """Append one pre-encoded chunk record verbatim (the repair path).

        Copies ``payload`` — already a valid pyblaz chunk stream — without
        re-encoding, so :func:`repro.reliability.repair_store` can splice good
        records from a mirror bit-for-bit.  ``tail_shape`` seeds
        the store's trailing shape when no :meth:`append` happened first.
        """
        if self._finalized:
            raise CodecError("cannot append to a finalized store")
        self._check_open("append to")
        if self._tail_shape is None:
            self._tail_shape = tuple(tail_shape) if tail_shape is not None else None
        offset = self._handle.tell()
        self._handle.write(payload)
        self._chunks.append((offset, len(payload), n_rows, zlib.crc32(payload)))

    def _check_open(self, action: str) -> None:
        """Raise the documented :class:`CodecError` when the handle is closed.

        ``__exit__`` closes the handle on an in-``with`` exception without
        finalizing; a later manual :meth:`finalize`/:meth:`append` must surface
        the documented error type, not a raw ``ValueError`` from the closed
        file object.
        """
        if self._handle.closed:
            raise CodecError(
                f"cannot {action} a closed writer (its context block exited "
                f"after an error, so nothing was published at {self.path}); "
                "open a new writer to rewrite the store"
            )

    def finalize(self) -> None:
        """Write the chunk table, close the file and publish it at ``path``."""
        if self._finalized:
            return
        self._check_open("finalize")
        if not self._chunks:
            self._handle.close()
            self._temp_path.unlink(missing_ok=True)
            raise CodecError("cannot finalize an empty store (no chunks appended)")
        footer_offset = self._handle.tell()
        footer = struct.pack("<Q", len(self._chunks))
        for offset, n_bytes, n_rows, crc in self._chunks:
            footer += struct.pack("<QQQI", offset, n_bytes, n_rows, crc)
        shape = (sum(rows for _, _, rows, _ in self._chunks),) + self._tail_shape
        footer += struct.pack(f"<Q{len(shape)}Q", len(shape), *shape)
        # one checksum over header + footer body, so corrupting the table (or
        # the header) is detected before any chunk entry is trusted
        footer += struct.pack("<I", zlib.crc32(footer, zlib.crc32(self._header)))
        footer += struct.pack("<Q", footer_offset)
        footer += _END_MAGIC
        self._handle.write(footer)
        self._handle.close()
        self._temp_path.replace(self.path)  # atomic publish at the final path
        self._finalized = True

    # ------------------------------------------------------------------ context manager
    def __enter__(self) -> "CompressedStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:  # leave a diagnosable .partial file rather than masking the error;
            # nothing is published at the final path
            self._handle.close()


class ReadSurface:
    """The read methods a single store and a sharded store share.

    :class:`CompressedStore` and :class:`~repro.streaming.ShardedStore`
    each provide only ``read_chunk(index)``, the geometry (``shape``,
    ``n_chunks``, ``chunk_rows``) and ``settings``; iteration, whole-array
    and region loads and chunk decompression are written once here.  Every
    path from chunk indices to decoded chunks runs through the one reader in
    :mod:`repro.streaming.prefetch`.

    Attributes
    ----------
    codec_name:
        ``"pyblaz"``: the only codec a store holds.
    dtype:
        float64, what chunk decompression reconstructs by contract
        (:meth:`repro.core.Compressor.decompress`); empty ``load_region``
        selections use it.
    backend:
        Kernel backend name for chunk decompression (see
        :mod:`repro.kernels`), or ``None`` for the settings' own backend.
    """

    codec_name = PyBlazCodec.name
    dtype = np.dtype(np.float64)
    backend: str | None = None

    @property
    def ndim(self) -> int:
        """Dimensionality of the stored array."""
        return len(self.shape)

    def iter_chunks(self) -> Iterator:
        """Yield every chunk's compressed object in row order.

        Reads through :class:`repro.streaming.ChunkPrefetcher`: coalesced
        spans inline and, once a read blocks, the rest a bounded window
        ahead.  Chunk order, values, counters and error positions are those
        of the ``read_chunk`` loop — readahead only overlaps record fetches
        with decoding.  On a sharded store the window crosses shard
        boundaries (spans never straddle two shard files).
        """
        return iter(ChunkPrefetcher(self))

    def decompress_chunk(self, chunk) -> np.ndarray:
        """Decompress one chunk with the store's kernel :attr:`backend`.

        Decompression failures on corrupt chunk contents are reported as
        :class:`CodecError` like decoding failures.
        """
        try:
            return Compressor(chunk.settings, backend=self.backend).decompress(chunk)
        except CodecError:
            raise
        except DECODE_ERRORS as exc:
            raise CodecError(
                f"corrupt chunk contents in {self.codec_name} store: {exc}"
            ) from exc

    def load_compressed(self) -> CompressedArray:
        """Assemble the full :class:`CompressedArray` (bit-identical to one-shot).

        The slabs stack exactly (:mod:`repro.streaming.steps`, with the whole
        store as one step).
        """
        settings = self.settings
        capacity = settings.n_blocks(self.shape) * settings.kept_per_block
        steps = list(fold_steps(((chunk,) for chunk in self.iter_chunks()), capacity))
        if len(steps) != 1:
            raise CodecError(
                "store chunks do not stack into one array "
                "(a ragged slab or a settings change before the last chunk)"
            )
        return steps[0][0]

    def load(self) -> np.ndarray:
        """Decompress the whole array, one chunk at a time."""
        out: np.ndarray | None = None
        row_start = 0
        for chunk, n_rows in zip(self.iter_chunks(), self.chunk_rows):
            decompressed = self.decompress_chunk(chunk)
            if out is None:
                out = np.empty(self.shape, dtype=decompressed.dtype)
            out[row_start: row_start + n_rows] = decompressed
            row_start += n_rows
        return out

    def load_region(self, region) -> np.ndarray:
        """Decompress only the chunks intersecting ``region``.

        ``region`` is an index expression like ``np.ndarray`` accepts for basic
        indexing — a slice/int or a tuple of them, at most one per dimension
        (missing trailing dimensions default to ``slice(None)``).  Steps along
        axis 0 must be positive.  Only the chunk records whose rows intersect
        the axis-0 range are read and decoded (a sharded store opens only the
        shards holding them); memory use is bounded by the chunk size, not
        the array size.  Adjacent intersecting records are read through the
        reader's inline mode (:func:`repro.streaming.prefetch.read_inline`) —
        one positional read per span instead of one per chunk (observable via
        ``preads``), with byte-identical results.
        """
        if not isinstance(region, tuple):
            region = (region,)
        if len(region) > self.ndim:
            raise ValueError(
                f"region has {len(region)} dimensions, the store has {self.ndim}"
            )
        region = region + (slice(None),) * (self.ndim - len(region))

        first = region[0]
        squeeze_rows = isinstance(first, (int, np.integer))
        if squeeze_rows:
            index = int(first)
            if index < 0:
                index += self.shape[0]
            if not 0 <= index < self.shape[0]:
                raise IndexError(f"row {first} out of range for {self.shape[0]} rows")
            start, stop, step = index, index + 1, 1
        else:
            start, stop, step = first.indices(self.shape[0])
            if step <= 0:
                raise ValueError("load_region requires a positive step along axis 0")

        selected: list[int] = []
        local_rows: list[slice] = []
        row_end = 0
        for chunk_index, n_rows in enumerate(self.chunk_rows):
            row_start, row_end = row_end, row_end + n_rows
            if row_end <= start or row_start >= stop:
                continue
            # first requested row that lands inside this chunk and on the step grid
            global_first = max(start, row_start)
            remainder = (global_first - start) % step
            if remainder:
                global_first += step - remainder
            global_stop = min(stop, row_end)
            if global_first >= global_stop:
                continue
            selected.append(chunk_index)
            local_rows.append(slice(global_first - row_start, global_stop - row_start, step))

        parts = [self.decompress_chunk(chunk)[(rows,) + region[1:]]
                 for chunk, rows in zip(read_inline(self, selected), local_rows)]
        if parts:
            assembled = np.concatenate(parts, axis=0)
        else:
            empty_rows = (0,) + self.shape[1:]
            assembled = np.empty(empty_rows, dtype=self.dtype)[(slice(None),) + region[1:]]
        return assembled[0] if squeeze_rows else assembled

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CompressedStore(ReadSurface):
    """Read-only view of a chunked store file (format version 3, pyblaz chunks).

    Chunks are read lazily: opening the store parses only the header and the
    chunk table.  :attr:`chunks_read` counts how many chunk records have been
    decoded, which the tests use to assert that region reads stay selective.

    Chunk record reads are **thread-safe**: they use positional ``os.pread``
    (falling back to a per-store seek lock where unavailable), so concurrent
    readers — the prefetch pool, the serving layer — never interleave each
    other's seek/read pairs, and :attr:`chunks_read` accounting is lock-guarded.

    Reads are also **checked and retried**: records are verified against
    their table CRC-32 and raise :class:`IntegrityError` (naming the chunk
    index and store path) on mismatch, and transient failures — an
    ``OSError`` from the read, or a checksum mismatch that a re-read could
    clear — are retried per ``retry_policy`` before the error escapes.
    :attr:`read_retries` counts the retries taken, surfaced by the serving
    layer's ``stats``.

    Parameters
    ----------
    path:
        Store file to open.
    retry_policy:
        :class:`repro.reliability.RetryPolicy` for record reads, or ``None``
        to fail on the first error.  Defaults to three quick attempts
        (:data:`repro.reliability.DEFAULT_READ_RETRY`).

    Attributes
    ----------
    settings:
        The shared :class:`CompressionSettings`, recovered from the first
        chunk's self-describing record.
    chunk_cache:
        Optional process-wide decoded-chunk cache (the serving layer's
        :class:`repro.serving.ChunkCache`); when set, :meth:`read_chunk`
        consults it before decoding, keyed by ``(path, chunk index)``.
        ``chunks_read`` keeps counting logical reads either way, so decode
        savings show up in the cache's own hit counters.
    chunks_prefetched:
        Chunk payloads fetched by span reads of the chunk reader
        (:mod:`repro.streaming.prefetch`: sweeps and ``load_region``) —
        distinct from :attr:`chunks_read`,
        which counts only chunks actually consumed, so an aborted pipeline
        shows ``chunks_prefetched > chunks_read`` instead of inflated reads.
    preads:
        Physical record reads issued (one per positional read syscall loop);
        coalesced span reads make this smaller than the chunk count, which
        the ``load_region`` syscall tests assert on.
    """

    #: The one readable format version (see the module docstring).
    version = _STORE_VERSION

    def __init__(self, path, *, retry_policy: RetryPolicy | None = DEFAULT_READ_RETRY):
        self.path = Path(path)
        self._handle = open(self.path, "rb")
        self.chunks_read = 0
        self.chunks_prefetched = 0
        self.preads = 0
        self.read_retries = 0
        self.chunk_cache = None
        self.retry_policy = retry_policy
        self._lock = threading.Lock()
        self._settings: CompressionSettings | None = None
        try:
            self._read_header_and_table()
        except Exception:
            self._handle.close()
            raise

    def _read_header_and_table(self) -> None:
        """Parse the magic, version, codec name and chunk table (no chunk decodes)."""
        head = self._handle.read(len(STORE_MAGIC) + 2)
        if len(head) < len(STORE_MAGIC) + 2 or head[: len(STORE_MAGIC)] != STORE_MAGIC:
            raise CodecError("not a PyBlaz chunked store (bad magic or truncated header)")
        version, name_len = head[len(STORE_MAGIC):]
        if version != _STORE_VERSION:
            raise CodecError(
                f"{self.path} is store format v{version}; this reader reads "
                f"format v{_STORE_VERSION} only (rewrite it with the release "
                "that wrote it: stream-decompress, then stream-compress)"
            )
        name = self._handle.read(name_len)
        if name != self.codec_name.encode("ascii"):
            raise CodecError(
                f"{self.path} holds {name.decode('ascii', 'replace')!r} chunks; "
                f"stores hold {self.codec_name} chunks only"
            )
        self._header_bytes = head + name
        self._read_table()

    def _read_table(self) -> None:
        """Seek to the trailer, then read and validate the chunk table footer."""
        self._handle.seek(-_TRAILER_BYTES, 2)
        trailer = self._handle.read(_TRAILER_BYTES)
        if trailer[8:] != _END_MAGIC:
            raise CodecError("truncated or unfinalized PyBlaz chunked store (bad trailer)")
        (footer_offset,) = struct.unpack_from("<Q", trailer, 0)
        self._handle.seek(footer_offset)
        footer = self._handle.read()
        try:
            (n_chunks,) = struct.unpack_from("<Q", footer, 0)
            pos = 8
            # (offset, n_bytes, n_rows, row_start, crc) per chunk record
            self._chunks: list[tuple[int, int, int, int, int]] = []
            row_start = 0
            for _ in range(n_chunks):
                offset, n_bytes, n_rows, crc = struct.unpack_from("<QQQI", footer, pos)
                pos += 28
                self._chunks.append((offset, n_bytes, n_rows, row_start, crc))
                row_start += n_rows
            (ndim,) = struct.unpack_from("<Q", footer, pos)
            pos += 8
            self.shape = tuple(struct.unpack_from(f"<{ndim}Q", footer, pos))
            pos += 8 * ndim
            (table_crc,) = struct.unpack_from("<I", footer, pos)
        except struct.error as exc:
            # garbled counts/offsets make the footer unparseable before the
            # checksum can even be located — still a typed integrity failure
            raise IntegrityError(
                f"chunk table of store {self.path} is garbled ({exc})",
                path=str(self.path),
            ) from exc
        computed = zlib.crc32(footer[:pos], zlib.crc32(self._header_bytes))
        if computed != table_crc:
            raise IntegrityError(
                f"chunk table of store {self.path} failed its checksum "
                f"(stored 0x{table_crc:08x}, computed 0x{computed:08x}); "
                "the header or footer bytes are corrupt",
                path=str(self.path),
            )
        if self.shape[0] != row_start:
            raise CodecError(
                f"corrupt chunk table: chunk rows sum to {row_start}, "
                f"stored shape is {self.shape}"
            )

    # ------------------------------------------------------------------ geometry
    @property
    def n_chunks(self) -> int:
        """Number of chunk records in the store."""
        return len(self._chunks)

    @property
    def chunk_rows(self) -> tuple[int, ...]:
        """Row count of every chunk, in file order."""
        return tuple(rows for _, _, rows, _, _ in self._chunks)

    @property
    def settings(self) -> CompressionSettings:
        """The shared settings, from chunk 0's self-describing record.

        Peeks at chunk 0 without counting it as read; memoized.
        """
        if self._settings is None:
            self._settings = self._decode_chunk(0).settings
        return self._settings

    # ------------------------------------------------------------------ chunk access
    def _read_record(self, offset: int, n_bytes: int) -> bytes:
        """Read ``n_bytes`` at ``offset``, safely under concurrent callers.

        Positional ``os.pread`` never moves a shared file position, so two
        threads reading different chunks cannot interleave and decode each
        other's bytes; the non-POSIX fallback serializes seek+read behind the
        store lock instead.  Short positional reads (signal interruption) are
        retried until the record is complete.  Each call counts one physical
        read into :attr:`preads` (coalesced span reads issue one per span).
        """
        with self._lock:
            self.preads += 1
        if _HAVE_PREAD:
            fd = self._handle.fileno()
            pieces = []
            position, remaining = offset, n_bytes
            while remaining > 0:
                piece = os.pread(fd, remaining, position)
                if not piece:
                    break  # EOF: return short; the decoder reports corruption
                pieces.append(piece)
                position += len(piece)
                remaining -= len(piece)
            return b"".join(pieces)
        with self._lock:
            self._handle.seek(offset)
            return self._handle.read(n_bytes)

    def _note_retry(self, attempt: int, exc: BaseException) -> None:
        """Count one record-read retry (surfaced via serving ``stats``)."""
        with self._lock:
            self.read_retries += 1

    def _note_prefetched(self, count: int) -> None:
        """Count ``count`` payloads fetched ahead by the readahead pipeline."""
        with self._lock:
            self.chunks_prefetched += count

    def _note_read(self) -> None:
        """Count one consumed (logical) chunk read, as :meth:`read_chunk` does."""
        with self._lock:
            self.chunks_read += 1

    def _record_extent(self, index: int) -> tuple[int, int, int]:
        """Chunk ``index``'s file extent as ``(offset, n_bytes, crc)``.

        This is what the span coalescer groups on.
        """
        offset, n_bytes, _, _, crc = self._chunks[index]
        return offset, n_bytes, crc

    def _read_verified(self, span: list[tuple], payloads: dict) -> dict:
        """One read attempt over ``span``'s contiguous records, checked per chunk.

        ``span`` holds ``(index, offset, n_bytes, crc)`` records laid out back
        to back.  Fault-injection hooks fire per chunk index, one positional
        read covers the span, and each record's CRC is verified before it
        lands in ``payloads`` — so a failure raises :class:`IntegrityError`
        (or the read's ``OSError``) with the records before it already in
        place.  Returns ``payloads``.
        """
        path = str(self.path)
        plan = faults.active_plan()
        if plan is not None:
            for index, *_ in span:
                plan.before_chunk_read(path, index)
        span_offset = span[0][1]
        data = self._read_record(span_offset, sum(record[2] for record in span))
        for index, offset, n_bytes, crc in span:
            piece = data[offset - span_offset: offset - span_offset + n_bytes]
            if plan is not None:
                piece = plan.corrupt_record(path, index, piece)
            if len(piece) != n_bytes or zlib.crc32(piece) != crc:
                raise IntegrityError(
                    f"chunk {index} of store {path} failed its checksum "
                    f"({len(piece)} of {n_bytes} bytes read)",
                    path=path,
                    chunk_index=index,
                )
            payloads[index] = piece
        return payloads

    def read_payload(self, index: int) -> bytes:
        """Read and verify chunk ``index``'s raw record bytes.

        This is the one seam every per-chunk read goes through: fault-injection
        hooks fire here, checksums are verified here, and transient
        failures — an ``OSError``, or a checksum mismatch a re-read could
        clear — are retried per :attr:`retry_policy`.  The verify/repair CLI
        also uses it to copy good records verbatim.
        """
        span = [(index, *self._record_extent(index))]

        def attempt() -> bytes:
            return self._read_verified(span, {})[index]

        if self.retry_policy is None:
            return attempt()
        return retry_call(
            attempt, policy=self.retry_policy, retry_on=(OSError, IntegrityError),
            on_retry=self._note_retry,
        )

    def read_payload_span(self, indices) -> dict[int, "bytes | Exception"]:
        """Read several chunks' record bytes, coalescing adjacent ones.

        Adjacent records (within the coalescing budget) merge into **one**
        positional read and are split in memory — the syscall-count win behind
        the chunk reader (:mod:`repro.streaming.prefetch`).  Each span goes
        through the same per-chunk fault hooks and CRC checks as
        :meth:`read_payload`; a failed span counts one retry and falls back to
        :meth:`read_payload` per chunk, with its full retry policy.  Returns
        ``{index: payload bytes}`` for every requested index — except that a
        chunk whose read failed for good maps to the exception it raised (with
        no retry policy, the first failure in a span is final for the rest of
        that span), so the reader can raise it at that chunk's position.
        """
        extents = [(index, *self._record_extent(index)) for index in indices]
        payloads: dict[int, bytes | Exception] = {}
        for span in coalesce_spans(extents):
            try:
                self._read_verified(span, payloads)
            except (OSError, IntegrityError) as exc:
                if self.retry_policy is None:
                    for index, *_ in span:
                        payloads.setdefault(index, exc)
                    continue
                # one failed span attempt counts as one retry, then every
                # chunk of the span re-reads through the per-chunk seam with
                # its own full retry budget — transient faults recover exactly
                # as they do on the serial loop
                self._note_retry(0, exc)
                for index, *_ in span:
                    try:
                        payloads[index] = self.read_payload(index)
                    except (OSError, IntegrityError) as chunk_exc:
                        payloads[index] = chunk_exc
        return payloads

    def _decode_chunk(self, index: int):
        """Read chunk ``index``'s record and decode it (without counting it as read)."""
        return self._chunk_from_payload(index, self.read_payload(index))

    def _chunk_from_payload(self, index: int, data: bytes):
        """Decode chunk ``index`` from its (already read) record ``data``.

        The decode half of :meth:`_decode_chunk`, split out so the prefetch
        pipeline can fetch payload bytes on worker threads and decode on the
        consumer thread without re-reading.
        """
        try:
            return PyBlazCodec.from_bytes(data)
        except CodecError:
            raise
        except DECODE_ERRORS as exc:
            # decoding failures on flipped/truncated payloads surface as the
            # shared error type, so the CLI's exit-code contract holds
            raise CodecError(
                f"corrupt chunk {index} in {self.codec_name} store: {exc}"
            ) from exc

    def read_chunk(self, index: int):
        """Decode chunk ``index`` into the :class:`CompressedArray` of its slab.

        With a :attr:`chunk_cache` attached, a cached decode is reused instead
        of re-parsing the record; ``chunks_read`` counts the logical read
        either way (pass-count assertions stay meaningful, cache savings are
        visible in the cache's hit counters).
        """
        cache = self.chunk_cache
        if cache is None:
            chunk = self._decode_chunk(index)
        else:
            key = (str(self.path), index)
            chunk = cache.get(key)
            if chunk is None:
                chunk = self._decode_chunk(index)
                cache.put(key, chunk)
        self._note_read()
        return chunk

    # bound per class (not only inherited): per-class instrumentation, such
    # as perfbench/tracing.py, patches this attribute on the class itself
    load_region = ReadSurface.load_region

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Close the underlying file handle (reads fail afterwards)."""
        self._handle.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompressedStore(shape={self.shape}, chunks={self.n_chunks}, "
            f"{self.settings.describe()})"
        )


def load_region(store: CompressedStore, region) -> np.ndarray:
    """Module-level convenience for :meth:`CompressedStore.load_region`."""
    return store.load_region(region)
