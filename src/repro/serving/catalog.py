"""Named catalog of compressed stores — the data the query service pushes code to.

A :class:`StoreCatalog` maps client-visible names to
:class:`repro.streaming.CompressedStore` paths and opens each store **once**,
lazily, on first use.  That single shared open handle per name is what makes
cross-request coalescing work: every request resolving ``"temps"`` gets the
*same* store object, so the planner's source dedup (`id`-based for store
objects) merges their folds into one sweep.  The store-level concurrency fix
(positional chunk reads) makes sharing one handle across the server's readers
safe.

A catalog can also attach a process-wide :class:`repro.serving.ChunkCache` to
every store it opens, turning repeated sweeps over hot stores into cache hits.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Mapping

from ..core.exceptions import CodecError
from ..streaming.sharded import is_sharded_store, load_manifest, open_store
from ..streaming.sources import STORE_TYPES
from ..streaming.store import CompressedStore
from .cache import ChunkCache

__all__ = ["StoreCatalog"]


class StoreCatalog:
    """Lazily opened, name-keyed collection of compressed stores.

    Parameters
    ----------
    stores:
        Mapping of catalog names to store paths (or already open
        :class:`CompressedStore` objects, which the catalog adopts but does
        not reopen).
    cache:
        Optional :class:`ChunkCache` attached to every store the catalog
        opens (and to adopted stores that have none).

    Usable as a context manager; closing the catalog closes every store it
    opened itself (adopted stores belong to their creator).
    """

    def __init__(self, stores: Mapping[str, "str | Path | CompressedStore"],
                 cache: ChunkCache | None = None):
        if not stores:
            raise ValueError("a catalog needs at least one named store")
        self.cache = cache
        self._paths: dict[str, Path] = {}
        self._open: dict[str, CompressedStore] = {}
        self._owned: set[str] = set()
        for name, target in stores.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"catalog names must be non-empty strings, got {name!r}")
            if isinstance(target, STORE_TYPES):
                self._adopt(name, target)
            else:
                self._paths[name] = Path(target)

    def _adopt(self, name: str, store: CompressedStore) -> None:
        """Register an externally opened store under ``name`` (not owned)."""
        self._open[name] = store
        self._paths[name] = store.path
        if self.cache is not None and store.chunk_cache is None:
            store.chunk_cache = self.cache

    # ------------------------------------------------------------------ access
    @property
    def names(self) -> tuple[str, ...]:
        """Every catalog name, sorted (the client-visible namespace)."""
        return tuple(sorted(self._paths))

    def __contains__(self, name: str) -> bool:
        return name in self._paths

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self._paths)

    def get(self, name: str) -> CompressedStore:
        """The open store for ``name`` (opened on first use, then shared).

        Raises ``KeyError`` naming the valid catalog for unknown names — the
        server maps this to a per-request error response.
        """
        store = self._open.get(name)
        if store is not None:
            return store
        path = self._paths.get(name)
        if path is None:
            raise KeyError(
                f"unknown store {name!r}; catalog has: {', '.join(self.names)}"
            )
        store = open_store(path)
        if self.cache is not None:
            store.chunk_cache = self.cache
        self._open[name] = store
        self._owned.add(name)
        return store

    def refresh(self, name: str) -> None:
        """Drop ``name``'s open handle and cached chunks; reopen on next use.

        The hook for stores repaired or rewritten **in place** (e.g. ``repro
        verify-store --repair-from``): the shared handle still maps the old
        bytes and the chunk cache may hold chunks decoded from them, so both
        are discarded — per shard for sharded stores.  Owned handles are
        closed; adopted ones are only forgotten (their creator closes them).
        Unknown names raise ``KeyError`` like :meth:`get`.
        """
        if name not in self._paths:
            raise KeyError(
                f"unknown store {name!r}; catalog has: {', '.join(self.names)}"
            )
        store = self._open.pop(name, None)
        if self.cache is not None:
            target = self._paths[name]
            if store is not None and hasattr(store, "shard_paths"):
                paths = store.shard_paths()
            elif is_sharded_store(target):
                # cache keys are per shard file, so enumerate them even when
                # the sharded handle was never opened through this catalog
                paths = tuple(str(target / entry["file"])
                              for entry in load_manifest(target)["shards"])
            else:
                paths = (str(target),)
            for path in paths:
                self.cache.invalidate(path)
        if store is not None and name in self._owned:
            self._owned.discard(name)
            try:
                store.close()
            except CodecError:  # pragma: no cover - close never raises this
                pass

    def open_stores(self) -> tuple[CompressedStore, ...]:
        """Every store currently open (touched by a query or adopted).

        Opens nothing; the metrics layer uses this to sum per-store reliability
        counters (``read_retries``) without forcing cold stores open.
        """
        return tuple(self._open.values())

    def describe(self) -> dict:
        """JSON-ready catalog listing: per name, path plus geometry if open.

        Opens nothing: geometry appears once a store has been touched by a
        query, so describing a cold catalog stays free.
        """
        listing = {}
        for name in self.names:
            entry: dict = {"path": str(self._paths[name])}
            store = self._open.get(name)
            if store is not None:
                entry.update({
                    "shape": list(store.shape),
                    "n_chunks": store.n_chunks,
                    "codec": store.codec_name,
                })
            listing[name] = entry
        return listing

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Close every store this catalog opened (adopted stores are left open)."""
        for name in list(self._owned):
            store = self._open.pop(name, None)
            if store is not None:
                try:
                    store.close()
                except CodecError:  # pragma: no cover - close never raises this
                    pass
            self._owned.discard(name)

    def __enter__(self) -> "StoreCatalog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoreCatalog({', '.join(self.names)})"
