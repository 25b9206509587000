"""Pluggable storage backends: where encoded column blocks actually live.

:class:`~repro.storage.blocks.BlockStore` owns the block *layout* (row
ranges, codecs, addressing arithmetic); a :class:`StorageBackend` owns the
block *bytes* and the one catalog describing them — per-column dtype and
one ``(stored_size, rows, where)`` record per block, per-table
schema/`image_lsn` metadata used by durable recovery, and a store-level
config record (``block_rows``/``compressed``) so a persisted store can be
reopened with the layout it was written with.

The catalog lives once, on :class:`StorageBackend`; the two shipped
backends add only where the bytes go:

* :class:`MemoryBackend` — a dict of blobs (the simulated disk of the
  paper benchmarks).
* :class:`~repro.storage.mmap_backend.MmapFileBackend` — per-table
  segment files read through ``mmap`` with an atomically-published JSON
  catalog; ``sync()`` is a real durability point (fsync segments, then
  rename the catalog). See that module for the crash protocol.

Blocks are written once: ``put_block`` only appends a column's next
block, and a column changes only by being stored again from
``begin_column`` (what a checkpoint does, into a new image). A column's
row count is the running total of its block records.

Backends are handed out by a :class:`StorageFactory`, keyed by *scope*:
the database's main tables share scope ``""`` while every shard of a
range-sharded table gets its own scope (and therefore its own backend),
so shards can live on different media and retiring a shard deletes real
files. A custom factory may route different scopes to different backend
kinds (e.g. hot shards on memory, cold shards on mmap files).
"""

from __future__ import annotations

import abc
import os
import tempfile
import threading
from dataclasses import dataclass, field

from .schema import DataType


@dataclass(slots=True)
class ColumnMeta:
    """Catalog record of one stored column."""

    dtype: DataType
    # One (stored_size, rows, where) entry per block, in block order;
    # ``where`` addresses the bytes (the segment offset on mmap, None in
    # memory).
    blocks: list[tuple[int, int, int | None]] = field(default_factory=list)
    row_count: int = 0  # running total of the blocks' rows

    @property
    def stored_bytes(self) -> int:
        return sum(size for size, _, _ in self.blocks)

    def append(self, size: int, rows: int, where: int | None = None) -> None:
        self.blocks.append((size, rows, where))
        self.row_count += rows


class StorageBackend(abc.ABC):
    """The block catalog, over bytes a subclass stores.

    Owns the per-column records, the table and store metadata and the
    read-only rule; subclasses define where a block's bytes go
    (``put_block``, ``get_block``) and, if durable, ``sync()`` — their
    atomic commit point, which publishes catalog and bytes together.
    Catalog mutations take ``_lock``; the per-block lookups on the read
    path (``column_dtype``, ``column_rows``, ``block_size``) are single
    dict reads and take none.
    """

    def __init__(self, readonly: bool = False):
        # A read-only backend (a worker process's view of a published
        # root) rejects block writes and ignores metadata writes.
        self.readonly = readonly
        self._columns: dict[tuple[str, str], ColumnMeta] = {}
        self._table_meta: dict[str, dict] = {}
        self._store_meta: dict = {}
        self._dirty = False  # catalog changed since the last publish
        self._lock = threading.RLock()

    def _require_writable(self, op: str) -> None:
        if self.readonly:
            raise PermissionError(f"read-only backend: {op} rejected")

    # -- blocks -----------------------------------------------------------

    def begin_column(self, table: str, column: str, dtype: DataType) -> None:
        """(Re)create a column: register its dtype with no blocks. A
        column is only ever written from here, block 0 onwards."""
        self._require_writable("begin_column")
        with self._lock:
            self._columns[(table, column)] = ColumnMeta(dtype)
            self._dirty = True

    def _next_record(self, table: str, column: str,
                     block: int) -> ColumnMeta:
        """The column's record, once ``block`` is checked to be its next
        index — blocks are append-only, so nothing is ever overwritten."""
        self._require_writable("put_block")
        meta = self._columns.get((table, column))
        if meta is None:
            raise KeyError(f"column {table}.{column} not registered")
        if block != len(meta.blocks):
            raise IndexError(
                f"blocks are append-only: {table}.{column} takes block "
                f"{len(meta.blocks)} next, not {block}"
            )
        self._dirty = True
        return meta

    @abc.abstractmethod
    def put_block(self, table: str, column: str, block: int, blob: bytes,
                  rows: int) -> None:
        """Append one encoded block at the column's next index and record
        its ``(size, rows, where)``; any other index raises
        ``IndexError``."""

    @abc.abstractmethod
    def get_block(self, table: str, column: str, block: int) -> bytes:
        """Return one encoded block's bytes (the physical read path)."""

    def delete_table(self, table: str) -> None:
        """Drop every column, block, and metadata record of ``table``.
        Durable backends reclaim the table's files (deferred until the
        next ``sync`` publishes a catalog that no longer references
        them)."""
        self._require_writable("delete_table")
        with self._lock:
            for key in [k for k in self._columns if k[0] == table]:
                del self._columns[key]
            self._table_meta.pop(table, None)
            self._dirty = True

    # -- catalog ----------------------------------------------------------

    def column_meta(self, table: str, column: str) -> ColumnMeta | None:
        """The column's catalog record, or None when it does not exist."""
        return self._columns.get((table, column))

    def column_dtype(self, table: str, column: str) -> DataType:
        try:
            return self._columns[(table, column)].dtype
        except KeyError:
            raise KeyError(f"unknown column {table}.{column}") from None

    def column_rows(self, table: str, column: str) -> int:
        try:
            return self._columns[(table, column)].row_count
        except KeyError:
            raise KeyError(f"unknown column {table}.{column}") from None

    def block_size(self, table: str, column: str, block: int) -> int:
        """Stored size of one block, as recorded by ``put_block``."""
        return self._columns[(table, column)].blocks[block][0]

    def columns(self) -> list[tuple[str, str]]:
        """Every stored ``(table, column)`` pair."""
        with self._lock:
            return list(self._columns)

    def tables(self) -> list[str]:
        """Every table with stored columns or table metadata."""
        with self._lock:
            names = {t for t, _ in self._columns}
            names.update(self._table_meta)
            return sorted(names)

    def table_epoch(self, table: str) -> int | None:
        """Per-publish image identity, or None on backends without one."""
        return None

    def set_table_meta(self, table: str, **meta) -> None:
        """Merge keys into the table's metadata record (``schema`` dict,
        ``image_lsn``); recovery reads these back after a reopen."""
        if self.readonly:
            return  # the catalog is a published snapshot
        with self._lock:
            self._table_meta.setdefault(table, {}).update(meta)
            self._dirty = True

    def get_table_meta(self, table: str) -> dict:
        """The table's metadata record (empty dict when absent)."""
        with self._lock:
            return dict(self._table_meta.get(table, {}))

    def set_store_meta(self, meta: dict) -> None:
        """Persist store-level configuration (``block_rows``,
        ``compressed``) so a reopened store adopts the written layout."""
        if self.readonly:
            return  # BlockStore adopts persisted meta; never re-publishes
        with self._lock:
            self._store_meta.update(meta)
            self._dirty = True

    def get_store_meta(self) -> dict:
        """Store-level configuration (empty dict on a fresh backend)."""
        with self._lock:
            return dict(self._store_meta)

    # -- durability -------------------------------------------------------

    def sync(self) -> None:
        """Durability point: after it returns, everything stored so far
        survives a process kill (no-op for volatile backends)."""

    def close(self) -> None:
        """Release file handles / maps. Does *not* sync."""


class MemoryBackend(StorageBackend):
    """Volatile dict-of-blobs backend — the paper's simulated disk.
    Blobs are kept exactly as encoded and ``sync`` is a no-op."""

    def __init__(self):
        super().__init__()
        self._blobs: dict[tuple[str, str], list[bytes]] = {}

    def begin_column(self, table: str, column: str, dtype: DataType) -> None:
        super().begin_column(table, column, dtype)
        self._blobs[(table, column)] = []

    def put_block(self, table: str, column: str, block: int, blob: bytes,
                  rows: int) -> None:
        with self._lock:
            self._next_record(table, column, block).append(len(blob), rows)
            self._blobs[(table, column)].append(blob)

    def get_block(self, table: str, column: str, block: int) -> bytes:
        return self._blobs[(table, column)][block]

    def delete_table(self, table: str) -> None:
        with self._lock:
            super().delete_table(table)
            for key in [k for k in self._blobs if k[0] == table]:
                del self._blobs[key]


# ---------------------------------------------------------------------------
# factories


MAIN_SCOPE = ""


class StorageFactory(abc.ABC):
    """Hands out one :class:`StorageBackend` per *scope*.

    Scope ``""`` (:data:`MAIN_SCOPE`) backs the database's unsharded
    tables; each shard of a range-sharded table opens its shard's
    physical name as its own scope. ``persistent`` announces whether data
    written through this factory survives process death (and therefore
    whether :class:`~repro.db.database.Database` should attempt recovery
    on open).
    """

    persistent: bool = False
    #: Whether sync() calls fsync (durable factories); informational.
    fsync: bool = False

    @abc.abstractmethod
    def open(self, scope: str) -> StorageBackend:
        """The backend for ``scope`` (created on first use, cached)."""

    @abc.abstractmethod
    def discard(self, scope: str) -> None:
        """Irrevocably drop a scope's storage (retired shards)."""

    @abc.abstractmethod
    def scopes(self) -> list[str]:
        """Scopes with existing storage (recovery's orphan sweep)."""

    def wal_path(self):
        """Where this factory wants the database's WAL (None: in-memory
        unless the caller passes an explicit path)."""
        return None

    def close(self) -> None:
        """Sync and release every open backend."""


class MemoryStorage(StorageFactory):
    """Default factory: an independent :class:`MemoryBackend` per scope."""

    persistent = False
    fsync = False

    def __init__(self):
        self._backends: dict[str, MemoryBackend] = {}

    def open(self, scope: str) -> MemoryBackend:
        backend = self._backends.get(scope)
        if backend is None:
            backend = self._backends[scope] = MemoryBackend()
        return backend

    def discard(self, scope: str) -> None:
        self._backends.pop(scope, None)

    def scopes(self) -> list[str]:
        return list(self._backends)

    def close(self) -> None:
        self._backends.clear()


def ephemeral_mmap_root() -> tempfile.TemporaryDirectory:
    """A self-cleaning temp root for mmap storage (used when the tier-1
    suite runs under ``REPRO_STORAGE_BACKEND=mmap`` without an explicit
    path). Honors ``REPRO_STORAGE_DIR`` so test runs keep their storage
    under the session tmp dir."""
    return tempfile.TemporaryDirectory(
        prefix="repro-mmap-", dir=os.environ.get("REPRO_STORAGE_DIR")
    )


def resolve_storage(storage, storage_path=None) -> StorageFactory:
    """Resolve the ``Database(storage=...)`` argument to a factory.

    Accepts a :class:`StorageFactory` instance, ``"memory"``, ``"mmap"``
    (rooted at ``storage_path``, or an ephemeral self-cleaning temp dir
    when no path is given), or ``"mmap:<path>"``. ``None`` consults the
    ``REPRO_STORAGE_BACKEND`` environment variable (default
    ``"memory"``) — this is how CI runs the whole tier-1 suite a second
    time against the mmap backend without touching any test — unless a
    ``storage_path`` was given, which implies the mmap backend: a caller
    naming an on-disk root wants durable storage, and silently building
    a volatile store instead would lose their data.
    """
    if storage is None:
        storage = "mmap" if storage_path is not None else \
            os.environ.get("REPRO_STORAGE_BACKEND") or "memory"
    elif storage == "memory" and storage_path is not None:
        raise ValueError(
            "storage='memory' cannot honor storage_path; use "
            "storage='mmap' (or drop the path)"
        )
    if isinstance(storage, StorageFactory):
        return storage
    if not isinstance(storage, str):
        raise TypeError(
            f"storage must be a StorageFactory or spec string, "
            f"got {type(storage).__name__}"
        )
    if storage == "memory":
        return MemoryStorage()
    if storage == "mmap" or storage.startswith("mmap:"):
        from .mmap_backend import MmapStorage

        path = storage[5:] if storage.startswith("mmap:") else storage_path
        if path:
            return MmapStorage(path)
        return MmapStorage.ephemeral()
    raise ValueError(f"unknown storage spec {storage!r}")
