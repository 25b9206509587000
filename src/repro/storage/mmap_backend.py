"""Mmap-file storage backend: real persisted blocks with crash-safe publish.

File layout under the backend root::

    <root>/
      catalog.json              # published catalog (atomic rename target)
      segments/<table>.<epoch>.seg   # encoded blocks, append-only per epoch

The catalog itself — column records, table and store metadata, the
read-only rule — is :class:`~repro.storage.backend.StorageBackend`'s; this
backend adds where the bytes go (segments and epochs), the publish
protocol and the orphan sweep. A block record's ``where`` is its segment
offset; ``catalog.json`` stores each block as ``[offset, length, rows]``.

Every table's blocks live in one *segment file per epoch*. Blocks are
written once, appended to the table's current epoch; reads slice an
``mmap`` of the segment (so repeated block reads after a buffer-pool miss
are served from the page cache, and stored sizes — compressed or plain —
are exactly the bytes read, keeping the I/O accounting honest). Rewriting
a table (``delete_table`` followed by new ``put_block`` calls — what a
checkpoint does) bumps the epoch: the new image is appended to a fresh
segment file while the old file stays on disk.

Durability protocol
-------------------
The in-memory catalog mutates freely; the *on-disk* catalog only changes
inside :meth:`sync`:

1. ``fsync`` every dirty segment file (block bytes durable first);
2. write ``catalog.json.tmp``, ``fsync``, then ``os.replace`` it over
   ``catalog.json`` (the **atomic commit point**) and ``fsync`` the
   directory;
3. unlink segment files no published catalog references (old epochs,
   deleted tables).

A kill anywhere leaves either the previous catalog (still pointing at
fully intact old segment files, because deletions are deferred to step 3)
or the new one (whose segment bytes were fsynced in step 1). Checkpoint
and WAL-truncation ordering on top of this commit point is handled in
:mod:`repro.txn.checkpoint`; the catalog additionally records each
table's ``image_lsn`` so WAL replay can tell which log records a
published image already folded in.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import urllib.parse
from pathlib import Path

from .backend import (
    ColumnMeta,
    MAIN_SCOPE,
    StorageBackend,
    StorageFactory,
    ephemeral_mmap_root,
)
from .schema import DataType

CATALOG_NAME = "catalog.json"
SEGMENT_DIR = "segments"


def _safe_name(name: str) -> str:
    """Filesystem-safe, reversible encoding of a table/scope name."""
    return urllib.parse.quote(name, safe="")


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _Segment:
    """One table-epoch segment file: append writes, mmap reads."""

    def __init__(self, path: Path, size: int):
        self.path = path
        self.size = size  # logical end of written data
        self._fd: int | None = None
        self._map: mmap.mmap | None = None
        self._mapped = 0
        self.dirty = False
        # True after this open *created* the file: its directory entry is
        # not durable until the segment directory is fsynced.
        self.needs_dirsync = False

    def _ensure_fd(self) -> int:
        if self._fd is None:
            existed = self.path.exists()
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            if not existed:
                self.needs_dirsync = True
        return self._fd

    def append(self, blob: bytes) -> int:
        fd = self._ensure_fd()
        offset = self.size
        os.lseek(fd, offset, os.SEEK_SET)
        view = memoryview(blob)
        while view:
            written = os.write(fd, view)
            view = view[written:]
        self.size = offset + len(blob)
        self.dirty = True
        return offset

    def read(self, offset: int, length: int) -> bytes:
        if length == 0:
            return b""
        if self._map is None or self._mapped < offset + length:
            if self._map is not None:
                self._map.close()
            fd = self._ensure_fd()
            file_size = os.fstat(fd).st_size
            self._map = mmap.mmap(fd, file_size, access=mmap.ACCESS_READ)
            self._mapped = file_size
        return self._map[offset:offset + length]

    def fsync(self) -> None:
        if self.dirty and self._fd is not None:
            os.fsync(self._fd)
        self.dirty = False

    def close(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None
        self._mapped = 0
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class MmapFileBackend(StorageBackend):
    """Per-table segment files + a small atomically-published catalog."""

    def __init__(self, root, do_fsync: bool = True, readonly: bool = False):
        # Read-only opens (shard worker processes) never take the writer
        # lock, never sweep, and reject every mutation: many workers can
        # mmap a live writer's root concurrently and only ever observe
        # atomically-published catalogs.
        super().__init__(readonly)
        self.root = Path(root)
        self.do_fsync = do_fsync
        self.seg_dir = self.root / SEGMENT_DIR
        if not readonly:
            self.seg_dir.mkdir(parents=True, exist_ok=True)
        self._epochs: dict[str, int] = {}  # table -> current epoch
        # Open segments by (table, epoch): one dict lookup per block
        # read. Epochs are never reused, so a key names one file.
        self._segments: dict[tuple[str, int], _Segment] = {}
        self._pending_unlink: set[Path] = set()
        # Advisory single-writer lock on the root. Held for this
        # backend's lifetime; auto-released by the OS when the process
        # dies, so a crashed writer never wedges recovery. A second open
        # of a *live* root proceeds (reads the published catalog) but
        # must not run the orphan-segment sweep — the "orphans" may be
        # the live writer's not-yet-published epoch.
        self._lock_fd: int | None = None
        if readonly:
            self._load_catalog()
            return
        try:
            import fcntl

            fd = os.open(self.root / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._lock_fd = fd
            except OSError:
                os.close(fd)
        except ImportError:  # non-POSIX: no advisory lock, keep the sweep
            self._lock_fd = -1
        self._load_catalog()

    # -- segment plumbing -------------------------------------------------

    def _segment_path(self, table: str, epoch: int) -> Path:
        return self.seg_dir / f"{_safe_name(table)}.{epoch}.seg"

    def _segment(self, table: str) -> _Segment:
        key = (table, self._epochs[table])
        seg = self._segments.get(key)
        if seg is None:
            path = self._segment_path(*key)
            size = path.stat().st_size if path.exists() else 0
            seg = self._segments[key] = _Segment(path, size)
        return seg

    def _next_epoch(self, table: str) -> int:
        """First epoch index with no segment file on disk (never reuses
        an epoch, even across delete/recreate or a crashed predecessor)."""
        prefix = f"{_safe_name(table)}."
        existing = [-1]
        for p in self.seg_dir.glob(f"{prefix}*.seg"):
            stem = p.name[len(prefix):-len(".seg")]
            if stem.isdigit():
                existing.append(int(stem))
        return max(existing) + 1

    # -- blocks -----------------------------------------------------------

    def begin_column(self, table: str, column: str, dtype: DataType) -> None:
        with self._lock:
            super().begin_column(table, column, dtype)
            if table not in self._epochs:
                self._epochs[table] = self._next_epoch(table)

    def put_block(self, table: str, column: str, block: int, blob: bytes,
                  rows: int) -> None:
        with self._lock:
            meta = self._next_record(table, column, block)
            meta.append(len(blob), rows, self._segment(table).append(blob))

    def get_block(self, table: str, column: str, block: int) -> bytes:
        with self._lock:
            length, _, offset = self._columns[(table, column)].blocks[block]
            return self._segment(table).read(offset, length)

    def delete_table(self, table: str) -> None:
        with self._lock:
            super().delete_table(table)
            epoch = self._epochs.pop(table, None)
            if epoch is not None:
                path = self._segment_path(table, epoch)
                seg = self._segments.pop((table, epoch), None)
                if seg is not None:
                    seg.close()
                # The published catalog may still reference this file;
                # unlink only after the next sync publishes one that
                # does not.
                if path.exists():
                    self._pending_unlink.add(path)

    def table_epoch(self, table: str) -> int | None:
        """The table's current segment epoch — a per-publish identity.
        Unlike ``image_lsn`` (which two images of one table name share
        when no commit lands between publishes), epochs are never
        reused, so (name, epoch) names exactly one on-disk image."""
        with self._lock:
            return self._epochs.get(table)

    # -- durability -------------------------------------------------------

    def sync(self) -> None:
        if self.readonly:
            return
        with self._lock:
            if not self._dirty and not self._pending_unlink:
                return
            if self.do_fsync:
                dirsync = False
                for seg in self._segments.values():
                    seg.fsync()
                    if seg.needs_dirsync:
                        dirsync = True
                        seg.needs_dirsync = False
                if dirsync:
                    # Newly created segment files: make their directory
                    # entries durable before the catalog publish can
                    # reference them.
                    _fsync_dir(self.seg_dir)
            payload = json.dumps(self._catalog_json(), indent=1)
            tmp = self.root / (CATALOG_NAME + ".tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, payload.encode("utf-8"))
                if self.do_fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, self.root / CATALOG_NAME)  # atomic commit point
            if self.do_fsync:
                _fsync_dir(self.root)
            referenced = {
                self._segment_path(t, e) for t, e in self._epochs.items()
            }
            for path in list(self._pending_unlink):
                if path not in referenced:
                    path.unlink(missing_ok=True)
                self._pending_unlink.discard(path)
            self._dirty = False

    def close(self) -> None:
        with self._lock:
            for seg in self._segments.values():
                seg.close()
            self._segments.clear()
            if self._lock_fd is not None and self._lock_fd >= 0:
                os.close(self._lock_fd)  # releases the flock
                self._lock_fd = None

    # -- catalog (de)serialization ---------------------------------------
    # On disk a block is [offset, length, rows]; in the catalog record it
    # is (length, rows, offset).

    def _catalog_json(self) -> dict:
        tables: dict[str, dict] = {}
        for (table, column), meta in self._columns.items():
            entry = tables.setdefault(table, {
                "epoch": self._epochs[table],
                "meta": self._table_meta.get(table, {}),
                "columns": {},
            })
            entry["columns"][column] = {
                "dtype": meta.dtype.value,
                "blocks": [[o, l, r] for l, r, o in meta.blocks],
            }
        for table, meta in self._table_meta.items():
            tables.setdefault(table, {
                "epoch": self._epochs.get(table, 0),
                "meta": meta,
                "columns": {},
            })
        return {"version": 1, "store": self._store_meta, "tables": tables}

    def _load_catalog(self) -> None:
        path = self.root / CATALOG_NAME
        if not path.exists():
            self._sweep_orphan_segments()
            return
        raw = json.loads(path.read_text(encoding="utf-8"))
        self._store_meta = dict(raw.get("store", {}))
        for table, entry in raw.get("tables", {}).items():
            self._epochs[table] = int(entry["epoch"])
            self._table_meta[table] = dict(entry.get("meta", {}))
            for column, col in entry.get("columns", {}).items():
                meta = ColumnMeta(DataType(col["dtype"]))
                for o, l, r in col["blocks"]:
                    meta.append(int(l), int(r), int(o))
                self._columns[(table, column)] = meta
        self._sweep_orphan_segments()

    def _sweep_orphan_segments(self) -> None:
        """Delete segment files the published catalog does not reference —
        leftovers of a crash between block appends and the catalog
        publish (their data was never visible). Skipped when another
        live backend holds the root's writer lock: its in-flight epoch
        looks like an orphan but is about to be published."""
        if self._lock_fd is None:
            return
        referenced = {
            self._segment_path(t, e) for t, e in self._epochs.items()
        }
        for path in self.seg_dir.glob("*.seg"):
            if path not in referenced:
                path.unlink(missing_ok=True)


class MmapStorage(StorageFactory):
    """Factory rooting every scope under one directory::

        <root>/main/            # scope "" — the database's main tables
        <root>/shards/<name>/   # one scope (backend) per shard
        <root>/wal.jsonl        # the database's write-ahead log

    ``ephemeral()`` builds a self-cleaning temp-rooted instance (used by
    the ``REPRO_STORAGE_BACKEND=mmap`` test runs) with fsync disabled —
    functional parity without paying fsync latency; explicit-path
    instances default to full fsync durability.
    """

    persistent = True

    def __init__(self, root, do_fsync: bool = True):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = do_fsync
        self._backends: dict[str, MmapFileBackend] = {}
        self._tmp = None  # TemporaryDirectory keeping ephemeral roots alive

    @classmethod
    def ephemeral(cls) -> "MmapStorage":
        tmp = ephemeral_mmap_root()
        storage = cls(tmp.name, do_fsync=False)
        storage._tmp = tmp
        return storage

    def _scope_root(self, scope: str) -> Path:
        if scope == MAIN_SCOPE:
            return self.root / "main"
        return self.root / "shards" / _safe_name(scope)

    def open(self, scope: str) -> MmapFileBackend:
        backend = self._backends.get(scope)
        if backend is None:
            backend = MmapFileBackend(self._scope_root(scope),
                                      do_fsync=self.fsync)
            self._backends[scope] = backend
        return backend

    def discard(self, scope: str) -> None:
        backend = self._backends.pop(scope, None)
        if backend is not None:
            backend.close()
        shutil.rmtree(self._scope_root(scope), ignore_errors=True)

    def scopes(self) -> list[str]:
        found = []
        if (self.root / "main").exists():
            found.append(MAIN_SCOPE)
        shards = self.root / "shards"
        if shards.exists():
            found.extend(
                urllib.parse.unquote(p.name)
                for p in shards.iterdir() if p.is_dir()
            )
        return found

    def wal_path(self):
        return str(self.root / "wal.jsonl")

    def close(self) -> None:
        for backend in self._backends.values():
            backend.sync()
            backend.close()
        self._backends.clear()
        if self._tmp is not None:
            self._tmp.cleanup()
