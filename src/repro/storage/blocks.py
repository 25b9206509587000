"""Block-wise columnar storage over a pluggable backend.

Each column of a stable table is split into fixed-size row blocks; every
block is encoded (compressed or plain) to bytes and handed to a
:class:`~repro.storage.backend.StorageBackend` — an in-memory dict
(:class:`~repro.storage.backend.MemoryBackend`, the default simulated
disk) or real per-table segment files
(:class:`~repro.storage.mmap_backend.MmapFileBackend`). A block is
addressed by ``(table, column, block_index)`` and its row range is
derivable from the block size, which is exactly the "dense block-wise
storage with a sparse index with the start RID of each block"
organization the paper describes.

:class:`BlockStore` owns the layout and codec choices; the backend owns
the bytes and the catalog (per-block ``(size, rows, where)`` records,
table schemas, image LSNs). Blocks are written once: ``store_column``
registers a column and appends its blocks in order, and a column only
changes by being stored again — a checkpoint's new image — never by
rewriting a block in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compression
from .backend import MemoryBackend, StorageBackend
from .schema import DataType, Schema

DEFAULT_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class BlockKey:
    """Address of one stored column block."""

    table: str
    column: str
    block: int


class BlockStore:
    """Block layout + codecs over a storage backend.

    The store records the *stored* size of each block; buffer-pool misses
    are charged at that size, which makes compressed and uncompressed
    configurations produce different I/O volumes, as in the paper's
    server-vs-workstation comparison.

    When the backend carries persisted store metadata (a reopened mmap
    store), its ``block_rows``/``compressed`` are adopted — a recovered
    database always reads blocks with the layout they were written in.
    """

    def __init__(self, compressed: bool = True,
                 block_rows: int = DEFAULT_BLOCK_ROWS,
                 backend: StorageBackend | None = None):
        if block_rows <= 0:
            raise ValueError("block_rows must be positive")
        self.backend = backend if backend is not None else MemoryBackend()
        persisted = self.backend.get_store_meta()
        if persisted:
            compressed = bool(persisted["compressed"])
            block_rows = int(persisted["block_rows"])
        else:
            self.backend.set_store_meta(
                {"compressed": compressed, "block_rows": block_rows}
            )
        self.compressed = compressed
        self.block_rows = block_rows

    # -- writing ---------------------------------------------------------

    def _encode(self, chunk: np.ndarray, dtype: DataType) -> bytes:
        if self.compressed:
            return compression.encode_best(chunk, dtype)
        return compression.encode(chunk, dtype, compression.PLAIN)

    def store_column(self, table: str, column: str, dtype: DataType,
                     values) -> int:
        """Split ``values`` into blocks, encode, and store. Returns #blocks."""
        arr = np.asarray(values, dtype=dtype.numpy_dtype)
        self.backend.begin_column(table, column, dtype)
        n_blocks = 0
        for start in range(0, max(len(arr), 1), self.block_rows):
            chunk = arr[start: start + self.block_rows]
            self.backend.put_block(
                table, column, n_blocks, self._encode(chunk, dtype),
                rows=len(chunk),
            )
            n_blocks += 1
        return n_blocks

    def drop_table(self, table: str) -> None:
        self.backend.delete_table(table)

    # -- reading ---------------------------------------------------------

    def read_block(self, key: BlockKey) -> np.ndarray:
        """Decode and return one block (the 'physical read' path)."""
        blob = self.backend.get_block(key.table, key.column, key.block)
        dtype = self.column_dtype(key.table, key.column)
        return compression.decode(blob, dtype)

    def stored_size(self, key: BlockKey) -> int:
        return self.backend.block_size(key.table, key.column, key.block)

    def has_column(self, table: str, column: str) -> bool:
        return self.backend.column_meta(table, column) is not None

    def column_dtype(self, table: str, column: str) -> DataType:
        return self.backend.column_dtype(table, column)

    def column_rows(self, table: str, column: str) -> int:
        return self.backend.column_rows(table, column)

    def column_blocks(self, table: str, column: str) -> int:
        meta = self.backend.column_meta(table, column)
        if meta is None:
            raise KeyError(f"unknown column {table}.{column}")
        return max(1, len(meta.blocks))

    def columns(self, table: str | None = None) -> list[tuple[str, str]]:
        """Stored ``(table, column)`` pairs, optionally for one table."""
        pairs = self.backend.columns()
        if table is None:
            return pairs
        return [p for p in pairs if p[0] == table]

    def tables(self) -> list[str]:
        return self.backend.tables()

    def block_range(self, block: int) -> tuple[int, int]:
        """Row range ``[start, stop)`` covered by block index ``block``."""
        start = block * self.block_rows
        return start, start + self.block_rows

    def aligned_stop(self, start_row: int, stop_row: int) -> int:
        """Clamp a batch ending at ``stop_row`` to the first block boundary
        after ``start_row``.

        Scan batches that never straddle a stored block decode to plain
        views of the cached block — the zero-copy pass-through the
        block-pipelined MergeScan relies on — instead of concatenations of
        partial blocks.
        """
        boundary = (start_row // self.block_rows + 1) * self.block_rows
        return min(stop_row, boundary)

    def blocks_for_rows(self, start_row: int, stop_row: int):
        """Block indexes overlapping the row range ``[start_row, stop_row)``."""
        if stop_row <= start_row:
            return range(0)
        first = start_row // self.block_rows
        last = (stop_row - 1) // self.block_rows
        return range(first, last + 1)

    def column_stored_bytes(self, table: str, column: str) -> int:
        """Total stored (possibly compressed) size of a column."""
        meta = self.backend.column_meta(table, column)
        if meta is None:
            return 0
        return meta.stored_bytes

    # -- table metadata (durable recovery) -------------------------------

    def set_table_schema(self, table: str, schema: Schema) -> None:
        self.backend.set_table_meta(table, schema=schema.to_dict())

    def table_schema(self, table: str) -> Schema | None:
        raw = self.backend.get_table_meta(table).get("schema")
        return Schema.from_dict(raw) if raw else None

    def set_image_lsn(self, table: str, lsn: int) -> None:
        """Record the LSN the table's stored image is consecutive to; WAL
        replay skips this table's records at or below it (they are folded
        into the image the catalog publishes)."""
        self.backend.set_table_meta(table, image_lsn=int(lsn))

    def image_lsn(self, table: str) -> int:
        return int(self.backend.get_table_meta(table).get("image_lsn", 0))

    def table_epoch(self, table: str) -> int | None:
        """Backend per-publish image identity (mmap segment epoch), or
        None on backends without one (memory)."""
        return self.backend.table_epoch(table)

    # -- durability ------------------------------------------------------

    def sync(self) -> None:
        """Publish everything stored so far (the backend's atomic commit
        point; no-op on volatile backends)."""
        self.backend.sync()

    def close(self) -> None:
        self.backend.close()
