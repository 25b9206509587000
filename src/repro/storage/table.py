"""Ordered columnar stable tables (the read-store, TABLE0).

A :class:`StableTable` is the immutable bulk-loaded / checkpointed image of
a table: columns aligned by position, tuples physically ordered by the
schema's sort key (SK). Tuple positions within it are the *stable IDs*
(SIDs) of the paper; they never change until a checkpoint rebuilds the
image.

A stable table *is* its stored blocks: it names one table in a
:class:`~repro.storage.buffer.BufferPool`'s
:class:`~repro.storage.blocks.BlockStore`, and every read — scans, point
reads, sort-key reads, whole-column reads — goes through that pool and is
counted by its I/O accounting, so the positional-vs-value-based merging
comparison is honest. No decoded copy of a column lives outside the pool.
The constructors encode the image straight into the pool that will serve
it: the database's, a shard's, or — for code without a database — a
private uncompressed in-memory pool. Reopening an image
(:meth:`StableTable.from_storage`) reads only the catalog.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockStore
from .buffer import BufferPool
from .schema import DataType, Schema, SchemaError


def sorted_arrays(schema: Schema, rows) -> dict[str, np.ndarray]:
    """Coerce Python tuples, sort them by the SK and return one typed
    array per column. Duplicate sort keys are rejected: the paper
    requires the SK to be a key of the table."""
    coerced = sorted((schema.coerce_row(r) for r in rows), key=schema.sk_of)
    for a, b in zip(coerced, coerced[1:]):
        if schema.sk_of(a) == schema.sk_of(b):
            raise SchemaError(f"duplicate sort key {schema.sk_of(a)!r}")
    arrays = {}
    for i, spec in enumerate(schema.columns):
        values = [row[i] for row in coerced]
        if spec.dtype is DataType.STRING:
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
        else:
            arr = np.asarray(values, dtype=spec.dtype.numpy_dtype)
        arrays[spec.name] = arr
    return arrays


class StableTable:
    """Immutable, SK-ordered columnar table image: a view over the
    blocks ``pool`` stores under ``name``."""

    def __init__(self, name: str, schema: Schema, pool: BufferPool):
        self.name = name
        self.schema = schema
        self._pool = pool
        self.num_rows = pool.store.column_rows(name, schema.column_names[0])
        # LSN the persisted form of *this* image was published under, or
        # None while unpublished. Stamped by :meth:`publish` (bulk load,
        # shard install, checkpoint) and :meth:`from_storage` (recovery);
        # read together with the object it names, so remote dispatch
        # never pairs one image's layers with another image's LSN.
        self.image_lsn: int | None = None
        # Backend segment epoch of the same publish. The LSN alone is
        # ambiguous — two publishes of one table name with no commit in
        # between share it — so remote validation pairs (lsn, epoch).
        self.image_epoch: int | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def bulk_load(cls, name: str, schema: Schema, rows,
                  pool: BufferPool | None = None) -> "StableTable":
        """Build a stable image from Python tuples, sorting by the SK
        (see :func:`sorted_arrays`), and store it in ``pool``."""
        return cls.from_arrays(name, schema, sorted_arrays(schema, rows),
                               pool)

    @classmethod
    def from_arrays(cls, name: str, schema: Schema, arrays: dict,
                    pool: BufferPool | None = None) -> "StableTable":
        """Build from pre-sorted numpy arrays (bulk path used by dbgen)
        and store it in ``pool`` (a private uncompressed in-memory pool
        when None).

        Each array is converted to its column's dtype and must be
        one-dimensional, all of one length. The caller asserts SK order;
        it is validated cheaply for numeric leading key columns.
        """
        typed = {}
        for spec in schema.columns:
            arr = np.asarray(arrays[spec.name], dtype=spec.dtype.numpy_dtype)
            if arr.ndim != 1:
                raise ValueError(
                    f"column {spec.name!r} must be one-dimensional")
            typed[spec.name] = arr
        if len({len(a) for a in typed.values()}) > 1:
            raise SchemaError("columns have differing lengths")
        lead = schema.sort_key[0]
        if schema.dtype_of(lead) is not DataType.STRING \
                and (np.diff(typed[lead]) < 0).any():
            raise SchemaError("arrays not sorted on leading sort key")
        pool = pool or BufferPool(BlockStore(compressed=False))
        for spec in schema.columns:
            pool.store.store_column(name, spec.name, spec.dtype,
                                    typed[spec.name])
        pool.store.set_table_schema(name, schema)
        return cls(name, schema, pool)

    @classmethod
    def empty(cls, name: str, schema: Schema,
              pool: BufferPool | None = None) -> "StableTable":
        return cls.from_arrays(name, schema, {
            spec.name: np.empty(0, dtype=spec.dtype.numpy_dtype)
            for spec in schema.columns
        }, pool)

    # -- storage binding ---------------------------------------------------

    def attach_storage(self, pool: BufferPool) -> None:
        """Re-home this image: copy its encoded blocks (and schema) into
        ``pool``'s block store, which must share the current store's
        block layout, and read through ``pool`` from now on.

        A fold under a live pin re-homes the outgoing image into a
        private in-memory pool before the shared store drops its blocks;
        recovery re-homes shard images onto their own scopes.
        """
        src, dst = self._pool.store, pool.store
        if src.block_rows != dst.block_rows:
            raise ValueError(
                f"cannot copy {src.block_rows}-row blocks into a store of "
                f"{dst.block_rows}-row blocks"
            )
        for spec in self.schema.columns:
            meta = src.backend.column_meta(self.name, spec.name)
            dst.backend.begin_column(self.name, spec.name, spec.dtype)
            for block, (_, rows, _) in enumerate(meta.blocks):
                dst.backend.put_block(
                    self.name, spec.name, block,
                    src.backend.get_block(self.name, spec.name, block),
                    rows=rows,
                )
        dst.set_table_schema(self.name, self.schema)
        self._pool = pool

    def publish(self, lsn: int) -> None:
        """Publish this image as the table's persisted image, consecutive
        to ``lsn`` — the one durability-ordered sequence every image
        writer (bulk load, shard install, checkpoint) goes through: the
        constructor stored blocks and schema, this records the image LSN
        and then runs the store's atomic catalog commit. On a durable
        backend the image survives a kill from the moment this returns,
        and WAL replay skips the table's records at or below ``lsn``;
        before it, the previously published image (if any) is what
        recovers.
        """
        store = self._pool.store
        store.set_image_lsn(self.name, lsn)
        self.image_lsn = lsn
        self.image_epoch = store.table_epoch(self.name)
        store.sync()

    @classmethod
    def from_storage(cls, name: str, schema: Schema,
                     pool: BufferPool) -> "StableTable":
        """Reopen the *persisted* image of ``name`` in the pool's store —
        the kill-and-reopen recovery path. Only the catalog is read: no
        block is decoded until a query reads it through the pool, and
        none is re-written.
        """
        table = cls(name, schema, pool)
        table.image_lsn = pool.store.image_lsn(name)
        table.image_epoch = pool.store.table_epoch(name)
        return table

    @property
    def pool(self) -> BufferPool:
        return self._pool

    @property
    def block_rows(self) -> int:
        """Rows per stored block: the one size every read of this image
        merges and cuts its blocks at."""
        return self._pool.store.block_rows

    # -- reading -----------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The whole column ``name``, read through the pool."""
        if name not in self.schema.column_names:
            raise SchemaError(f"unknown column {name!r}")
        return self.read_rows(name, 0, self.num_rows)

    def read_rows(self, column: str, start: int, stop: int) -> np.ndarray:
        """Read a value range of a column through the pool."""
        stop = min(stop, self.num_rows)
        if stop <= start:
            dtype = self.schema.dtype_of(column)
            return np.empty(0, dtype=dtype.numpy_dtype)
        return self._pool.read_rows(self.name, column, start, stop)

    def scan(
        self,
        columns=None,
        start: int = 0,
        stop: int | None = None,
        batch_rows: int | None = None,
    ):
        """Yield ``(first_sid, {column: ndarray})`` batches over ``[start, stop)``.

        Batch boundaries are snapped to stored-block boundaries so every
        batch is a zero-copy view of a single decoded block (batches are
        then at most ``batch_rows`` long, never longer; one stored block
        when None).
        """
        if columns is None:
            columns = self.schema.column_names
        if batch_rows is None:
            batch_rows = self.block_rows
        if stop is None:
            stop = self.num_rows
        stop = min(stop, self.num_rows)
        store = self._pool.store
        pos = start
        while pos < stop:
            hi = store.aligned_stop(pos, min(pos + batch_rows, stop))
            yield pos, {c: self.read_rows(c, pos, hi) for c in columns}
            pos = hi

    def row(self, sid: int) -> tuple:
        """Full tuple at stable position ``sid``."""
        if not 0 <= sid < self.num_rows:
            raise IndexError(f"sid {sid} out of range [0, {self.num_rows})")
        return tuple(
            self.read_rows(c, sid, sid + 1)[0] for c in self.schema.column_names
        )

    def sk_at(self, sid: int) -> tuple:
        """Sort-key values of the stable tuple at ``sid``."""
        if not 0 <= sid < self.num_rows:
            raise IndexError(f"sid {sid} out of range [0, {self.num_rows})")
        return tuple(
            self.read_rows(c, sid, sid + 1)[0] for c in self.schema.sort_key
        )

    def rows(self) -> list[tuple]:
        """All rows as Python tuples (testing / small-table convenience)."""
        return list(zip(*(self.column(c) for c in self.schema.column_names)))

    def stored_bytes(self, columns=None) -> int:
        """Stored size of the image's blocks (compressed when its store
        compresses)."""
        if columns is None:
            columns = self.schema.column_names
        return sum(
            self._pool.store.column_stored_bytes(self.name, c)
            for c in columns
        )

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"StableTable({self.name!r}, rows={self.num_rows}, "
            f"sk={self.schema.sort_key})"
        )
