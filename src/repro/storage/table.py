"""Ordered columnar stable tables (the read-store, TABLE0).

A :class:`StableTable` is the immutable bulk-loaded / checkpointed image of
a table: columns aligned by position, tuples physically ordered by the
schema's sort key (SK). Tuple positions within it are the *stable IDs*
(SIDs) of the paper; they never change until a checkpoint rebuilds the
image.

Tables may live purely in memory (convenient for unit tests) or be attached
to a :class:`~repro.storage.blocks.BlockStore` +
:class:`~repro.storage.buffer.BufferPool`, in which case every column read
is routed through the pool and counted by the I/O accounting — including
sort-key reads, so that the positional-vs-value-based merging comparison is
honest.
"""

from __future__ import annotations

import bisect

import numpy as np

from .buffer import BufferPool
from .column import Column
from .schema import DataType, Schema, SchemaError

DEFAULT_BATCH_ROWS = 1024


class StableTable:
    """Immutable, SK-ordered columnar table image."""

    def __init__(self, name: str, schema: Schema, columns: list[Column]):
        if len(columns) != len(schema):
            raise SchemaError("column count does not match schema")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError("columns have differing lengths")
        for spec, col in zip(schema.columns, columns):
            if spec.name != col.name or spec.dtype != col.dtype:
                raise SchemaError(
                    f"column {col.name!r} does not match spec {spec.name!r}"
                )
        self.name = name
        self.schema = schema
        self._columns = {c.name: c for c in columns}
        self.num_rows = lengths.pop() if lengths else 0
        self._pool: BufferPool | None = None
        self._sk_cache: list[tuple] | None = None
        # LSN the persisted form of *this* image was published under, or
        # None while memory-only. Stamped by :meth:`publish` (bulk load,
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
    def bulk_load(cls, name: str, schema: Schema, rows) -> "StableTable":
        """Build a stable image from Python tuples, sorting by the SK.

        Duplicate sort keys are rejected: the paper requires the SK to be a
        key of the table.
        """
        coerced = [schema.coerce_row(r) for r in rows]
        coerced.sort(key=schema.sk_of)
        for a, b in zip(coerced, coerced[1:]):
            if schema.sk_of(a) == schema.sk_of(b):
                raise SchemaError(f"duplicate sort key {schema.sk_of(a)!r}")
        columns = [
            Column.from_python(
                spec.name, spec.dtype, [row[i] for row in coerced]
            )
            for i, spec in enumerate(schema.columns)
        ]
        return cls(name, schema, columns)

    @classmethod
    def from_arrays(cls, name: str, schema: Schema, arrays: dict) -> "StableTable":
        """Build from pre-sorted numpy arrays (bulk path used by dbgen).

        The caller asserts SK order; it is validated cheaply for numeric
        leading key columns.
        """
        columns = [
            Column(spec.name, spec.dtype, arrays[spec.name])
            for spec in schema.columns
        ]
        table = cls(name, schema, columns)
        lead = schema.sort_key[0]
        lead_col = table.column(lead)
        if lead_col.dtype is not DataType.STRING and len(lead_col) > 1:
            diffs = np.diff(lead_col.values)
            if (diffs < 0).any():
                raise SchemaError("arrays not sorted on leading sort key")
        return table

    @classmethod
    def empty(cls, name: str, schema: Schema) -> "StableTable":
        return cls(
            name,
            schema,
            [Column.empty(spec.name, spec.dtype) for spec in schema.columns],
        )

    # -- storage binding ---------------------------------------------------

    def attach_storage(self, pool: BufferPool) -> None:
        """Write all columns to the pool's block store; reads now do 'I/O'.

        The schema rides along into the store's catalog so a durable
        backend can rebuild this table after a crash
        (:meth:`from_storage`).
        """
        for col in self._columns.values():
            pool.store.store_column(self.name, col.name, col.dtype, col.values)
        pool.store.set_table_schema(self.name, self.schema)
        self._pool = pool

    def publish(self, pool: BufferPool, lsn: int) -> None:
        """Store this image in ``pool``'s block store and publish it as
        the table's persisted image, consecutive to ``lsn`` — the one
        durability-ordered sequence every image writer (bulk load, shard
        install, checkpoint) goes through: blocks and schema first, then
        the image LSN, then the store's atomic catalog commit. On a
        durable backend the image survives a kill from the moment this
        returns, and WAL replay skips the table's records at or below
        ``lsn``; before it, the previously published image (if any) is
        what recovers.
        """
        self.attach_storage(pool)
        store = pool.store
        store.set_image_lsn(self.name, lsn)
        self.image_lsn = lsn
        self.image_epoch = store.table_epoch(self.name)
        store.sync()

    @classmethod
    def from_storage(cls, name: str, schema: Schema,
                     pool: BufferPool) -> "StableTable":
        """Rebuild a stable image from the *persisted* blocks of the
        pool's store — the kill-and-reopen recovery path. No blocks are
        re-written; reads decode exactly the bytes a checkpoint (or bulk
        load) published before the crash.
        """
        from .blocks import BlockKey

        store = pool.store
        columns = []
        for spec in schema.columns:
            parts = [
                store.read_block(BlockKey(name, spec.name, b))
                for b in range(store.column_blocks(name, spec.name))
            ]
            values = parts[0] if len(parts) == 1 else np.concatenate(parts)
            columns.append(Column(spec.name, spec.dtype, values))
        table = cls(name, schema, columns)
        table._pool = pool
        table.image_lsn = pool.store.image_lsn(name)
        table.image_epoch = pool.store.table_epoch(name)
        return table

    def detach_storage(self) -> None:
        self._pool = None

    @property
    def pool(self) -> BufferPool | None:
        return self._pool

    # -- reading -----------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def read_rows(self, column: str, start: int, stop: int) -> np.ndarray:
        """Read a value range of a column, through the pool when attached."""
        stop = min(stop, self.num_rows)
        if stop <= start:
            dtype = self.schema.dtype_of(column)
            return np.empty(0, dtype=dtype.numpy_dtype)
        if self._pool is not None:
            return self._pool.read_rows(self.name, column, start, stop)
        return self.column(column).slice(start, stop)

    def scan(
        self,
        columns=None,
        start: int = 0,
        stop: int | None = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
    ):
        """Yield ``(first_sid, {column: ndarray})`` batches over ``[start, stop)``.

        When the table is attached to storage, batch boundaries are snapped
        to stored-block boundaries so every batch is a zero-copy view of a
        single decoded block (batches are then at most ``batch_rows`` long,
        never longer).
        """
        if columns is None:
            columns = self.schema.column_names
        if stop is None:
            stop = self.num_rows
        stop = min(stop, self.num_rows)
        store = self._pool.store if self._pool is not None else None
        pos = start
        while pos < stop:
            hi = min(pos + batch_rows, stop)
            if store is not None:
                hi = store.aligned_stop(pos, hi)
            yield pos, {c: self.read_rows(c, pos, hi) for c in columns}
            pos = hi

    def row(self, sid: int) -> tuple:
        """Full tuple at stable position ``sid`` (through the pool if attached)."""
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
        cols = [self.column(c).values for c in self.schema.column_names]
        return [tuple(col[i] for col in cols) for i in range(self.num_rows)]

    # -- sort-key search ---------------------------------------------------

    def _sk_list(self) -> list[tuple]:
        if self._sk_cache is None:
            keys = [self.column(c).values for c in self.schema.sort_key]
            self._sk_cache = list(zip(*keys)) if keys else []
        return self._sk_cache

    def sk_lower_bound(self, sk: tuple) -> int:
        """First SID whose sort key is >= ``sk`` (== num_rows if none).

        This is an in-memory binary search on the SK; it models the
        "SELECT rid ... WHERE SK > sk LIMIT 1" positioning query of the
        paper without charging scan I/O (a sparse-index-backed variant that
        does charge I/O lives in :mod:`repro.storage.sparse_index`).
        """
        return bisect.bisect_left(self._sk_list(), tuple(sk))

    def sk_upper_bound(self, sk: tuple) -> int:
        """First SID whose sort key is > ``sk``."""
        return bisect.bisect_right(self._sk_list(), tuple(sk))

    def stored_bytes(self, columns=None) -> int:
        """Stored size (compressed if attached to a compressed store)."""
        if columns is None:
            columns = self.schema.column_names
        if self._pool is not None:
            return sum(
                self._pool.store.column_stored_bytes(self.name, c)
                for c in columns
            )
        return sum(self.column(c).nbytes() for c in columns)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"StableTable({self.name!r}, rows={self.num_rows}, "
            f"sk={self.schema.sort_key})"
        )
