"""Tests for the block store, buffer pool, and stable tables."""

import numpy as np
import pytest

from repro.storage import (
    BlockKey,
    BlockStore,
    BufferPool,
    DataType,
    IOStats,
    Schema,
    SchemaError,
    StableTable,
)


def small_schema():
    return Schema.build(
        ("k", DataType.INT64),
        ("v", DataType.INT64),
        ("s", DataType.STRING),
        sort_key=("k",),
    )


def make_table(n=100, name="t"):
    rows = [(i * 2, i * 10, f"row-{i}") for i in range(n)]
    return StableTable.bulk_load(name, small_schema(), rows)


class TestStableTable:
    def test_bulk_load_coerces_strings(self):
        rows = [(1, 1, "a"), (2, 2, 5), (3, 3, "c")]
        col = StableTable.bulk_load("t", small_schema(), rows).column("s")
        assert col.dtype == object
        assert col.tolist() == ["a", "5", "c"]

    def test_column_reads_through_pool(self):
        table = make_table(10)
        before = table.pool.misses
        assert table.column("v").tolist() == [i * 10 for i in range(10)]
        assert table.read_rows("v", 2, 5).tolist() == [20, 30, 40]
        assert table.pool.misses > before
        with pytest.raises(SchemaError):
            table.column("nope")

    def test_from_arrays_rejects_2d(self):
        arrays = {
            "k": np.zeros((2, 2), dtype=np.int64),
            "v": np.zeros(4, dtype=np.int64),
            "s": np.array(["a", "b", "c", "d"], dtype=object),
        }
        with pytest.raises(ValueError):
            StableTable.from_arrays("t", small_schema(), arrays)

    def test_from_arrays_rejects_ragged_columns(self):
        arrays = {
            "k": np.arange(3, dtype=np.int64),
            "v": np.zeros(2, dtype=np.int64),
            "s": np.array(["a", "b", "c"], dtype=object),
        }
        with pytest.raises(SchemaError):
            StableTable.from_arrays("t", small_schema(), arrays)

    def test_stored_bytes_string_counts_utf8(self):
        schema = Schema.build(("s", DataType.STRING), sort_key=("s",))
        table = StableTable.bulk_load("t", schema, [("ab",), ("c",)])
        empty = StableTable.empty("e", schema)
        # The private pool stores plain UTF-8 plus a 4-byte length per
        # value (both images carry one block header).
        assert table.stored_bytes() - empty.stored_bytes() \
            == (2 + 4) + (1 + 4)

    def test_bulk_load_sorts_by_sk(self):
        rows = [(5, 1, "a"), (1, 2, "b"), (3, 3, "c")]
        table = StableTable.bulk_load("t", small_schema(), rows)
        assert [r[0] for r in table.rows()] == [1, 3, 5]

    def test_duplicate_sk_rejected(self):
        rows = [(1, 1, "a"), (1, 2, "b")]
        with pytest.raises(SchemaError):
            StableTable.bulk_load("t", small_schema(), rows)

    def test_row_and_sk_at(self):
        table = make_table(10)
        assert table.row(3) == (6, 30, "row-3")
        assert table.sk_at(3) == (6,)
        with pytest.raises(IndexError):
            table.row(10)

    def test_scan_batches(self):
        table = make_table(10)
        batches = list(table.scan(columns=["v"], batch_rows=4))
        assert [b[0] for b in batches] == [0, 4, 8]
        assert batches[0][1]["v"].tolist() == [0, 10, 20, 30]
        assert batches[2][1]["v"].tolist() == [80, 90]

    def test_scan_range(self):
        table = make_table(10)
        batches = list(table.scan(columns=["k"], start=2, stop=5))
        assert len(batches) == 1
        assert batches[0][1]["k"].tolist() == [4, 6, 8]

    def test_from_arrays_validates_order(self):
        arrays = {
            "k": np.array([3, 1, 2]),
            "v": np.zeros(3, dtype=np.int64),
            "s": np.array(["a", "b", "c"], dtype=object),
        }
        with pytest.raises(SchemaError):
            StableTable.from_arrays("t", small_schema(), arrays)

    def test_empty_table(self):
        table = StableTable.empty("t", small_schema())
        assert len(table) == 0
        assert list(table.scan()) == []


class TestBlockStoreAndBufferPool:
    def test_store_and_read_roundtrip(self):
        store = BlockStore(compressed=True, block_rows=16)
        store.store_column("t", "v", DataType.INT64, np.arange(50))
        assert store.column_blocks("t", "v") == 4
        assert store.read_block(BlockKey("t", "v", 0)) is not None

    def test_buffer_pool_counts_misses_once(self):
        store = BlockStore(compressed=False, block_rows=16)
        store.store_column("t", "v", DataType.INT64, np.arange(64))
        io = IOStats()
        pool = BufferPool(store, io)
        pool.get_block("t", "v", 0)
        first = io.bytes_read
        assert first > 0
        pool.get_block("t", "v", 0)
        assert io.bytes_read == first  # hit: no extra I/O
        assert pool.hits == 1 and pool.misses == 1

    def test_read_rows_crosses_blocks(self):
        store = BlockStore(compressed=False, block_rows=10)
        store.store_column("t", "v", DataType.INT64, np.arange(35))
        pool = BufferPool(store)
        out = pool.read_rows("t", "v", 8, 23)
        assert out.tolist() == list(range(8, 23))

    def test_clear_makes_cold(self):
        store = BlockStore(compressed=False, block_rows=16)
        store.store_column("t", "v", DataType.INT64, np.arange(16))
        io = IOStats()
        pool = BufferPool(store, io)
        pool.get_block("t", "v", 0)
        pool.clear()
        pool.get_block("t", "v", 0)
        assert pool.misses == 2

    def test_warm_table_does_not_count_io(self):
        store = BlockStore(compressed=False, block_rows=16)
        store.store_column("t", "v", DataType.INT64, np.arange(64))
        io = IOStats()
        pool = BufferPool(store, io)
        pool.warm_table("t")
        assert io.bytes_read == 0
        pool.get_block("t", "v", 0)
        assert io.bytes_read == 0  # hot read

    def test_lru_eviction(self):
        store = BlockStore(compressed=False, block_rows=8)
        store.store_column("t", "v", DataType.INT64, np.arange(64))
        pool = BufferPool(store, capacity_bytes=8 * 8 * 2)  # two blocks
        pool.get_block("t", "v", 0)
        pool.get_block("t", "v", 1)
        pool.get_block("t", "v", 2)
        assert not pool.contains("t", "v", 0)
        assert pool.contains("t", "v", 2)

    def test_compression_reduces_io_volume(self):
        keys = np.arange(4096 * 4, dtype=np.int64)
        raw = BlockStore(compressed=False)
        compressed = BlockStore(compressed=True)
        raw.store_column("t", "k", DataType.INT64, keys)
        compressed.store_column("t", "k", DataType.INT64, keys)
        io_raw, io_comp = IOStats(), IOStats()
        BufferPool(raw, io_raw).read_rows("t", "k", 0, len(keys))
        BufferPool(compressed, io_comp).read_rows("t", "k", 0, len(keys))
        assert io_comp.bytes_read < io_raw.bytes_read / 4

    def test_attached_table_charges_io(self):
        store = BlockStore(compressed=False, block_rows=32)
        io = IOStats()
        pool = BufferPool(store, io)
        rows = [(i * 2, i * 10, f"row-{i}") for i in range(100)]
        table = StableTable.bulk_load("t", small_schema(), rows, pool)
        assert io.bytes_read == 0  # building reads nothing back
        out = table.read_rows("v", 0, 100)
        assert out.tolist() == [i * 10 for i in range(100)]
        assert io.bytes_read > 0
        by_col = set(io.bytes_by_column)
        assert ("t", "v") in by_col
        assert ("t", "k") not in by_col  # untouched column: no I/O

    def test_io_snapshot_delta(self):
        io = IOStats()
        io.record_read("t", "a", 100)
        snap = io.snapshot()
        io.record_read("t", "b", 50)
        delta = io.since(snap)
        assert delta.bytes_read == 50
        assert delta.bytes_by_column == {("t", "b"): 50}
