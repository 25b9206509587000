"""Tests for the value-based delta tree baseline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import DataType, Schema, StableTable
from repro.vdt import VDT, vdt_merge_rows, vdt_merge_scan


def int_schema():
    return Schema.build(
        ("k", DataType.INT64),
        ("a", DataType.INT64),
        ("b", DataType.STRING),
        sort_key=("k",),
    )


def multi_key_schema():
    return Schema.build(
        ("k1", DataType.STRING),
        ("k2", DataType.INT64),
        ("v", DataType.INT64),
        sort_key=("k1", "k2"),
    )


class ValueOracle:
    """Plain sorted-rows image for value-addressed updates."""

    def __init__(self, schema, rows):
        self.schema = schema
        self.rows = {schema.sk_of(r): list(schema.coerce_row(r)) for r in rows}

    def insert(self, row):
        row = list(self.schema.coerce_row(row))
        self.rows[self.schema.sk_of(row)] = row

    def delete(self, sk):
        del self.rows[tuple(sk)]

    def modify(self, sk, col_no, value):
        self.rows[tuple(sk)][col_no] = value

    def image(self):
        return [tuple(r) for _, r in sorted(self.rows.items())]

    def row(self, sk):
        return tuple(self.rows[tuple(sk)])


def drive_random(schema, stable_rows, vdt, oracle, rng, n_ops, key_range):
    for _ in range(n_ops):
        keys = sorted(oracle.rows)
        c = rng.random()
        if c < 0.45 or not keys:
            k = rng.randrange(key_range)
            if (k,) not in oracle.rows:
                row = (k, rng.randrange(100), f"v{k}")
                vdt.add_insert(row)
                oracle.insert(row)
        elif c < 0.70:
            sk = keys[rng.randrange(len(keys))]
            vdt.add_delete(sk)
            oracle.delete(sk)
        else:
            sk = keys[rng.randrange(len(keys))]
            col = rng.choice([1, 2])
            val = rng.randrange(100) if col == 1 else f"m{rng.randrange(9)}"
            vdt.add_modify(oracle.row(sk), col, val)
            oracle.modify(sk, col, val)


class TestVDTSemantics:
    def test_insert_delete_modify_roundtrip(self):
        schema = int_schema()
        rows = [(k, k, f"s{k}") for k in range(5)]
        vdt = VDT(schema)
        vdt.add_insert((10, 1, "new"))
        vdt.add_delete((2,))
        vdt.add_modify((3, 3, "s3"), 1, 99)
        got = vdt_merge_rows(rows, vdt)
        assert got == [
            (0, 0, "s0"),
            (1, 1, "s1"),
            (3, 99, "s3"),
            (4, 4, "s4"),
            (10, 1, "new"),
        ]

    def test_modify_adds_to_both_trees(self):
        vdt = VDT(int_schema())
        vdt.add_modify((3, 3, "s3"), 1, 99)
        assert vdt.insert_count() == 1
        assert vdt.delete_count() == 1
        assert vdt.count() == 2

    def test_second_modify_in_place(self):
        vdt = VDT(int_schema())
        vdt.add_modify((3, 3, "s3"), 1, 99)
        vdt.add_modify((3, 99, "s3"), 2, "zz")
        assert vdt.count() == 2  # still one ins + one del entry
        (sk, row), = list(vdt.insert_items())
        assert row == [3, 99, "zz"]

    def test_delete_of_insert_leaves_no_trace(self):
        vdt = VDT(int_schema())
        vdt.add_insert((10, 1, "new"))
        vdt.add_delete((10,))
        assert vdt.count() == 0

    def test_delete_of_modified_keeps_delete_entry(self):
        vdt = VDT(int_schema())
        vdt.add_modify((3, 3, "s3"), 1, 99)
        vdt.add_delete((3,))
        assert vdt.insert_count() == 0
        assert vdt.delete_count() == 1

    def test_reinsert_after_delete(self):
        schema = int_schema()
        rows = [(k, k, f"s{k}") for k in range(5)]
        vdt = VDT(schema)
        vdt.add_delete((2,))
        vdt.add_insert((2, 77, "back"))
        got = vdt_merge_rows(rows, vdt)
        assert got[2] == (2, 77, "back")
        # Deleting the re-insert restores the original deletion.
        vdt.add_delete((2,))
        got = vdt_merge_rows(rows, vdt)
        assert [r[0] for r in got] == [0, 1, 3, 4]

    def test_duplicate_insert_rejected(self):
        vdt = VDT(int_schema())
        vdt.add_insert((10, 1, "x"))
        with pytest.raises(ValueError):
            vdt.add_insert((10, 2, "y"))

    def test_sk_modify_rejected(self):
        vdt = VDT(int_schema())
        with pytest.raises(ValueError):
            vdt.add_modify((3, 3, "s3"), 0, 4)

    def test_memory_usage_exceeds_pdt_model(self):
        """VDT modifies store whole tuples; the paper's PDT stores 16
        bytes per update."""
        vdt = VDT(int_schema())
        vdt.add_modify((3, 3, "s3"), 1, 99)
        assert vdt.memory_usage() > 16

    def test_copy_independent(self):
        vdt = VDT(int_schema())
        vdt.add_insert((10, 1, "x"))
        clone = vdt.copy()
        clone.add_delete((10,))
        assert vdt.count() == 1 and clone.count() == 0


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9), n_ops=st.integers(1, 80))
def test_vdt_merge_matches_oracle(seed, n_ops):
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(20)]
    vdt = VDT(schema)
    oracle = ValueOracle(schema, rows)
    drive_random(schema, rows, vdt, oracle, random.Random(seed), n_ops, 400)
    assert vdt_merge_rows(rows, vdt) == oracle.image()
    vdt.check_invariants()


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    batch_rows=st.sampled_from([1, 3, 7, 1000]),
)
def test_block_merge_matches_row_merge(seed, batch_rows):
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(30)]
    table = StableTable.bulk_load("t", schema, rows)
    vdt = VDT(schema)
    oracle = ValueOracle(schema, rows)
    drive_random(schema, rows, vdt, oracle, random.Random(seed), 60, 500)
    cols = ["k", "a", "b"]
    got = []
    next_rid = 0
    for first_rid, arrays in vdt_merge_scan(table, vdt, columns=cols,
                                            batch_rows=batch_rows):
        assert first_rid == next_rid
        n = len(arrays["k"])
        next_rid += n
        got.extend(
            tuple(arrays[c][i] for c in cols) for i in range(n)
        )
    assert got == oracle.image()


def test_multi_column_key_merge():
    schema = multi_key_schema()
    rows = [
        ("a", 1, 10), ("a", 2, 20), ("b", 1, 30), ("b", 3, 40), ("c", 1, 50)
    ]
    table = StableTable.bulk_load("t", schema, rows)
    vdt = VDT(schema)
    vdt.add_insert(("a", 3, 25))
    vdt.add_insert(("b", 2, 35))
    vdt.add_delete(("b", 3))
    vdt.add_modify(("c", 1, 50), 2, 55)
    expected = [
        ("a", 1, 10), ("a", 2, 20), ("a", 3, 25),
        ("b", 1, 30), ("b", 2, 35), ("c", 1, 55),
    ]
    assert vdt_merge_rows(rows, vdt) == expected
    got = []
    for _, arrays in vdt_merge_scan(table, vdt, batch_rows=2):
        got.extend(
            tuple(arrays[c][i] for c in schema.column_names)
            for i in range(len(arrays["k1"]))
        )
    assert got == expected


def test_vdt_scan_reads_sort_keys_pdt_scan_does_not():
    """THE core claim of the paper, as an I/O assertion: a projection that
    does not touch the sort key still reads it under VDT merging, but not
    under PDT merging."""
    from repro.core import PDT, merge_scan_layers
    from repro.storage import BlockStore, BufferPool, IOStats

    schema = int_schema()
    rows = [(k, k, f"s{k}") for k in range(2000)]
    table = StableTable.bulk_load("t", schema, rows)
    store = BlockStore(compressed=False, block_rows=256)
    io = IOStats()
    pool = BufferPool(store, io)
    table.attach_storage(pool)

    vdt = VDT(schema)
    vdt.add_delete((100,))
    pdt = PDT(schema)
    pdt.add_delete(100, (100,))

    for _ in vdt_merge_scan(table, vdt, columns=["a"]):
        pass
    assert ("t", "k") in io.bytes_by_column  # sort key was read
    vdt_bytes = io.bytes_read

    pool.clear()
    io.reset()
    for _ in merge_scan_layers(table, [pdt], columns=["a"]):
        pass
    assert ("t", "k") not in io.bytes_by_column  # sort key NOT read
    assert io.bytes_read < vdt_bytes
