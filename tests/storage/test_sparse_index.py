"""Tests for the sparse (zone-map) index."""

import bisect

from repro.storage import DataType, Schema, SparseIndex, StableTable


def keyed_table(n=100, granularity=None):
    schema = Schema.build(
        ("store", DataType.STRING),
        ("prod", DataType.INT64),
        ("qty", DataType.INT64),
        sort_key=("store", "prod"),
    )
    rows = [
        (f"store-{i // 10:02d}", i % 10, i) for i in range(n)
    ]  # 10 stores x 10 prods
    return StableTable.bulk_load("inv", schema, rows)


def sort_keys(table):
    """Every stable sort key in SID order: the bisect oracle."""
    return [row[:2] for row in table.rows()]


class TestSparseIndex:
    def test_full_range_without_bounds(self):
        table = keyed_table()
        idx = SparseIndex(table, granularity=16)
        rng = idx.sid_range_for_key_range(None, None)
        assert (rng.start, rng.stop) == (0, 100)

    def test_point_lookup_narrows(self):
        table = keyed_table()
        idx = SparseIndex(table, granularity=10)
        rng = idx.sid_range_for_point(("store-03", 5))
        assert rng.count <= 20
        # ground truth position
        sid = bisect.bisect_left(sort_keys(table), ("store-03", 5))
        assert rng.start <= sid < rng.stop

    def test_prefix_bounds(self):
        table = keyed_table()
        idx = SparseIndex(table, granularity=10)
        rng = idx.sid_range_for_key_range(("store-02",), ("store-04",))
        for sid in range(rng.start, rng.stop):
            pass  # range must cover all matching sids:
        keys = sort_keys(table)
        lo = bisect.bisect_left(keys, ("store-02",))
        hi = bisect.bisect_right(keys, ("store-04", 9))
        assert rng.start <= lo and rng.stop >= hi

    def test_range_never_misses_keys(self):
        table = keyed_table()
        idx = SparseIndex(table, granularity=7)
        for sid in range(table.num_rows):
            sk = table.sk_at(sid)
            rng = idx.sid_range_for_point(sk)
            assert rng.start <= sid < rng.stop, (sid, sk)

    def test_out_of_range_high_key(self):
        table = keyed_table()
        idx = SparseIndex(table, granularity=10)
        rng = idx.sid_range_for_key_range(("store-99",), None)
        assert rng.count == 0 or rng.start >= 90

    def test_empty_table(self):
        schema = Schema.build(("k", DataType.INT64), sort_key=("k",))
        table = StableTable.empty("e", schema)
        idx = SparseIndex(table)
        rng = idx.sid_range_for_key_range((1,), (5,))
        assert rng.count == 0

    def test_granule_count(self):
        table = keyed_table(100)
        idx = SparseIndex(table, granularity=30)
        assert idx.num_granules == 4
        assert idx.memory_entries() == 4
