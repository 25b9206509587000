"""ShardedTable behaviour against an unsharded oracle database."""

import numpy as np
import pytest

from repro import Database, DataType, IOStats, Schema


def int_schema():
    return Schema.build(
        ("k", DataType.INT64),
        ("a", DataType.INT64),
        ("b", DataType.STRING),
        sort_key=("k",),
    )


def seed_rows(n=100):
    return [(i * 2, i, f"s{i}") for i in range(n)]


def make_pair(n=100, shards=4, **kwargs):
    """(sharded db, oracle db) over identical rows."""
    schema = int_schema()
    rows = seed_rows(n)
    db = Database(compressed=False)
    db.create_sharded_table("t", schema, rows, shards=shards, **kwargs)
    oracle = Database(compressed=False)
    oracle.create_table("t", schema, rows)
    return db, oracle


def shard_bytes(db, table="t"):
    """Bytes read per shard, derived from ``db.io``'s per-column keys
    (shard pools count straight into ``db.io`` under the shard's
    physical name)."""
    by_column = db.io.snapshot().bytes_by_column
    return [
        sum(n for (tbl, _), n in by_column.items() if tbl == name)
        for name in db.sharded(table).shard_names
    ]


SCATTER = [
    ("ins", (5, 1, "x")),
    ("del", (20,)),
    ("mod", (40,), "a", 99),
    ("ins", (75, 7, "y")),
    ("ins", (199, 9, "z")),
    ("del", (150,)),
    ("mod", (160,), "b", "m"),
]


class TestCreation:
    def test_quantile_boundaries(self):
        db, _ = make_pair(n=100, shards=4)
        st = db.sharded("t")
        assert st.num_shards == 4
        assert st.boundaries == [(50,), (100,), (150,)]
        assert [s.stable.num_rows for s in st.shard_states()] \
            == [25, 25, 25, 25]

    def test_explicit_boundaries(self):
        schema = int_schema()
        db = Database()
        st = db.create_sharded_table("t", schema, seed_rows(10),
                                     boundaries=[(6,)])
        assert st.num_shards == 2
        assert [s.stable.num_rows for s in st.shard_states()] == [3, 7]

    def test_small_loads_collapse_duplicate_quantiles(self):
        db = Database()
        st = db.create_sharded_table("t", int_schema(), seed_rows(2),
                                     shards=8)
        assert 1 <= st.num_shards <= 2
        assert db.row_count("t") == 2

    def test_name_collisions_rejected(self):
        db, _ = make_pair()
        with pytest.raises(ValueError):
            db.create_sharded_table("t", int_schema(), [])
        with pytest.raises(ValueError):
            db.create_table("t__s0", int_schema(), [])
        # a plain table must not shadow (or be shadowed by) a sharded name
        with pytest.raises(ValueError):
            db.create_table("t", int_schema(), [])
        with pytest.raises(ValueError):
            db.create_table_from_arrays(
                "t", int_schema(),
                {"k": np.empty(0, dtype=np.int64),
                 "a": np.empty(0, dtype=np.int64),
                 "b": np.empty(0, dtype=object)},
            )

    def test_create_from_arrays_matches_row_path(self):
        schema = int_schema()
        rows = seed_rows(100)
        arrays = {
            "k": np.array([r[0] for r in rows], dtype=np.int64),
            "a": np.array([r[1] for r in rows], dtype=np.int64),
            "b": np.array([r[2] for r in rows], dtype=object),
        }
        via_rows = Database()
        via_rows.create_sharded_table("t", schema, rows, shards=4)
        via_arrays = Database()
        via_arrays.create_sharded_table_from_arrays("t", schema, arrays,
                                                    shards=4)
        assert via_arrays.sharded("t").boundaries \
            == via_rows.sharded("t").boundaries
        assert via_arrays.image_rows("t") == via_rows.image_rows("t")

    def test_empty_table(self):
        db = Database()
        db.create_sharded_table("t", int_schema(), [], shards=4)
        assert db.row_count("t") == 0
        assert db.query("t").rows() == []


class TestQueriesMatchOracle:
    def test_full_scan(self):
        db, oracle = make_pair()
        db.apply_batch("t", SCATTER)
        oracle.apply_batch("t", SCATTER)
        assert db.query("t").rows() == oracle.query("t").rows()

    def test_projection_reads_only_named_columns(self):
        db, _ = make_pair()
        db.make_cold()
        db.query("t", columns=["a"])
        touched = {c for _, c in db.io.bytes_by_column}
        assert touched == {"a"}

    def test_query_range_prunes_shards(self):
        db, oracle = make_pair()
        db.apply_batch("t", SCATTER)
        oracle.apply_batch("t", SCATTER)
        for low, high in [((30,), (120,)), (None, (49,)), ((151,), None)]:
            assert db.query_range("t", low, high).rows() \
                == oracle.query_range("t", low, high).rows()

    def test_range_scan_touches_only_overlapping_shards(self):
        db, _ = make_pair()
        db.make_cold()
        db.io.reset()
        db.query_range("t", (0,), (40,), columns=["a"])  # first shard only
        per_shard = shard_bytes(db)
        assert per_shard[0] > 0
        assert per_shard[2] == per_shard[3] == 0

    def test_prefix_high_bound_spans_boundary_shard(self):
        """A prefix ``high`` is inclusive of every extension; a shard
        boundary extending that prefix must not cut the scan short."""
        schema = Schema.build(
            ("g", DataType.INT64), ("s", DataType.INT64),
            ("a", DataType.INT64), sort_key=("g", "s"),
        )
        rows = [(g, s, g * 100 + s) for g in range(5) for s in range(40)]
        db = Database(compressed=False)
        # boundary (2, 9) falls *inside* the g=2 group
        db.create_sharded_table("t", schema, rows,
                                boundaries=[(1, 20), (2, 9), (3, 30)])
        oracle = Database(compressed=False)
        oracle.create_table("t", schema, rows)
        for low, high in [((2,), (2,)), (None, (2,)), ((1, 30), (2,)),
                          ((2, 9), (3,)), ((0,), None)]:
            assert db.query_range("t", low, high).rows() \
                == oracle.query_range("t", low, high).rows(), (low, high)

    def test_global_rids_are_contiguous(self):
        db, _ = make_pair()
        db.apply_batch("t", SCATTER)
        pos = 0
        for rid, arrays in db.sharded("t").scan_blocks():
            assert rid == pos
            pos += len(arrays["k"])
        assert pos == db.row_count("t")


class TestUpdateRouting:
    def test_scalar_conveniences_route(self):
        db, oracle = make_pair()
        for target in (db, oracle):
            target.insert("t", (33, 1, "i"))
            target.delete("t", (100,))
            target.modify("t", (102,), "a", -5)
        assert db.image_rows("t") == oracle.image_rows("t")

    def test_batch_is_one_wal_record(self):
        db, _ = make_pair()
        n0 = len(db.manager.wal)
        assert db.apply_batch("t", SCATTER) == len(SCATTER)
        commits = [r for r in db.manager.wal.records[n0:]
                   if r.kind == "commit"]
        assert len(commits) == 1
        touched = set(commits[0].tables)
        assert touched <= set(db.sharded("t").shard_names)
        assert len(touched) > 1  # the scatter spans shards

    def test_insert_many(self):
        db, oracle = make_pair()
        rows = [(k, 0, "n") for k in (1, 51, 151, 301)]
        db.insert_many("t", rows)
        oracle.insert_many("t", rows)
        assert db.image_rows("t") == oracle.image_rows("t")

    def test_boundary_key_routes_to_right_shard(self):
        db, _ = make_pair()
        st = db.sharded("t")
        boundary = st.boundaries[0]
        assert st.physical_for(boundary) == st.shard_names[1]
        db.modify("t", boundary, "a", 123)
        rel = db.query_range("t", boundary, boundary)
        assert rel["a"].tolist() == [123]


class TestTransactions:
    """Transactions accept logical sharded names and route internally."""

    def test_multi_statement_transaction_routes(self):
        db, oracle = make_pair()
        for target in (db, oracle):
            with target.transaction() as txn:
                txn.insert("t", (33, 1, "i"))       # shard 0
                txn.delete("t", (100,))             # shard 2
                txn.modify("t", (180,), "a", -5)    # shard 3
        assert db.image_rows("t") == oracle.image_rows("t")

    def test_txn_scan_sees_own_cross_shard_writes(self):
        db, _ = make_pair()
        txn = db.begin()
        txn.insert("t", (33, 1, "i"))
        txn.delete("t", (100,))
        rows = txn.scan("t").rows()
        keys = [r[0] for r in rows]
        assert 33 in keys and 100 not in keys
        assert rows == txn.image_rows("t")
        # uncommitted: invisible outside the transaction
        assert 33 not in [r[0] for r in db.query("t").rows()]
        txn.abort()
        assert db.row_count("t") == 100

    def test_cross_shard_transaction_is_one_wal_record(self):
        db, _ = make_pair()
        n0 = len(db.manager.wal)
        with db.transaction() as txn:
            txn.insert("t", (33, 1, "i"))
            txn.insert("t", (171, 1, "j"))
        commits = [r for r in db.manager.wal.records[n0:]
                   if r.kind == "commit"]
        assert len(commits) == 1
        assert len(commits[0].tables) == 2  # two shards, one commit

    def test_txn_apply_batch_routes(self):
        db, oracle = make_pair()
        with db.transaction() as txn:
            txn.apply_batch("t", SCATTER)
        with oracle.transaction() as txn:
            txn.apply_batch("t", SCATTER)
        assert db.image_rows("t") == oracle.image_rows("t")

    def test_cross_shard_batch_is_all_or_nothing(self):
        """A bad op routed to a *later* shard must fail before any
        earlier shard's sub-batch lands in the Trans-PDT."""
        from repro.db import KeyNotFound

        db, _ = make_pair()
        before = db.image_rows("t")
        txn = db.begin()
        with pytest.raises(KeyNotFound):
            txn.apply_batch("t", [
                ("ins", (5, 1, "x")),      # shard 0: valid
                ("del", (151,)),           # shard 3: no such live key
            ])
        txn.commit()
        assert db.image_rows("t") == before


class TestMaintenance:
    def test_checkpoint_folds_every_shard(self):
        db, oracle = make_pair()
        db.apply_batch("t", SCATTER)
        oracle.apply_batch("t", SCATTER)
        db.checkpoint("t")
        oracle.checkpoint("t")
        assert db.delta_bytes("t") == 0
        for state in db.sharded("t").shard_states():
            assert state.read_pdt.is_empty()
            assert state.write_pdt.is_empty()
        assert db.image_rows("t") == oracle.image_rows("t")
        # per-shard stable images concatenate to the oracle's image
        concat = []
        for state in db.sharded("t").shard_states():
            concat.extend(state.stable.rows())
        assert concat == oracle.table("t").rows()

    def test_per_shard_scheduler_folds_only_hot_shard(self):
        schema = int_schema()
        rows = seed_rows(100)
        db = Database(compressed=False, checkpoint_policy="updates:8")
        db.create_sharded_table("t", schema, rows, shards=4)
        st = db.sharded("t")
        cold_stables = [s.stable for s in st.shard_states()[1:]]
        # 10 updates, all inside shard 0's key range [0, 50)
        db.apply_batch("t", [("mod", (k * 2,), "a", k) for k in range(10)])
        db.query("t")  # drains any deferred maintenance
        hot = st.shard_states()[0]
        assert hot.read_pdt.is_empty() and hot.write_pdt.is_empty()
        # cold shards were never rewritten — same stable objects
        assert [s.stable for s in st.shard_states()[1:]] == cold_stables


class TestIOStatsAggregation:
    def test_merge_adds_counters(self):
        a, b = IOStats(), IOStats()
        a.record_read("t", "x", 100)
        b.record_read("t", "x", 50)
        b.record_read("t", "y", 7)
        a.merge(b)
        assert a.bytes_read == 157
        assert a.blocks_read == 3
        assert a.bytes_by_column[("t", "x")] == 150
        assert a.bytes_by_column[("t", "y")] == 7

    def test_merge_accepts_snapshot_deltas(self):
        a = IOStats()
        a.record_read("t", "x", 10)
        before = a.snapshot()
        a.record_read("t", "x", 5)
        total = IOStats().merge(a.since(before))
        assert total.bytes_read == 5

    def test_database_io_aggregates_shard_fanout(self):
        db, _ = make_pair()
        db.make_cold()
        db.io.reset()
        db.query("t")
        # every shard's cold read landed in the database-level counters
        per_shard = shard_bytes(db)
        assert all(n > 0 for n in per_shard)
        assert db.io.bytes_read == sum(per_shard)
        assert db.io.blocks_read == 4 * 3  # one block per column per shard
        # cached: a second scan reads nothing
        db.io.reset()
        db.query("t")
        assert db.io.bytes_read == 0

    def test_update_resolution_io_reaches_database_counters(self):
        """Key-resolution sweeps behind updates read shard blocks through
        the private pools; the deltas must still land in db.io."""
        db, oracle = make_pair()
        db.make_cold()
        oracle.make_cold()
        db.io.reset()
        oracle.io.reset()
        db.apply_batch("t", [("mod", (k,), "a", 1) for k in (0, 60, 110)])
        oracle.apply_batch("t", [("mod", (k,), "a", 1)
                                 for k in (0, 60, 110)])
        assert db.io.bytes_read > 0
        db.make_cold()
        db.io.reset()
        db.modify("t", (80,), "a", 2)
        assert db.io.bytes_read > 0

    def test_txn_scan_io_reaches_database_counters(self):
        db, _ = make_pair()
        db.make_cold()
        db.io.reset()
        txn = db.begin()
        txn.scan("t", columns=["a"])
        txn.abort()
        assert db.io.bytes_read > 0
        assert {c for _, c in db.io.bytes_by_column} == {"a"}

    def test_shard_pools_count_into_database_io(self):
        """No private per-shard counters to fold back: every shard pool
        (including the ones a split installs) records into ``db.io``."""
        from repro.shard.rebalance import split_shard

        db, _ = make_pair()
        st = db.sharded("t")
        assert split_shard(st, 0)
        assert st.num_shards == 5
        assert all(s.stable.pool.io is db.io for s in st.shard_states())

    def test_warm_is_invisible_to_shared_counters(self):
        """Warming loads blocks without charging them — and without
        rolling back reads another table made meanwhile."""
        db, _ = make_pair()
        db.make_cold()
        db.io.reset()
        db.query_range("t", (0,), (40,), columns=["a"])
        before = db.io.snapshot()
        db.warm("t")
        assert db.io.snapshot() == before
        db.query("t")
        assert db.io.snapshot() == before  # everything was warmed
