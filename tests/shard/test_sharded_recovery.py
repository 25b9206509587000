"""Crash recovery of range-sharded tables: stable shard images + WAL
(commit records, snapshot records from rebalances, and shard-layout
catalog records) must reconstruct the logical table exactly — including
its boundaries."""

from repro import Database, DataType, Schema, WriteAheadLog
from repro.shard import merge_adjacent, split_shard
from repro.txn import recover_database


def int_schema():
    return Schema.build(
        ("k", DataType.INT64),
        ("a", DataType.INT64),
        ("b", DataType.STRING),
        sort_key=("k",),
    )


def seed_rows(n=60):
    return [(i * 2, i, f"s{i}") for i in range(n)]


def crash_and_recover(db, wal=None):
    """Simulate a crash: only shard stable images and the WAL survive."""
    st = db.sharded("t")
    wal = wal if wal is not None else db.manager.wal
    db2 = Database(compressed=False)
    for shard in st.shard_names:
        db2.create_table(shard, int_schema(),
                         db.manager.state_of(shard).stable.rows())
    recover_database(db2, wal)
    return db2


class TestShardedRecovery:
    def test_boundaries_and_deltas_restored(self):
        db = Database(compressed=False)
        db.create_sharded_table("t", int_schema(), seed_rows(), shards=3)
        db.apply_batch("t", [("ins", (5, 1, "x")), ("del", (40,)),
                             ("mod", (80,), "a", 7)])
        db.insert("t", (119, 9, "tail"))
        expected = db.image_rows("t")
        db2 = crash_and_recover(db)
        assert db2.is_sharded("t")
        assert db2.sharded("t").boundaries == db.sharded("t").boundaries
        assert db2.sharded("t").shard_names == db.sharded("t").shard_names
        assert db2.image_rows("t") == expected
        assert db2.query("t").rows() == db.query("t").rows()

    def test_recovered_database_keeps_routing(self):
        db = Database(compressed=False)
        db.create_sharded_table("t", int_schema(), seed_rows(), shards=3)
        db2 = crash_and_recover(db)
        db2.insert("t", (7, 1, "post"))
        db2.delete("t", (100,))
        assert (7, 1, "post") in db2.image_rows("t")
        assert db2.row_count("t") == 60

    def test_recovery_after_split_and_merge(self):
        db = Database(compressed=False)
        db.create_sharded_table("t", int_schema(), seed_rows(), shards=2)
        db.apply_batch("t", [("ins", (k, 0, "h")) for k in (1, 3, 5, 7)])
        st = db.sharded("t")
        assert split_shard(st, 0)
        db.apply_batch("t", [("del", (1,)), ("mod", (3,), "a", 2)])
        assert merge_adjacent(st, 1)
        db.insert("t", (201, 2, "after")),
        expected = db.image_rows("t")
        db2 = crash_and_recover(db)
        assert db2.sharded("t").boundaries == st.boundaries
        assert db2.image_rows("t") == expected

    def test_layout_survives_wal_file_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        db = Database(compressed=False, wal_path=path)
        db.create_sharded_table("t", int_schema(), seed_rows(), shards=3)
        db.apply_batch("t", [("ins", (5, 1, "x")), ("del", (40,))])
        assert split_shard(db.sharded("t"), 1)
        expected = db.image_rows("t")
        loaded = WriteAheadLog.load(path)
        assert loaded.shard_layouts()["t"]["boundaries"] \
            == db.sharded("t").boundaries
        db2 = crash_and_recover(db, wal=loaded)
        assert db2.image_rows("t") == expected

    def test_layout_survives_checkpoint_truncation(self):
        db = Database(compressed=False)
        db.create_sharded_table("t", int_schema(), seed_rows(), shards=3)
        db.apply_batch("t", [("ins", (5, 1, "x")), ("del", (40,))])
        db.checkpoint("t")  # folds every shard; WAL commits truncate away
        wal = db.manager.wal
        assert all(r.kind == "shard-layout" for r in wal.records)
        expected = db.image_rows("t")
        db2 = crash_and_recover(db)
        assert db2.sharded("t").boundaries == db.sharded("t").boundaries
        assert db2.image_rows("t") == expected

    def test_recovered_shards_use_private_pools(self):
        """Recovery must re-attach per-shard buffer pools: fanned-out
        scans rely on per-shard I/O counters (no cross-thread races, no
        N-fold double counting against the shared database pool)."""
        db = Database(compressed=False)
        db.create_sharded_table("t", int_schema(), seed_rows(), shards=4)
        db2 = crash_and_recover(db)
        st2 = db2.sharded("t")
        pools = [s.stable.pool for s in st2.shard_states()]
        assert all(p is not None and p is not db2.pool for p in pools)
        assert len({id(p) for p in pools}) == len(pools)
        db2.make_cold()
        db.make_cold()
        db2.io.reset()
        db.io.reset()
        db2.query("t")
        db.query("t")
        assert db2.io.bytes_read == db.io.bytes_read  # no inflation

    def test_rebalancer_config_survives_recovery(self):
        db = Database(compressed=False)
        db.create_sharded_table("t", int_schema(), seed_rows(), shards=2,
                                split_rows=20, merge_rows=5)
        db2 = crash_and_recover(db)
        st2 = db2.sharded("t")
        assert (st2.split_rows, st2.merge_rows) == (20, 5)
        # still armed: the oversized shards split on the next query
        n = st2.num_shards
        db2.query("t")
        assert st2.num_shards > n

    def test_layout_records_of_older_versions_still_reopen(self):
        """Layouts logged before the ``parallel`` knob was removed carry
        it in their config; restore ignores the key, and new records no
        longer write it."""
        db = Database(compressed=False)
        st = db.create_sharded_table("t", int_schema(), seed_rows(),
                                     shards=2, split_rows=500)
        db.insert("t", (5, 1, "x"))
        wal = db.manager.wal
        assert "parallel" not in wal.shard_layouts()["t"]["config"]
        wal.append_shard_layout(
            "t", st.router.boundaries, st.shard_names, lsn=db.manager._lsn,
            config={"split_rows": 500, "merge_rows": None,
                    "parallel": False})
        db2 = crash_and_recover(db)
        assert db2.sharded("t").split_rows == 500
        assert db2.query("t").rows() == db.query("t").rows()

    def test_unsharded_tables_unaffected(self):
        db = Database(compressed=False)
        db.create_table("plain", int_schema(), seed_rows(10))
        db.create_sharded_table("t", int_schema(), seed_rows(), shards=2)
        db.insert("plain", (33, 1, "p"))
        db.insert("t", (33, 1, "q"))
        db2 = Database(compressed=False)
        db2.create_table("plain", int_schema(), seed_rows(10))
        for shard in db.sharded("t").shard_names:
            db2.create_table(shard, int_schema(),
                             db.manager.state_of(shard).stable.rows())
        recover_database(db2, db.manager.wal)
        assert db2.image_rows("plain") == db.image_rows("plain")
        assert db2.image_rows("t") == db.image_rows("t")
