"""End-to-end lifecycle: load, trickle updates, maintenance, recovery.

These tests exercise the full path a production deployment would:
bulk load -> concurrent transactional updates -> Write->Read propagation
-> checkpoint -> crash recovery from the WAL -> range queries through the
stale sparse index.
"""

import random

import pytest

from repro import Database, DataType, Schema
from repro.txn import WriteAheadLog, recover_database


def schema3():
    return Schema.build(
        ("k", DataType.INT64),
        ("a", DataType.INT64),
        ("b", DataType.STRING),
        sort_key=("k",),
    )


def fresh_db(n=200, tmp_path=None, **kwargs):
    wal_path = None if tmp_path is None else tmp_path / "wal.jsonl"
    db = Database(compressed=True, block_rows=64, wal_path=wal_path,
                  **kwargs)
    db.create_table("t", schema3(),
                    [(i * 10, i, f"s{i}") for i in range(n)])
    return db


def random_workload(db, seed, n_ops, key_range=4000):
    rng = random.Random(seed)
    live = {r[0] for r in db.image_rows("t")}
    for _ in range(n_ops):
        c = rng.random()
        if c < 0.5 or not live:
            k = rng.randrange(key_range)
            if k not in live:
                db.insert("t", (k, 0, f"v{k}"))
                live.add(k)
        elif c < 0.75:
            k = rng.choice(sorted(live))
            db.delete("t", (k,))
            live.discard(k)
        else:
            k = rng.choice(sorted(live))
            db.modify("t", (k,), "a", rng.randrange(10**6))
    return live


class TestMaintenanceCycle:
    def test_updates_survive_propagation_and_checkpoint(self):
        db = fresh_db()
        random_workload(db, 1, 120)
        before = db.image_rows("t")

        db.manager.propagate_write_to_read("t")
        assert db.image_rows("t") == before

        random_workload(db, 2, 60)
        mid = db.image_rows("t")
        db.checkpoint("t")
        assert db.image_rows("t") == mid
        assert db.table("t").num_rows == len(mid)

        # post-checkpoint updates still work (fresh SIDs, fresh index)
        random_workload(db, 3, 60)
        final = db.image_rows("t")
        assert [r[0] for r in final] == sorted(r[0] for r in final)

    def test_threshold_driven_propagation(self):
        # "updates:100" gives the Write-PDT a quarter of the budget: it is
        # propagated down on the commit that takes it past 25 entries.
        db = fresh_db(checkpoint_policy="updates:100")
        state = db.manager.state_of("t")
        for i in range(60):
            db.insert("t", (100_000 + i, 0, "x"))
            assert state.write_pdt.count() <= 25
        assert state.read_pdt.count() > 0
        assert state.read_pdt.count() + state.write_pdt.count() == 60
        assert db.scheduler.stats.propagations == 2
        assert db.scheduler.stats.checkpoints == 0
        assert db.row_count("t") == 260

    def test_repeated_checkpoints(self):
        db = fresh_db(n=50)
        for round_no in range(4):
            random_workload(db, round_no + 10, 40)
            expected = db.image_rows("t")
            db.checkpoint("t")
            assert db.image_rows("t") == expected


class TestCrashRecovery:
    def test_recover_database_from_wal(self, tmp_path):
        with fresh_db(tmp_path=tmp_path) as db:
            random_workload(db, 5, 100)
            expected = db.image_rows("t")

        # "Crash": rebuild from the stable image + the persisted WAL.
        wal = WriteAheadLog.load(tmp_path / "wal.jsonl")
        with Database(compressed=True, block_rows=64) as revived:
            revived.create_table("t", schema3(),
                                 [(i * 10, i, f"s{i}") for i in range(200)])
            last_lsn = recover_database(revived, wal)
            assert last_lsn == len(wal)
            assert revived.image_rows("t") == expected

            # The revived database accepts new commits with advancing
            # LSNs.
            revived.insert("t", (999_999, 1, "post-recovery"))
            assert revived.manager.wal.records[-1].lsn == last_lsn + 1

    def test_recovery_refuses_dirty_state(self, tmp_path):
        with fresh_db(tmp_path=tmp_path) as db:
            db.insert("t", (5, 0, "x"))
            wal = WriteAheadLog.load(tmp_path / "wal.jsonl")
            with pytest.raises(RuntimeError, match="delta state"):
                recover_database(db, wal)  # db already has deltas

    def test_checkpoint_then_crash_loses_nothing(self, tmp_path):
        """After a checkpoint the WAL is empty; the stable image alone
        carries the state."""
        with fresh_db(tmp_path=tmp_path) as db:
            random_workload(db, 6, 50)
            expected = db.image_rows("t")
            db.checkpoint("t")
        wal = WriteAheadLog.load(tmp_path / "wal.jsonl")
        assert len(wal) == 0
        revived = Database(compressed=True)
        revived.create_table("t", schema3(), expected)
        recover_database(revived, wal)
        assert revived.image_rows("t") == expected


class TestRangeQueries:
    def test_range_query_matches_filtered_image(self):
        db = fresh_db()
        random_workload(db, 7, 150)
        image = db.image_rows("t")
        for low, high in [((300,), (900,)), (None, (500,)),
                          ((1500,), None), ((0,), (0,))]:
            rel = db.query_range("t", low=low, high=high)
            expected = [
                r for r in image
                if (low is None or (r[0],) >= low)
                and (high is None or (r[0],) <= high)
            ]
            assert rel.rows() == expected, (low, high)

    def test_range_query_scans_fewer_blocks_than_full(self):
        db = fresh_db(n=2000)
        db.insert("t", (5, 0, "new"))
        db.make_cold()
        db.io.reset()
        db.query_range("t", low=(100,), high=(200,), columns=["a"])
        narrow = db.io.bytes_read
        db.make_cold()
        db.io.reset()
        db.query("t", columns=["k", "a"])
        full = db.io.bytes_read
        assert narrow < full / 5

    def test_range_query_prefix_bounds_multi_key(self):
        schema = Schema.build(
            ("s", DataType.STRING), ("n", DataType.INT64),
            ("v", DataType.INT64),
            sort_key=("s", "n"),
        )
        db = Database(compressed=False, block_rows=4)
        rows = [(chr(97 + i // 5), i % 5, i) for i in range(25)]
        db.create_table("m", schema, rows)
        db.delete("m", ("b", 2))
        db.insert("m", ("b", 9, 99))
        rel = db.query_range("m", low=("b",), high=("b",))
        got = rel.rows()
        assert [r[:2] for r in got] == [
            ("b", 0), ("b", 1), ("b", 3), ("b", 4), ("b", 9)
        ]

    def test_range_query_respects_ghost_boundary(self):
        """The paper's motivating case: a deleted boundary tuple and a new
        insert just before it must stay inside the stale index range."""
        db = fresh_db(n=100)
        db.delete("t", (500,))          # ghost at a granule boundary area
        db.insert("t", (499, 7, "new"))  # lands before the ghost
        rel = db.query_range("t", low=(495,), high=(505,))
        assert (499, 7, "new") in rel.rows()
        assert all(r[0] != 500 for r in rel.rows())
