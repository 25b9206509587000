"""WAL durability: logging, file persistence, and replay recovery."""

import random

from repro import Database, DataType, PDT, Schema, merge_rows
from repro.txn import WriteAheadLog, replay_into


def make_db(tmp_path=None, n=15):
    schema = Schema.build(
        ("k", DataType.INT64),
        ("a", DataType.INT64),
        ("b", DataType.STRING),
        sort_key=("k",),
    )
    wal_path = None if tmp_path is None else tmp_path / "wal.jsonl"
    db = Database(compressed=False, wal_path=wal_path)
    db.create_table("t", schema, [(i * 10, i, f"s{i}") for i in range(n)])
    return db, schema


class TestWalLogging:
    def test_each_commit_is_one_record(self):
        db, _ = make_db()
        db.insert("t", (5, 1, "x"))
        db.delete("t", (0,))
        assert len(db.manager.wal) == 2
        assert db.manager.wal.records[0].lsn == 1
        assert db.manager.wal.records[1].lsn == 2

    def test_aborted_txns_not_logged(self):
        db, _ = make_db()
        txn = db.begin()
        txn.insert("t", (5, 1, "x"))
        txn.abort()
        assert len(db.manager.wal) == 0

    def test_record_payloads(self):
        db, _ = make_db()
        with db.transaction() as txn:
            txn.insert("t", (5, 1, "x"))
            txn.modify("t", (10,), "a", 99)
        (record,) = db.manager.wal.records
        entries = record.tables["t"]
        kinds = sorted(kind for _, kind, _ in entries)
        assert kinds == [-1, 1]  # one INS, one MOD of column 1


class TestReplay:
    def replay_check(self, db, schema, stable_rows):
        fresh = {"t": PDT(schema)}
        last_lsn = replay_into(db.manager.wal, fresh)
        assert last_lsn == len(db.manager.wal)
        assert merge_rows(stable_rows, fresh["t"]) == db.image_rows("t")

    def test_replay_reconstructs_image(self):
        db, schema = make_db()
        stable_rows = db.table("t").rows()
        db.insert("t", (5, 1, "x"))
        db.modify("t", (10,), "b", "mod")
        db.delete("t", (20,))
        db.insert("t", (21, 2, "y"))
        self.replay_check(db, schema, stable_rows)

    def test_replay_random_history(self):
        db, schema = make_db(n=30)
        stable_rows = db.table("t").rows()
        rng = random.Random(99)
        live = {r[0] for r in stable_rows}
        for _ in range(60):
            c = rng.random()
            if c < 0.5 or not live:
                k = rng.randrange(500)
                if k not in live:
                    db.insert("t", (k, 0, f"v{k}"))
                    live.add(k)
            elif c < 0.75:
                k = rng.choice(sorted(live))
                db.delete("t", (k,))
                live.discard(k)
            else:
                k = rng.choice(sorted(live))
                db.modify("t", (k,), "a", rng.randrange(1000))
        self.replay_check(db, schema, stable_rows)

    def test_replay_multi_statement_transactions(self):
        db, schema = make_db()
        stable_rows = db.table("t").rows()
        with db.transaction() as txn:
            txn.insert("t", (5, 1, "x"))
            txn.modify("t", (5,), "a", 2)
        with db.transaction() as txn:
            txn.delete("t", (5,))
        self.replay_check(db, schema, stable_rows)


class TestFilePersistence:
    def test_roundtrip_via_file(self, tmp_path):
        db, schema = make_db(tmp_path)
        with db:
            stable_rows = db.table("t").rows()
            db.insert("t", (5, 1, "x"))
            db.modify("t", (10,), "b", "mod")

        loaded = WriteAheadLog.load(tmp_path / "wal.jsonl")
        assert len(loaded) == 2
        fresh = {"t": PDT(schema)}
        replay_into(loaded, fresh)
        assert merge_rows(stable_rows, fresh["t"]) == db.image_rows("t")

    def test_truncate_clears_file(self, tmp_path):
        db, _ = make_db(tmp_path)
        with db:
            db.insert("t", (5, 1, "x"))
            db.checkpoint("t")
        loaded = WriteAheadLog.load(tmp_path / "wal.jsonl")
        assert len(loaded) == 0


class TestBatchedCrashRecovery:
    """Batched WAL records: a commit batch is one record, and replay is
    atomic per record — killing replay at *every* record boundary must
    recover exactly the image after that many whole transactions, never a
    partially applied batch."""

    def run_workload(self, db, seed=7, n_commits=12):
        """Random mix of bulk batches and scalar commits; returns the
        expected image snapshot after each commit."""
        rng = random.Random(seed)
        live = {r[0] for r in db.image_rows("t")}
        snapshots = [db.image_rows("t")]
        for _ in range(n_commits):
            if rng.random() < 0.6:
                ops, touched = [], set()
                for _ in range(rng.randrange(2, 10)):
                    k = rng.randrange(500)
                    if k in touched:
                        continue
                    touched.add(k)
                    if k not in live:
                        ops.append(("ins", (k, 0, f"v{k}")))
                        live.add(k)
                    elif rng.random() < 0.5:
                        ops.append(("del", (k,)))
                        live.discard(k)
                    else:
                        ops.append(("mod", (k,), "a", rng.randrange(1000)))
                db.apply_batch("t", ops)
            else:
                k = rng.randrange(500)
                if k not in live:
                    db.insert("t", (k, 1, f"s{k}"))
                    live.add(k)
                else:
                    db.delete("t", (k,))
                    live.discard(k)
            snapshots.append(db.image_rows("t"))
        return snapshots

    def test_replay_prefix_at_every_record_boundary(self):
        db, schema = make_db(n=25)
        stable_rows = db.table("t").rows()
        snapshots = self.run_workload(db)
        assert len(db.manager.wal) == len(snapshots) - 1
        for k in range(len(db.manager.wal) + 1):
            fresh = {"t": PDT(schema)}
            replay_into(db.manager.wal, fresh, max_records=k)
            assert merge_rows(stable_rows, fresh["t"]) == snapshots[k], \
                f"crash after record {k} is not transaction-consistent"

    def test_recover_database_prefix(self):
        """Manager-level recovery with a record cutoff resumes the LSN
        clock at the crash point and carries the prefix image."""
        from repro import Database, DataType, Schema
        from repro.txn import recover_database

        db, schema = make_db(n=25)
        initial = db.table("t").rows()
        snapshots = self.run_workload(db, seed=11, n_commits=6)
        cut = 3
        fresh_db = Database(compressed=False)
        fresh_schema = Schema.build(
            ("k", DataType.INT64), ("a", DataType.INT64),
            ("b", DataType.STRING), sort_key=("k",),
        )
        fresh_db.create_table("t", fresh_schema, initial)
        last_lsn = recover_database(fresh_db, db.manager.wal,
                                    max_records=cut)
        assert last_lsn == db.manager.wal.records[cut - 1].lsn
        assert fresh_db.image_rows("t") == snapshots[cut]
        # The recovered manager keeps committing from the crash LSN.
        fresh_db.insert("t", (901, 1, "post"))
        assert fresh_db.manager.wal.records[-1].lsn == last_lsn + 1

    def test_bulk_batch_is_single_record(self):
        db, _ = make_db()
        db.apply_batch("t", [("ins", (5, 1, "x")), ("del", (20,)),
                             ("mod", (30,), "a", 9)])
        assert len(db.manager.wal) == 1
        (record,) = db.manager.wal.records
        assert sorted(kind for _, kind, _ in record.tables["t"]) \
            == [-2, -1, 1]


class TestCheckpointRebase:
    """Stable-image rewrites must rebase the WAL so recovery replays only
    the still-live deltas — never ones already folded into the image."""

    def replay_after_crash(self, db, schema):
        """Replay the current WAL onto the current stable image (the state
        a crash right now would recover from)."""
        stable_rows = db.table("t").rows()
        fresh = {name: PDT(db.table(name).schema)
                 for name in db.table_names()}
        replay_into(db.manager.wal, fresh)
        return merge_rows(stable_rows, fresh["t"])

    def test_incremental_checkpoint_survives_crash(self):
        from repro.txn import checkpoint_table_range

        db, schema = make_db(n=40)
        for i in range(4):
            db.delete("t", (i * 10,))          # deltas in block-0 area
        db.modify("t", (300,), "a", 777)       # delta far after the range
        db.insert("t", (305, 5, "late"))
        checkpoint_table_range(db.manager, "t", 0, 8)
        # Post-checkpoint commits extend the rebased log.
        db.modify("t", (310,), "b", "post")
        assert self.replay_after_crash(db, schema) == db.image_rows("t")

    def test_full_checkpoint_of_one_table_keeps_other_tables_wal(self):
        db, schema = make_db(n=10)
        other = Schema.build(("k", DataType.INT64), ("a", DataType.INT64),
                             sort_key=("k",))
        db.create_table("u", other, [(i, i) for i in range(5)])
        db.insert("t", (5, 1, "x"))
        db.modify("u", (2,), "a", 99)
        db.checkpoint("t")                     # u still dirty: WAL survives
        # t's share of the log is gone, u's remains.
        assert all("t" not in r.tables for r in db.manager.wal.records)
        assert any("u" in r.tables for r in db.manager.wal.records)
        assert self.replay_after_crash(db, schema) == db.image_rows("t")
        fresh = {"t": PDT(schema), "u": PDT(other)}
        replay_into(db.manager.wal, fresh)
        assert merge_rows(db.table("u").rows(), fresh["u"]) \
            == db.image_rows("u")

    def test_rebase_persists_to_wal_file(self, tmp_path):
        from repro.txn import checkpoint_table_range

        db, schema = make_db(tmp_path, n=40)
        for i in range(4):
            db.modify("t", (i * 10,), "a", 1)
        db.modify("t", (300,), "a", 2)
        checkpoint_table_range(db.manager, "t", 0, 8)
        loaded = WriteAheadLog.load(tmp_path / "wal.jsonl")
        fresh = {"t": PDT(schema)}
        replay_into(loaded, fresh)
        assert merge_rows(db.table("t").rows(), fresh["t"]) \
            == db.image_rows("t")
        # Only the surviving delta is logged, not the folded history.
        assert sum(len(r.tables.get("t", ())) for r in loaded.records) == 1
