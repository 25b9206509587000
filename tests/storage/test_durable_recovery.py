"""Kill-and-reopen recovery on the mmap backend — zero re-registration.

The in-process tests build a durable database, *abandon* it (losing every
RAM-resident PDT, exactly what a crash loses — the WAL is force-written
at commit and catalogs publish atomically), and reopen with
``Database.recover``; results must be byte-identical to the pre-crash
oracle. The subprocess test drives ``scripts/crash_matrix.py``, which
kills a child with ``os._exit`` at real WAL-record and
checkpoint-internal boundaries (including a live checkpoint in flight)
and verifies recovery after each.
"""

import os
import subprocess
import sys

import pytest

from repro import Database, DataType, Schema

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def schema():
    return Schema.build(("k", DataType.INT64), ("v", DataType.INT64),
                        ("tag", DataType.STRING), sort_key=("k",))


def build_db(root) -> tuple[Database, list, list]:
    db = Database(storage="mmap", storage_path=root, block_rows=32)
    db.create_table("inv", schema(),
                    [(i, i * 10, f"t{i % 3}") for i in range(100)])
    db.create_sharded_table(
        "orders", schema(), [(i, i, f"o{i % 5}") for i in range(150)],
        shards=3,
    )
    db.apply_batch("inv", [("ins", (900, 1, "new")), ("del", (5,)),
                           ("mod", (7,), "v", 777)])
    db.apply_batch("orders", [("ins", (901, 2, "x")), ("del", (30,)),
                              ("mod", (40,), "tag", "hot")])
    db.checkpoint("inv")
    db.apply_batch("inv", [("ins", (902, 3, "late"))])
    db.apply_batch("orders", [("mod", (60,), "v", 4)])
    return db, db.image_rows("inv"), sorted(db.image_rows("orders"))


def crash(db) -> None:
    """Abandon ``db`` the way a kill does: no close, no sync, PDTs gone.
    Only the WAL's append handle is closed; every acknowledged record
    was already flushed through it, so the files on disk are exactly
    what a killed process leaves behind."""
    db.manager.wal.close()


class TestKillAndReopen:
    def test_recover_is_byte_identical(self, tmp_path):
        db, inv, orders = build_db(tmp_path / "db")
        crash(db)
        del db

        revived = Database.recover(tmp_path / "db")
        try:
            assert revived.image_rows("inv") == inv
            assert sorted(revived.image_rows("orders")) == orders
            assert revived.query("inv", columns=["k", "v"]).num_rows == \
                len(inv)
            # sharded wrapper fully restored: routing + shard count
            assert revived.sharded("orders").num_shards == 3
            assert revived.query("orders", sk=(901,)).num_rows == 1
        finally:
            revived.close()

    def test_recovered_database_accepts_further_work(self, tmp_path):
        db, inv, _ = build_db(tmp_path / "db")
        crash(db)
        del db
        revived = Database.recover(tmp_path / "db")
        try:
            revived.apply_batch("inv", [("ins", (999, 9, "post"))])
            revived.checkpoint("inv")
            assert revived.row_count("inv") == len(inv) + 1
        finally:
            revived.close()
        # ... and survives a second crash after the post-recovery work
        again = Database.recover(tmp_path / "db")
        try:
            assert again.query("inv", sk=(999,)).num_rows == 1
        finally:
            again.close()

    def test_recover_reads_persisted_blocks_not_reregistered_images(
            self, tmp_path):
        db, inv, _ = build_db(tmp_path / "db")
        crash(db)
        del db
        revived = Database.recover(tmp_path / "db")
        try:
            # every stable image came from the backend's block files
            for name in revived.table_names():
                pool = revived.manager.state_of(name).stable.pool
                assert pool is not None
                assert pool.store.column_rows(name, "k") == \
                    revived.manager.state_of(name).stable.num_rows
        finally:
            revived.close()

    def test_torn_wal_tail_is_truncated_not_merged(self, tmp_path):
        """A kill mid-append leaves a partial WAL line; recovery must
        truncate it so the next fsynced commit starts a clean line —
        otherwise that commit merges with the fragment and is lost at
        the *second* recovery."""
        root = tmp_path / "db"
        db = Database(storage="mmap", storage_path=root, block_rows=32)
        db.create_table("inv", schema(),
                        [(i, i, "a") for i in range(10)])
        db.apply_batch("inv", [("ins", (100, 1, "pre"))])
        wal_path = db.manager.wal.path
        crash(db)
        del db
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write('{"lsn": 2, "tables": {"inv": [[0, ')  # torn append

        revived = Database.recover(root)
        assert revived.query("inv", sk=(100,)).num_rows == 1
        revived.apply_batch("inv", [("ins", (200, 2, "post"))])
        crash(revived)  # again, right after the acknowledged commit
        del revived

        again = Database.recover(root)
        try:
            assert again.query("inv", sk=(200,)).num_rows == 1
            assert again.query("inv", sk=(100,)).num_rows == 1
        finally:
            again.close()

    def test_fresh_dir_is_a_fresh_database(self, tmp_path):
        db = Database(storage="mmap", storage_path=tmp_path / "new")
        try:
            assert db.table_names() == []
            assert db.recovered_lsn == 0
        finally:
            db.close()

    def test_storage_path_alone_implies_mmap(self, tmp_path):
        """A caller naming an on-disk root wants durable storage —
        storage_path without storage= must not silently build a
        volatile store (and memory+path is a contradiction)."""
        db = Database(storage_path=tmp_path / "db")
        db.create_table("inv", schema(), [(1, 1, "a")])
        db.close()
        revived = Database.recover(tmp_path / "db")
        try:
            assert revived.query("inv").num_rows == 1
        finally:
            revived.close()
        with pytest.raises(ValueError):
            Database(storage="memory", storage_path=tmp_path / "other")


class TestCrashMatrix:
    """Real ``os._exit`` kills at WAL-record and checkpoint-internal
    boundaries (subprocess per point); the full matrix runs in CI's
    durability job."""

    @pytest.mark.parametrize("points", [
        "commit:2,ckpt-post-publish,range-pre-publish,split-pre-wal",
    ])
    def test_crash_points_recover(self, points):
        script = os.path.join(REPO_ROOT, "scripts", "crash_matrix.py")
        proc = subprocess.run(
            [sys.executable, script, "--points", points, "--rows", "120"],
            env={**os.environ, "PYTHONPATH":
                 os.path.join(REPO_ROOT, "src")},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, \
            f"crash matrix failed:\n{proc.stdout}\n{proc.stderr}"
