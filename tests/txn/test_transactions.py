"""Snapshot isolation, optimistic concurrency, and Algorithm 9 commit."""

import gc

import pytest

from repro import Database, DataType, Schema, TransactionConflict
from repro.txn import TransactionError, TxnStatus


def make_db(n=20, **kwargs):
    schema = Schema.build(
        ("k", DataType.INT64),
        ("a", DataType.INT64),
        ("b", DataType.STRING),
        sort_key=("k",),
    )
    db = Database(compressed=False, **kwargs)
    db.create_table("t", schema, [(i * 10, i, f"s{i}") for i in range(n)])
    return db


class TestBasicLifecycle:
    def test_commit_makes_updates_visible(self):
        db = make_db()
        txn = db.begin()
        txn.insert("t", (5, 1, "new"))
        txn.commit()
        assert (5, 1, "new") in db.image_rows("t")

    def test_abort_discards_updates(self):
        db = make_db()
        txn = db.begin()
        txn.insert("t", (5, 1, "new"))
        txn.abort()
        assert (5, 1, "new") not in db.image_rows("t")
        assert txn.status is TxnStatus.ABORTED

    def test_context_manager_commits(self):
        db = make_db()
        with db.transaction() as txn:
            txn.delete("t", (0,))
        assert db.row_count("t") == 19

    def test_context_manager_aborts_on_exception(self):
        db = make_db()
        with pytest.raises(RuntimeError, match="boom"):
            with db.transaction() as txn:
                txn.delete("t", (0,))
                raise RuntimeError("boom")
        assert db.row_count("t") == 20

    def test_operations_after_commit_rejected(self):
        db = make_db()
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("t", (5, 1, "x"))

    def test_read_only_commit_is_cheap(self):
        db = make_db()
        txn = db.begin()
        txn.scan("t")
        txn.commit()
        assert db.manager.stats.propagations == 0


class TestReadYourOwnWrites:
    def test_txn_sees_its_inserts(self):
        db = make_db()
        txn = db.begin()
        txn.insert("t", (5, 1, "mine"))
        assert (5, 1, "mine") in txn.image_rows("t")
        txn.abort()

    def test_txn_sees_its_modifies_and_deletes(self):
        db = make_db()
        txn = db.begin()
        txn.modify("t", (10,), "a", 999)
        txn.delete("t", (20,))
        rows = txn.image_rows("t")
        assert (10, 999, "s1") in rows
        assert all(r[0] != 20 for r in rows)
        txn.abort()

    def test_updates_chain_within_txn(self):
        db = make_db()
        txn = db.begin()
        txn.insert("t", (5, 1, "v1"))
        txn.modify("t", (5,), "b", "v2")
        txn.delete("t", (5,))
        txn.insert("t", (5, 2, "v3"))
        txn.commit()
        rows = [r for r in db.image_rows("t") if r[0] == 5]
        assert rows == [(5, 2, "v3")]


class TestSnapshotIsolation:
    def test_reader_does_not_see_concurrent_commit(self):
        db = make_db()
        reader = db.begin()
        writer = db.begin()
        writer.insert("t", (5, 1, "w"))
        writer.commit()
        assert (5, 1, "w") not in reader.image_rows("t")
        assert (5, 1, "w") in db.image_rows("t")
        reader.commit()

    def test_new_txn_sees_prior_commit(self):
        db = make_db()
        w = db.begin()
        w.insert("t", (5, 1, "w"))
        w.commit()
        later = db.begin()
        assert (5, 1, "w") in later.image_rows("t")
        later.abort()

    def test_snapshot_sharing_between_same_epoch_txns(self):
        db = make_db()
        db.insert("t", (5, 1, "seed"))  # non-empty write-PDT
        t1 = db.begin()
        t2 = db.begin()
        t1.image_rows("t")
        t2.image_rows("t")
        # Snapshots hold the Write layers by reference: same-epoch
        # transactions share the objects and nothing is copied at start.
        first, second = (t.pin.table("t").write_layers for t in (t1, t2))
        assert len(first) == len(second) == 1
        assert first[0] is second[0]
        assert db.manager.stats.snapshot_copies == 0
        t1.abort()
        t2.abort()

    def test_commit_stacks_a_layer_only_while_pinned(self):
        db = make_db()
        db.insert("t", (5, 1, "seed"))  # a two-entry Write layer
        db.insert("t", (15, 1, "seed"))
        state = db.manager.state_of("t")
        reader = db.begin()
        held = reader.pin.table("t").write_layers
        assert held == state.write_pdt.layers and len(held) == 1
        run = held[0].entries()
        # A commit while a pin holds the top layer stacks a fresh one
        # above it instead of writing the reader's object...
        db.insert("t", (6, 1, "later"))
        assert state.write_pdt.layers[0] is held[0]
        assert len(state.write_pdt.layers) == 2
        assert held[0].entries() == run
        assert (6, 1, "later") not in reader.image_rows("t")
        reader.abort()
        # ...and with no pin left, the next commit folds the layers in
        # place into the bottom one and writes that.
        db.insert("t", (7, 1, "unshared"))
        assert state.write_pdt.layers == held
        assert held[0].count() == 4
        assert db.manager.stats.snapshot_copies == 0


class TestConflicts:
    def test_write_write_conflict_aborts_second(self):
        db = make_db()
        a = db.begin()
        b = db.begin()
        a.modify("t", (10,), "a", 1)
        b.modify("t", (10,), "a", 2)
        a.commit()
        with pytest.raises(TransactionConflict):
            b.commit()
        assert b.status is TxnStatus.ABORTED
        assert db.manager.stats.conflicts == 1
        assert (10, 1, "s1") in db.image_rows("t")

    def test_disjoint_column_modifies_both_commit(self):
        db = make_db()
        a = db.begin()
        b = db.begin()
        a.modify("t", (10,), "a", 1)
        b.modify("t", (10,), "b", "bee")
        a.commit()
        b.commit()
        assert (10, 1, "bee") in db.image_rows("t")

    def test_insert_insert_same_key_conflicts(self):
        db = make_db()
        a = db.begin()
        b = db.begin()
        a.insert("t", (5, 1, "a"))
        b.insert("t", (5, 2, "b"))
        a.commit()
        with pytest.raises(TransactionConflict):
            b.commit()

    def test_delete_then_concurrent_modify_conflicts(self):
        db = make_db()
        a = db.begin()
        b = db.begin()
        a.delete("t", (10,))
        b.modify("t", (10,), "a", 7)
        a.commit()
        with pytest.raises(TransactionConflict):
            b.commit()

    def test_disjoint_tuples_no_conflict(self):
        db = make_db()
        a = db.begin()
        b = db.begin()
        a.modify("t", (10,), "a", 1)
        b.modify("t", (20,), "a", 2)
        a.commit()
        b.commit()
        rows = db.image_rows("t")
        assert (10, 1, "s1") in rows and (20, 2, "s2") in rows

    def test_paper_figure15_three_transactions(self):
        """a, b, c from Figure 15: b commits during a; c starts after b's
        commit and commits after a."""
        db = make_db()
        a = db.begin()
        b = db.begin()
        b.insert("t", (1, 0, "b"))
        b.commit()  # t2
        c = db.begin()
        a.insert("t", (2, 0, "a"))
        a.commit()  # t3: serialized against b
        c.insert("t", (3, 0, "c"))
        c.commit()  # t4: serialized against a (t' kept alive in TZ)
        keys = [r[0] for r in db.image_rows("t")]
        assert keys[:4] == [0, 1, 2, 3]
        assert db.manager.stats.conflicts == 0
        assert db.manager.tz_size() == 0  # all refcounts drained

    def test_tz_refcount_drains_on_abort_too(self):
        db = make_db()
        a = db.begin()
        b = db.begin()
        b.insert("t", (1, 0, "b"))
        b.commit()
        assert db.manager.tz_size() == 1
        a.abort()
        assert db.manager.tz_size() == 0

    def test_dropped_transaction_is_reaped_like_an_abort(self):
        """The manager holds running transactions weakly: one dropped
        unfinished releases its pin and its TZ references."""
        db = make_db()
        a = db.begin()
        a.insert("t", (1, 0, "a"))
        b = db.begin()
        b.insert("t", (2, 0, "b"))
        b.commit()  # its TZ record counts a
        assert db.manager.tz_size() == 1
        del a
        gc.collect()
        assert db.manager.pin_count() == 0
        assert db.manager.running_count() == 0
        assert db.manager.tz_size() == 0
        assert (1, 0, "a") not in db.image_rows("t")
        db.insert("t", (3, 0, "c"))  # commits no longer count a
        assert db.manager.tz_size() == 0


class TestWritePropagationAndCheckpoint:
    def test_propagate_write_to_read(self):
        db = make_db()
        db.insert("t", (5, 1, "x"))
        state = db.manager.state_of("t")
        assert not state.write_pdt.is_empty()
        db.manager.propagate_write_to_read("t")
        assert state.write_pdt.is_empty()
        assert not state.read_pdt.is_empty()
        assert (5, 1, "x") in db.image_rows("t")

    def test_propagate_runs_under_open_txn(self):
        db = make_db()
        db.insert("t", (5, 1, "x"))
        txn = db.begin()
        txn.modify("t", (10,), "a", 42)
        txn.insert("t", (15, 2, "y"))
        seen = txn.image_rows("t")
        db.insert("t", (25, 3, "z"))  # committed after the begin
        db.manager.propagate_write_to_read("t")
        assert db.manager.state_of("t").write_pdt.is_empty()
        assert txn.image_rows("t") == seen
        txn.commit()
        expected = sorted(
            [(i * 10, 42 if i == 1 else i, f"s{i}") for i in range(20)]
            + [(5, 1, "x"), (15, 2, "y"), (25, 3, "z")])
        assert db.image_rows("t") == expected

    def test_checkpoint_rebuilds_stable(self):
        db = make_db()
        db.insert("t", (5, 1, "x"))
        db.delete("t", (0,))
        db.manager.propagate_write_to_read("t")
        db.modify("t", (10,), "a", 77)
        expected = db.image_rows("t")
        db.checkpoint("t")
        state = db.manager.state_of("t")
        assert state.read_pdt.is_empty() and state.write_pdt.is_empty()
        assert db.image_rows("t") == expected
        assert state.stable.num_rows == len(expected)
        # SIDs renumbered: a fresh scan still works through storage.
        assert db.query("t", columns=["k"]).num_rows == len(expected)

    def test_checkpoint_truncates_wal(self):
        db = make_db()
        db.insert("t", (5, 1, "x"))
        assert len(db.manager.wal) == 1
        db.checkpoint("t")
        assert len(db.manager.wal) == 0


class TestQueryPdtLayer:
    def test_statement_does_not_see_own_updates(self):
        """Halloween protection: inside a query scope, reads reflect the
        pre-statement image while updates accumulate in the Query-PDT."""
        db = make_db()
        txn = db.begin()
        txn.begin_query()
        txn.insert("t", (5, 1, "q"))
        assert (5, 1, "q") not in txn.image_rows("t")
        txn.end_query()
        assert (5, 1, "q") in txn.image_rows("t")
        txn.commit()
        assert (5, 1, "q") in db.image_rows("t")

    def test_nested_query_scope_rejected(self):
        db = make_db()
        txn = db.begin()
        txn.begin_query()
        with pytest.raises(TransactionError):
            txn.begin_query()
        txn.end_query()
        txn.abort()

    def test_commit_closes_open_query_scope(self):
        db = make_db()
        txn = db.begin()
        txn.begin_query()
        txn.insert("t", (5, 1, "q"))
        txn.commit()
        assert (5, 1, "q") in db.image_rows("t")


class TestMultiTable:
    def test_cross_table_transaction(self):
        db = make_db()
        schema2 = Schema.build(
            ("name", DataType.STRING), ("v", DataType.INT64),
            sort_key=("name",),
        )
        db.create_table("u", schema2, [("x", 1)])
        with db.transaction() as txn:
            txn.insert("t", (5, 1, "t-row"))
            txn.insert("u", ("y", 2))
        assert (5, 1, "t-row") in db.image_rows("t")
        assert ("y", 2) in db.image_rows("u")

    def test_conflict_on_one_table_aborts_whole_txn(self):
        db = make_db()
        schema2 = Schema.build(
            ("name", DataType.STRING), ("v", DataType.INT64),
            sort_key=("name",),
        )
        db.create_table("u", schema2, [("x", 1)])
        a = db.begin()
        b = db.begin()
        a.modify("t", (10,), "a", 1)
        b.modify("t", (10,), "a", 2)
        b.insert("u", ("z", 9))
        a.commit()
        with pytest.raises(TransactionConflict):
            b.commit()
        assert ("z", 9) not in db.image_rows("u")
