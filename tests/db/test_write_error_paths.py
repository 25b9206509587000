"""A rejected single-row write leaves no trace.

Every single-row write resolves its key through
``resolve_batch_positions`` before it touches a PDT, so a duplicate
insert, a delete/modify of a missing key and a modify of a sort-key
column must each raise their typed error with the Trans-PDT still empty
and the WAL untouched — through the facade, through an explicit
transaction and through the service — and the next valid commit must
succeed, survive a reopen, and leave the image equal to a dict model.
"""

import os

import pytest

from repro import Database, DataType, Schema
from repro.db import DuplicateKey, KeyNotFound

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("a", DataType.INT64), ("b", DataType.STRING),
    sort_key=("k",),
)

REJECTED = [
    pytest.param(("ins", (40, 0, "dup")), DuplicateKey, id="duplicate-insert"),
    pytest.param(("ins", (15, 0, "dup")), DuplicateKey,
                 id="duplicate-of-pdt-insert"),
    pytest.param(("del", (41,)), KeyNotFound, id="delete-missing"),
    pytest.param(("del", (70,)), KeyNotFound, id="delete-ghost"),
    pytest.param(("mod", (999,), "a", 1), KeyNotFound, id="modify-missing"),
    pytest.param(("mod", (40,), "k", 41), ValueError, id="modify-sort-key"),
]


def apply_to_model(model, op):
    if op[0] == "ins":
        model[op[1][0]] = tuple(op[1])
    elif op[0] == "del":
        del model[op[1][0]]
    else:
        row = list(model[op[1][0]])
        row[SCHEMA.column_index(op[2])] = op[3]
        model[op[1][0]] = tuple(row)


def open_db(root):
    """A durable table with deltas already in its Write-PDT: an insert, a
    ghost and a modify."""
    db = Database(storage="mmap", storage_path=str(root))
    rows = [(i * 10, i, f"s{i}") for i in range(20)]
    db.create_table("t", SCHEMA, rows)
    model = {r[0]: r for r in rows}
    for op in (("ins", (15, 1, "new")), ("del", (70,)),
               ("mod", (30,), "a", 77)):
        submit(db, op)
        apply_to_model(model, op)
    return db, model


def submit(target, op):
    """One op on a ``Database`` (autocommit) or an open ``Transaction``:
    both spell single-row writes the same way."""
    if op[0] == "ins":
        target.insert("t", op[1])
    elif op[0] == "del":
        target.delete("t", op[1])
    else:
        target.modify("t", op[1], op[2], op[3])


def wal_bytes(db):
    root = os.path.dirname(db.manager.wal.path)
    return sum(os.path.getsize(os.path.join(root, name))
               for name in os.listdir(root)
               if name.startswith(os.path.basename(db.manager.wal.path)))


def snapshot(db):
    """What a rejected write must not move: WAL records and bytes on
    disk, and the committed delta layers."""
    state = db.manager.state_of("t")
    return (len(db.manager.wal), wal_bytes(db),
            state.write_pdt.count(), state.read_pdt.count())


def finish(db, root, model, commit_good):
    """The valid commit after the rejection, then reopen."""
    good = ("ins", (41, 5, "ok"))
    records = len(db.manager.wal)
    commit_good(good)
    apply_to_model(model, good)
    assert len(db.manager.wal) == records + 1
    expected = [model[k] for k in sorted(model)]
    assert db.query("t").rows() == expected
    db.close()
    reopened = Database.recover(str(root))
    try:
        assert reopened.query("t").rows() == expected
        assert reopened.image_rows("t") == expected
    finally:
        reopened.close()


@pytest.mark.parametrize("op, error", REJECTED)
class TestRejectedWrites:
    def test_facade(self, tmp_path, op, error):
        db, model = open_db(tmp_path)
        before = snapshot(db)
        with pytest.raises(error):
            submit(db, op)
        assert snapshot(db) == before
        assert db.manager.running_count() == 0
        finish(db, tmp_path, model, lambda good: submit(db, good))

    def test_explicit_transaction(self, tmp_path, op, error):
        """The transaction stays usable: its Trans-PDT is empty after the
        rejection and a valid op in the same transaction commits."""
        db, model = open_db(tmp_path)
        before = snapshot(db)
        txn = db.begin()
        with pytest.raises(error):
            submit(txn, op)
        assert txn.touched_tables() == []
        assert all(pdt.is_empty() for pdt in txn._trans.values())

        def commit_in_same_txn(good):
            submit(txn, good)
            txn.commit()

        assert snapshot(db) == before
        finish(db, tmp_path, model, commit_in_same_txn)

    def test_service(self, tmp_path, op, error):
        db, model = open_db(tmp_path)
        svc = db.serve(workers=2)
        before = snapshot(db)
        with pytest.raises(error):
            svc.submit_update("t", op).result(timeout=30)
        assert snapshot(db) == before
        assert db.manager.running_count() == 0
        finish(db, tmp_path, model,
               lambda good: svc.submit_update("t", good).result(timeout=30))
