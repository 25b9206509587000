"""One name resolution: a table is the list of physical tables behind it.

The same rows and updates are loaded as an unsharded table, a 1-shard
table and a 4-shard table, and every ``Database`` and ``Transaction``
entry point that takes a table name must give the same answer on all
three (the read forms are covered by ``test_read_path.py``). Around it:
unknown names raise the resolver's ``KeyError`` on every entry point, and
a create whose name is taken is rejected before it writes a block.
"""

import numpy as np
import pytest

from repro import Database, DataType, Schema
from repro.db.update_processor import DuplicateKey, KeyNotFound

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("a", DataType.INT64), ("b", DataType.STRING),
    sort_key=("k",),
)
ROWS = [(k, k * 10, f"s{k}") for k in range(0, 400, 2)]
OPS = (
    [("ins", (k, -k, f"i{k}")) for k in (1, 151, 255, 399, 401)]
    + [("del", (k,)) for k in (0, 100, 202, 398)]
    + [("mod", (k,), "a", 7) for k in (50, 150, 250, 350)]
)
LAYOUTS = ["unsharded", "1-shard", "4-shard"]


def replay(ops, rows=ROWS) -> list[tuple]:
    image = {r[0]: r for r in rows}
    for op in ops:
        if op[0] == "ins":
            image[op[1][0]] = op[1]
        elif op[0] == "del":
            del image[op[1][0]]
        else:
            row = list(image[op[1][0]])
            row[SCHEMA.column_names.index(op[2])] = op[3]
            image[op[1][0]] = tuple(row)
    return [image[k] for k in sorted(image)]


def build(layout: str, **kwargs) -> Database:
    db = Database(compressed=False, block_rows=32, **kwargs)
    if layout == "unsharded":
        db.create_table("t", SCHEMA, ROWS)
    elif layout == "1-shard":
        db.create_sharded_table("t", SCHEMA, ROWS, shards=1)
    else:
        db.create_sharded_table("t", SCHEMA, ROWS,
                                boundaries=[(100,), (200,), (300,)])
    shards = {"unsharded": 1, "1-shard": 1, "4-shard": 4}[layout]
    assert len(db.manager.physical_names("t")) == shards
    return db


@pytest.fixture(params=LAYOUTS)
def db(request):
    db = build(request.param)
    yield db
    db.close()


# -- the unified Database entry points -----------------------------------------


def test_counts_and_images_agree_across_layouts():
    expected = replay(OPS)
    seen = {}
    for layout in LAYOUTS:
        with build(layout) as db:
            db.apply_batch("t", OPS)
            assert db.image_rows("t") == expected
            assert db.row_count("t") == len(expected)
            assert db.query("t").rows() == expected
            seen[layout] = db.delta_bytes("t")
    assert seen["unsharded"] == seen["1-shard"] > 0
    # Leaf entries cost the same on any layout; only inner-node slots
    # may differ with the shard count.
    assert seen["4-shard"] >= 16 * len(OPS)


def test_checkpoint_folds_every_physical_table(db):
    db.apply_batch("t", OPS)
    db.checkpoint("t")
    assert db.delta_bytes("t") == 0
    for name in db.manager.physical_names("t"):
        state = db.manager.state_of(name)
        assert state.read_pdt.is_empty() and state.write_pdt.is_empty()
    assert db.query("t").rows() == replay(OPS)
    assert db.row_count("t") == len(replay(OPS))


def test_warm_then_cold_reads(db):
    db.make_cold()
    db.warm("t")
    before = db.io.snapshot()
    db.query("t")
    assert db.io.since(before).bytes_read == 0
    db.make_cold()
    before = db.io.snapshot()
    db.query("t")
    read = db.io.since(before)
    names = set(db.manager.physical_names("t"))
    assert read.bytes_read > 0
    assert {table for table, _ in read.bytes_by_column} == names


def test_cold_read_volume_matches_unsharded():
    volumes = []
    for layout in ("unsharded", "1-shard"):
        with build(layout) as db:
            db.make_cold()
            before = db.io.snapshot()
            db.query("t", columns=["k", "a"])
            volumes.append(db.io.since(before).bytes_read)
    assert volumes[0] == volumes[1] > 0


def test_physical_for_routes_by_key(db):
    names = db.manager.physical_names("t")
    owners = [db.physical_for("t", (k,)) for k in (0, 150, 250, 399)]
    assert set(owners) <= set(names)
    assert owners == sorted(owners, key=names.index)
    if len(names) == 4:
        assert owners == names


# -- transactions --------------------------------------------------------------


def test_transaction_entry_points_agree_across_layouts():
    expected = replay(OPS + [("ins", (3, 3, "x")), ("del", (4,)),
                             ("mod", (6,), "b", "m")])
    for layout in LAYOUTS:
        with build(layout) as db:
            txn = db.begin()
            assert txn.apply_batch("t", OPS) == len(OPS)
            txn.insert("t", (3, 3, "x"))
            txn.delete("t", (4,))
            txn.modify("t", (6,), "b", "m")
            assert txn.image_rows("t") == expected
            assert txn.scan("t").rows() == expected
            assert txn.scan("t", columns=["a"]).rows() \
                == [(r[1],) for r in expected]
            assert db.image_rows("t") == ROWS  # not committed yet
            txn.commit()
            assert db.image_rows("t") == expected
            assert db.query("t").rows() == expected


@pytest.mark.parametrize("bad", [("del", (3,)), ("mod", (397,), "a", 1),
                                 ("ins", (396, 0, "dup"))],
                         ids=["missing-del", "missing-mod", "dup-ins"])
def test_failing_batch_lands_nowhere(db, bad):
    """Every part of a batch is validated before any part lands: the
    good ops before ``bad`` reach every shard's range, so a partial
    apply would leave Trans-PDT entries behind."""
    wal_records = len(db.manager.wal)
    txn = db.begin()
    with pytest.raises((KeyNotFound, DuplicateKey)):
        txn.apply_batch("t", OPS + [bad])
    assert txn.touched_tables() == []
    for name in db.manager.physical_names("t"):
        assert txn._trans.get(name) is None or txn._trans[name].is_empty()
    txn.commit()
    with pytest.raises((KeyNotFound, DuplicateKey)):
        db.apply_batch("t", OPS + [bad])
    assert len(db.manager.wal) == wal_records
    assert db.image_rows("t") == ROWS


# -- unknown names -------------------------------------------------------------

ENTRY_POINTS = {
    "query": lambda db: db.query("nope"),
    "query-sk": lambda db: db.query("nope", sk=(1,)),
    "query_range": lambda db: db.query_range("nope", (0,), (9,)),
    "query_point": lambda db: db.query_point("nope", (1,)),
    "insert": lambda db: db.insert("nope", (1, 1, "x")),
    "delete": lambda db: db.delete("nope", (0,)),
    "modify": lambda db: db.modify("nope", (0,), "a", 1),
    "apply_batch": lambda db: db.apply_batch("nope", [("del", (0,))]),
    "insert_many": lambda db: db.insert_many("nope", [(1, 1, "x")]),
    "image_rows": lambda db: db.image_rows("nope"),
    "row_count": lambda db: db.row_count("nope"),
    "delta_bytes": lambda db: db.delta_bytes("nope"),
    "checkpoint": lambda db: db.checkpoint("nope"),
    "drain_maintenance": lambda db: db.drain_maintenance("nope"),
    "warm": lambda db: db.warm("nope"),
    "physical_for": lambda db: db.physical_for("nope", (1,)),
    "table": lambda db: db.table("nope"),
    "txn.scan": lambda db: db.begin().scan("nope"),
    "txn.image_rows": lambda db: db.begin().image_rows("nope"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_unknown_name_raises(db, entry):
    with pytest.raises(KeyError, match="unknown table 'nope'"):
        ENTRY_POINTS[entry](db)
    assert db.image_rows("t") == ROWS


def test_explicit_pin_keeps_its_message(db):
    with db.pin_snapshot() as pin:
        with pytest.raises(KeyError, match="not covered by this pin"):
            db.query("nope", pin=pin)


# -- DDL: a taken name is rejected before any block is written ---------------


def _arrays(rows):
    return {
        "k": np.array([r[0] for r in rows], dtype=np.int64),
        "a": np.array([r[1] for r in rows], dtype=np.int64),
        "b": np.array([r[2] for r in rows], dtype=object),
    }


OTHER = [(k, -1, "rejected") for k in range(1, 50, 2)]
REJECTED_CREATES = {
    "create_table": lambda db: db.create_table("t", SCHEMA, OTHER),
    "create_table_from_arrays": lambda db: db.create_table_from_arrays(
        "t", SCHEMA, _arrays(OTHER)),
    "create_table-over-shard": lambda db: db.create_table(
        "u__s0", SCHEMA, OTHER),
    "create_table-in-shard-namespace": lambda db: db.create_table(
        "u__s2", SCHEMA, OTHER),
    "create_sharded_table-over-shard-name": lambda db: (
        db.create_sharded_table("v", SCHEMA, OTHER, shards=2)),
    "create_sharded_table_from_arrays-over-plain": lambda db: (
        db.create_sharded_table_from_arrays("t", SCHEMA, _arrays(OTHER))),
}


UNTOUCHED = {"t": ROWS, "u": ROWS[:60], "v__s1": ROWS[60:90]}


def _assert_untouched(db) -> None:
    for name, rows in UNTOUCHED.items():
        assert db.image_rows(name) == rows
        assert db.row_count(name) == len(rows)
        assert db.query(name).rows() == rows
    assert sorted(db.table_names()) == ["t", "u__s0", "u__s1", "v__s1"]


@pytest.mark.parametrize("create", REJECTED_CREATES)
def test_rejected_create_writes_nothing(storage_backend, create):
    db = Database(compressed=False, block_rows=16, storage=storage_backend)
    db.create_table("t", SCHEMA, ROWS)
    db.create_sharded_table("u", SCHEMA, ROWS[:60], shards=2)
    db.create_table("v__s1", SCHEMA, ROWS[60:90])
    with pytest.raises(ValueError, match="already exists"):
        REJECTED_CREATES[create](db)
    _assert_untouched(db)
    db.make_cold()
    _assert_untouched(db)
    if storage_backend == "memory":
        db.close()
        return
    db.close()
    root = storage_backend.split(":", 1)[1]
    with Database.recover(root, compressed=False, block_rows=16) as again:
        _assert_untouched(again)
