"""A running transaction is a snapshot pin plus private layers.

``TransactionManager.begin`` takes one ``pin_snapshot()`` and the
transaction reads every committed layer through it. The properties here
interleave up to three transactions with free-standing pins,
autocommits, ``propagate_write_to_read``, full checkpoints and range
checkpoints — maintenance runs while transactions are open, since pins
are the one way it protects a reader — on an unsharded table and on a
3-shard one. They check that every transaction's ``scan`` and
``image_rows`` equal ``db.query(pin=p)`` for a pin ``p`` taken right
after its ``begin``, plus its own operations replayed on a dict. ``p`` is
read and released at once, so nothing but the transaction's own pin
keeps its version alive. After every step the latest state equals a
serial oracle (autocommits and successful commits replayed in commit
order) and every physical table's PDTs pass ``check_invariants()``.
Fixed scripts pin the loan counters (``snapshot_copies``,
``snapshot_reuses``): which commits copy the master, which Propagates
copy a pinned Read-PDT, and how many loans pins take.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DataType, Schema
from repro.core.types import TransactionConflict
from repro.txn import checkpoint_table_range

SCHEMA = Schema.build(("k", DataType.INT64), ("a", DataType.INT64),
                      sort_key=("k",))
KEYS = 40  # stable rows hold the even keys below KEYS
SLOTS = 3
BLOCK_ROWS = 8


def make_db(sharded: bool) -> Database:
    db = Database(block_rows=BLOCK_ROWS)
    rows = [(k, k) for k in range(0, KEYS, 2)]
    if sharded:
        db.create_sharded_table("t", SCHEMA, rows, shards=3)
    else:
        db.create_table("t", SCHEMA, rows)
    return db


def as_model(rel) -> dict:
    return {int(k): int(a) for k, a in rel.rows()}


def replay(model: dict, ops) -> dict:
    model = dict(model)
    for op in ops:
        if op[0] == "ins":
            model[op[1][0]] = op[1][1]
        elif op[0] == "del":
            del model[op[1][0]]
        else:
            assert op[1][0] in model
            model[op[1][0]] = op[3]
    return model


def valid_op(model: dict, kind: str, key: int, value: int):
    """The op of ``kind`` at ``key`` that is valid against ``model``, or
    None: an insert needs a free key, a delete or modify a live one."""
    if kind == "ins":
        return None if key in model else ("ins", (key, value))
    if key not in model:
        return None
    return ("del", (key,)) if kind == "del" else ("mod", (key,), "a", value)


class Run:
    """One interleaving against one database and its dict oracle."""

    def __init__(self, sharded: bool):
        self.db = make_db(sharded)
        self.txns = [None] * SLOTS  # slot -> (txn, p's rows, own ops)
        self.pins = []
        self.oracle = as_model(self.db.query("t"))  # serial commit order

    def check_latest(self) -> None:
        assert as_model(self.db.query("t")) == self.oracle
        for name in self.db.manager.physical_names("t"):
            state = self.db.manager.state_of(name)
            state.read_pdt.check_invariants()
            state.write_pdt.check_invariants()

    def check(self, slot: int) -> None:
        txn, base, ops = self.txns[slot]
        want = sorted(replay(base, ops).items())
        assert txn.image_rows("t") == want
        assert [(int(k), int(a)) for k, a in txn.scan("t").rows()] == want
        assert txn.scan("t", columns=["k"]).rows() == \
            [(k,) for k, _ in want]

    def finish(self, slot: int, commit: bool) -> None:
        txn, _, ops = self.txns[slot]
        self.check(slot)
        if commit:
            try:
                txn.commit()
            except TransactionConflict:
                pass
            else:
                self.oracle = replay(self.oracle, ops)
        else:
            txn.abort()
        assert txn.pin.released
        self.txns[slot] = None

    def step(self, step) -> None:
        action, slot, kind, key, value = step
        db, entry = self.db, self.txns[slot]
        if action == "begin" and entry is None:
            txn = db.begin()
            with db.pin_snapshot() as pin:
                base = as_model(db.query("t", pin=pin))
            self.txns[slot] = (txn, base, [])
            self.check(slot)
        elif action == "op" and entry is not None:
            txn, base, ops = entry
            op = valid_op(replay(base, ops), kind, key, value)
            if op is None:
                return
            if slot == 0:  # one slot goes through the batch path
                txn.apply_batch("t", [op])
            elif op[0] == "ins":
                txn.insert("t", op[1])
            elif op[0] == "del":
                txn.delete("t", op[1])
            else:
                txn.modify("t", op[1], "a", value)
            ops.append(op)
            self.check(slot)
        elif action in ("commit", "abort") and entry is not None:
            self.finish(slot, action == "commit")
        elif action == "auto":
            op = valid_op(self.oracle, kind, key, value)
            if op is not None:
                db.apply_batch("t", [op])
                self.oracle = replay(self.oracle, [op])
        elif action == "pin":
            if len(self.pins) < 2:
                self.pins.append(db.pin_snapshot())
            else:
                self.pins.pop(0).release()
        elif action == "propagate":
            for name in db.manager.physical_names("t"):
                db.manager.propagate_write_to_read(name)
        elif action == "checkpoint":
            db.checkpoint("t")
        elif action == "range":  # 1-3 blocks from one of the first six
            lo = key % 6 * BLOCK_ROWS
            hi = lo + (1 + value % 3) * BLOCK_ROWS
            for name in db.manager.physical_names("t"):
                checkpoint_table_range(db.manager, name, lo, hi)

    def close(self) -> None:
        for slot in range(SLOTS):
            if self.txns[slot] is not None:
                self.finish(slot, commit=True)
        for pin in self.pins:
            pin.release()
        assert self.db.manager.pin_count() == 0
        assert self.db.manager.running_count() == 0
        self.db.close()


STEPS = st.lists(st.tuples(
    st.sampled_from(["begin", "begin", "op", "op", "op", "op", "commit",
                     "abort", "auto", "auto", "pin", "propagate",
                     "checkpoint", "range"]),
    st.integers(0, SLOTS - 1),
    st.sampled_from(["ins", "del", "mod"]),
    st.integers(-1, KEYS + 1),
    st.integers(0, 999),
), max_size=40)


@pytest.mark.parametrize("sharded", [False, True],
                         ids=["unsharded", "3-shard"])
@settings(max_examples=100, deadline=None)
@given(steps=STEPS)
def test_transactions_read_their_pin(sharded, steps):
    run = Run(sharded)
    try:
        for step in steps:
            run.step(step)
            run.check_latest()
    finally:
        run.close()


# -- loan counters on a fixed script ------------------------------------------

def loan_script(sharded: bool) -> tuple[int, int]:
    """``(snapshot_copies, snapshot_reuses)`` after a fixed mix of
    transactions, pins, autocommits and maintenance."""
    db = make_db(sharded)
    names = db.manager.physical_names("t")
    db.insert("t", (1, 1))
    a, b = db.begin(), db.begin()
    a.modify("t", (2,), "a", 7)
    db.insert("t", (3, 3))           # loaned to a and b: copy
    pin = db.pin_snapshot()
    a.commit()                       # loaned to the pin: copy
    b.insert("t", (39, 5))
    b.abort()
    db.delete("t", (4,))             # a's fresh master, unloaned
    pin.release()
    db.modify("t", (6,), "a", 9)     # nothing loaned: in place
    for name in names:
        db.manager.propagate_write_to_read(name)
    c = db.begin()                   # every Write-PDT empty: no loan
    db.insert("t", (7, 7))
    d = db.begin()
    c.modify("t", (8,), "a", 1)
    c.commit()                       # loaned to d: copy
    db.apply_batch("t", [("ins", (37, 1)), ("del", (36,)),
                         ("mod", (10,), "a", 2)])
    d.abort()
    db.query("t")                    # a read's pin loans too
    db.checkpoint("t")
    e = db.begin()
    e.insert("t", (9, 9))
    e.commit()
    stats = db.manager.stats
    db.close()
    return stats.snapshot_copies, stats.snapshot_reuses


@pytest.mark.parametrize("sharded, counters", [
    (False, (3, 9)),
    (True, (3, 10)),
], ids=["unsharded", "3-shard"])
def test_loan_counters_of_a_fixed_script(sharded, counters):
    assert loan_script(sharded) == counters


def test_propagate_counts_the_pinned_read_pdt_copy():
    """A Propagate under an open transaction copies the pinned Read-PDT
    and counts it in ``snapshot_copies``; with nothing open it copies
    nothing."""
    db = make_db(False)
    stats = db.manager.stats
    db.insert("t", (1, 1))
    before = stats.snapshot_copies
    db.manager.propagate_write_to_read("t")
    assert stats.snapshot_copies == before
    db.insert("t", (3, 3))
    txn = db.begin()
    db.manager.propagate_write_to_read("t")
    assert stats.snapshot_copies == before + 1
    txn.abort()
    db.insert("t", (5, 5))
    db.manager.propagate_write_to_read("t")
    assert stats.snapshot_copies == before + 1
    db.close()


# -- tables registered after begin --------------------------------------------

@pytest.mark.parametrize("sharded", [False, True],
                         ids=["unsharded", "3-shard"])
def test_table_created_after_begin_is_outside_the_pin(sharded):
    db = make_db(False)
    txn = db.begin()
    if sharded:
        db.create_sharded_table("late", SCHEMA, [(0, 0), (10, 1)], shards=3)
    else:
        db.create_table("late", SCHEMA, [(0, 0), (10, 1)])
    for touch in (
        lambda: txn.scan("late"),
        lambda: txn.image_rows("late"),
        lambda: txn.insert("late", (5, 5)),
        lambda: txn.delete("late", (0,)),
        lambda: txn.modify("late", (10,), "a", 2),
        lambda: txn.apply_batch("late", [("del", (0,))]),
    ):
        with pytest.raises(KeyError, match="not covered by this pin"):
            touch()
    assert txn.touched_tables() == []
    txn.insert("t", (1, 1))  # tables inside the pin stay usable
    txn.commit()
    assert (1, 1) in db.image_rows("t")
    later = db.begin()
    later.insert("late", (5, 5))
    later.commit()
    assert db.image_rows("late") == [(0, 0), (5, 5), (10, 1)]
    db.close()
