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
order) and every physical table's PDTs — each Write layer too — pass
``check_invariants()``. Pins are held across several commits, so Write
stacks grow several layers deep. Fixed scripts pin the Write stack's
depth after each commit and ``snapshot_copies``: which Propagates
rebuild a pinned Read-PDT.
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
            for layer in (state.read_pdt, *state.write_pdt.layers):
                layer.check_invariants()

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
            if len(self.pins) < 4:
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
                     "abort", "auto", "auto", "auto", "pin", "pin",
                     "propagate",
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


# -- Write layers on fixed scripts ---------------------------------------------

def layer_script(sharded: bool) -> tuple[int, list[int]]:
    """``(snapshot_copies, depths)`` after a fixed mix of transactions,
    pins, autocommits and maintenance; ``depths`` holds the deepest Write
    stack over the physical tables after each commit."""
    db = make_db(sharded)
    names = db.manager.physical_names("t")
    depths = []

    def depth():
        depths.append(max(len(db.manager.state_of(name).write_pdt.layers)
                          for name in names))

    db.insert("t", (1, 1))           # nothing pinned: one layer
    depth()
    a, b = db.begin(), db.begin()
    a.modify("t", (2,), "a", 7)
    db.insert("t", (3, 3))           # held by a and b: stacks, then the
    depth()                          # equal pair merges into a fresh one
    pin = db.pin_snapshot()
    a.commit()                       # held by the pin: stacks
    depth()
    b.insert("t", (39, 5))
    b.abort()
    db.delete("t", (4,))             # top unheld: in place; then the
    depth()                          # equal pair merges into a fresh one
    pin.release()
    db.modify("t", (6,), "a", 9)     # nothing held: in place
    depth()
    for name in names:
        db.manager.propagate_write_to_read(name)
    c = db.begin()                   # every Write stack empty
    db.insert("t", (7, 7))
    depth()
    d = db.begin()
    c.modify("t", (8,), "a", 1)
    c.commit()                       # held by d: stacks, merges fresh
    depth()
    db.apply_batch("t", [("ins", (37, 1)), ("del", (36,)),
                         ("mod", (10,), "a", 2)])
    depth()                          # d holds none of it: in place
    pin = db.pin_snapshot()
    db.insert("t", (11, 1))          # held by the pin: stacks
    depth()
    d.abort()
    db.query("t")                    # a read's pin is released at once
    db.checkpoint("t")               # under the pin: copies nothing
    pin.release()
    e = db.begin()
    e.insert("t", (9, 9))
    e.commit()
    depth()
    copies = db.manager.stats.snapshot_copies
    db.close()
    return copies, depths


@pytest.mark.parametrize("sharded", [False, True],
                         ids=["unsharded", "3-shard"])
def test_layer_depths_of_a_fixed_script(sharded):
    assert layer_script(sharded) == (0, [1, 1, 2, 1, 1, 1, 1, 1, 2, 1])


def test_pins_held_across_commits_stack_write_layers():
    """One-row commits, each under a fresh pin held to the end (a stream
    of readers): the Write stack grows to depth >= 3, every pin keeps its
    view, no layer is copied, and every layer passes its invariants."""
    db = make_db(False)
    state = db.manager.state_of("t")
    oracle = as_model(db.query("t"))
    pins, views, deepest = [], [], 0
    for i in range(24):
        op = ("ins", (2 * i + 1, i)) if i % 3 else ("mod", (i,), "a", -i)
        with db.pin_snapshot() as pin:  # a short read before each commit
            assert as_model(db.query("t", pin=pin)) == oracle
        pins.append(db.pin_snapshot())
        views.append(oracle)
        db.apply_batch("t", [op])
        oracle = replay(oracle, [op])
        deepest = max(deepest, len(state.write_pdt.layers))
        for layer in state.write_pdt.layers:
            layer.check_invariants()
        assert as_model(db.query("t")) == oracle
        for held, view in zip(pins, views):
            assert as_model(db.query("t", pin=held)) == view
    assert deepest >= 3
    assert db.manager.stats.snapshot_copies == 0
    for pin in pins:
        pin.release()
    db.insert("t", (99, 99))
    assert as_model(db.query("t")) == replay(oracle, [("ins", (99, 99))])
    db.close()


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
