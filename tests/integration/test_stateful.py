"""Stateful property test: the Database against a dictionary model.

Hypothesis drives arbitrary interleavings of inserts, deletes, modifies,
multi-op transactions, aborts, Write->Read propagation, and checkpoints
(also with a transaction open across them); after every step the merged
table image must equal the model exactly.
This is the widest-net test in the repository — it has no idea which
subsystem a divergence comes from, but it visits interactions none of the
targeted suites do.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import settings

from repro import Database, DataType, Schema

KEYS = st.integers(0, 120)
VALUES = st.integers(0, 10**6)


def schema3():
    return Schema.build(
        ("k", DataType.INT64),
        ("a", DataType.INT64),
        ("b", DataType.STRING),
        sort_key=("k",),
    )


class DatabaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = Database(compressed=False, block_rows=16)
        rows = [(k, 0, f"s{k}") for k in range(0, 60, 3)]
        self.db.create_table("t", schema3(), rows)
        self.model = {k: (k, 0, f"s{k}") for k in range(0, 60, 3)}

    # -- single-op transactions ------------------------------------------

    @rule(k=KEYS, a=VALUES)
    def insert(self, k, a):
        if k in self.model:
            return
        self.db.insert("t", (k, a, f"v{k}"))
        self.model[k] = (k, a, f"v{k}")

    @rule(k=KEYS)
    def delete(self, k):
        if k not in self.model:
            return
        self.db.delete("t", (k,))
        del self.model[k]

    @rule(k=KEYS, a=VALUES)
    def modify(self, k, a):
        if k not in self.model:
            return
        self.db.modify("t", (k,), "a", a)
        row = self.model[k]
        self.model[k] = (row[0], a, row[2])

    # -- multi-op transactions ------------------------------------------------

    @rule(k1=KEYS, k2=KEYS, a=VALUES)
    def txn_insert_then_modify(self, k1, k2, a):
        if k1 in self.model or k2 not in self.model or k1 == k2:
            return
        with self.db.transaction() as txn:
            txn.insert("t", (k1, 0, "txn"))
            txn.modify("t", (k2,), "a", a)
        self.model[k1] = (k1, 0, "txn")
        row = self.model[k2]
        self.model[k2] = (row[0], a, row[2])

    @rule(k=KEYS)
    def aborted_txn_leaves_no_trace(self, k):
        if k in self.model:
            return
        txn = self.db.begin()
        txn.insert("t", (k, 1, "ghost"))
        txn.abort()

    @rule(k=KEYS, a=VALUES)
    def txn_delete_reinsert(self, k, a):
        if k not in self.model:
            return
        with self.db.transaction() as txn:
            txn.delete("t", (k,))
            txn.insert("t", (k, a, "re"))
        self.model[k] = (k, a, "re")

    # -- maintenance -------------------------------------------------------------

    @rule()
    def propagate(self):
        self.db.manager.propagate_write_to_read("t")

    @rule()
    def checkpoint(self):
        self.db.checkpoint("t")

    @rule(k=KEYS, a=VALUES,
          maintenance=st.sampled_from(["propagate", "checkpoint"]))
    def txn_spans_maintenance(self, k, a, maintenance):
        txn = self.db.begin()
        if k in self.model:
            txn.modify("t", (k,), "a", a)
            row = (k, a, self.model[k][2])
        else:
            txn.insert("t", (k, a, "open"))
            row = (k, a, "open")
        if maintenance == "propagate":
            self.db.manager.propagate_write_to_read("t")
        else:
            self.db.checkpoint("t")
        txn.commit()
        self.model[k] = row

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def image_matches_model(self):
        got = self.db.image_rows("t")
        expected = [self.model[k] for k in sorted(self.model)]
        assert got == expected

    @invariant()
    def pdts_are_structurally_sound(self):
        state = self.db.manager.state_of("t")
        state.read_pdt.check_invariants()
        state.write_pdt.check_invariants()

    @invariant()
    def row_count_consistent(self):
        assert self.db.row_count("t") == len(self.model)


DatabaseMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestDatabaseStateful = DatabaseMachine.TestCase
