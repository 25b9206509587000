"""Differential property tests: tree PDT vs flat PDT vs ShadowTable oracle.

Any divergence between the three implementations under arbitrary valid
workloads (scattered inserts / deletes / modifies, including re-inserts of
deleted keys and updates of PDT-resident tuples) is a bug in one of them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlatPDT, PDT, merge_rows
from repro.core.propagate import propagated

from .helpers import TableDriver, apply_random_ops, int_schema


def make_driver(n_stable=20, fanout=4):
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(n_stable)]
    tree = PDT(schema, fanout=fanout)
    flat = FlatPDT(schema)
    driver = TableDriver(schema, rows, [tree, flat])
    return driver, tree, flat, rows


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), n_ops=st.integers(1, 120))
def test_random_workload_all_models_agree(seed, n_ops):
    driver, tree, flat, rows = make_driver()
    apply_random_ops(driver, random.Random(seed), n_ops, key_range=400)
    expected = driver.expected_rows()
    assert merge_rows(rows, flat) == expected
    assert merge_rows(rows, tree) == expected
    flat.check_invariants()
    tree.check_invariants()
    assert tree.count() == flat.count()
    assert tree.total_delta() == flat.total_delta()
    assert [(e.sid, e.rid, e.kind) for e in tree.iter_entries()] == [
        (e.sid, e.rid, e.kind) for e in flat.iter_entries()
    ]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9), fanout=st.sampled_from([4, 5, 8, 16]))
def test_fanout_does_not_change_semantics(seed, fanout):
    driver, tree, flat, rows = make_driver(fanout=fanout)
    apply_random_ops(driver, random.Random(seed), 150, key_range=300)
    assert merge_rows(rows, tree) == driver.expected_rows()
    tree.check_invariants()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_empty_stable_table_workload(seed):
    schema = int_schema()
    tree, flat = PDT(schema, fanout=4), FlatPDT(schema)
    driver = TableDriver(schema, [], [tree, flat])
    apply_random_ops(driver, random.Random(seed), 80, key_range=60)
    expected = driver.expected_rows()
    assert merge_rows([], flat) == expected
    assert merge_rows([], tree) == expected
    tree.check_invariants()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_fresh_fold_is_deep_and_equal(seed):
    """A fold into a fresh PDT (how a pinned Write layer merges) leaves
    its input as it was."""
    driver, tree, flat, rows = make_driver()
    apply_random_ops(driver, random.Random(seed), 60, key_range=200)
    clone = propagated(tree, PDT(tree.schema))
    clone.check_invariants()
    assert merge_rows(rows, clone) == merge_rows(rows, tree)
    # Mutating the clone must not affect the original.
    keys = driver.live_keys()
    if keys:
        rid = 0
        clone.add_delete(rid, keys[0])
        assert merge_rows(rows, tree) == driver.expected_rows()


def test_heavy_workload_deep_tree():
    """Non-hypothesis smoke test with a large op count and tiny fanout to
    exercise multi-level splits, leaf unlinking, and chain spans."""
    driver, tree, flat, rows = make_driver(n_stable=50, fanout=4)
    apply_random_ops(driver, random.Random(12345), 1500, key_range=900)
    assert merge_rows(rows, tree) == driver.expected_rows()
    assert tree.depth() >= 3
    tree.check_invariants()
    flat.check_invariants()


class TestChainEdgeCases:
    def test_multi_column_modify_chain(self):
        driver, tree, flat, rows = make_driver()
        driver.modify((50,), "b", "x")
        driver.modify((50,), "a", 7)  # smaller col_no: goes first in chain
        driver.modify((50,), "b", "y")  # in-place overwrite
        expected = driver.expected_rows()
        assert merge_rows(rows, tree) == expected
        assert merge_rows(rows, flat) == expected
        assert tree.count() == 2  # one entry per modified column
        tree.check_invariants()

    def test_delete_of_modified_tuple_collapses_to_del(self):
        driver, tree, flat, rows = make_driver()
        driver.modify((50,), "a", 7)
        driver.modify((50,), "b", "x")
        driver.delete((50,))
        assert tree.count() == 1
        entry = next(tree.iter_entries())
        assert entry.is_delete
        assert merge_rows(rows, tree) == driver.expected_rows()
        tree.check_invariants()

    def test_delete_of_insert_leaves_no_trace(self):
        driver, tree, flat, rows = make_driver()
        driver.insert((55, 1, "new"))
        driver.modify((55,), "a", 2)
        driver.delete((55,))
        assert tree.count() == 0
        assert merge_rows(rows, tree) == rows
        tree.check_invariants()

    def test_reinsert_of_deleted_key(self):
        driver, tree, flat, rows = make_driver()
        driver.delete((50,))
        driver.insert((50, 99, "back"))
        expected = driver.expected_rows()
        assert merge_rows(rows, tree) == expected
        # DEL ghost and re-insert coexist: 2 entries.
        assert tree.count() == 2
        tree.check_invariants()

    def test_long_ghost_run_insert_positioning(self):
        driver, tree, flat, rows = make_driver()
        for k in (40, 50, 60, 70):
            driver.delete((k,))
        # Keys interleaving the ghost run must respect ghost order.
        for k in (45, 55, 65, 41, 71):
            driver.insert((k, 0, "g"))
        assert merge_rows(rows, tree) == driver.expected_rows()
        tree.check_invariants()

    def test_modify_then_delete_then_reinsert_then_modify(self):
        driver, tree, flat, rows = make_driver()
        driver.modify((30,), "a", 1)
        driver.delete((30,))
        driver.insert((30, 2, "again"))
        driver.modify((30,), "a", 3)
        assert merge_rows(rows, tree) == driver.expected_rows()
        tree.check_invariants()

    def test_inserts_at_table_end(self):
        driver, tree, flat, rows = make_driver(n_stable=3)
        driver.insert((1000, 0, "tail1"))
        driver.insert((2000, 0, "tail2"))
        assert merge_rows(rows, tree) == driver.expected_rows()
        last = list(tree.iter_entries())[-1]
        assert last.sid == 3  # == stable row count

    def test_delete_everything(self):
        driver, tree, flat, rows = make_driver(n_stable=8)
        for k in list(driver.live_keys()):
            driver.delete(k)
        assert merge_rows(rows, tree) == []
        assert tree.total_delta() == -8
        tree.check_invariants()


@pytest.mark.parametrize("impl", ["flat", "tree"])
def test_modify_of_ghost_rejected(impl):
    driver, tree, flat, rows = make_driver()
    pdt = tree if impl == "tree" else flat
    driver.delete((0,))
    # rid 0 now refers to the next live tuple (key 10); modifying it works
    # and targets key 10, not the ghost.
    pdt_entries_before = pdt.count()
    driver.modify((10,), "a", 123)
    assert pdt.count() == pdt_entries_before + 1
    image = merge_rows(rows, pdt)
    assert image[0] == (10, 123, "s1")
