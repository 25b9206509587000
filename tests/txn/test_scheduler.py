"""Checkpoint scheduler: policy triggers, execution, incremental folds."""

import random

import pytest

from repro import Database, DataType, Schema
from repro.txn import (
    Decision,
    HotRangePolicy,
    MaintenanceAction,
    NeverPolicy,
    TableLoad,
    UpdateCountPolicy,
    checkpoint_table_range,
    policy_from_spec,
)
from repro.txn.transaction import TransactionError


def load(read=0, write=0, delta_bytes=0, hist=None, stable_rows=100_000,
         block_rows=4096):
    if hist and not (read or write):
        read = sum(hist.values())  # keep counts consistent with the hist
    return TableLoad(
        table="t",
        stable_rows=stable_rows,
        block_rows=block_rows,
        read_entries=read,
        write_entries=write,
        delta_bytes=delta_bytes,
        commits_since_maintenance=1,
        block_histogram=hist or {},
    )


def test_table_load_lazy_histogram_resolved_once():
    calls = []

    def hist():
        calls.append(1)
        return {0: 5}

    tl = TableLoad(table="t", stable_rows=10, block_rows=4, read_entries=5,
                   write_entries=0, delta_bytes=80,
                   commits_since_maintenance=1, block_histogram=hist)
    assert tl.histogram() == {0: 5}
    assert tl.histogram() == {0: 5}
    assert len(calls) == 1  # cached after first resolution


def schema():
    return Schema.build(
        ("k", DataType.INT64), ("v", DataType.INT64), sort_key=("k",)
    )


def fresh_db(policy=None, n_rows=10_000, block_rows=1024):
    db = Database(block_rows=block_rows, checkpoint_policy=policy)
    db.create_table("t", schema(), [(i * 2, i) for i in range(n_rows)])
    return db


# -- policy trigger conditions ------------------------------------------------


def test_never_policy_never_fires():
    assert NeverPolicy().decide(load(read=10**6, delta_bytes=10**9)).is_none


def test_update_count_triggers_on_total_entries():
    policy = UpdateCountPolicy(max_entries=100)
    assert policy.decide(load(read=80, write=20)).is_none  # exactly at cap
    decision = policy.decide(load(read=81, write=20))
    assert decision.action is MaintenanceAction.CHECKPOINT


def test_update_count_propagates_on_write_share():
    policy = UpdateCountPolicy(max_entries=100, max_write_entries=10)
    decision = policy.decide(load(read=0, write=11))
    assert decision.action is MaintenanceAction.PROPAGATE


def test_hot_range_quiet_below_min_entries():
    policy = HotRangePolicy(k=2, min_entries=50)
    assert policy.decide(load(hist={0: 49, 3: 12})).is_none
    assert policy.decide(load(hist={})).is_none


def test_hot_range_picks_k_hottest_blocks():
    policy = HotRangePolicy(k=2, min_entries=10)
    decision = policy.decide(load(hist={0: 30, 2: 90, 7: 60, 9: 5}))
    assert decision.action is MaintenanceAction.CHECKPOINT_RANGES
    assert decision.ranges == (
        (2 * 4096, 3 * 4096),
        (7 * 4096, 8 * 4096),
    )


def test_hot_range_coalesces_adjacent_blocks():
    policy = HotRangePolicy(k=3, min_entries=10)
    decision = policy.decide(load(hist={4: 20, 5: 30, 9: 15}))
    assert decision.ranges == (
        (4 * 4096, 6 * 4096),
        (9 * 4096, 10 * 4096),
    )


def test_policy_from_spec_parsing():
    assert isinstance(policy_from_spec(None), NeverPolicy)
    p = policy_from_spec("updates:500")
    assert isinstance(p, UpdateCountPolicy) and p.max_entries == 500
    p = policy_from_spec("hot-ranges:7")
    assert isinstance(p, HotRangePolicy) and p.k == 7
    assert policy_from_spec("hot-ranges").k == 4
    existing = HotRangePolicy(k=2)
    assert policy_from_spec(existing) is existing
    # Removed and unknown names are refused with the accepted specs.
    for spec in ("memory:4096", "never", "composite", "banana:3"):
        with pytest.raises(ValueError) as err:
            policy_from_spec(spec)
        message = str(err.value)
        assert repr(spec) in message
        for accepted in ("None", '"updates:<entries>"', '"hot-ranges:<k>"'):
            assert accepted in message
    with pytest.raises(ValueError):
        policy_from_spec(42)


# -- scheduler execution ------------------------------------------------------


def test_scheduler_checkpoints_after_commit():
    db = fresh_db(policy="updates:10")
    for i in range(12):
        db.modify("t", (i * 2,), "v", i)
    assert db.scheduler.stats.checkpoints >= 1
    # Only the updates after the last auto-checkpoint remain as deltas.
    assert db.delta_bytes("t") <= 16
    assert db.query("t", columns=["v"]).num_rows == 10_000


def test_scheduler_defers_under_concurrency_and_drains_between_queries():
    db = fresh_db(policy="updates:5")
    blocker = db.begin()
    for i in range(8):
        db.modify("t", (i * 2,), "v", 1)
    assert db.scheduler.pending()  # fired but couldn't run
    assert db.scheduler.stats.checkpoints == 0
    blocker.abort()
    db.query("t", columns=["v"])  # between-queries drain
    assert not db.scheduler.pending()
    assert db.scheduler.stats.checkpoints == 1


def test_scheduler_never_policy_leaves_deltas_alone():
    db = fresh_db(policy=None)
    for i in range(50):
        db.modify("t", (i * 2,), "v", 1)
    assert db.scheduler.stats.checkpoints == 0
    assert db.delta_bytes("t") > 0


def test_scheduler_hot_ranges_folds_only_the_hot_blocks():
    db = fresh_db(policy=HotRangePolicy(k=1, min_entries=16), block_rows=1024)
    with db.transaction() as txn:
        for i in range(20):  # all mods land in stable block 0
            txn.modify("t", (i * 2,), "v", 99)
    stats = db.scheduler.stats
    assert stats.range_checkpoints == 1
    assert stats.entries_folded == 20
    assert stats.checkpoints == 0
    rel = db.query("t", columns=["v"])
    assert int(rel["v"][:20].sum()) == 99 * 20
    assert db.table("t").num_rows == 10_000


# -- incremental range checkpoint --------------------------------------------


def setup_manager(n_rows=100):
    db = Database(block_rows=32)
    db.create_table("t", schema(), [(i * 2, i) for i in range(n_rows)])
    return db


def test_range_checkpoint_requires_quiescence():
    db = setup_manager()
    open_txn = db.begin()
    db_modifies_blocked = db.manager
    with pytest.raises(TransactionError):
        checkpoint_table_range(db_modifies_blocked, "t", 0, 32)
    open_txn.abort()


def test_range_checkpoint_clean_range_is_a_noop():
    db = setup_manager()
    db.modify("t", (0,), "v", 5)  # entry at sid 0
    before = db.table("t")
    assert checkpoint_table_range(db.manager, "t", 64, 96) == 0
    assert db.table("t") is before  # untouched image


def test_range_checkpoint_folds_middle_range_and_rebases_suffix():
    db = setup_manager()
    # Deltas in three regions: prefix (kept), middle (folded), suffix
    # (kept, SIDs rebased by the middle's net delta).
    db.modify("t", (2,), "v", 111)          # sid 1 (prefix)
    db.delete("t", (80,))                   # sid 40 (middle)
    db.insert("t", (81, 777))               # middle insert
    db.modify("t", (160,), "v", 222)        # sid 80 (suffix)
    db.delete("t", (180,))                  # sid 90 (suffix)
    expected = db.image_rows("t")

    folded = checkpoint_table_range(db.manager, "t", 32, 64)
    assert folded == 2  # the delete and the insert
    assert db.image_rows("t") == expected
    # Middle range folded: net delta 0 (one delete, one insert).
    assert db.table("t").num_rows == 100
    state = db.manager.state_of("t")
    assert state.read_pdt.count() == 3  # prefix mod + suffix mod + delete
    # Suffix entries still address the right tuples after the rebase.
    rel = db.query("t", columns=["k", "v"])
    by_key = dict(zip(rel["k"].tolist(), rel["v"].tolist()))
    assert by_key[160] == 222
    assert 180 not in by_key
    assert by_key[81] == 777


def test_range_checkpoint_to_end_folds_trailing_inserts():
    db = setup_manager(n_rows=50)
    db.insert("t", (99_999, 1))  # trailing insert (sid == 50)
    db.modify("t", (0,), "v", 42)  # prefix entry survives
    expected = db.image_rows("t")
    folded = checkpoint_table_range(db.manager, "t", 32, 10**9)
    assert folded == 1
    assert db.table("t").num_rows == 51
    assert db.image_rows("t") == expected
    assert db.manager.state_of("t").read_pdt.count() == 1


def test_range_checkpoint_random_differential():
    """Random ops + random fold ranges must preserve the merged image."""
    rng = random.Random(1234)
    db = setup_manager(n_rows=200)
    used = set()
    for step in range(6):
        for _ in range(30):
            roll = rng.random()
            if roll < 0.4:
                key = rng.randrange(400) * 2 + 1
                if key in used:
                    continue
                used.add(key)
                db.insert("t", (key, rng.randrange(1000)))
            else:
                rel = db.query("t", columns=["k"])
                keys = rel["k"].tolist()
                key = keys[rng.randrange(len(keys))]
                if roll < 0.7:
                    db.modify("t", (key,), "v", rng.randrange(1000))
                elif len(keys) > 50:
                    db.delete("t", (key,))
        expected = db.image_rows("t")
        n = db.table("t").num_rows
        lo = rng.randrange(0, max(n, 1))
        hi = lo + rng.randrange(0, 96)
        checkpoint_table_range(db.manager, "t", lo, hi)
        assert db.image_rows("t") == expected
        db.manager.state_of("t").read_pdt.check_invariants()
    # Finally fold everything and compare once more.
    expected = db.image_rows("t")
    checkpoint_table_range(db.manager, "t", 0, 10**9)
    assert db.delta_bytes("t") == 0
    assert db.image_rows("t") == expected


def test_range_checkpoint_preserves_sparse_index_queries():
    db = setup_manager(n_rows=300)
    for i in range(64, 96):  # hot block in the middle
        db.modify("t", (i * 2,), "v", i + 5000)
    checkpoint_table_range(db.manager, "t", 64, 96)
    rel = db.query_range("t", low=(130,), high=(170,), columns=["k", "v"])
    ks = rel["k"].tolist()
    assert ks == sorted(ks)
    assert ks[0] >= 130 and ks[-1] <= 170
    by_key = dict(zip(rel["k"].tolist(), rel["v"].tolist()))
    assert by_key[140] == 70 + 5000
