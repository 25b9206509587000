"""Checkpoint scheduler: the decision rules, execution, incremental folds."""

import random

import pytest

from repro import Database, DataType, Schema
from repro.txn import CheckpointScheduler, checkpoint_table_range


def schema():
    return Schema.build(
        ("k", DataType.INT64), ("v", DataType.INT64), sort_key=("k",)
    )


def fresh_db(policy=None, n_rows=10_000, block_rows=1024):
    db = Database(block_rows=block_rows, checkpoint_policy=policy)
    db.create_table("t", schema(), [(i * 2, i) for i in range(n_rows)])
    return db


def modify_sids(db, sids, value=1):
    """One commit modifying the stable tuples at ``sids`` (one PDT entry
    each, at that SID)."""
    db.apply_batch("t", [("mod", (sid * 2,), "v", value) for sid in sids])


def block_sids(block, count, block_rows):
    return range(block * block_rows, block * block_rows + count)


def decision_for(db, spec):
    """What a scheduler under ``spec`` decides for table ``t`` now.

    A live pin defers the decision, and ``pending()`` shows it exactly as
    decided (``None`` when nothing fired)."""
    scheduler = CheckpointScheduler(db.manager, spec)
    pin = db.pin_snapshot()
    scheduler.on_commit(["t"])
    pin.release()
    return scheduler.pending().get("t")


# -- the decision rules -------------------------------------------------------


def test_never_policy_never_fires():
    db = fresh_db(policy=None)
    assert db.scheduler.on_commit not in db.manager._commit_listeners
    for i in range(50):
        db.modify("t", (i * 2,), "v", 1)
    assert db.scheduler.stats.consults == 0
    assert db.scheduler.run_pending() is False
    assert not db.scheduler.pending()


def test_update_count_triggers_on_total_entries():
    db = fresh_db()
    modify_sids(db, range(80))
    db.manager.propagate_write_to_read("t")  # 80 Read-PDT entries
    modify_sids(db, range(100, 120))  # 20 Write-PDT entries
    assert decision_for(db, "updates:100") is None  # exactly at the cap
    modify_sids(db, [200])
    assert decision_for(db, "updates:100") == ("checkpoint", ())


def test_update_count_propagates_on_write_share():
    db = fresh_db()
    modify_sids(db, range(25))
    assert decision_for(db, "updates:100") is None  # 25 == 100 // 4
    modify_sids(db, [30])
    assert decision_for(db, "updates:100") == ("propagate", ())
    # The Propagate threshold never drops below one entry.
    db = fresh_db()
    modify_sids(db, range(2))
    assert decision_for(db, "updates:2") == ("propagate", ())


def test_hot_range_quiet_below_min_entries():
    db = fresh_db()
    assert decision_for(db, "hot-ranges:2") is None  # no entries at all
    modify_sids(db, [*block_sids(0, 127, 1024), *block_sids(3, 12, 1024)])
    assert decision_for(db, "hot-ranges:2") is None  # 127 < 128
    modify_sids(db, [127])
    assert decision_for(db, "hot-ranges:2") == ("ranges", ((0, 1024),))


def test_hot_range_picks_k_hottest_blocks():
    db = fresh_db(block_rows=256)
    modify_sids(db, [*block_sids(0, 130, 256), *block_sids(2, 200, 256),
                     *block_sids(7, 160, 256), *block_sids(9, 5, 256)])
    assert decision_for(db, "hot-ranges:2") == (
        "ranges", ((2 * 256, 3 * 256), (7 * 256, 8 * 256)))
    # Equal heat: the lower block index wins.
    db = fresh_db(block_rows=256)
    modify_sids(db, [*block_sids(1, 130, 256), *block_sids(3, 130, 256),
                     *block_sids(5, 130, 256)])
    assert decision_for(db, "hot-ranges:2") == (
        "ranges", ((1 * 256, 2 * 256), (3 * 256, 4 * 256)))


def test_hot_range_coalesces_adjacent_blocks():
    db = fresh_db(block_rows=256)
    modify_sids(db, [*block_sids(4, 130, 256), *block_sids(5, 140, 256),
                     *block_sids(9, 135, 256)])
    assert decision_for(db, "hot-ranges:3") == (
        "ranges", ((4 * 256, 6 * 256), (9 * 256, 10 * 256)))


def test_policy_from_spec_parsing():
    for spec in (None, "updates:500", "hot-ranges:7", "hot-ranges"):
        Database(checkpoint_policy=spec)
    # A bare "hot-ranges" folds the four hottest blocks.
    db = fresh_db(block_rows=256)
    modify_sids(db, [sid for block in (0, 2, 4, 6, 8)
                     for sid in block_sids(block, 128 + block, 256)])
    decision = decision_for(db, "hot-ranges")
    assert decision == ("ranges", tuple(
        (block * 256, (block + 1) * 256) for block in (2, 4, 6, 8)))
    # Removed, unknown and malformed specs are refused with the accepted
    # specs named.
    for spec in ("memory:4096", "never", "composite", "banana:3",
                 "updates:0", "updates:x", "updates", "hot-ranges:0",
                 42, object()):
        with pytest.raises(ValueError) as err:
            Database(checkpoint_policy=spec)
        message = str(err.value)
        assert repr(spec) in message
        for accepted in ("None", '"updates:<entries>"', '"hot-ranges:<k>"'):
            assert accepted in message


def test_removed_max_pin_age_option_raises_type_error():
    with pytest.raises(TypeError):
        Database(max_pin_age_s=1)


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
    db = fresh_db(policy="hot-ranges:1", block_rows=1024)
    with db.transaction() as txn:
        for i in range(130):  # all mods land in stable block 0
            txn.modify("t", (i * 2,), "v", 99)
    stats = db.scheduler.stats
    assert stats.range_checkpoints == 1
    assert stats.entries_folded == 130
    assert stats.checkpoints == 0
    assert db.delta_bytes("t") == 0
    rel = db.query("t", columns=["v"])
    assert int(rel["v"][:130].sum()) == 99 * 130
    assert db.table("t").num_rows == 10_000


# -- incremental range checkpoint --------------------------------------------


def setup_manager(n_rows=100):
    db = Database(block_rows=32)
    db.create_table("t", schema(), [(i * 2, i) for i in range(n_rows)])
    return db


def test_range_checkpoint_runs_under_open_txn():
    db = setup_manager()
    db.modify("t", (2,), "v", 111)           # sid 1: folded
    db.delete("t", (100,))                   # sid 50: survives
    open_txn = db.begin()
    open_txn.modify("t", (4,), "v", 222)     # inside the folded range
    open_txn.insert("t", (121, 333))         # above it
    seen = open_txn.image_rows("t")
    db.insert("t", (7, 444))                 # committed after the begin
    assert checkpoint_table_range(db.manager, "t", 0, 32) == 2
    assert open_txn.image_rows("t") == seen
    open_txn.commit()
    expected = {i * 2: i for i in range(100)}
    expected.update({2: 111, 4: 222, 121: 333, 7: 444})
    del expected[100]
    assert db.image_rows("t") == sorted(expected.items())


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
