"""Counter-based cost guards for key resolution (no clocks).

The write path's cost model is the paper's: a value-addressed update
costs one sparse-index probe plus the merge of the granule the index
points at — not a sweep, and nothing proportional to the PDT. These
tests pin that with the counters the system already keeps: blocks the
buffer pool handed out, blocks the merged sweep yielded, and (for
``PDT.memory_usage``) equality with a full tree walk.
"""

import random

import numpy as np

import repro.db.update_processor as update_processor
from repro import Database, DataType, PDT, Schema, propagate_batch
from repro.core.types import KIND_DEL, KIND_INS
from repro.db import find_insert_position, find_rid_by_key, \
    resolve_batch_positions

ROWS = 100_000
GRANULE = 4096  # the Database defaults: one stored block per granule

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("a", DataType.INT64), ("b", DataType.FLOAT64),
    sort_key=("k",),
)


def dirty_db():
    """100k rows, a populated Read-PDT (2k scattered ops, propagated) and
    a few entries in the Write-PDT above it."""
    rng = random.Random(3)
    db = Database(compressed=False)
    db.create_table_from_arrays("t", SCHEMA, {
        "k": np.arange(ROWS, dtype=np.int64) * 4,
        "a": np.arange(ROWS, dtype=np.int64),
        "b": np.zeros(ROWS),
    })
    picks = rng.sample(range(ROWS), 2100)
    ops = [("ins", (i * 4 + 1, 0, 0.0)) for i in picks[:800]]
    ops += [("del", (i * 4,)) for i in picks[800:1200]]
    ops += [("mod", (i * 4,), "a", 7) for i in picks[1200:2000]]
    db.apply_batch("t", ops)
    db.manager.propagate_write_to_read("t")
    db.apply_batch("t", [("mod", (i * 4,), "a", 9) for i in picks[2000:]])
    state = db.manager.state_of("t")
    assert state.read_pdt.count() == 2000 and state.write_pdt.count() == 100
    live = sorted(set(range(ROWS)) - set(picks))
    return db, state, live


def pool_gets(db):
    return db.pool.hits + db.pool.misses


class TestPointResolveTouchesOneGranule:
    def test_find_rid_by_key_decodes_one_key_block(self):
        db, state, live = dirty_db()
        layers = [state.read_pdt, state.write_pdt]
        image_keys = db.query("t", columns=["k"])["k"]
        for row in (live[0], live[len(live) // 2], live[-1]):
            db.make_cold()
            db.io.reset()
            gets = pool_gets(db)
            rid = find_rid_by_key(state.stable, layers, state.sparse_index,
                                  (row * 4,))
            assert image_keys[rid] == row * 4
            assert pool_gets(db) - gets == 1
            assert db.io.blocks_read == 1
            assert set(db.io.bytes_by_column) == {("t", "k")}
        db.close()

    def test_insert_position_between_granules_stays_in_one(self):
        """A key that sorts between the last row of one granule and the
        first of the next resolves inside the later granule alone."""
        db, state, _ = dirty_db()
        layers = [state.read_pdt, state.write_pdt]
        key = (GRANULE * 3 * 4 - 2,)  # after row 3*4096-1, before 3*4096
        db.make_cold()
        db.io.reset()
        find_insert_position(state.stable, layers, state.sparse_index, key)
        assert db.io.blocks_read == 1
        db.close()

    def test_autocommit_through_the_facade_reads_one_block(self):
        db, _, live = dirty_db()
        db.make_cold()
        db.io.reset()
        db.modify("t", (live[1234] * 4,), "a", 1)
        assert db.io.blocks_read == 1
        assert set(db.io.bytes_by_column) == {("t", "k")}
        db.close()


class TestSweepStopsWithItsLastKey:
    def _counted(self, monkeypatch):
        yielded = []
        real = update_processor.merge_scan_layers

        def counting(*args, **kwargs):
            for block in real(*args, **kwargs):
                yielded.append(block[0])
                yield block

        monkeypatch.setattr(update_processor, "merge_scan_layers", counting)
        return yielded

    def test_one_key_sweep_yields_one_block(self, monkeypatch):
        db, state, live = dirty_db()
        layers = [state.read_pdt, state.write_pdt]
        yielded = self._counted(monkeypatch)
        gets = pool_gets(db)
        (found, _), = resolve_batch_positions(
            state.stable, layers, state.sparse_index, [(live[500] * 4,)])
        assert found
        assert len(yielded) == 1
        assert pool_gets(db) - gets == 1
        db.close()

    def test_batch_sweep_ends_in_the_granule_of_its_last_key(
            self, monkeypatch):
        """Keys in granules 2..4 of 25: three blocks merged, three
        blocks read — none before the first key's, none after the last."""
        db, state, live = dirty_db()
        layers = [state.read_pdt, state.write_pdt]
        keys = [(r * 4,) for r in live
                if 2 * GRANULE <= r < 5 * GRANULE][::97]
        yielded = self._counted(monkeypatch)
        gets = pool_gets(db)
        resolved = resolve_batch_positions(
            state.stable, layers, state.sparse_index, keys)
        assert all(found for found, _ in resolved)
        assert len(yielded) == 3
        assert pool_gets(db) - gets == 3
        db.close()

    def test_no_index_still_stops_early(self, monkeypatch):
        db, state, live = dirty_db()
        layers = [state.read_pdt, state.write_pdt]
        yielded = self._counted(monkeypatch)
        resolve_batch_positions(state.stable, layers, None,
                                [(live[5000] * 4,)])
        assert len(yielded) == live[5000] // GRANULE + 1
        db.close()


def cold(db, read):
    """``(pool gets, blocks read, bytes by column, result)`` of ``read``
    on a cold pool."""
    db.make_cold()
    db.io.reset()
    gets = pool_gets(db)
    result = read()
    return pool_gets(db) - gets, db.io.blocks_read, \
        dict(db.io.bytes_by_column), result


class TestWindowBoundCost:
    """A read's window costs the granules the sparse index names; the
    window rule reads a bound's key only when a layer above the first
    holds an insert exactly at the bound."""

    FIRST = 5 * GRANULE  # first row of granule 5

    def test_cold_reads_without_a_bound_insert_read_what_they_scan(self):
        db, _, live = dirty_db()  # the Write-PDT holds modifies only
        # Granules 5 and 6 (a bound below a granule's last key is still
        # inside it), three columns each.
        assert cold(db, lambda: db.query_range(
            "t", (self.FIRST * 4 + 2,), ((self.FIRST + 2 * GRANULE) * 4 - 6,)
        ))[:2] == (6, 6)
        assert cold(db, lambda: db.query_point(
            "t", (live[30000] * 4,)))[:2] == (3, 3)
        db.close()

    def test_a_ghosted_bound_reads_at_most_one_key_block(self):
        db, _, live = dirty_db()
        closer = self.FIRST + GRANULE - 1  # closes granule 5
        assert closer in set(live)
        db.delete("t", (closer * 4,))
        db.manager.propagate_write_to_read("t")  # a Read-PDT ghost ...
        db.insert("t", (closer * 4 - 1, 5, 0.0))  # ... an insert at its bound
        # A window ending at the bound: its key block is the scan's own.
        gets, blocks, _, rel = cold(db, lambda: db.query_range(
            "t", (self.FIRST * 4 + 2,), (closer * 4 - 1,)))
        assert (gets, blocks) == (4, 3)
        assert rel["k"][-1] == closer * 4 - 1
        gets, blocks, _, rel = cold(db, lambda: db.query_point(
            "t", (closer * 4 - 1,)))
        assert (gets, blocks, rel.num_rows) == (4, 3, 1)
        # A window starting behind it reads the key of the granule before.
        gets, blocks, by_col, rel = cold(db, lambda: db.query_range(
            "t", ((closer + 1) * 4,), ((closer + GRANULE) * 4 - 6,)))
        assert (gets, blocks) == (4, 4)
        assert by_col[("t", "k")] == 2 * by_col[("t", "a")]
        assert rel["k"][0] == (closer + 1) * 4
        db.close()


def walked_memory_usage(pdt):
    """The paper's C model by a full tree walk — what ``memory_usage``
    computed per call before it kept a running slot count."""
    inner_slots = 0
    stack = [pdt._root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            inner_slots += len(node.children)
            stack.extend(node.children)
    return 16 * pdt.count() + 24 * inner_slots


class TestMemoryUsageIsMaintained:
    def test_equals_walk_across_every_mutation(self):
        rng = random.Random(11)
        pdt = PDT(SCHEMA, fanout=4)
        assert pdt.memory_usage() == walked_memory_usage(pdt) == 0
        # add_insert / add_modify / add_delete through splits, and removals
        # (deleting a PDT insert erases its entry) through node merges.
        size = 50
        inserted = []
        for step in range(600):
            roll = rng.random()
            if roll < 0.5 or not inserted:
                rid = rng.randrange(size + 1)
                key = (-step,)  # never compared: no ghosts in this tree
                pdt.add_insert(pdt.sk_rid_to_sid(key, rid), rid,
                               [step, 0, 0.0])
                inserted = [r + (r >= rid) for r in inserted] + [rid]
                size += 1
            elif roll < 0.8:
                rid = inserted.pop(rng.randrange(len(inserted)))
                pdt.add_delete(rid, (0,))
                inserted = [r - (r > rid) for r in inserted]
                size -= 1
            else:
                pdt.add_modify(rng.randrange(size), 1, step)
            assert pdt.memory_usage() == walked_memory_usage(pdt)
        assert pdt.depth() >= 3
        pdt.check_invariants()

        clone = pdt.copy()
        assert clone.memory_usage() == walked_memory_usage(clone)
        assert clone.count() == pdt.count()

        # Shrink: erasing every insert empties leaves, removes inner
        # nodes and collapses single-child roots.
        while inserted:
            rid = inserted.pop()
            pdt.add_delete(rid, (0,))
            inserted = [r - (r > rid) for r in inserted]
            assert pdt.memory_usage() == walked_memory_usage(pdt)
        pdt.check_invariants()

        pdt.clear()
        assert pdt.memory_usage() == walked_memory_usage(pdt) == 0

        bulk = PDT(SCHEMA, fanout=4)
        bulk.bulk_append_entries(
            [(sid, KIND_INS, [sid, 0, 0.0]) for sid in range(0, 200, 2)])
        assert bulk.depth() >= 3
        assert bulk.memory_usage() == walked_memory_usage(bulk)
        bulk.bulk_append_entries([(500, KIND_DEL, (500,))])  # append path
        assert bulk.memory_usage() == walked_memory_usage(bulk)
        bulk.check_invariants()

    def test_equals_walk_after_propagate_batch(self):
        db, state, _ = dirty_db()
        for pdt in (state.read_pdt, state.write_pdt):
            assert pdt.memory_usage() == walked_memory_usage(pdt)
        read, write = state.read_pdt.copy(), state.write_pdt
        propagate_batch(read, write)
        assert read.count() >= 2000
        assert read.memory_usage() == walked_memory_usage(read)
        assert db.delta_bytes("t") == \
            walked_memory_usage(state.read_pdt) + \
            walked_memory_usage(state.write_pdt)
        db.close()
