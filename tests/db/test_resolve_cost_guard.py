"""Counter-based cost guards for key resolution (no clocks).

The write path's cost model is the paper's: a value-addressed update
costs one sparse-index probe, the read of the stored block the index
points at, and the merge of the key's own rows inside it — the merge
narrows its window to the key in the block it already read, so every
layer exports and splices only the entries and rows at the key. Not a
sweep, and nothing proportional to the PDT or to the granule. These
tests pin that with the counters the system already keeps: blocks the
buffer pool handed out, blocks the merged sweep yielded, the rows and
entries each layer's merger was handed, and (for ``PDT.memory_usage``)
equality with a full tree walk.
"""

import random

import numpy as np

import repro.db.update_processor as update_processor
from repro import Database, DataType, PDT, Schema, propagate_batch
from repro.core.merge import BlockMerger
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
        layers = [state.read_pdt, *state.write_pdt.layers]
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
        layers = [state.read_pdt, *state.write_pdt.layers]
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
        layers = [state.read_pdt, *state.write_pdt.layers]
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
        layers = [state.read_pdt, *state.write_pdt.layers]
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
        """Without an index the sweep reads every block up to the key's,
        but the first block holds no key, so it narrows away: only the
        key's block is merged."""
        db, state, live = dirty_db()
        layers = [state.read_pdt, *state.write_pdt.layers]
        yielded = self._counted(monkeypatch)
        gets = pool_gets(db)
        resolve_batch_positions(state.stable, layers, None,
                                [(live[5000] * 4,)])
        assert live[5000] // GRANULE == 1
        assert len(yielded) == 1
        assert pool_gets(db) - gets == 2
        db.close()


class TestMergeWorkFollowsTheWindow:
    """A write's merge work follows its key, not the layer or the
    granule: the merge narrows the granule window to the key's own rows,
    and each merger is handed only those rows and the entries among
    them."""

    WINDOW_ENTRIES = 200  # ~82 per 4096-row granule at 2k per 100k rows

    def dirty_db_2k_writes(self):
        """``dirty_db`` with 1,900 more scattered ops in the Write-PDT:
        2k entries per layer."""
        db, state, live = dirty_db()
        picks = random.Random(5).sample(live, 1900)
        ops = [("ins", (i * 4 + 2, 0, 0.0)) for i in picks[:700]]
        ops += [("del", (i * 4,)) for i in picks[700:1100]]
        ops += [("mod", (i * 4,), "a", 5) for i in picks[1100:]]
        db.apply_batch("t", ops)
        assert state.read_pdt.count() == state.write_pdt.count() == 2000
        return db, state, sorted(set(live) - set(picks[700:1100]))

    def _handed(self, monkeypatch):
        handed = []
        real = BlockMerger.merge_batches

        def recording(self, batches, entries, first_rid):
            handed.append(len(entries[0]))
            return real(self, batches, entries, first_rid)

        monkeypatch.setattr(BlockMerger, "merge_batches", recording)
        return handed

    def test_cold_point_resolve(self, monkeypatch):
        db, state, live = self.dirty_db_2k_writes()
        layers = [state.read_pdt, *state.write_pdt.layers]
        handed = self._handed(monkeypatch)
        for row in (live[0], live[len(live) // 2], live[-1]):
            db.make_cold()
            handed.clear()
            find_rid_by_key(state.stable, layers, state.sparse_index,
                            (row * 4,))
            assert len(handed) == 2  # one merger per layer
            assert max(handed) < self.WINDOW_ENTRIES
        db.close()

    def test_facade_modify(self, monkeypatch):
        db, state, live = self.dirty_db_2k_writes()
        handed = self._handed(monkeypatch)
        db.make_cold()
        db.modify("t", (live[1234] * 4,), "a", 1)
        assert handed and max(handed) < self.WINDOW_ENTRIES
        db.close()

    def test_one_key_merges_at_most_two_stable_rows(self, monkeypatch):
        """A one-key resolve and a cold ``query_point`` — of a stable
        key, an inserted key and a deleted one — hand the lowest merger
        at most 2 stable rows (the key's and the next), and each merger
        above at most those plus the entries handed below it."""
        db, state, live = self.dirty_db_2k_writes()
        layers = [state.read_pdt, *state.write_pdt.layers]
        merges = []
        real = BlockMerger.merge_batches

        def recording(self, batches, entries, first_rid):
            rows = []
            merges.append((rows, len(entries[0])))

            def tap():
                for first_sid, arrays in batches:
                    rows.append(len(next(iter(arrays.values()))))
                    yield first_sid, arrays
            return real(self, tap(), entries, first_rid)

        monkeypatch.setattr(BlockMerger, "merge_batches", recording)
        image_keys = db.query("t", columns=["k"])["k"]
        inserted = [int(k) for k in image_keys if k % 4]
        gone = sorted(set(range(ROWS)) - set(live))
        keys = [(live[0] * 4,), (live[len(live) // 2] * 4,),
                (live[-1] * 4,), (gone[7] * 4,),
                (inserted[len(inserted) // 2],)]
        for key in keys:
            for read in (
                    lambda: resolve_batch_positions(
                        state.stable, layers, state.sparse_index, [key]),
                    lambda: db.query_point("t", key)):
                db.make_cold()
                merges.clear()
                read()
                assert len(merges) == 2  # one merger per layer
                (stable_rows, below), (rows, _) = merges
                assert sum(stable_rows) <= 2, key
                assert sum(rows) <= sum(stable_rows) + below, key
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
        # A window ending at the bound: its key is in the block the
        # merge read first, which costs no pool get.
        gets, blocks, _, rel = cold(db, lambda: db.query_range(
            "t", (self.FIRST * 4 + 2,), (closer * 4 - 1,)))
        assert (gets, blocks) == (3, 3)
        assert rel["k"][-1] == closer * 4 - 1
        gets, blocks, _, rel = cold(db, lambda: db.query_point(
            "t", (closer * 4 - 1,)))
        assert (gets, blocks, rel.num_rows) == (3, 3, 1)
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

        clone = PDT(pdt.schema, fanout=pdt.fanout)
        clone.bulk_append_entries(pdt.entries())
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
        bulk.add_delete(500 + bulk.total_delta(), (500,))  # at SID 500
        assert bulk.memory_usage() == walked_memory_usage(bulk)
        bulk.check_invariants()

    def test_equals_walk_after_propagate_batch(self):
        db, state, _ = dirty_db()
        for pdt in (state.read_pdt, *state.write_pdt.layers):
            assert pdt.memory_usage() == walked_memory_usage(pdt)
        (write,) = state.write_pdt.layers
        read = PDT(state.schema)
        read.bulk_append_entries(state.read_pdt.entries())
        propagate_batch(read, write)
        assert read.count() >= 2000
        assert read.memory_usage() == walked_memory_usage(read)
        assert db.delta_bytes("t") == \
            walked_memory_usage(state.read_pdt) + \
            walked_memory_usage(write)
        db.close()
