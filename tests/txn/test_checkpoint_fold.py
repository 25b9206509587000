"""The one stable-image rewrite, compared against the tuple oracle.

``checkpoint_table`` and ``checkpoint_table_range`` are two entry points
over one vectorized fold; ``image_rows`` (``merge_row_stream`` over the
layer stack) is no longer what a checkpoint runs, so it is what a
checkpoint is compared against here. Update batches reuse the hostile
shapes of ``tests/core/test_bulk_update_property.py`` (ghost inserts,
delete-then-reinsert, modifies of inserted rows, multi-column keys) plus a
string-keyed variant.
"""

import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DataType, Schema
from repro.core.propagate import propagate_batch
from repro.core.types import KIND_DEL, KIND_INS
from repro.storage.backend import MemoryBackend
from repro.storage.mmap_backend import MmapFileBackend
from repro.txn import checkpoint_table, checkpoint_table_range

from ..core.test_bulk_update_property import N_STABLE, gen_batch, make_schema
from ..oracles.propagate_fold import propagate_then_fold

STRING_KEYED = Schema.build(
    ("k0", DataType.STRING), ("a", DataType.INT64), ("b", DataType.STRING),
    sort_key=("k0",),
)


def _string_key(key):
    return tuple(f"k{k:04d}" for k in key)


def string_keyed(op):
    """Re-key an int-keyed op of ``gen_batch`` for :data:`STRING_KEYED`
    (zero-padded, so string order is the numeric order)."""
    if op[0] == "ins":
        return ("ins", _string_key(op[1][:1]) + tuple(op[1][1:]))
    return (op[0], _string_key(op[1])) + tuple(op[2:])


KEYINGS = {
    "int-key": (make_schema(1), lambda op: op),
    "two-column-key": (make_schema(2), lambda op: op),
    "string-key": (STRING_KEYED, string_keyed),
}


def plain(rows):
    """Rows as tuples of plain Python values (numpy scalars unwrapped)."""
    return [tuple(v.item() if hasattr(v, "item") else v for v in row)
            for row in rows]


def seed_rows(schema, rekey):
    n_keys = len(schema.sort_key)
    return [rekey(("ins", (i * 2,) * n_keys + (i, f"s{i}")))[1]
            for i in range(N_STABLE)]


@pytest.mark.parametrize("fold", ["full", "range"])
@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("keying", sorted(KEYINGS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n_read=st.integers(0, 25),
       n_write=st.integers(0, 25))
def test_fold_matches_tuple_oracle(keying, backend, fold, seed, n_read,
                                   n_write):
    schema, rekey = KEYINGS[keying]
    rng = random.Random(seed)
    live = set(range(0, N_STABLE * 2, 2))

    def batch(n_ops):
        return [rekey(op)
                for op in gen_batch(rng, schema, live, n_ops, reuse_keys=True)]

    with tempfile.TemporaryDirectory() as root:
        db = Database(
            storage="memory" if backend == "memory" else f"mmap:{root}",
            block_rows=16,
        )
        db.create_table("t", schema, seed_rows(schema, rekey))
        db.apply_batch("t", batch(n_read))
        db.manager.propagate_write_to_read("t")   # Read-PDT resident
        pinned_rows = plain(db.image_rows("t"))
        pin = db.pin_snapshot()
        db.apply_batch("t", batch(n_write))       # Write-PDT resident
        expected = plain(db.image_rows("t"))      # the tuple oracle
        state = db.manager.state_of("t")
        entries = state.read_pdt.count() + state.write_pdt.count()

        if fold == "full":
            returned = checkpoint_table(db.manager, "t")
            assert returned is state.stable
            assert state.read_pdt.is_empty() and state.write_pdt.is_empty()
            assert plain(state.stable.rows()) == expected
        else:
            lo = rng.randrange(0, N_STABLE + 2)
            hi = rng.randrange(lo, N_STABLE + 20)
            db.manager.propagate_write_to_read("t")
            entries = state.read_pdt.count()  # propagation merges chains
            folded = checkpoint_table_range(db.manager, "t", lo, hi)
            assert state.write_pdt.is_empty()
            assert folded + state.read_pdt.count() == entries
            state.read_pdt.check_invariants()
        assert plain(db.image_rows("t")) == expected
        for spec in schema.columns:
            assert state.stable.column(spec.name).dtype \
                == spec.dtype.numpy_dtype

        # The rebuilt sparse index answers key ranges like a filter of
        # the oracle rows does.
        assert state.sparse_index.num_rows == state.stable.num_rows
        n_keys = len(schema.sort_key)
        for _ in range(4):
            a, b = sorted(rng.randrange(-2, N_STABLE * 2 + 8)
                          for _ in range(2))
            low = rekey(("del", (a,) * n_keys))[1]
            high = rekey(("del", (b,) * n_keys))[1]
            assert plain(db.query_range("t", low, high).rows()) == [
                row for row in expected if low <= row[:n_keys] <= high
            ]
        assert plain(db.query("t").rows()) == expected

        # A pin taken before the fold still reads its own version.
        assert plain(db.query("t", pin=pin).rows()) == pinned_rows
        pin.release()

        if backend == "mmap":
            db.close()
            with Database.recover(root, block_rows=16) as reopened:
                assert plain(reopened.image_rows("t")) == expected
                if fold == "full" and entries:
                    assert reopened.manager.state_of("t").read_pdt.is_empty()
        else:
            db.close()


def _two_tables(**kwargs):
    schema = make_schema(1)
    db = Database(block_rows=64, **kwargs)
    for name in ("u", "v"):
        db.create_table(name, schema,
                        [(i, i, f"s{i}") for i in range(1000)])
    return db


def test_full_checkpoint_leaves_other_tables_hot():
    """A checkpoint evicts the folded table's blocks only — it used to
    clear the pool every unsharded table shares."""
    db = _two_tables()
    db.query("u")
    db.modify("v", (7,), "a", 70)
    db.checkpoint("v")
    assert db.manager.state_of("v").write_pdt.is_empty()
    misses = db.pool.misses
    db.query("u")
    assert db.pool.misses == misses
    # ...while the folded table's stale blocks are gone.
    assert not db.pool.contains("v", "a", 0)
    assert db.query_point("v", (7,)).rows()[0][1] == 70


def count_puts(monkeypatch):
    """Record the table of every block written to either backend."""
    tables = []
    for cls in (MemoryBackend, MmapFileBackend):
        def put_block(self, table, *args, _orig=cls.put_block, **kwargs):
            tables.append(table)
            return _orig(self, table, *args, **kwargs)

        monkeypatch.setattr(cls, "put_block", put_block)
    return tables


def test_clean_checkpoint_is_a_noop(storage_backend, monkeypatch):
    db = Database(storage=storage_backend, block_rows=64)
    db.create_table("t", make_schema(1), [(i, i, "s") for i in range(200)])
    stable, epoch = db.table("t"), db.table("t").image_epoch
    db.query("t")
    puts = count_puts(monkeypatch)
    assert checkpoint_table(db.manager, "t") is stable
    db.checkpoint("t")
    assert puts == []
    assert db.table("t") is stable and stable.image_epoch == epoch
    assert db.pool.contains("t", "a", 0)  # and nothing was evicted
    db.close()


def test_insert_then_delete_leaves_nothing_to_fold():
    db = Database()
    db.create_table("t", make_schema(1), [(i, i, "s") for i in range(10)])
    stable = db.table("t")
    db.insert("t", (100, 1, "x"))
    db.delete("t", (100,))
    db.checkpoint("t")
    assert db.table("t") is stable
    assert plain(db.image_rows("t")) == [(i, i, "s") for i in range(10)]


def test_checkpoint_of_an_empty_table_with_inserts():
    db = Database()
    schema = make_schema(1)
    db.create_table("t", schema, [])
    db.insert_many("t", [(3, 1, "x"), (1, 2, "y")])
    db.checkpoint("t")
    assert plain(db.table("t").rows()) == [(1, 2, "y"), (3, 1, "x")]
    assert db.manager.state_of("t").write_pdt.is_empty()
    db.delete("t", (1,))
    db.delete("t", (3,))
    db.checkpoint("t")
    assert db.table("t").num_rows == 0
    assert [db.table("t").column(c).dtype for c in schema.column_names] \
        == [spec.dtype.numpy_dtype for spec in schema.columns]


def test_sharded_checkpoint_touches_only_shards_with_deltas(tmp_path,
                                                            monkeypatch):
    """``ShardedTable.checkpoint`` folds shard by shard; a shard without
    deltas keeps its stable object, its published epoch and its blocks."""
    root = tmp_path / "db"
    schema = make_schema(1)
    db = Database(storage=f"mmap:{root}", block_rows=32)
    st_ = db.create_sharded_table(
        "t", schema, [(i, i, f"s{i}") for i in range(400)], shards=4)
    db.modify("t", (150,), "a", -1)          # shard 1 only
    hot = st_.physical_for((150,))
    assert hot == st_.shard_names[1]
    before = [(s.stable, s.stable.image_epoch) for s in st_.shard_states()]
    expected = plain(db.image_rows("t"))

    puts = count_puts(monkeypatch)
    db.checkpoint("t")
    assert set(puts) == {hot}
    after = [(s.stable, s.stable.image_epoch) for s in st_.shard_states()]
    assert [a == b for a, b in zip(after, before)] \
        == [True, False, True, True]
    assert after[1][1] != before[1][1]
    assert all(s.read_pdt.is_empty() and s.write_pdt.is_empty()
               for s in st_.shard_states())
    db.close()
    with Database.recover(root, block_rows=32) as reopened:
        assert plain(reopened.image_rows("t")) == expected
        assert plain(reopened.query("t").rows()) == expected


def test_checkpoint_under_pin_copies_no_pdt():
    """The fold merges through both layers without a Propagate first:
    under a live pin it copies no PDT, and the pinned stack keeps its
    objects and contents."""
    db = Database()
    db.create_table("t", make_schema(1), [(i, i, "s") for i in range(50)])
    db.modify("t", (3,), "a", 30)
    db.manager.propagate_write_to_read("t")
    db.modify("t", (4,), "a", 40)
    with db.pin_snapshot() as pin:
        pinned = pin.tables["t"]
        layers = (pinned.read_pdt, pinned.write_pdt)
        runs = [pdt.entries() for pdt in layers]
        copies = db.manager.stats.snapshot_copies
        db.checkpoint("t")
        assert db.manager.stats.snapshot_copies == copies
        assert (pinned.read_pdt, pinned.write_pdt) == layers
        assert [pdt.entries() for pdt in layers] == runs
        assert plain(db.query("t", pin=pin).rows())[3:5] \
            == [(3, 30, "s"), (4, 40, "s")]
    assert plain(db.table("t").rows())[3:5] == [(3, 30, "s"), (4, 40, "s")]


def test_checkpoint_with_a_transaction_open_copies_no_pdt():
    db = Database()
    db.create_table("t", make_schema(1), [(i, i, "s") for i in range(50)])
    db.modify("t", (3,), "a", 30)
    db.manager.propagate_write_to_read("t")
    db.modify("t", (4,), "a", 40)
    txn = db.begin()
    txn.modify("t", (5,), "a", 50)
    seen = txn.image_rows("t")
    copies = db.manager.stats.snapshot_copies
    db.checkpoint("t")
    state = db.manager.state_of("t")
    assert db.manager.stats.snapshot_copies == copies
    assert state.read_pdt.is_empty() and state.write_pdt.is_empty()
    assert txn.image_rows("t") == seen
    txn.commit()
    assert plain(db.image_rows("t"))[3:6] \
        == [(3, 30, "s"), (4, 40, "s"), (5, 50, "s")]


# -- differential: one merge vs Propagate-then-fold ---------------------------


def _twin(schema, rows, shards: int) -> Database:
    db = Database(block_rows=8)
    if shards:
        db.create_sharded_table("t", schema, rows, shards=shards)
    else:
        db.create_table("t", schema, rows)
    return db


def image_bytes(db, name) -> dict:
    """The encoded blocks of ``name``'s stable image, per column."""
    state = db.manager.state_of(name)
    store = state.stable.pool.store
    return {c: [store.backend.get_block(name, c, b)
                for b in range(store.column_blocks(name, c))]
            for c in state.schema.column_names}


def committed_run(state) -> list:
    """The entry run of the Read-PDT with the Write-PDT propagated into
    (a copy of) it: one run per committed stack, whatever the layering."""
    read = state.read_pdt.copy()
    propagate_batch(read, state.write_pdt)
    return read.entries()


def test_range_fold_keeps_a_write_insert_below_its_ghosted_bound():
    """The Write-PDT splits at the merge's key-tested cut: an insert at the
    window's lower bound that sorts below the ghosted bound tuple (key 18,
    deleted in the Read-PDT) stays a survivor, as the oracle keeps it."""
    rows = [(i * 2, i, f"s{i}") for i in range(40)]
    new, old = dbs = [_twin(make_schema(1), rows, 0) for _ in range(2)]
    for db in dbs:
        db.delete("t", (18,))
        db.manager.propagate_write_to_read("t")
        db.insert("t", (17, 1, "x"))
        db.modify("t", (30,), "a", -1)  # the one entry inside [10, 20)
    expected = plain(new.image_rows("t"))
    assert checkpoint_table_range(new.manager, "t", 10, 20) == 1
    propagate_then_fold(old.manager, "t", 10, 20)
    state, twin = (db.manager.state_of("t") for db in dbs)
    assert image_bytes(new, "t") == image_bytes(old, "t")
    assert state.read_pdt.entries() == twin.read_pdt.entries()
    assert [kind for _, kind, _ in state.read_pdt.entries()] \
        == [KIND_INS, KIND_DEL]
    assert plain(new.image_rows("t")) == expected


@pytest.mark.parametrize("reader", ["none", "pin", "txn"])
@pytest.mark.parametrize("shards", [0, 3])
@pytest.mark.parametrize("fold", ["full", "range"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), keying=st.sampled_from(sorted(KEYINGS)),
       n_read=st.integers(1, 25), n_write=st.integers(1, 25))
def test_fold_matches_propagate_then_fold(fold, shards, reader, seed, keying,
                                          n_read, n_write):
    """Both layers non-empty: the one-merge fold publishes the image bytes
    and survivor run of the Propagate-then-fold oracle, copies no pinned
    PDT, and leaves a reader's view and its later commit intact."""
    schema, rekey = KEYINGS[keying]
    n_keys = len(schema.sort_key)
    rng = random.Random(seed)
    live = set(range(0, N_STABLE * 2, 2))
    read_ops, write_ops = (
        [rekey(op) for op in gen_batch(rng, schema, live, n, reuse_keys=True)]
        for n in (n_read, n_write))
    new, old = dbs = [_twin(schema, seed_rows(schema, rekey), shards)
                      for _ in range(2)]
    for db in dbs:
        db.apply_batch("t", read_ops)
        for name in db.manager.physical_names("t"):
            db.manager.propagate_write_to_read(name)
        db.apply_batch("t", write_ops)
    expected = plain(new.image_rows("t"))

    readers, views = [], []
    for db in dbs:
        if reader == "pin":
            readers.append(db.pin_snapshot())
            views.append(plain(db.query("t", pin=readers[-1]).rows()))
        elif reader == "txn":
            txn = db.begin()
            if live:
                k = min(live)
                txn.modify("t", rekey(("del", (k,) * n_keys))[1], "a", -1)
            readers.append(txn)
            views.append(plain(txn.image_rows("t")))

    copies = new.manager.stats.snapshot_copies
    for name in new.manager.physical_names("t"):
        state, twin = (db.manager.state_of(name) for db in dbs)
        stable, n_rows = state.stable, state.stable.num_rows
        if fold == "full":
            lo, hi = 0, n_rows
            assert checkpoint_table(new.manager, name) is state.stable
            assert state.read_pdt.is_empty() and state.write_pdt.is_empty()
        else:
            lo = rng.randrange(0, n_rows + 2)
            hi = rng.randrange(lo, n_rows + 10)
            if not checkpoint_table_range(new.manager, name, lo, hi):
                assert state.stable is stable  # a clean window: no-op
        propagate_then_fold(old.manager, name, lo, hi)
        assert image_bytes(new, name) == image_bytes(old, name)
        assert twin.write_pdt.is_empty()
        if state.stable is not stable:
            assert state.write_pdt.is_empty()
            assert state.read_pdt.entries() == twin.read_pdt.entries()
        assert committed_run(state) == committed_run(twin)
        state.read_pdt.check_invariants()
    assert new.manager.stats.snapshot_copies == copies
    assert plain(new.image_rows("t")) == expected

    for db, r, view in zip(dbs, readers, views):
        if reader == "pin":
            assert plain(db.query("t", pin=r).rows()) == view
            r.release()
        else:
            assert plain(r.image_rows("t")) == view
            key = (N_STABLE * 2 + 9,) * n_keys
            r.insert("t", rekey(("ins", key + (7, "txn")))[1])
            final = plain(r.image_rows("t"))
            r.commit()
            assert plain(db.image_rows("t")) == final
    assert plain(new.image_rows("t")) == plain(old.image_rows("t"))
