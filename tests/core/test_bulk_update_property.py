"""Differential properties of the vectorized bulk-update path.

The scalar :class:`~tests.oracles.scalar_resolve.ScalarUpdater` applies a
batch one operation at a time, re-resolving positions per row with its
own tuple-at-a-time key walk — slow but close to the paper's pseudocode,
and sharing no resolver code with production, which makes it the oracle.
The vectorized :class:`~repro.db.update_processor.BatchUpdater` must produce
*identical* results from the same batch: the same merged table image, the
same PDT entry sequence (SIDs, RIDs, kinds, payloads), and no effect on
the stable table or its sparse index. Likewise ``propagate_batch`` (the
sorted-run merge fold) must match the per-entry ``propagate``.

Randomized batches deliberately cover the hostile shapes: ghost-tuple
inserts (insert at a boundary holding deleted keys), delete-then-reinsert
of the same key inside one batch, multi-op runs on one key, and runs that
cross stable-block and sparse-granule boundaries.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataType, FlatPDT, PDT, Schema, propagate, propagate_batch
from repro.core.stack import image_rows
from repro.core.propagate import _merge_fold
from repro.core.types import KIND_DEL, KIND_INS, PDTError, delta_of
from repro.db import BatchUpdater, DuplicateKey, KeyNotFound
from repro.storage.sparse_index import SparseIndex
from repro.storage.table import StableTable

from ..oracles.scalar_resolve import ScalarUpdater

N_STABLE = 40  # keys 0, 2, ..., 78; several 8-row sparse granules


def clone(pdt):
    """An independent copy: a tree PDT rebuilt from its entry run."""
    if isinstance(pdt, FlatPDT):
        return pdt.copy()
    out = PDT(pdt.schema, fanout=pdt.fanout)
    out.bulk_append_entries(pdt.entries())
    return out


def make_schema(n_key_cols=1):
    cols = [(f"k{i}", DataType.INT64) for i in range(n_key_cols)]
    cols += [("a", DataType.INT64), ("b", DataType.STRING)]
    return Schema.build(*cols,
                        sort_key=tuple(f"k{i}" for i in range(n_key_cols)))


def make_stable(schema, n=N_STABLE):
    n_keys = len(schema.sort_key)
    rows = [(i * 2,) * n_keys + (i, f"s{i}") for i in range(n)]
    return StableTable.bulk_load("t", schema, rows)


def materialized_entries(pdt):
    """Entry stream as comparable tuples (value-space refs normalized)."""
    out = []
    for entry in pdt.iter_entries():
        value = pdt.values.value_of(entry.kind, entry.ref)
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        out.append((entry.sid, entry.rid, entry.kind, value))
    return out


def gen_batch(rng, schema, live, n_ops, reuse_keys=False):
    """A valid op batch against ``live`` keys (mutated in place).

    ``reuse_keys`` permits several ops on one key — delete-then-reinsert,
    insert-then-modify, insert-then-delete chains.
    """
    n_keys = len(schema.sort_key)
    touched: set = set()
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        pool = sorted(live if reuse_keys else live - touched)
        if roll < 0.4 or not pool:
            k = rng.randrange(0, N_STABLE * 2 + 6)
            if k in live or (not reuse_keys and k in touched):
                continue
            key = (k,) * n_keys
            ops.append(("ins", key + (rng.randrange(1000), f"v{k}")))
            live.add(k)
            touched.add(k)
        elif roll < 0.7:
            k = rng.choice(pool)
            ops.append(("del", (k,) * n_keys))
            live.discard(k)
            touched.add(k)
        else:
            k = rng.choice(pool)
            col = rng.choice(["a", "b"])
            value = rng.randrange(1000) if col == "a" else f"m{k}"
            ops.append(("mod", (k,) * n_keys, col, value))
            touched.add(k)
    return ops


def apply_scalar(stable, layers, index, ops):
    updater = ScalarUpdater(stable, layers, index)
    for op in ops:
        if op[0] == "ins":
            updater.insert(op[1])
        elif op[0] == "del":
            updater.delete_by_key(op[1])
        else:
            updater.modify_by_key(op[1], op[2], op[3])


def assert_equivalent(stable, oracle_layers, batch_layers):
    for oracle, batch in zip(oracle_layers, batch_layers):
        assert materialized_entries(oracle) == materialized_entries(batch)
        oracle.check_invariants()
        batch.check_invariants()
    assert image_rows(stable, oracle_layers) == \
        image_rows(stable, batch_layers)


class TestBatchVersusScalarOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 30), st.booleans(),
           st.booleans())
    def test_single_layer_empty_top(self, seed, n_ops, reuse, use_flat):
        """Random batches into a fresh top layer (fast bulk-append path
        when runs are simple, scalar-primitive path otherwise)."""
        schema = make_schema()
        stable = make_stable(schema)
        index = SparseIndex(stable, granularity=8)
        rng = random.Random(seed)
        ops = gen_batch(rng, schema, {r[0] for r in stable.rows()},
                        n_ops, reuse_keys=reuse)
        cls = FlatPDT if use_flat else PDT
        oracle, batch = cls(schema), cls(schema)
        apply_scalar(stable, [oracle], index, ops)
        applied = BatchUpdater(stable, [batch], index).apply(ops)
        assert applied == len(ops)
        assert_equivalent(stable, [oracle], [batch])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 25), st.integers(1, 25))
    def test_non_empty_top_layer(self, seed, n_pre, n_ops):
        """A batch landing on a top layer that already carries updates
        must thread its positions through the existing entries."""
        schema = make_schema()
        stable = make_stable(schema)
        index = SparseIndex(stable, granularity=8)
        rng = random.Random(seed)
        live = {r[0] for r in stable.rows()}
        pre = gen_batch(rng, schema, live, n_pre, reuse_keys=True)
        ops = gen_batch(rng, schema, live, n_ops, reuse_keys=True)
        oracle, batch = PDT(schema), PDT(schema)
        apply_scalar(stable, [oracle], index, pre)
        apply_scalar(stable, [batch], index, pre)
        apply_scalar(stable, [oracle], index, ops)
        BatchUpdater(stable, [batch], index).apply(ops)
        assert_equivalent(stable, [oracle], [batch])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 20), st.integers(1, 20))
    def test_layer_stack(self, seed, n_lower, n_ops):
        """Batches address the merged image through lower layers exactly
        like the scalar path (updates land in the top layer only)."""
        schema = make_schema()
        stable = make_stable(schema)
        index = SparseIndex(stable, granularity=8)
        rng = random.Random(seed)
        live = {r[0] for r in stable.rows()}
        lower_ops = gen_batch(rng, schema, live, n_lower, reuse_keys=True)
        ops = gen_batch(rng, schema, live, n_ops, reuse_keys=True)
        lower = PDT(schema)
        apply_scalar(stable, [lower], index, lower_ops)
        oracle, batch = PDT(schema), PDT(schema)
        apply_scalar(stable, [lower, oracle], index, ops)
        BatchUpdater(stable, [lower, batch], index).apply(ops)
        assert_equivalent(stable, [lower, oracle], [lower, batch])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 25))
    def test_multi_column_keys(self, seed, n_ops):
        schema = make_schema(n_key_cols=2)
        stable = make_stable(schema)
        index = SparseIndex(stable, granularity=8)
        rng = random.Random(seed)
        ops = gen_batch(rng, schema, {r[0] for r in stable.rows()}, n_ops,
                        reuse_keys=True)
        oracle, batch = PDT(schema), PDT(schema)
        apply_scalar(stable, [oracle], index, ops)
        BatchUpdater(stable, [batch], index).apply(ops)
        assert_equivalent(stable, [oracle], [batch])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 30))
    def test_sparse_index_immaterial(self, seed, n_ops):
        """The sparse index only prunes the resolution sweep; resolving
        with and without it must be identical, and the (stale-by-design)
        index itself must be untouched by the batch."""
        schema = make_schema()
        stable = make_stable(schema)
        index = SparseIndex(stable, granularity=8)
        before = (index.num_rows, list(index._max_keys))
        rng = random.Random(seed)
        ops = gen_batch(rng, schema, {r[0] for r in stable.rows()}, n_ops,
                        reuse_keys=True)
        with_index, without = PDT(schema), PDT(schema)
        BatchUpdater(stable, [with_index], index).apply(ops)
        BatchUpdater(stable, [without], None).apply(ops)
        assert materialized_entries(with_index) == \
            materialized_entries(without)
        assert (index.num_rows, list(index._max_keys)) == before


class TestBatchEdgeCases:
    def setup_method(self):
        self.schema = make_schema()
        self.stable = make_stable(self.schema)
        self.index = SparseIndex(self.stable, granularity=8)

    def both(self, ops, pre=()):
        oracle, batch = PDT(self.schema), PDT(self.schema)
        apply_scalar(self.stable, [oracle], self.index, pre)
        apply_scalar(self.stable, [batch], self.index, pre)
        apply_scalar(self.stable, [oracle], self.index, ops)
        BatchUpdater(self.stable, [batch], self.index).apply(ops)
        assert_equivalent(self.stable, [oracle], [batch])
        return batch

    def test_ghost_boundary_insert(self):
        """Insert landing on a boundary of batch-created ghosts must skip
        ghosts with smaller keys (Algorithm 6) in both paths."""
        self.both([("del", (10,)), ("del", (12,)), ("ins", (11, 1, "x")),
                   ("ins", (13, 2, "y"))])

    def test_delete_then_reinsert_same_key(self):
        batch = self.both([("del", (20,)), ("ins", (20, 9, "re"))])
        kinds = [e[2] for e in materialized_entries(batch)]
        assert kinds == [-1, -2]  # INS ordered before its own ghost

    def test_insert_then_delete_annihilates(self):
        batch = self.both([("ins", (21, 1, "x")), ("del", (21,))])
        assert batch.count() == 0

    def test_insert_modify_delete_chain(self):
        self.both([("ins", (21, 1, "x")), ("mod", (21,), "a", 5),
                   ("del", (21,)), ("ins", (21, 7, "z"))])

    def test_batch_past_table_end(self):
        self.both([("ins", (1000, 1, "x")), ("ins", (1002, 2, "y")),
                   ("del", (78,))])

    def test_batch_against_empty_table(self):
        schema = self.schema
        empty = StableTable.bulk_load("e", schema, [])
        oracle, batch = PDT(schema), PDT(schema)
        ops = [("ins", (3, 1, "x")), ("ins", (1, 2, "y")),
               ("mod", (1,), "a", 9)]
        apply_scalar(empty, [oracle], None, ops)
        BatchUpdater(empty, [batch], None).apply(ops)
        assert_equivalent(empty, [oracle], [batch])

    def test_empty_batch(self):
        pdt = PDT(self.schema)
        assert BatchUpdater(self.stable, [pdt], self.index).apply([]) == 0
        assert pdt.is_empty()

    def test_validation_is_all_or_nothing(self):
        pdt = PDT(self.schema)
        updater = BatchUpdater(self.stable, [pdt], self.index)
        try:
            updater.apply([("ins", (11, 1, "x")), ("del", (999,))])
        except KeyNotFound:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected KeyNotFound")
        assert pdt.is_empty()  # nothing applied before the bad op

    def test_duplicate_insert_rejected(self):
        pdt = PDT(self.schema)
        updater = BatchUpdater(self.stable, [pdt], self.index)
        for bad in ([("ins", (10, 1, "x"))],
                    [("ins", (11, 1, "x")), ("ins", (11, 2, "y"))]):
            try:
                updater.apply(bad)
            except DuplicateKey:
                pass
            else:  # pragma: no cover
                raise AssertionError("expected DuplicateKey")
            assert pdt.is_empty()

    def test_sort_key_modify_rejected(self):
        updater = BatchUpdater(self.stable, [PDT(self.schema)], self.index)
        try:
            updater.apply([("mod", (10,), "k0", 11)])
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestPropagateBatch:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 20), st.integers(1, 20),
           st.booleans())
    def test_matches_scalar_propagate(self, seed, n_read, n_write, use_flat):
        """The sorted-run merge fold and the per-entry loop must agree on
        any consecutive (read, write) pair."""
        schema = make_schema()
        stable = make_stable(schema)
        rng = random.Random(seed)
        live = {r[0] for r in stable.rows()}
        cls = FlatPDT if use_flat else PDT
        read = cls(schema)
        apply_scalar(stable, [read], None,
                     gen_batch(rng, schema, live, n_read, reuse_keys=True))
        write = cls(schema)
        apply_scalar(stable, [read, write], None,
                     gen_batch(rng, schema, live, n_write, reuse_keys=True))
        scalar, batch = clone(read), clone(read)
        propagate(scalar, write)
        # The merge fold itself, at every size ratio (propagate_batch
        # would pick the scalar loop for a large read).
        merged = _merge_fold(batch, write)
        batch.clear()
        batch.bulk_append_entries(merged)
        assert materialized_entries(scalar) == materialized_entries(batch)
        scalar.check_invariants()
        batch.check_invariants()
        assert image_rows(stable, [scalar]) == image_rows(stable, [batch])

    def test_empty_read_is_bulk_copy(self):
        schema = make_schema()
        stable = make_stable(schema)
        write = PDT(schema)
        apply_scalar(stable, [write], None,
                     [("ins", (11, 1, "x")), ("del", (20,)),
                      ("mod", (30,), "a", 5)])
        read = PDT(schema)
        propagate_batch(read, write)
        assert materialized_entries(read) == materialized_entries(write)
        read.check_invariants()

    def test_heuristic_falls_back_for_small_writes(self):
        """A tiny write against a big read must still be correct through
        the auto-dispatched path (whichever it picks)."""
        schema = make_schema()
        stable = make_stable(schema)
        rng = random.Random(5)
        live = {r[0] for r in stable.rows()}
        read = PDT(schema)
        apply_scalar(stable, [read], None,
                     gen_batch(rng, schema, live, 30, reuse_keys=True))
        write = PDT(schema)
        apply_scalar(stable, [read, write], None,
                     gen_batch(rng, schema, live, 2, reuse_keys=True))
        scalar, auto = clone(read), clone(read)
        propagate(scalar, write)
        propagate_batch(auto, write)
        assert materialized_entries(scalar) == materialized_entries(auto)


def grow_scalar(pdt, triples):
    """Grow ``pdt`` from a SID-ordered run through the scalar primitives
    (Algorithms 3-5), each entry at RID = SID + the delta before it."""
    delta = 0
    for sid, kind, payload in triples:
        rid = sid + delta
        if kind == KIND_INS:
            pdt.add_insert(sid, rid, payload)
        elif kind == KIND_DEL:
            pdt.add_delete(rid, payload)
        else:
            pdt.add_modify(rid, kind, payload)
        delta += delta_of(kind)


class TestBulkAppendEntries:
    def test_tree_bulk_build_matches_scalar_appends(self):
        """A bulk build equals the tree the scalar add_* primitives grow
        from the same run, and the FlatPDT oracle's build of it."""
        schema = make_schema()
        triples = []
        for i in range(200):
            if i % 3 == 0:
                triples.append((i, KIND_INS, [i, i, f"r{i}"]))
            elif i % 3 == 1:
                triples.append((i, KIND_DEL, (i,)))
            else:
                triples.append((i, 1, i * 7))
        bulk, scalar = PDT(schema, fanout=8), PDT(schema, fanout=8)
        bulk.bulk_append_entries(triples)
        grow_scalar(scalar, triples)
        flat = FlatPDT(schema)
        flat.bulk_append_entries(triples)
        bulk.check_invariants()
        scalar.check_invariants()
        assert materialized_entries(bulk) == materialized_entries(scalar) \
            == materialized_entries(flat)

    def test_bulk_append_onto_non_empty_tree(self):
        """A run builds only an empty PDT: onto a non-empty one (tree or
        flat) it is refused, and the target keeps its entries."""
        schema = make_schema()
        for cls in (PDT, FlatPDT):
            pdt = cls(schema)
            pdt.bulk_append_entries([(1, KIND_DEL, (2,))])
            with pytest.raises(PDTError, match="non-empty"):
                pdt.bulk_append_entries([(3, KIND_DEL, (6,)), (5, 0, 9)])
            with pytest.raises(PDTError, match="non-empty"):
                pdt.bulk_append_entries([])
            pdt.check_invariants()
            assert [e.sid for e in pdt.iter_entries()] == [1]

    def test_bulk_append_rejects_disorder(self):
        schema = make_schema()
        pdt = PDT(schema)
        try:
            pdt.bulk_append_entries([(5, -2, (10,)), (3, -2, (6,))])
        except PDTError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected PDTError")
