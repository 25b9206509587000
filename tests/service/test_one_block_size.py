"""One block size: every read path merges one stored block
(``BlockStore.block_rows`` rows) per batch, and a cursor block is one
merged stored block, cut into ``block_rows``-row pieces only where it
runs to twice that size or more.

The database is a dirty 4-shard table whose every shard holds both a
Read-PDT and a Write-PDT, and whose last shard ends in a trailing-insert
run longer than two stored blocks. It is built on whatever backend and executor
the environment selects (``REPRO_STORAGE_BACKEND`` / ``REPRO_EXECUTOR``),
so under the process executor on mmap the service's shard jobs run in
worker processes and the cursor blocks checked here are worker frames.

Two stored block sizes are covered: 256 rows, and 2048 rows, which is
larger than any merge size the read paths used to restate, so a path
that cuts its own smaller blocks shows up as extra merge batches.
"""

import math

import numpy as np
import pytest

import repro.core
from repro import Database, DataType, Schema
from repro.core import merge_scan_layers
from repro.core.merge import BlockMerger
from repro.engine import expr as ex
from repro.service import QueryService
from repro.storage.table import StableTable

SCHEMA = Schema.build(("k", DataType.INT64), ("v", DataType.INT64),
                      ("s", DataType.STRING), sort_key=("k",))
N_ROWS = 4 * 4400  # per shard above the remote-dispatch floor


def ops_for(step: int) -> list:
    """Inserts between the even stored keys, deletes and modifies of both
    columns, spread over every shard; ``step`` 0 and 1 touch different
    keys."""
    ops = []
    for i in range(step * 7, N_ROWS, 97):
        key = 2 * i
        ops.append(("ins", (key + 1, -i, f"new{i}")))
        if i % 3 == 0:
            ops.append(("del", (key + 2,)))
        else:
            ops.append(("mod", (key + 4,), "v", i * 11))
            ops.append(("mod", (key + 4,), "s", f"mod{i}"))
    return ops


def make_db(block_rows: int, **kwargs) -> Database:
    db = Database(compressed=False, block_rows=block_rows, **kwargs)
    keys = np.arange(N_ROWS, dtype=np.int64)
    s = np.empty(N_ROWS, dtype=object)
    s[:] = [f"s{i % 7}" for i in range(N_ROWS)]
    db.create_sharded_table_from_arrays(
        "t", SCHEMA, {"k": keys * 2, "v": keys % 1000, "s": s}, shards=4)
    db.apply_batch("t", ops_for(0))
    for name in db.sharded("t").shard_names:
        db.manager.propagate_write_to_read(name)
    db.apply_batch("t", ops_for(1))
    db.apply_batch("t", [("ins", (2 * N_ROWS + i, i, f"tail{i}"))
                         for i in range(2 * block_rows + 100)])
    for name in db.sharded("t").shard_names:
        state = db.manager.state_of(name)
        assert not state.read_pdt.is_empty()
        assert not state.write_pdt.is_empty()
    return db


@pytest.fixture(params=[256, 2048], ids=lambda n: f"block{n}")
def block_rows(request):
    return request.param


@pytest.fixture
def db(block_rows):
    db = make_db(block_rows)
    yield db
    db.close()


def stored_blocks(db) -> int:
    """Stored blocks of every shard's current stable image."""
    block_rows = db.store.block_rows
    return sum(
        math.ceil(db.manager.state_of(name).stable.num_rows / block_rows)
        for name in db.sharded("t").shard_names)


def merged_block_sizes(db, name) -> list:
    """Row counts of the merge's own blocks over a shard's latest state:
    one per non-empty merged stored block, trailing inserts last."""
    state = db.manager.state_of(name)
    layers = [state.read_pdt, *state.write_pdt.layers]
    return [len(arrays["k"]) for _, arrays in
            merge_scan_layers(state.stable, layers, ["k"])]


@pytest.mark.parametrize("columns", [None, ["v"], ["s", "k"]])
def test_service_cursor_blocks_are_stored_blocks(db, block_rows, columns):
    with db.serve(workers=2) as svc:
        cursor = svc.submit_query("t", columns=columns)
        sizes = [len(next(iter(arrays.values()))) for _, arrays in cursor]
    merged = [size for name in db.sharded("t").shard_names
              for size in merged_block_sizes(db, name)]
    expected = []
    for size in merged:
        pieces = size // block_rows
        if pieces < 2:
            expected.append(size)
        else:
            expected += [block_rows] * (pieces - 1)
            expected.append(size - (pieces - 1) * block_rows)
    assert sizes == expected
    assert max(sizes) < 2 * block_rows
    # The trailing-insert run was cut; no other block was.
    assert len(sizes) == len(merged) + 1
    assert cursor.profile.blocks == len(sizes)


def assert_identical(got, want):
    assert got.column_names == want.column_names
    for c in want.column_names:
        a, b = got[c], want[c]
        assert a.dtype == b.dtype, c
        if a.dtype == object:
            assert a.tolist() == b.tolist(), c
        else:
            assert a.tobytes() == b.tobytes(), c


AGG = ex.AggSpec(("s",), {"total": ("v", "sum"), "n": ("*", "count")})
# read -> (inline call, service call), both over the latest state
READS = {
    "full": (lambda db: db.query("t"),
             lambda svc: svc.submit_query("t")),
    "projection": (lambda db: db.query("t", columns=["s", "v"]),
                   lambda svc: svc.submit_query("t", columns=["s", "v"])),
    "range": (lambda db: db.query_range("t", (3001,), (20001,)),
              lambda svc: svc.submit_range("t", (3001,), (20001,))),
    "point": (lambda db: db.query_point("t", (8800,)),
              lambda svc: svc.submit_range("t", (8800,), (8800,))),
    "where": (lambda db: db.query("t", where=ex.lt("v", 300)),
              lambda svc: svc.submit_query("t", where=ex.lt("v", 300))),
    "aggregate": (lambda db: db.query("t", aggregate=AGG),
                  lambda svc: svc.submit_query("t", agg=AGG)),
}


@pytest.mark.parametrize("read", sorted(READS))
def test_inline_and_service_results_are_identical(db, read):
    inline, served = READS[read]
    want = inline(db)
    assert want.num_rows > 0
    with db.serve(workers=2) as svc:
        assert_identical(served(svc).to_relation(), want)


@pytest.fixture
def stable_batches(monkeypatch):
    """Row counts of the stable-scan batches every ``BlockMerger`` reads.

    Only the lowest merger of a stack reads the stable scan; the layers
    above it read merged blocks, which inserts legitimately grow past a
    stored block."""
    seen = []
    real = BlockMerger.merge_batches

    def record(batches):
        for first_sid, arrays in batches:
            seen.append(len(next(iter(arrays.values()))))
            yield first_sid, arrays

    def spy(self, batches, *args, **kwargs):
        if getattr(batches, "gi_code", None) is StableTable.scan.__code__:
            batches = record(batches)
        return real(self, batches, *args, **kwargs)

    monkeypatch.setattr(BlockMerger, "merge_batches", spy)
    return seen


def full_scan_inline(db):
    db.query("t")


def full_scan_service(db):
    with db.serve(workers=2) as svc:
        svc.submit_query("t").to_relation()


def full_scan_transaction(db):
    with db.transaction() as txn:
        txn.scan("t")


def checkpoint_fold(db):
    db.checkpoint("t")


@pytest.mark.parametrize("path", [full_scan_inline, full_scan_service,
                                  full_scan_transaction, checkpoint_fold],
                         ids=lambda f: f.__name__)
def test_merges_read_one_stored_block_per_batch(block_rows, stable_batches,
                                                path):
    # Thread executor: a worker process's merges are out of the spy's
    # reach (its frames are the cursor blocks checked above).
    db = make_db(block_rows, executor="thread")
    stable_batches.clear()  # the writes' key resolution merged too
    try:
        expected = stored_blocks(db)
        path(db)
    finally:
        db.close()
    assert stable_batches and max(stable_batches) <= block_rows
    # A full pass reads each stored block of each shard as one batch.
    assert len(stable_batches) == expected


def test_deleted_block_size_knobs_raise(db):
    # No block-size constant of its own left in the core package.
    assert not [name for name in dir(repro.core)
                if name.endswith("BLOCK_ROWS")]
    with pytest.raises(TypeError):
        QueryService(db, block_rows=256)
    with pytest.raises(TypeError):
        db.query("t", batch_rows=256)
    with pytest.raises(TypeError):
        db.query_range("t", (0,), (10,), batch_rows=256)
    with pytest.raises(TypeError):
        db.query_point("t", (0,), batch_rows=256)
    with pytest.raises(TypeError):
        db.sharded("t").scan_blocks(batch_rows=256)
    with db.transaction() as txn:
        with pytest.raises(TypeError):
            txn.scan("t", batch_rows=256)
