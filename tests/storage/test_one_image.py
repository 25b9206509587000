"""A stable image is its stored blocks: the data lives once, in the block
store, and every read of it goes through a buffer pool.

Three consequences are pinned here: building an image keeps no decoded
copy beside its blocks, reopening one decodes nothing, and after a
reopen each block decode is a counted pool miss. The last test covers
the one place an outgoing image outlives its blocks in the shared store:
an explicit fold under a live pin, with remote dispatch enabled.
"""

import gc
import tracemalloc

import numpy as np
from numpy.random import default_rng

from repro import Database, DataType, Schema
from repro.exec import StaleImage
from repro.storage.blocks import BlockStore

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("a", DataType.INT64), ("b", DataType.FLOAT64),
    sort_key=("k",),
)
N_ROWS = 200_000


def seed_arrays(n=N_ROWS, seed=7):
    rng = default_rng(seed)
    return {
        "k": np.arange(n, dtype=np.int64) * 2,
        "a": rng.integers(0, 1 << 40, n, dtype=np.int64),
        "b": rng.random(n),
    }


def traced_bytes(build):
    """Bytes still allocated after ``build()`` returns (its result is
    kept alive while measuring)."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained, kept


def test_building_an_image_keeps_one_copy():
    db = Database(storage="memory", executor="thread")
    try:
        def build():
            data = seed_arrays()
            db.create_table_from_arrays("t", SCHEMA, data)
            del data

        retained, _ = traced_bytes(build)
        assert retained <= 1.3 * db.table("t").stored_bytes()
    finally:
        db.close()


def test_reopen_decodes_nothing_before_the_first_scan(tmp_path):
    data = seed_arrays()
    decoded = sum(arr.nbytes for arr in data.values())
    with Database(storage="mmap", storage_path=str(tmp_path)) as db:
        db.create_table_from_arrays("t", SCHEMA, data)
        db.apply_batch("t", [("mod", (k,), "a", -1)
                             for k in range(0, 2 * N_ROWS, 9_998)])
    del data

    retained, db = traced_bytes(
        lambda: Database.recover(str(tmp_path), executor="thread"))
    try:
        assert retained < 0.10 * decoded
        assert db.query("t").num_rows == N_ROWS
    finally:
        db.close()


def test_pool_is_the_only_reader_of_blocks(tmp_path, monkeypatch):
    n = 20_000
    with Database(storage="mmap", storage_path=str(tmp_path),
                  block_rows=1024) as db:
        db.create_table_from_arrays("t", SCHEMA, seed_arrays(n))
        db.create_sharded_table_from_arrays("u", SCHEMA, seed_arrays(n),
                                            shards=2)
        db.apply_batch("t", [("del", (k,)) for k in range(0, 2 * n, 1_002)])
        db.checkpoint("t")
        db.apply_batch("u", [("mod", (k,), "a", 0)
                             for k in range(0, 2 * n, 666)])

    reads = []
    read_block = BlockStore.read_block

    def counting_read(store, key):
        reads.append(key)
        return read_block(store, key)

    monkeypatch.setattr(BlockStore, "read_block", counting_read)
    db = Database.recover(str(tmp_path), executor="thread")
    try:
        assert db.query("t").num_rows == n - len(range(0, 2 * n, 1_002))
        assert db.query("u").num_rows == n
        pools = [db.pool] + [state.stable.pool
                             for state in db.sharded("u").shard_states()]
        misses = sum(pool.misses for pool in pools)
        assert misses > 0
        assert len(reads) == misses
    finally:
        db.close()


def test_pinned_fold_under_remote_dispatch(tmp_path):
    n = 4 * 4096  # 4,096 stable rows per shard: above the remote floor
    db = Database(storage="mmap", storage_path=str(tmp_path),
                  executor="process", workers=2)
    try:
        db.create_sharded_table_from_arrays("t", SCHEMA, seed_arrays(n),
                                            shards=4)
        db.apply_batch("t", [("mod", (k,), "a", 1) for k in range(0, 2 * n,
                                                                  2_002)])
        pin = db.pin_snapshot()
        pinned = db.query("t", pin=pin)
        db.apply_batch("t", [("mod", (k,), "a", 2) for k in range(0, 2 * n,
                                                                  1_554)]
                       + [("del", (k,)) for k in range(2, 2 * n, 2_468)])
        latest = db.query("t")
        db.checkpoint("t")  # every shard folds under the live pin
        assert all(state.read_pdt.is_empty() and state.write_pdt.is_empty()
                   for state in db.sharded("t").shard_states())

        before = db.exec_router.as_dict()
        try:
            again = db.query("t", pin=pin)
        except StaleImage:  # pragma: no cover - the failure under test
            raise AssertionError("a stale image escaped the router")
        after = db.exec_router.as_dict()
        assert after["local_jobs"] \
            >= before["local_jobs"] + db.sharded("t").num_shards
        assert after["stale_fallbacks"] == before["stale_fallbacks"]
        for c in SCHEMA.column_names:
            assert again[c].tobytes() == pinned[c].tobytes(), c
        pin.release()

        folded = db.query("t")
        for c in SCHEMA.column_names:
            assert folded[c].tobytes() == latest[c].tobytes(), c
    finally:
        db.close()
